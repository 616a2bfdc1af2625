//! Per-operation latency models.
//!
//! Every control-plane operation on a [`crate::SimHost`] charges a modeled
//! cost to the shared virtual clock. A [`LatencyModel`] maps an [`OpKind`]
//! to `base + per_mib × memory` microseconds plus bounded, seeded jitter —
//! enough structure to reproduce the *shape* of published hypervisor
//! management latencies (containers start in milliseconds, full VMs in
//! seconds; save/restore scale with guest memory) without pretending to be
//! cycle-accurate.

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::resources::MiB;

/// The control-plane operations a hypervisor exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// Persist a domain description.
    Define,
    /// Remove a persisted description.
    Undefine,
    /// Boot a domain (process spawn / domain build).
    Start,
    /// Graceful shutdown request.
    Shutdown,
    /// Hard power-off.
    Destroy,
    /// Pause vCPUs.
    Suspend,
    /// Unpause vCPUs.
    Resume,
    /// Reboot.
    Reboot,
    /// Serialize guest memory to storage (scales with memory).
    Save,
    /// Restore guest memory from storage (scales with memory).
    Restore,
    /// Query a single domain's state.
    QueryDomain,
    /// Enumerate all domains.
    ListDomains,
    /// Memory balloon / vCPU hotplug.
    SetResources,
    /// Attach or detach a device.
    DeviceChange,
    /// Take a snapshot (scales with memory).
    Snapshot,
    /// Per-page-batch cost during migration transfer.
    MigratePage,
    /// Storage pool / volume operation.
    Storage,
    /// Virtual network operation.
    Network,
    /// One round trip on the hypervisor's own remote API (ESX-style).
    RemoteApiCall,
}

/// All operation kinds, for exhaustive tests.
#[cfg(test)]
const ALL_OPS: &[OpKind] = &[
    OpKind::Define,
    OpKind::Undefine,
    OpKind::Start,
    OpKind::Shutdown,
    OpKind::Destroy,
    OpKind::Suspend,
    OpKind::Resume,
    OpKind::Reboot,
    OpKind::Save,
    OpKind::Restore,
    OpKind::QueryDomain,
    OpKind::ListDomains,
    OpKind::SetResources,
    OpKind::DeviceChange,
    OpKind::Snapshot,
    OpKind::MigratePage,
    OpKind::Storage,
    OpKind::Network,
    OpKind::RemoteApiCall,
];

/// Cost entry for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Fixed cost in microseconds.
    pub base_us: u64,
    /// Additional microseconds per MiB of domain memory involved.
    pub per_mib_ns: u64,
}

impl OpCost {
    /// A fixed cost with no memory-proportional term.
    pub const fn fixed(base_us: u64) -> Self {
        OpCost {
            base_us,
            per_mib_ns: 0,
        }
    }

    /// A cost with both fixed and per-MiB terms.
    pub const fn scaled(base_us: u64, per_mib_ns: u64) -> Self {
        OpCost {
            base_us,
            per_mib_ns,
        }
    }

    /// Total cost for an operation touching `memory`.
    fn cost_for(self, memory: MiB) -> Duration {
        Duration::from_micros(self.base_us) + Duration::from_nanos(self.per_mib_ns * memory.0)
    }
}

/// A latency model: per-operation costs plus bounded jitter.
///
/// Jitter is drawn from a seeded PRNG so two simulations with the same
/// seed produce identical timelines — determinism the test suite relies on.
#[derive(Debug)]
pub struct LatencyModel {
    costs: HashMap<OpKind, OpCost>,
    default_cost: OpCost,
    /// Jitter amplitude as percent of the deterministic cost (0 disables).
    jitter_pct: u8,
    rng: Mutex<StdRng>,
}

impl LatencyModel {
    /// A model where every operation costs zero. Useful as a baseline and
    /// for tests that only exercise logic, not timing.
    pub fn zero() -> Self {
        LatencyModel {
            costs: HashMap::new(),
            default_cost: OpCost::fixed(0),
            jitter_pct: 0,
            rng: Mutex::new(StdRng::seed_from_u64(0)),
        }
    }

    /// Creates a model with a default cost for unlisted operations.
    pub fn with_default(default_cost: OpCost) -> Self {
        LatencyModel {
            costs: HashMap::new(),
            default_cost,
            jitter_pct: 0,
            rng: Mutex::new(StdRng::seed_from_u64(0)),
        }
    }

    /// Sets the cost of one operation kind.
    pub fn set(mut self, op: OpKind, cost: OpCost) -> Self {
        self.costs.insert(op, cost);
        self
    }

    /// Enables jitter of ±`pct`% of the deterministic cost, seeded.
    pub fn with_jitter(mut self, pct: u8, seed: u64) -> Self {
        self.jitter_pct = pct.min(100);
        self.rng = Mutex::new(StdRng::seed_from_u64(seed));
        self
    }

    /// The deterministic (jitter-free) cost of `op` on `memory`.
    pub(crate) fn deterministic_cost(&self, op: OpKind, memory: MiB) -> Duration {
        self.costs
            .get(&op)
            .copied()
            .unwrap_or(self.default_cost)
            .cost_for(memory)
    }

    /// Samples the cost of `op` on `memory`, applying jitter if enabled.
    pub fn sample(&self, op: OpKind, memory: MiB) -> Duration {
        self.sample_n(op, memory, 1)
    }

    /// The sum of `n` [`LatencyModel::sample`]s: the deterministic cost
    /// times `n` without jitter, otherwise `n` draws in the order `n`
    /// single samples would make them, under one lock of the generator.
    pub(crate) fn sample_n(&self, op: OpKind, memory: MiB, n: u64) -> Duration {
        let nanos = self.deterministic_cost(op, memory).as_nanos() as u64;
        if self.jitter_pct == 0 || nanos == 0 {
            return Duration::from_nanos(nanos.saturating_mul(n));
        }
        let amplitude = nanos * self.jitter_pct as u64 / 100;
        let band = nanos - amplitude..=nanos + amplitude;
        let mut rng = self.rng.lock();
        Duration::from_nanos((0..n).map(|_| rng.gen_range(band.clone())).sum())
    }
}

impl Clone for LatencyModel {
    fn clone(&self) -> Self {
        LatencyModel {
            costs: self.costs.clone(),
            default_cost: self.default_cost,
            jitter_pct: self.jitter_pct,
            // Clone re-seeds deterministically from the jitter state; two
            // clones then evolve independently.
            rng: Mutex::new(StdRng::seed_from_u64(self.jitter_pct as u64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_costs_nothing() {
        let model = LatencyModel::zero();
        for &op in ALL_OPS {
            assert_eq!(model.sample(op, MiB(4096)), Duration::ZERO);
        }
    }

    #[test]
    fn fixed_cost_ignores_memory() {
        let cost = OpCost::fixed(150);
        assert_eq!(cost.cost_for(MiB::ZERO), Duration::from_micros(150));
        assert_eq!(cost.cost_for(MiB(100_000)), Duration::from_micros(150));
    }

    #[test]
    fn scaled_cost_grows_with_memory() {
        let cost = OpCost::scaled(1_000, 500); // 1 ms + 0.5 µs/MiB
        assert_eq!(cost.cost_for(MiB(0)), Duration::from_micros(1_000));
        assert_eq!(
            cost.cost_for(MiB(2048)),
            Duration::from_micros(1_000) + Duration::from_nanos(500 * 2048)
        );
    }

    #[test]
    fn per_op_override_beats_default() {
        let model =
            LatencyModel::with_default(OpCost::fixed(10)).set(OpKind::Start, OpCost::fixed(1_000));
        assert_eq!(
            model.deterministic_cost(OpKind::Start, MiB(1)),
            Duration::from_micros(1_000)
        );
        assert_eq!(
            model.deterministic_cost(OpKind::Destroy, MiB(1)),
            Duration::from_micros(10)
        );
    }

    #[test]
    fn jitter_stays_within_amplitude() {
        let model = LatencyModel::with_default(OpCost::fixed(1_000)).with_jitter(10, 42);
        let det = Duration::from_micros(1_000);
        for _ in 0..200 {
            let s = model.sample(OpKind::Start, MiB(0));
            assert!(s >= det - det / 10, "{s:?} below band");
            assert!(s <= det + det / 10, "{s:?} above band");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed| {
            let model = LatencyModel::with_default(OpCost::fixed(500)).with_jitter(20, seed);
            (0..10)
                .map(|_| model.sample(OpKind::Start, MiB(0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn sample_n_draws_what_n_samples_draw() {
        for jitter in [0, 20] {
            let model = || LatencyModel::with_default(OpCost::scaled(90, 3)).with_jitter(jitter, 5);
            let (single, batched) = (model(), model());
            for n in [0, 1, 7, 1000] {
                let expected: Duration = (0..n)
                    .map(|_| single.sample(OpKind::QueryDomain, MiB(64)))
                    .sum();
                assert_eq!(batched.sample_n(OpKind::QueryDomain, MiB(64), n), expected);
            }
        }
    }

    #[test]
    fn jitter_pct_is_clamped_to_100() {
        let model = LatencyModel::with_default(OpCost::fixed(100)).with_jitter(255, 1);
        for _ in 0..50 {
            // With 100% jitter the sample may reach zero but never go negative
            // (which would panic in gen_range).
            let _ = model.sample(OpKind::Start, MiB(0));
        }
    }

    #[test]
    fn all_ops_table_is_exhaustive_enough_for_sampling() {
        let model = LatencyModel::with_default(OpCost::fixed(1));
        for &op in ALL_OPS {
            assert_eq!(model.sample(op, MiB(0)), Duration::from_micros(1));
        }
    }
}
