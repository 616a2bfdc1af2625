//! Property tests over hypersim's core invariants:
//! - the domain lifecycle state machine never reaches an undefined state
//!   and resource accounting stays consistent under random operation
//!   sequences;
//! - the domain index's two keys (name and UUID) agree under random
//!   walks over every operation that adds or removes a domain;
//! - the pre-copy migration model converges iff physics allows it and
//!   never reports negative or absurd quantities.

use std::collections::BTreeSet;

use proptest::prelude::*;

use hypersim::latency::OpKind;
use hypersim::migration::simulate_precopy;
use hypersim::{
    DomainSpec, DomainState, LatencyModel, MiB, MigrationParams, SimErrorKind, SimHost,
};

/// The operations a random lifecycle walk may attempt.
fn op_strategy() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::Start),
        Just(OpKind::Shutdown),
        Just(OpKind::Destroy),
        Just(OpKind::Suspend),
        Just(OpKind::Resume),
        Just(OpKind::Reboot),
        Just(OpKind::Save),
        Just(OpKind::Restore),
    ]
}

fn apply(host: &SimHost, name: &str, op: OpKind) -> Result<(), hypersim::SimError> {
    match op {
        OpKind::Start => host.start_domain(name).map(drop),
        OpKind::Shutdown => host.shutdown_domain(name).map(drop),
        OpKind::Destroy => host.destroy_domain(name).map(drop),
        OpKind::Suspend => host.suspend_domain(name).map(drop),
        OpKind::Resume => host.resume_domain(name).map(drop),
        OpKind::Reboot => host.reboot_domain(name).map(drop),
        OpKind::Save => host.save_domain(name).map(drop),
        OpKind::Restore => host.restore_domain(name).map(drop),
        _ => Ok(()),
    }
}

/// The operations that change the domain table, plus the transitions that
/// decide which of them apply (a transient stop needs a running domain).
#[derive(Debug, Clone)]
enum TableOp {
    Define(usize),
    Undefine(usize),
    Start(usize),
    /// Undefine while running: the domain turns transient.
    Demote(usize),
    Create(usize),
    Destroy(usize),
    Crash(usize),
    HostRestart,
    /// Import a running domain, with one of the fixed UUIDs or a fresh one.
    Import(usize, Option<usize>),
    /// Adopt with one of the fixed UUIDs, inactive or running.
    Adopt(usize, usize, bool),
    Forget(usize),
}

const WALK_NAMES: usize = 5;
const WALK_UUIDS: usize = 3;

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    let name = 0..WALK_NAMES;
    prop_oneof![
        name.clone().prop_map(TableOp::Define),
        name.clone().prop_map(TableOp::Undefine),
        name.clone().prop_map(TableOp::Start),
        name.clone().prop_map(TableOp::Demote),
        name.clone().prop_map(TableOp::Create),
        name.clone().prop_map(TableOp::Destroy),
        name.clone().prop_map(TableOp::Crash),
        Just(TableOp::HostRestart),
        (name.clone(), proptest::option::of(0..WALK_UUIDS))
            .prop_map(|(n, u)| TableOp::Import(n, u)),
        (name.clone(), 0..WALK_UUIDS, any::<bool>()).prop_map(|(n, u, a)| TableOp::Adopt(n, u, a)),
        name.prop_map(TableOp::Forget),
    ]
}

fn walk_name(i: usize) -> String {
    format!("d{i}")
}

/// A fixed UUID the walk can import or adopt twice, colliding on purpose.
fn walk_uuid(i: usize) -> [u8; 16] {
    let mut uuid = [0x5a; 16];
    uuid[0] = i as u8;
    uuid
}

fn apply_table_op(host: &SimHost, op: &TableOp) {
    // 512 MiB guests on a 2 GiB host: starts, creates, imports and running
    // adoptions sometimes fail for room, exercising their error paths.
    let spec = |i: usize| DomainSpec::new(walk_name(i)).memory_mib(512);
    let _ = match *op {
        TableOp::Define(i) => host.define_domain(spec(i)).map(drop),
        TableOp::Undefine(i) => host.undefine_domain(&walk_name(i)),
        TableOp::Start(i) => host.start_domain(&walk_name(i)).map(drop),
        TableOp::Demote(i) => host.demote_domain_to_transient(&walk_name(i)),
        TableOp::Create(i) => host.create_domain(spec(i)).map(drop),
        TableOp::Destroy(i) => host.destroy_domain(&walk_name(i)).map(drop),
        TableOp::Crash(i) => host.crash_domain(&walk_name(i)).map(drop),
        TableOp::HostRestart => {
            host.crash();
            host.restart()
        }
        TableOp::Import(i, u) => host
            .import_running_domain(spec(i), u.map(walk_uuid))
            .map(drop),
        TableOp::Adopt(i, u, active) => {
            let state = if active {
                DomainState::Running
            } else {
                DomainState::Shutoff
            };
            host.adopt_domain(spec(i), walk_uuid(u), false, state, false)
                .map(drop)
        }
        TableOp::Forget(i) => host.forget_migrated_domain(&walk_name(i)),
    };
}

proptest! {
    /// After every step of a random walk over the table-changing
    /// operations: each listed domain resolves by its UUID to itself, each
    /// UUID seen before and no longer listed resolves to `NoSuchDomain`,
    /// and no two listed domains share a UUID.
    #[test]
    fn uuid_index_agrees_with_the_name_index(
        ops in proptest::collection::vec(table_op_strategy(), 1..80)
    ) {
        let host = SimHost::builder("walk").memory_mib(2048).latency(LatencyModel::zero()).build();
        let mut seen = BTreeSet::new();
        for (step, op) in ops.iter().enumerate() {
            apply_table_op(&host, op);
            let listed = host.list_domains().unwrap();
            let live: BTreeSet<[u8; 16]> = listed.iter().map(|d| d.uuid).collect();
            prop_assert_eq!(live.len(), listed.len(), "step {} ({:?}): a UUID listed twice", step, op);
            for domain in &listed {
                let found = host.domain_by_uuid(domain.uuid);
                prop_assert_eq!(
                    found.map(|d| d.name),
                    Ok(domain.name.clone()),
                    "step {} ({:?})", step, op
                );
            }
            seen.extend(live.iter().copied());
            for gone in seen.difference(&live) {
                let found = host.domain_by_uuid(*gone);
                prop_assert_eq!(
                    found.map(|d| d.name).map_err(|e| e.kind()),
                    Err(SimErrorKind::NoSuchDomain),
                    "step {} ({:?}): a removed UUID still resolves", step, op
                );
            }
        }
    }

    /// After any sequence of lifecycle operations (some succeeding, some
    /// rejected), the host's memory ledger equals the sum of the memory of
    /// active domains — no leaks, no double-frees.
    #[test]
    fn resource_accounting_is_exact_under_random_walks(
        ops in proptest::collection::vec((0usize..3, op_strategy()), 1..60)
    ) {
        let host = SimHost::builder("prop").memory_mib(8192).latency(LatencyModel::zero()).build();
        let names = ["a", "b", "c"];
        for (i, name) in names.iter().enumerate() {
            host.define_domain(DomainSpec::new(*name).memory_mib(512 * (i as u64 + 1))).unwrap();
        }
        for (idx, op) in ops {
            let _ = apply(&host, names[idx], op);
        }
        let expected_used: u64 = host
            .list_domains()
            .unwrap()
            .iter()
            .filter(|d| d.state.is_active())
            .map(|d| d.memory.0)
            .sum();
        let info = host.info();
        prop_assert_eq!(info.memory.0 - info.free_memory.0, expected_used);
    }

    /// Persistent domains never disappear from random lifecycle walks.
    #[test]
    fn persistent_domains_survive_random_walks(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let host = SimHost::builder("prop").latency(LatencyModel::zero()).build();
        host.define_domain(DomainSpec::new("vm")).unwrap();
        for op in ops {
            let _ = apply(&host, "vm", op);
        }
        prop_assert_eq!(host.list_domains().unwrap().len(), 1);
    }

    /// Migration totals are internally consistent for any parameters:
    /// transferred ≥ memory (everything is copied at least once when the
    /// first round runs), total_time ≥ downtime, and an idle guest always
    /// converges.
    #[test]
    fn migration_outcome_is_consistent(
        mem in 1u64..32_768,
        dirty in 0u64..4_000,
        bw in 1u64..4_000,
    ) {
        let params = MigrationParams::new(MiB(mem), dirty, bw);
        let outcome = simulate_precopy(&params).unwrap();
        prop_assert!(outcome.total_time >= outcome.downtime);
        prop_assert!(outcome.transferred >= MiB(mem.min(outcome.rounds.first().map(|r| r.copied.0).unwrap_or(0))));
        if dirty == 0 {
            prop_assert!(outcome.converged);
            prop_assert!(outcome.iterations() <= 1);
        }
        if outcome.converged {
            // Converged means the final dirty set fits the budget.
            prop_assert!(
                outcome.downtime.as_secs_f64() <= params.downtime_limit.as_secs_f64() + 1e-9
            );
        }
    }

    /// The dirty-rate/bandwidth crossover: strictly slower dirtying than
    /// bandwidth converges; dirtying at/above bandwidth never does (unless
    /// the guest is small enough to fit the budget outright).
    #[test]
    fn migration_crossover(mem in 2_048u64..16_384, bw in 100u64..2_000) {
        let slow = simulate_precopy(&MigrationParams::new(MiB(mem), bw / 2, bw)).unwrap();
        prop_assert!(slow.converged);
        let threshold = (bw as f64 * 0.3) as u64;
        if mem > threshold {
            let fast = simulate_precopy(&MigrationParams::new(MiB(mem), bw * 2, bw)).unwrap();
            prop_assert!(!fast.converged);
        }
    }
}

/// CPU-time accounting: a domain accrues vCPU-time only while Running,
/// proportionally to elapsed virtual time × vCPUs.
#[test]
fn cpu_time_accrues_only_while_running() {
    use std::time::Duration;
    let clock = hypersim::SimClock::new();
    let host = SimHost::builder("cpu")
        .clock(clock.clone())
        .latency(LatencyModel::zero())
        .build();
    host.define_domain(DomainSpec::new("vm").vcpus(2)).unwrap();
    assert_eq!(host.domain("vm").unwrap().cpu_time_ns, 0);

    host.start_domain("vm").unwrap();
    clock.advance(Duration::from_secs(10));
    // 10 s × 2 vcpus.
    assert_eq!(host.domain("vm").unwrap().cpu_time_ns, 20_000_000_000);

    host.suspend_domain("vm").unwrap();
    clock.advance(Duration::from_secs(100)); // paused: no accrual
    assert_eq!(host.domain("vm").unwrap().cpu_time_ns, 20_000_000_000);

    host.resume_domain("vm").unwrap();
    clock.advance(Duration::from_secs(5));
    assert_eq!(host.domain("vm").unwrap().cpu_time_ns, 30_000_000_000);

    host.destroy_domain("vm").unwrap();
    clock.advance(Duration::from_secs(100));
    // Accumulated time survives the stop.
    assert_eq!(host.domain("vm").unwrap().cpu_time_ns, 30_000_000_000);
}

/// Snapshot revert restores state + memory with exact resource accounting.
#[test]
fn snapshot_revert_restores_state_and_accounting() {
    let host = SimHost::builder("snap")
        .memory_mib(8192)
        .latency(LatencyModel::zero())
        .build();
    host.define_domain(DomainSpec::new("vm").memory_mib(1024).max_memory_mib(4096))
        .unwrap();
    host.start_domain("vm").unwrap();
    host.snapshot_domain("vm", "running-1g").unwrap();

    // Mutate: balloon up and pause.
    host.set_domain_memory("vm", hypersim::MiB(4096)).unwrap();
    host.suspend_domain("vm").unwrap();
    assert_eq!(host.info().free_memory, hypersim::MiB(8192 - 4096));

    // Revert: running again at 1024 MiB.
    let info = host.revert_snapshot("vm", "running-1g").unwrap();
    assert_eq!(info.state, hypersim::DomainState::Running);
    assert_eq!(info.memory, hypersim::MiB(1024));
    assert_eq!(host.info().free_memory, hypersim::MiB(8192 - 1024));

    // Revert to an inactive snapshot releases everything.
    host.destroy_domain("vm").unwrap();
    host.snapshot_domain("vm", "off").unwrap();
    host.start_domain("vm").unwrap();
    host.revert_snapshot("vm", "off").unwrap();
    assert_eq!(
        host.domain("vm").unwrap().state,
        hypersim::DomainState::Shutoff
    );
    assert_eq!(host.info().free_memory, hypersim::MiB(8192));

    // Delete.
    host.delete_snapshot("vm", "off").unwrap();
    assert!(host.delete_snapshot("vm", "off").is_err());
    assert_eq!(host.domain("vm").unwrap().snapshots, vec!["running-1g"]);
}
