//! Pluggable capacity-aware placement.
//!
//! A placement policy answers one question: given a domain request and
//! the current capacity view of every reachable host, which host should
//! run it? The contract is deliberately small so policies stay pure and
//! testable:
//!
//! - a policy **scores** each candidate (`None` means "cannot take it");
//! - the manager picks the highest score, breaking ties by host name so
//!   placement is deterministic for a given capacity snapshot;
//! - a request no host can take is an **admission rejection**
//!   ([`virt_core::ErrorCode::InsufficientResources`]), surfaced to the
//!   caller before any RPC is issued.
//!
//! The three built-in policies cover the classic trade-offs:
//!
//! | policy            | goal                                        |
//! |-------------------|---------------------------------------------|
//! | [`Spread`]        | even domain counts — failure-blast-radius   |
//! | [`Pack`]          | fewest hosts used — consolidation/power     |
//! | [`MemoryWeighted`]| most free memory after placement — headroom |

/// What a placement request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementRequest {
    /// Domain name (used only for diagnostics; uniqueness is enforced by
    /// the target host at define time).
    pub name: String,
    /// Requested memory in MiB.
    pub memory_mib: u64,
    /// Requested vCPUs.
    pub vcpus: u32,
}

impl PlacementRequest {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, memory_mib: u64, vcpus: u32) -> Self {
        PlacementRequest {
            name: name.into(),
            memory_mib,
            vcpus,
        }
    }
}

/// One host's capacity as seen by the placement pass: the inventory
/// cache's node snapshot minus reservations for placements still in
/// flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostCapacity {
    /// Fleet-level host name.
    pub host: String,
    /// Physical CPUs.
    pub cpus: u32,
    /// Physical memory in MiB.
    pub memory_mib: u64,
    /// Free memory in MiB, net of in-flight reservations.
    pub free_memory_mib: u64,
    /// Running domains.
    pub active_domains: u32,
    /// All defined domains (active + inactive).
    pub total_domains: u32,
}

impl HostCapacity {
    /// The shared admission check: can this host take the request at
    /// all? Policies call this first so "unfit" means the same thing
    /// everywhere — enough free memory and enough physical CPUs (the
    /// simulated hosts overcommit vCPUs, but a guest wider than the
    /// host is misconfigured, not overcommitted).
    pub fn fits(&self, request: &PlacementRequest) -> bool {
        self.free_memory_mib >= request.memory_mib && self.cpus >= request.vcpus
    }
}

/// A placement policy: scores candidates, higher wins.
pub trait PlacementPolicy: Send + Sync {
    /// Policy name, as accepted by [`policy_by_name`].
    fn name(&self) -> &'static str;

    /// Scores `host` for `request`; `None` rejects the candidate.
    fn score(&self, request: &PlacementRequest, host: &HostCapacity) -> Option<f64>;
}

/// Prefer the host with the fewest defined domains — spreads load and
/// failure blast radius evenly. Free memory breaks ties between equally
/// loaded hosts.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Spread;

impl PlacementPolicy for Spread {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn score(&self, request: &PlacementRequest, host: &HostCapacity) -> Option<f64> {
        if !host.fits(request) {
            return None;
        }
        let free_frac = (host.free_memory_mib as f64) / (host.memory_mib.max(1) as f64);
        Some(-(host.total_domains as f64) + free_frac * 0.5)
    }
}

/// Prefer the fullest host that still fits — packs domains onto as few
/// hosts as possible, leaving the rest empty for maintenance or
/// power-down.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pack;

impl PlacementPolicy for Pack {
    fn name(&self) -> &'static str {
        "pack"
    }

    fn score(&self, request: &PlacementRequest, host: &HostCapacity) -> Option<f64> {
        if !host.fits(request) {
            return None;
        }
        // Smallest leftover free memory wins.
        Some(-((host.free_memory_mib - request.memory_mib) as f64))
    }
}

/// Prefer the host with the most absolute free memory after placement —
/// keeps per-host ballooning headroom as large as possible.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MemoryWeighted;

impl PlacementPolicy for MemoryWeighted {
    fn name(&self) -> &'static str {
        "memweight"
    }

    fn score(&self, request: &PlacementRequest, host: &HostCapacity) -> Option<f64> {
        if !host.fits(request) {
            return None;
        }
        Some((host.free_memory_mib - request.memory_mib) as f64)
    }
}

/// Resolves a policy by its CLI name (`spread`, `pack`, `memweight`).
pub fn policy_by_name(name: &str) -> Option<Box<dyn PlacementPolicy>> {
    match name {
        "spread" => Some(Box::new(Spread)),
        "pack" => Some(Box::new(Pack)),
        "memweight" | "memory-weighted" => Some(Box::new(MemoryWeighted)),
        _ => None,
    }
}

/// Runs one placement pass: scores every candidate and returns the
/// winning host name, ties broken by name. `None` means admission
/// rejection — no host fits.
pub(crate) fn choose(
    policy: &dyn PlacementPolicy,
    request: &PlacementRequest,
    candidates: &[HostCapacity],
) -> Option<String> {
    let mut best: Option<(f64, &str)> = None;
    for candidate in candidates {
        let Some(score) = policy.score(request, candidate) else {
            continue;
        };
        let better = match best {
            None => true,
            Some((best_score, best_name)) => {
                score > best_score || (score == best_score && candidate.host.as_str() < best_name)
            }
        };
        if better {
            best = Some((score, candidate.host.as_str()));
        }
    }
    best.map(|(_, name)| name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(name: &str, free: u64, total_domains: u32) -> HostCapacity {
        HostCapacity {
            host: name.to_string(),
            cpus: 16,
            memory_mib: 16 * 1024,
            free_memory_mib: free,
            active_domains: total_domains,
            total_domains,
        }
    }

    fn req(mem: u64) -> PlacementRequest {
        PlacementRequest::new("vm", mem, 1)
    }

    #[test]
    fn spread_prefers_emptiest_host() {
        let hosts = [host("a", 8000, 5), host("b", 8000, 2), host("c", 8000, 9)];
        assert_eq!(choose(&Spread, &req(512), &hosts), Some("b".to_string()));
    }

    #[test]
    fn pack_prefers_fullest_fitting_host() {
        let hosts = [host("a", 8000, 1), host("b", 600, 7), host("c", 3000, 3)];
        assert_eq!(choose(&Pack, &req(512), &hosts), Some("b".to_string()));
    }

    #[test]
    fn memory_weighted_prefers_most_headroom() {
        let hosts = [host("a", 4000, 1), host("b", 9000, 7), host("c", 3000, 3)];
        assert_eq!(
            choose(&MemoryWeighted, &req(512), &hosts),
            Some("b".to_string())
        );
    }

    #[test]
    fn unfit_hosts_are_rejected() {
        // b is emptiest but has no memory left; vcpus wider than the
        // host also reject.
        let hosts = [host("a", 8000, 5), host("b", 100, 0)];
        assert_eq!(choose(&Spread, &req(512), &hosts), Some("a".to_string()));
        let wide = PlacementRequest::new("vm", 64, 128);
        assert_eq!(choose(&Spread, &wide, &hosts), None);
    }

    #[test]
    fn admission_rejection_when_nothing_fits() {
        let hosts = [host("a", 100, 1), host("b", 200, 1)];
        assert_eq!(choose(&Spread, &req(512), &hosts), None);
    }

    #[test]
    fn ties_break_deterministically_by_name() {
        let hosts = [host("b", 8000, 3), host("a", 8000, 3)];
        assert_eq!(choose(&Pack, &req(512), &hosts), Some("a".to_string()));
    }

    #[test]
    fn policies_resolve_by_name() {
        for name in ["spread", "pack", "memweight"] {
            assert!(policy_by_name(name).is_some(), "{name}");
        }
        assert!(policy_by_name("bogus").is_none());
    }
}
