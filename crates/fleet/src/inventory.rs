//! Per-host inventory cache.
//!
//! The fleet manager keeps one [`HostInventory`] per member host: the
//! node's capacity facts plus a compact summary of every domain on it.
//! The cache is **push-refreshed**:
//!
//! - a full refresh costs exactly two RPCs per host — `node_info` plus
//!   the bulk `domstats` call (`Connect::for_each_domain_stats`), never
//!   one round trip per domain;
//! - between refreshes, the host's lifecycle event stream keeps the
//!   cache honest: cheap transitions (started/stopped/migrated-out/…)
//!   are applied in place, while events that introduce state the event
//!   doesn't carry (a new definition's memory size, say) mark the cache
//!   *dirty* so the next reader refreshes that host — and only that
//!   host.

use std::time::Instant;

use virt_core::driver::NodeInfo;
use virt_core::typedparam::{stats_field, ParamValue, TypedParam};
use virt_core::{DomainEventKind, DomainState};

/// One domain's entry in the inventory: the subset of the bulk-stats
/// reply a fleet view needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSummary {
    /// Domain name, unique per host.
    pub name: String,
    /// Lifecycle state.
    pub state: DomainState,
    /// Current memory in MiB.
    pub memory_mib: u64,
    /// Balloon ceiling in MiB.
    pub max_memory_mib: u64,
    /// vCPU count.
    pub vcpus: u32,
    /// Active background job, if any (`job.kind` stat).
    pub job: Option<String>,
}

impl DomainSummary {
    /// Extracts the summary from one domain's bulk-stats row.
    pub(crate) fn from_stats(name: &str, params: &[TypedParam]) -> Self {
        let mut summary = DomainSummary {
            name: name.to_string(),
            state: DomainState::Shutoff,
            memory_mib: 0,
            max_memory_mib: 0,
            vcpus: 0,
            job: None,
        };
        for param in params {
            match (&*param.field, &param.value) {
                (stats_field::STATE, ParamValue::UInt(v)) => {
                    summary.state = DomainState::from(*v);
                }
                (stats_field::BALLOON_CURRENT, ParamValue::ULLong(v)) => summary.memory_mib = *v,
                (stats_field::BALLOON_MAXIMUM, ParamValue::ULLong(v)) => {
                    summary.max_memory_mib = *v;
                }
                (stats_field::VCPU_CURRENT, ParamValue::UInt(v)) => summary.vcpus = *v,
                (stats_field::JOB_KIND, ParamValue::Str(v)) => summary.job = Some(v.clone()),
                _ => {}
            }
        }
        summary
    }
}

/// The cached view of one member host.
#[derive(Debug, Clone)]
pub(crate) struct HostInventory {
    /// Node capacity facts from the last full refresh; `None` until the
    /// host has been reached at least once.
    pub node: Option<NodeInfo>,
    /// Domain summaries from the last full refresh, patched by events.
    pub domains: Vec<DomainSummary>,
    /// When the last full refresh landed.
    pub refreshed_at: Option<Instant>,
    /// Set when an event carried state the patch could not reconstruct;
    /// the next reader runs a full refresh for this host.
    pub dirty: bool,
}

impl Default for HostInventory {
    fn default() -> Self {
        HostInventory {
            node: None,
            domains: Vec::new(),
            refreshed_at: None,
            // A host that has never been refreshed has everything to learn.
            dirty: true,
        }
    }
}

impl HostInventory {
    /// Installs a full refresh.
    pub(crate) fn install(&mut self, node: NodeInfo, domains: Vec<DomainSummary>) {
        self.node = Some(node);
        self.domains = domains;
        self.refreshed_at = Some(Instant::now());
        self.dirty = false;
    }

    /// Running domains.
    pub(crate) fn active(&self) -> usize {
        self.domains.iter().filter(|d| d.state.is_active()).count()
    }

    /// Applies one lifecycle event in place. Returns `true` when the
    /// patch was complete; `false` marks the inventory dirty because the
    /// event names state the cache has never seen (a definition's size,
    /// a migrated-in guest's shape).
    pub(crate) fn apply_event(&mut self, domain: &str, kind: DomainEventKind) -> bool {
        let known = self.domains.iter_mut().find(|d| d.name == domain);
        let patched = match (kind, known) {
            // Removals are complete no matter what we knew.
            (DomainEventKind::Undefined | DomainEventKind::MigratedOut, _) => {
                self.domains.retain(|d| d.name != domain);
                true
            }
            // In-place state flips on a known domain.
            (DomainEventKind::Started | DomainEventKind::Restored, Some(d)) => {
                d.state = DomainState::Running;
                true
            }
            (DomainEventKind::Suspended, Some(d)) => {
                d.state = DomainState::Paused;
                true
            }
            (DomainEventKind::Resumed, Some(d)) => {
                d.state = DomainState::Running;
                true
            }
            (DomainEventKind::Stopped, Some(d)) => {
                d.state = DomainState::Shutoff;
                true
            }
            (DomainEventKind::Saved, Some(d)) => {
                d.state = DomainState::Saved;
                true
            }
            (DomainEventKind::Crashed, Some(d)) => {
                d.state = DomainState::Crashed;
                true
            }
            // Job events never change the capacity picture.
            (
                DomainEventKind::JobStarted
                | DomainEventKind::JobCompleted
                | DomainEventKind::JobFailed
                | DomainEventKind::JobAborted,
                _,
            ) => true,
            // New state the event doesn't describe: full refresh needed.
            _ => false,
        };
        if !patched {
            self.dirty = true;
        }
        patched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virt_core::driver::{DomainRecord, DomainStatsRecord};
    use virt_core::job::JobStats;
    use virt_core::uuid::Uuid;

    fn record(name: &str, state: DomainState, memory: u64) -> DomainStatsRecord {
        let domain = DomainRecord {
            name: name.to_string(),
            uuid: Uuid::from_bytes([7; 16]),
            id: state.is_active().then_some(1),
            state,
            memory_mib: memory,
            max_memory_mib: memory,
            vcpus: 2,
            persistent: true,
            has_managed_save: false,
            autostart: false,
            cpu_time_ns: 0,
        };
        DomainStatsRecord::compose(&domain, &JobStats::default())
    }

    #[test]
    fn summary_parses_bulk_stats_params() {
        let web = record("web", DomainState::Running, 512);
        let summary = DomainSummary::from_stats(&web.name, &web.params);
        assert_eq!(summary.name, "web");
        assert_eq!(summary.state, DomainState::Running);
        assert_eq!(summary.memory_mib, 512);
        assert_eq!(summary.vcpus, 2);
        assert!(summary.job.is_none());
    }

    #[test]
    fn events_patch_known_domains_in_place() {
        let web = record("web", DomainState::Shutoff, 512);
        let mut inv = HostInventory::default();
        inv.install(
            NodeInfo {
                hostname: "h".into(),
                hypervisor: "qemu".into(),
                cpus: 8,
                memory_mib: 8192,
                free_memory_mib: 8192,
                active_domains: 0,
                inactive_domains: 1,
            },
            vec![DomainSummary::from_stats("web", &web.params)],
        );
        assert!(inv.apply_event("web", DomainEventKind::Started));
        assert_eq!(inv.domains[0].state, DomainState::Running);
        assert_eq!(inv.active(), 1);
        assert!(!inv.dirty);

        assert!(inv.apply_event("web", DomainEventKind::Stopped));
        assert_eq!(inv.active(), 0);

        assert!(inv.apply_event("web", DomainEventKind::Undefined));
        assert!(inv.domains.is_empty());
        assert!(!inv.dirty);
    }

    #[test]
    fn unknown_state_marks_dirty() {
        let mut inv = HostInventory::default();
        inv.install(
            NodeInfo {
                hostname: "h".into(),
                hypervisor: "qemu".into(),
                cpus: 8,
                memory_mib: 8192,
                free_memory_mib: 8192,
                active_domains: 0,
                inactive_domains: 0,
            },
            Vec::new(),
        );
        // A definition event doesn't carry the domain's size — the cache
        // cannot patch it and must refresh.
        assert!(!inv.apply_event("new-vm", DomainEventKind::Defined));
        assert!(inv.dirty);
    }
}
