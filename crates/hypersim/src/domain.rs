//! Simulated domains (virtual machines / containers) and their lifecycle
//! state machine.

use std::fmt;

use crate::clock::SimTime;
use crate::error::{SimError, SimErrorKind, SimResult};
use crate::latency::OpKind;
use crate::resources::MiB;

/// Lifecycle state of a domain, mirroring the states a hypervisor reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainState {
    /// Defined but not running.
    Shutoff,
    /// Executing on the host.
    Running,
    /// vCPUs paused, memory resident.
    Paused,
    /// Memory serialized to storage; can be restored.
    Saved,
    /// The guest crashed.
    Crashed,
}

impl DomainState {
    /// `true` for states where the domain consumes host resources
    /// (running or paused).
    pub fn is_active(self) -> bool {
        matches!(self, DomainState::Running | DomainState::Paused)
    }
}

impl fmt::Display for DomainState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DomainState::Shutoff => "shut off",
            DomainState::Running => "running",
            DomainState::Paused => "paused",
            DomainState::Saved => "saved",
            DomainState::Crashed => "crashed",
        };
        f.write_str(s)
    }
}

/// Validates a lifecycle operation against the current state, returning
/// the state the domain enters on success.
///
/// This is *the* invariant of the control plane: only these transitions
/// exist, everything else is [`SimErrorKind::InvalidState`].
pub(crate) fn transition(state: DomainState, op: OpKind) -> SimResult<DomainState> {
    use DomainState::*;
    use OpKind::*;
    let next = match (state, op) {
        (Shutoff, Start) => Running,
        (Saved, Restore) => Running,
        (Saved, Start) => Running, // starting a saved domain discards nothing here; managed save handled by host
        (Running, Shutdown) => Shutoff,
        (Running, Destroy) | (Paused, Destroy) | (Crashed, Destroy) => Shutoff,
        (Running, Suspend) => Paused,
        (Paused, Resume) => Running,
        (Running, Reboot) => Running,
        (Running, Save) | (Paused, Save) => Saved,
        (Running, Snapshot) | (Paused, Snapshot) | (Shutoff, Snapshot) => state,
        (Running, SetResources) | (Paused, SetResources) | (Shutoff, SetResources) => state,
        (Running, DeviceChange) | (Shutoff, DeviceChange) => state,
        (Crashed, Start) => Running,
        _ => {
            return Err(SimError::new(
                SimErrorKind::InvalidState,
                format!("cannot apply {op:?} while {state}"),
            ))
        }
    };
    Ok(next)
}

/// A virtual disk attached to a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimDisk {
    /// Guest-visible device name, e.g. `vda`.
    pub target: String,
    /// Backing path (volume path or file).
    pub source: String,
    /// Capacity of the disk.
    pub capacity: MiB,
    /// Bus, e.g. `virtio`, `ide`, `scsi`.
    pub bus: String,
}

/// A virtual network interface attached to a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimNic {
    /// MAC address in `aa:bb:cc:dd:ee:ff` form.
    pub mac: String,
    /// Name of the virtual network the NIC connects to.
    pub network: String,
    /// Model, e.g. `virtio`.
    pub model: String,
}

/// The description from which a domain is created.
///
/// Built with a fluent API:
///
/// ```
/// use hypersim::DomainSpec;
/// let spec = DomainSpec::new("db").memory_mib(4096).vcpus(4).transient();
/// assert_eq!(spec.name(), "db");
/// assert!(!spec.is_persistent());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSpec {
    name: String,
    memory: MiB,
    max_memory: MiB,
    vcpus: u32,
    persistent: bool,
    disks: Vec<SimDisk>,
    nics: Vec<SimNic>,
    /// Rate at which the running guest dirties memory, for migration
    /// modeling, in MiB/s.
    dirty_rate_mib_s: u64,
}

impl DomainSpec {
    /// Creates a spec with defaults: 512 MiB, 1 vCPU, persistent.
    pub fn new(name: impl Into<String>) -> Self {
        DomainSpec {
            name: name.into(),
            memory: MiB(512),
            max_memory: MiB(512),
            vcpus: 1,
            persistent: true,
            disks: Vec::new(),
            nics: Vec::new(),
            dirty_rate_mib_s: 100,
        }
    }

    /// Sets current and maximum memory together.
    pub fn memory_mib(mut self, mib: u64) -> Self {
        self.memory = MiB(mib);
        if self.max_memory < self.memory {
            self.max_memory = self.memory;
        }
        self
    }

    /// Sets the memory ceiling for ballooning.
    pub fn max_memory_mib(mut self, mib: u64) -> Self {
        self.max_memory = MiB(mib);
        self
    }

    /// Sets the vCPU count.
    pub fn vcpus(mut self, vcpus: u32) -> Self {
        self.vcpus = vcpus;
        self
    }

    /// Marks the domain transient: it disappears when stopped or when the
    /// managing daemon forgets it (stateful drivers).
    pub fn transient(mut self) -> Self {
        self.persistent = false;
        self
    }

    /// Adds a disk.
    pub fn disk(mut self, disk: SimDisk) -> Self {
        self.disks.push(disk);
        self
    }

    /// Adds a network interface.
    pub fn nic(mut self, nic: SimNic) -> Self {
        self.nics.push(nic);
        self
    }

    /// Sets the guest's memory dirty rate (MiB/s) used by migration.
    pub fn dirty_rate_mib_s(mut self, rate: u64) -> Self {
        self.dirty_rate_mib_s = rate;
        self
    }

    /// The domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured memory.
    pub fn memory(&self) -> MiB {
        self.memory
    }

    /// Configured memory ceiling.
    pub fn max_memory(&self) -> MiB {
        self.max_memory
    }

    /// Configured vCPUs.
    pub fn vcpu_count(&self) -> u32 {
        self.vcpus
    }

    /// Whether the domain survives being stopped.
    pub fn is_persistent(&self) -> bool {
        self.persistent
    }

    /// Attached disks.
    pub fn disks(&self) -> &[SimDisk] {
        &self.disks
    }

    /// Attached NICs.
    pub fn nics(&self) -> &[SimNic] {
        &self.nics
    }

    /// Guest dirty rate for migration modeling.
    pub fn dirty_rate(&self) -> u64 {
        self.dirty_rate_mib_s
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// [`SimErrorKind::InvalidArgument`] when the name is empty, memory is
    /// zero, vCPUs are zero, or `max_memory < memory`.
    pub fn validate(&self) -> SimResult<()> {
        if self.name.is_empty() {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "domain name is empty",
            ));
        }
        if self.memory == MiB::ZERO {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "memory must be > 0",
            ));
        }
        if self.vcpus == 0 {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "vcpus must be > 0",
            ));
        }
        if self.max_memory < self.memory {
            return Err(SimError::new(
                SimErrorKind::InvalidArgument,
                "max_memory below current memory",
            ));
        }
        Ok(())
    }
}

/// A point-in-time snapshot of a domain (state + memory size).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotRecord {
    /// Snapshot name, unique per domain.
    pub name: String,
    /// Lifecycle state at snapshot time.
    pub state: DomainState,
    /// Current memory at snapshot time.
    pub memory: MiB,
    /// Simulated time the snapshot was taken.
    pub taken_at: SimTime,
}

/// The host-internal record of a domain.
#[derive(Debug, Clone)]
pub(crate) struct SimDomain {
    pub spec: DomainSpec,
    pub uuid: [u8; 16],
    /// Hypervisor-assigned id while active; `None` when inactive.
    pub id: Option<u32>,
    pub state: DomainState,
    /// Set when a managed-save image exists for this domain.
    pub has_managed_save: bool,
    pub autostart: bool,
    /// Snapshots taken, oldest first.
    pub snapshots: Vec<SnapshotRecord>,
    /// Simulated vCPU time consumed across past running periods, ns.
    pub cpu_time_ns: u64,
    /// When the current running period began (None unless Running).
    pub running_since: Option<SimTime>,
}

impl SimDomain {
    pub(crate) fn new(spec: DomainSpec, uuid: [u8; 16]) -> Self {
        SimDomain {
            spec,
            uuid,
            id: None,
            state: DomainState::Shutoff,
            has_managed_save: false,
            autostart: false,
            snapshots: Vec::new(),
            cpu_time_ns: 0,
            running_since: None,
        }
    }

    /// Transitions to `new` at simulated time `now`, accounting vCPU time
    /// consumed during any running period that just ended.
    pub(crate) fn set_state(&mut self, new: DomainState, now: SimTime) {
        if self.state == DomainState::Running && new != DomainState::Running {
            if let Some(since) = self.running_since.take() {
                let elapsed = now.saturating_duration_since(since).as_nanos() as u64;
                self.cpu_time_ns += elapsed * self.spec.vcpu_count() as u64;
            }
        }
        if new == DomainState::Running && self.state != DomainState::Running {
            self.running_since = Some(now);
        }
        self.state = new;
    }

    /// vCPU time consumed up to `now`, including the live running period.
    fn cpu_time_ns_at(&self, now: SimTime) -> u64 {
        let live = self
            .running_since
            .map(|since| {
                now.saturating_duration_since(since).as_nanos() as u64
                    * self.spec.vcpu_count() as u64
            })
            .unwrap_or(0);
        self.cpu_time_ns + live
    }

    pub(crate) fn info_at(&self, now: SimTime) -> DomainInfo {
        DomainInfo {
            name: self.spec.name().to_string(),
            uuid: self.uuid,
            id: self.id,
            state: self.state,
            memory: self.spec.memory(),
            max_memory: self.spec.max_memory(),
            vcpus: self.spec.vcpu_count(),
            persistent: self.spec.is_persistent(),
            has_managed_save: self.has_managed_save,
            autostart: self.autostart,
            snapshots: self.snapshots.iter().map(|s| s.name.clone()).collect(),
            cpu_time_ns: self.cpu_time_ns_at(now),
        }
    }

    /// The bulk-stats subset of [`SimDomain::info_at`], borrowed instead
    /// of cloned.
    pub(crate) fn stats_view_at(&self, now: SimTime) -> DomainStatsView<'_> {
        DomainStatsView {
            name: self.spec.name(),
            state: self.state,
            memory: self.spec.memory(),
            max_memory: self.spec.max_memory(),
            vcpus: self.spec.vcpu_count(),
            cpu_time_ns: self.cpu_time_ns_at(now),
        }
    }

    #[cfg(test)]
    pub fn info(&self) -> DomainInfo {
        self.info_at(SimTime::ZERO)
    }
}

/// The facts a monitoring pass reads of one domain, borrowed from the
/// host's domain table for the duration of one
/// [`crate::SimHost::visit_domains`] callback — what [`DomainInfo`]
/// reports, minus everything a stats record does not carry, with no
/// per-domain allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainStatsView<'a> {
    /// Unique name on the host.
    pub name: &'a str,
    /// Current lifecycle state.
    pub state: DomainState,
    /// Current memory allocation.
    pub memory: MiB,
    /// Memory ceiling.
    pub max_memory: MiB,
    /// vCPU count.
    pub vcpus: u32,
    /// Simulated vCPU time consumed, in nanoseconds.
    pub cpu_time_ns: u64,
}

/// A point-in-time snapshot of a domain's externally visible state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainInfo {
    /// Unique name on the host.
    pub name: String,
    /// Stable unique identifier.
    pub uuid: [u8; 16],
    /// Hypervisor id while active.
    pub id: Option<u32>,
    /// Current lifecycle state.
    pub state: DomainState,
    /// Current memory allocation.
    pub memory: MiB,
    /// Memory ceiling.
    pub max_memory: MiB,
    /// vCPU count.
    pub vcpus: u32,
    /// Whether the configuration is persisted.
    pub persistent: bool,
    /// Whether a managed-save image exists.
    pub has_managed_save: bool,
    /// Whether the domain starts with the host.
    pub autostart: bool,
    /// Snapshot names, oldest first.
    pub snapshots: Vec<String>,
    /// Simulated vCPU time consumed, in nanoseconds.
    pub cpu_time_ns: u64,
}

impl DomainInfo {
    /// Current lifecycle state (convenience mirror of the field for call
    /// sites reading through a handle).
    pub fn state(&self) -> DomainState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_values() {
        let spec = DomainSpec::new("a");
        assert_eq!(spec.memory(), MiB(512));
        assert_eq!(spec.vcpu_count(), 1);
        assert!(spec.is_persistent());
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn memory_mib_raises_max_memory() {
        let spec = DomainSpec::new("a").memory_mib(2048);
        assert_eq!(spec.max_memory(), MiB(2048));
    }

    #[test]
    fn spec_validation_catches_bad_values() {
        assert_eq!(
            DomainSpec::new("").validate().unwrap_err().kind(),
            SimErrorKind::InvalidArgument
        );
        assert_eq!(
            DomainSpec::new("a")
                .memory_mib(0)
                .validate()
                .unwrap_err()
                .kind(),
            SimErrorKind::InvalidArgument
        );
        assert_eq!(
            DomainSpec::new("a").vcpus(0).validate().unwrap_err().kind(),
            SimErrorKind::InvalidArgument
        );
        let bad_max = DomainSpec::new("a").memory_mib(1024).max_memory_mib(512);
        assert_eq!(
            bad_max.validate().unwrap_err().kind(),
            SimErrorKind::InvalidArgument
        );
    }

    #[test]
    fn legal_lifecycle_path() {
        use DomainState::*;
        let mut s = Shutoff;
        for (op, expected) in [
            (OpKind::Start, Running),
            (OpKind::Suspend, Paused),
            (OpKind::Resume, Running),
            (OpKind::Save, Saved),
            (OpKind::Restore, Running),
            (OpKind::Shutdown, Shutoff),
        ] {
            s = transition(s, op).expect("legal transition");
            assert_eq!(s, expected);
        }
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        for (state, op) in [
            (DomainState::Shutoff, OpKind::Shutdown),
            (DomainState::Shutoff, OpKind::Suspend),
            (DomainState::Shutoff, OpKind::Resume),
            (DomainState::Shutoff, OpKind::Destroy),
            (DomainState::Running, OpKind::Start),
            (DomainState::Running, OpKind::Resume),
            (DomainState::Paused, OpKind::Suspend),
            (DomainState::Paused, OpKind::Start),
            (DomainState::Paused, OpKind::Shutdown),
            (DomainState::Saved, OpKind::Shutdown),
            (DomainState::Crashed, OpKind::Suspend),
        ] {
            let err = transition(state, op).expect_err("illegal transition");
            assert_eq!(err.kind(), SimErrorKind::InvalidState, "{state:?} {op:?}");
        }
    }

    #[test]
    fn destroy_works_from_any_active_or_crashed_state() {
        for state in [
            DomainState::Running,
            DomainState::Paused,
            DomainState::Crashed,
        ] {
            assert_eq!(
                transition(state, OpKind::Destroy).unwrap(),
                DomainState::Shutoff
            );
        }
    }

    #[test]
    fn reboot_keeps_running() {
        assert_eq!(
            transition(DomainState::Running, OpKind::Reboot).unwrap(),
            DomainState::Running
        );
    }

    #[test]
    fn snapshot_preserves_state() {
        for state in [
            DomainState::Running,
            DomainState::Paused,
            DomainState::Shutoff,
        ] {
            assert_eq!(transition(state, OpKind::Snapshot).unwrap(), state);
        }
    }

    #[test]
    fn is_active_covers_running_and_paused_only() {
        assert!(DomainState::Running.is_active());
        assert!(DomainState::Paused.is_active());
        assert!(!DomainState::Shutoff.is_active());
        assert!(!DomainState::Saved.is_active());
        assert!(!DomainState::Crashed.is_active());
    }

    #[test]
    fn state_display_names() {
        assert_eq!(DomainState::Running.to_string(), "running");
        assert_eq!(DomainState::Shutoff.to_string(), "shut off");
    }

    #[test]
    fn sim_domain_info_snapshot() {
        let spec = DomainSpec::new("vm").memory_mib(1024).vcpus(2);
        let dom = SimDomain::new(spec, [7; 16]);
        let info = dom.info();
        assert_eq!(info.name, "vm");
        assert_eq!(info.uuid, [7; 16]);
        assert_eq!(info.id, None);
        assert_eq!(info.state, DomainState::Shutoff);
        assert_eq!(info.memory, MiB(1024));
        assert_eq!(info.vcpus, 2);
        assert!(info.persistent);
    }
}
