//! The remote protocol: procedure numbers and wire record types.
//!
//! Shared by the remote driver (client side) and `virtd`'s dispatch table
//! (server side). All records are XDR structs; growth headroom comes from
//! typed-parameter lists rather than struct changes, as in libvirt.

use virt_rpc::xdr::{XdrDecode, XdrEncode};
use virt_rpc::xdr_struct;

use crate::driver::{
    DomainRecord, DomainState, DomainStatsRecord, MigrationOptions, MigrationReport, NetworkRecord,
    NodeInfo, PoolRecord, VolumeRecord,
};
use crate::event::{DomainEvent, DomainEventKind};
use crate::guard::{GuardPolicy, GuardStatus};
use crate::job::{JobKind, JobState, JobStats};
use crate::typedparam::{
    encode_params, params_encoded_len, xdr_str_len, TypedParam, TypedParamList,
};
use crate::uuid::Uuid;

/// Procedure numbers of the remote (hypervisor) program.
pub mod proc {
    /// Open a driver connection on the daemon.
    pub const OPEN: u32 = 1;
    /// Close the driver connection.
    pub const CLOSE: u32 = 2;
    /// Authenticate (SASL-plain style) before OPEN on daemons requiring it.
    pub const AUTH: u32 = 6;
    /// Host name.
    pub const GET_HOSTNAME: u32 = 3;
    /// Capabilities XML.
    pub const GET_CAPABILITIES: u32 = 4;
    /// Node facts.
    pub const NODE_INFO: u32 = 5;

    /// All domains.
    pub const LIST_DOMAINS: u32 = 10;
    /// Lookup by name.
    pub const DOMAIN_LOOKUP_NAME: u32 = 11;
    /// Lookup by id.
    pub const DOMAIN_LOOKUP_ID: u32 = 12;
    /// Lookup by UUID.
    pub const DOMAIN_LOOKUP_UUID: u32 = 13;
    /// Define from XML.
    pub const DOMAIN_DEFINE_XML: u32 = 14;
    /// Create (transient) from XML.
    pub const DOMAIN_CREATE_XML: u32 = 15;
    /// Undefine.
    pub const DOMAIN_UNDEFINE: u32 = 16;
    /// Start.
    pub const DOMAIN_START: u32 = 17;
    /// Graceful shutdown.
    pub const DOMAIN_SHUTDOWN: u32 = 18;
    /// Reboot.
    pub const DOMAIN_REBOOT: u32 = 19;
    /// Hard power-off.
    pub const DOMAIN_DESTROY: u32 = 20;
    /// Pause.
    pub const DOMAIN_SUSPEND: u32 = 21;
    /// Unpause.
    pub const DOMAIN_RESUME: u32 = 22;
    /// Managed save.
    pub const DOMAIN_SAVE: u32 = 23;
    /// Restore from managed save.
    pub const DOMAIN_RESTORE: u32 = 24;
    /// Balloon memory.
    pub const DOMAIN_SET_MEMORY: u32 = 25;
    /// vCPU hotplug.
    pub const DOMAIN_SET_VCPUS: u32 = 26;
    /// Attach device XML.
    pub const DOMAIN_ATTACH_DEVICE: u32 = 27;
    /// Detach device by target.
    pub const DOMAIN_DETACH_DEVICE: u32 = 28;
    /// Take snapshot.
    pub const DOMAIN_SNAPSHOT: u32 = 29;
    /// List snapshots.
    pub const DOMAIN_LIST_SNAPSHOTS: u32 = 30;
    /// Toggle autostart.
    pub const DOMAIN_SET_AUTOSTART: u32 = 31;
    /// Dump XML.
    pub const DOMAIN_DUMP_XML: u32 = 32;
    /// Revert to snapshot.
    pub const DOMAIN_SNAPSHOT_REVERT: u32 = 33;
    /// Delete snapshot.
    pub const DOMAIN_SNAPSHOT_DELETE: u32 = 34;
    /// Current/most-recent job stats of a domain.
    pub const DOMAIN_GET_JOB_STATS: u32 = 35;
    /// Cancel the running job on a domain.
    pub const DOMAIN_ABORT_JOB: u32 = 36;
    /// Bulk stats of every domain in one round-trip.
    pub const CONNECT_GET_ALL_DOMAIN_STATS: u32 = 37;
    /// Read the autostart flag.
    pub const DOMAIN_GET_AUTOSTART: u32 = 38;
    /// Force a guest crash (chaos/test tooling).
    pub const DOMAIN_CRASH: u32 = 39;

    /// Migration phase 1 (source).
    pub const MIGRATE_BEGIN: u32 = 40;
    /// Migration phase 2 (destination).
    pub const MIGRATE_PREPARE: u32 = 41;
    /// Migration phase 3 (source).
    pub const MIGRATE_PERFORM: u32 = 42;
    /// Migration phase 4 (destination).
    pub const MIGRATE_FINISH: u32 = 43;
    /// Migration phase 5 (source).
    pub const MIGRATE_CONFIRM: u32 = 44;
    /// Migration abort (destination rollback).
    pub const MIGRATE_ABORT: u32 = 45;

    /// Pool names.
    pub const LIST_POOLS: u32 = 50;
    /// Pool facts.
    pub const POOL_INFO: u32 = 51;
    /// Define pool from XML.
    pub const POOL_DEFINE_XML: u32 = 52;
    /// Start pool.
    pub const POOL_START: u32 = 53;
    /// Stop pool.
    pub const POOL_STOP: u32 = 54;
    /// Undefine pool.
    pub const POOL_UNDEFINE: u32 = 55;
    /// Volume names.
    pub const LIST_VOLUMES: u32 = 56;
    /// Volume facts.
    pub const VOLUME_INFO: u32 = 57;
    /// Create volume from XML.
    pub const VOLUME_CREATE_XML: u32 = 58;
    /// Delete volume.
    pub const VOLUME_DELETE: u32 = 59;
    /// Resize volume.
    pub const VOLUME_RESIZE: u32 = 60;
    /// Clone volume.
    pub const VOLUME_CLONE: u32 = 61;

    /// Network names.
    pub const LIST_NETWORKS: u32 = 70;
    /// Network facts.
    pub const NETWORK_INFO: u32 = 71;
    /// Define network from XML.
    pub const NETWORK_DEFINE_XML: u32 = 72;
    /// Start network.
    pub const NETWORK_START: u32 = 73;
    /// Stop network.
    pub const NETWORK_STOP: u32 = 74;
    /// Undefine network.
    pub const NETWORK_UNDEFINE: u32 = 75;

    /// Subscribe to lifecycle events.
    pub const EVENT_REGISTER: u32 = 80;
    /// Unsubscribe from lifecycle events.
    pub const EVENT_DEREGISTER: u32 = 81;
    /// Server→client lifecycle event message.
    pub const EVENT_LIFECYCLE: u32 = 90;
    /// Server→client job-lifecycle event message.
    pub const EVENT_DOMAIN_JOB: u32 = 91;

    /// Install (or replace) an availability guard on a domain.
    pub const GUARD_SET: u32 = 92;
    /// Remove a domain's guard.
    pub const GUARD_REMOVE: u32 = 93;
    /// Status of every defined guard.
    pub const GUARD_LIST: u32 = 94;
    /// Status of one domain's guard.
    pub const GUARD_STATUS: u32 = 95;

    /// Every callable procedure with its symbolic name. The daemon's
    /// metrics layer pre-builds its per-procedure latency histograms from
    /// this table; keep it in sync when adding procedures.
    pub const ALL: &[(u32, &str)] = &[
        (OPEN, "OPEN"),
        (CLOSE, "CLOSE"),
        (AUTH, "AUTH"),
        (GET_HOSTNAME, "GET_HOSTNAME"),
        (GET_CAPABILITIES, "GET_CAPABILITIES"),
        (NODE_INFO, "NODE_INFO"),
        (LIST_DOMAINS, "LIST_DOMAINS"),
        (DOMAIN_LOOKUP_NAME, "DOMAIN_LOOKUP_NAME"),
        (DOMAIN_LOOKUP_ID, "DOMAIN_LOOKUP_ID"),
        (DOMAIN_LOOKUP_UUID, "DOMAIN_LOOKUP_UUID"),
        (DOMAIN_DEFINE_XML, "DOMAIN_DEFINE_XML"),
        (DOMAIN_CREATE_XML, "DOMAIN_CREATE_XML"),
        (DOMAIN_UNDEFINE, "DOMAIN_UNDEFINE"),
        (DOMAIN_START, "DOMAIN_START"),
        (DOMAIN_SHUTDOWN, "DOMAIN_SHUTDOWN"),
        (DOMAIN_REBOOT, "DOMAIN_REBOOT"),
        (DOMAIN_DESTROY, "DOMAIN_DESTROY"),
        (DOMAIN_SUSPEND, "DOMAIN_SUSPEND"),
        (DOMAIN_RESUME, "DOMAIN_RESUME"),
        (DOMAIN_SAVE, "DOMAIN_SAVE"),
        (DOMAIN_RESTORE, "DOMAIN_RESTORE"),
        (DOMAIN_SET_MEMORY, "DOMAIN_SET_MEMORY"),
        (DOMAIN_SET_VCPUS, "DOMAIN_SET_VCPUS"),
        (DOMAIN_ATTACH_DEVICE, "DOMAIN_ATTACH_DEVICE"),
        (DOMAIN_DETACH_DEVICE, "DOMAIN_DETACH_DEVICE"),
        (DOMAIN_SNAPSHOT, "DOMAIN_SNAPSHOT"),
        (DOMAIN_LIST_SNAPSHOTS, "DOMAIN_LIST_SNAPSHOTS"),
        (DOMAIN_SET_AUTOSTART, "DOMAIN_SET_AUTOSTART"),
        (DOMAIN_DUMP_XML, "DOMAIN_DUMP_XML"),
        (DOMAIN_SNAPSHOT_REVERT, "DOMAIN_SNAPSHOT_REVERT"),
        (DOMAIN_SNAPSHOT_DELETE, "DOMAIN_SNAPSHOT_DELETE"),
        (DOMAIN_GET_JOB_STATS, "DOMAIN_GET_JOB_STATS"),
        (DOMAIN_ABORT_JOB, "DOMAIN_ABORT_JOB"),
        (CONNECT_GET_ALL_DOMAIN_STATS, "CONNECT_GET_ALL_DOMAIN_STATS"),
        (DOMAIN_GET_AUTOSTART, "DOMAIN_GET_AUTOSTART"),
        (DOMAIN_CRASH, "DOMAIN_CRASH"),
        (MIGRATE_BEGIN, "MIGRATE_BEGIN"),
        (MIGRATE_PREPARE, "MIGRATE_PREPARE"),
        (MIGRATE_PERFORM, "MIGRATE_PERFORM"),
        (MIGRATE_FINISH, "MIGRATE_FINISH"),
        (MIGRATE_CONFIRM, "MIGRATE_CONFIRM"),
        (MIGRATE_ABORT, "MIGRATE_ABORT"),
        (LIST_POOLS, "LIST_POOLS"),
        (POOL_INFO, "POOL_INFO"),
        (POOL_DEFINE_XML, "POOL_DEFINE_XML"),
        (POOL_START, "POOL_START"),
        (POOL_STOP, "POOL_STOP"),
        (POOL_UNDEFINE, "POOL_UNDEFINE"),
        (LIST_VOLUMES, "LIST_VOLUMES"),
        (VOLUME_INFO, "VOLUME_INFO"),
        (VOLUME_CREATE_XML, "VOLUME_CREATE_XML"),
        (VOLUME_DELETE, "VOLUME_DELETE"),
        (VOLUME_RESIZE, "VOLUME_RESIZE"),
        (VOLUME_CLONE, "VOLUME_CLONE"),
        (LIST_NETWORKS, "LIST_NETWORKS"),
        (NETWORK_INFO, "NETWORK_INFO"),
        (NETWORK_DEFINE_XML, "NETWORK_DEFINE_XML"),
        (NETWORK_START, "NETWORK_START"),
        (NETWORK_STOP, "NETWORK_STOP"),
        (NETWORK_UNDEFINE, "NETWORK_UNDEFINE"),
        (EVENT_REGISTER, "EVENT_REGISTER"),
        (EVENT_DEREGISTER, "EVENT_DEREGISTER"),
        (GUARD_SET, "GUARD_SET"),
        (GUARD_REMOVE, "GUARD_REMOVE"),
        (GUARD_LIST, "GUARD_LIST"),
        (GUARD_STATUS, "GUARD_STATUS"),
    ];

    /// The symbolic name of a callable procedure, if known.
    pub fn name(procedure: u32) -> Option<&'static str> {
        ALL.iter()
            .find(|(num, _)| *num == procedure)
            .map(|(_, name)| *name)
    }
}

/// Whether a procedure only reads state. Read-only connections
/// (`?readonly` URIs) may call exactly these plus session management.
///
/// `DOMAIN_ABORT_JOB` is the one high-priority procedure that mutates:
/// it must ride priority workers (an abort has to get through when every
/// ordinary worker is saturated by jobs) yet cancelling someone's
/// migration is clearly not a read-only action.
pub fn is_readonly_safe(procedure: u32) -> bool {
    (is_high_priority(procedure) && procedure != proc::DOMAIN_ABORT_JOB) || procedure == proc::AUTH
}

/// Whether a procedure is high-priority: guaranteed to finish without
/// waiting on a hypervisor, so it may run on a priority worker even when
/// every ordinary worker is wedged. Mirrors libvirt's tagging of
/// lookups/getters — and, as in libvirt, job query/abort are here
/// precisely because normal workers are busy running the jobs.
pub fn is_high_priority(procedure: u32) -> bool {
    matches!(
        procedure,
        proc::OPEN
            | proc::CLOSE
            | proc::AUTH
            | proc::GET_HOSTNAME
            | proc::GET_CAPABILITIES
            | proc::NODE_INFO
            | proc::LIST_DOMAINS
            | proc::DOMAIN_LOOKUP_NAME
            | proc::DOMAIN_LOOKUP_ID
            | proc::DOMAIN_LOOKUP_UUID
            | proc::DOMAIN_LIST_SNAPSHOTS
            | proc::DOMAIN_DUMP_XML
            | proc::DOMAIN_GET_JOB_STATS
            | proc::DOMAIN_ABORT_JOB
            | proc::CONNECT_GET_ALL_DOMAIN_STATS
            | proc::DOMAIN_GET_AUTOSTART
            | proc::LIST_POOLS
            | proc::POOL_INFO
            | proc::LIST_VOLUMES
            | proc::VOLUME_INFO
            | proc::LIST_NETWORKS
            | proc::NETWORK_INFO
            | proc::EVENT_REGISTER
            | proc::EVENT_DEREGISTER
            | proc::GUARD_LIST
            | proc::GUARD_STATUS
    )
}

/// Whether a procedure is idempotent: re-issuing it after an ambiguous
/// connection failure cannot change daemon state beyond what the first
/// (possibly executed) attempt did. The resilient remote driver
/// transparently retries exactly these; mutating procedures surface the
/// failure to the caller, who alone knows whether a repeat is safe.
pub fn is_idempotent(procedure: u32) -> bool {
    matches!(
        procedure,
        proc::GET_HOSTNAME
            | proc::GET_CAPABILITIES
            | proc::NODE_INFO
            | proc::LIST_DOMAINS
            | proc::DOMAIN_LOOKUP_NAME
            | proc::DOMAIN_LOOKUP_ID
            | proc::DOMAIN_LOOKUP_UUID
            | proc::DOMAIN_LIST_SNAPSHOTS
            | proc::DOMAIN_DUMP_XML
            | proc::DOMAIN_GET_JOB_STATS
            | proc::CONNECT_GET_ALL_DOMAIN_STATS
            | proc::DOMAIN_GET_AUTOSTART
            | proc::LIST_POOLS
            | proc::POOL_INFO
            | proc::LIST_VOLUMES
            | proc::VOLUME_INFO
            | proc::LIST_NETWORKS
            | proc::NETWORK_INFO
            | proc::GUARD_LIST
            | proc::GUARD_STATUS
    )
}

xdr_struct! {
    /// Arguments carrying one name.
    pub struct NameArgs {
        /// Object name.
        pub name: String,
    }
}

xdr_struct! {
    /// Arguments carrying one XML document.
    pub struct XmlArgs {
        /// The document text.
        pub xml: String,
    }
}

xdr_struct! {
    /// Arguments for `OPEN`.
    pub struct OpenArgs {
        /// The daemon-local URI (transport suffix stripped).
        pub uri: String,
        /// Whether the session is restricted to read-only procedures.
        pub readonly: bool,
    }
}

xdr_struct! {
    /// Arguments for `AUTH` (SASL-plain style credential check).
    pub struct AuthArgs {
        /// The user authenticating.
        pub username: String,
        /// The shared secret.
        pub password: String,
    }
}

xdr_struct! {
    /// Name + 64-bit value (set-memory).
    pub struct NameU64Args {
        /// Domain name.
        pub name: String,
        /// The value.
        pub value: u64,
    }
}

xdr_struct! {
    /// Name + 32-bit value (set-vcpus, lookup-by-id uses value only).
    pub struct NameU32Args {
        /// Domain name.
        pub name: String,
        /// The value.
        pub value: u32,
    }
}

xdr_struct! {
    /// Name + flag (autostart).
    pub struct NameBoolArgs {
        /// Domain name.
        pub name: String,
        /// The flag.
        pub value: bool,
    }
}

xdr_struct! {
    /// Name + a second string (attach/detach/snapshot).
    pub struct NameStringArgs {
        /// Domain name.
        pub name: String,
        /// Device XML, target, or snapshot name.
        pub value: String,
    }
}

xdr_struct! {
    /// Pool + volume name pair.
    pub struct PoolVolArgs {
        /// Pool name.
        pub pool: String,
        /// Volume name.
        pub name: String,
    }
}

xdr_struct! {
    /// Pool + XML (volume create).
    pub struct PoolXmlArgs {
        /// Pool name.
        pub pool: String,
        /// Volume XML.
        pub xml: String,
    }
}

xdr_struct! {
    /// Pool + volume + value (resize).
    pub struct VolResizeArgs {
        /// Pool name.
        pub pool: String,
        /// Volume name.
        pub name: String,
        /// New capacity in MiB.
        pub capacity_mib: u64,
    }
}

xdr_struct! {
    /// Pool + source + new name (clone).
    pub struct VolCloneArgs {
        /// Pool name.
        pub pool: String,
        /// Source volume.
        pub source: String,
        /// New volume name.
        pub new_name: String,
    }
}

xdr_struct! {
    /// Migration perform arguments.
    pub struct MigratePerformArgs {
        /// Domain name.
        pub name: String,
        /// Link bandwidth in MiB/s.
        pub bandwidth_mib_s: u64,
        /// Downtime budget in ms.
        pub max_downtime_ms: u64,
        /// Pre-copy iteration cap.
        pub max_iterations: u32,
    }
}

impl MigratePerformArgs {
    /// Converts wire arguments into driver options.
    pub fn to_options(&self) -> MigrationOptions {
        MigrationOptions {
            bandwidth_mib_s: self.bandwidth_mib_s,
            max_downtime_ms: self.max_downtime_ms,
            max_iterations: self.max_iterations,
        }
    }

    /// Builds wire arguments from driver options.
    pub fn from_options(name: &str, options: &MigrationOptions) -> Self {
        MigratePerformArgs {
            name: name.to_string(),
            bandwidth_mib_s: options.bandwidth_mib_s,
            max_downtime_ms: options.max_downtime_ms,
            max_iterations: options.max_iterations,
        }
    }
}

xdr_struct! {
    /// Wire form of a domain snapshot record.
    pub struct WireDomain {
        /// Name.
        pub name: String,
        /// UUID bytes.
        pub uuid: [u8; 16],
        /// Active id, -1 when inactive.
        pub id: i64,
        /// State discriminant.
        pub state: u32,
        /// Current memory in MiB.
        pub memory_mib: u64,
        /// Balloon ceiling in MiB.
        pub max_memory_mib: u64,
        /// vCPU count.
        pub vcpus: u32,
        /// Persistence flag.
        pub persistent: bool,
        /// Managed-save image flag.
        pub has_managed_save: bool,
        /// Autostart flag.
        pub autostart: bool,
        /// Simulated vCPU time consumed, nanoseconds.
        pub cpu_time_ns: u64,
    }
}

impl From<&DomainRecord> for WireDomain {
    fn from(r: &DomainRecord) -> Self {
        WireDomain {
            name: r.name.clone(),
            uuid: *r.uuid.as_bytes(),
            id: r.id.map(|i| i as i64).unwrap_or(-1),
            state: r.state.as_u32(),
            memory_mib: r.memory_mib,
            max_memory_mib: r.max_memory_mib,
            vcpus: r.vcpus,
            persistent: r.persistent,
            has_managed_save: r.has_managed_save,
            autostart: r.autostart,
            cpu_time_ns: r.cpu_time_ns,
        }
    }
}

impl From<WireDomain> for DomainRecord {
    fn from(w: WireDomain) -> Self {
        DomainRecord {
            name: w.name,
            uuid: Uuid::from_bytes(w.uuid),
            id: (w.id >= 0).then_some(w.id as u32),
            state: DomainState::from_u32(w.state),
            memory_mib: w.memory_mib,
            max_memory_mib: w.max_memory_mib,
            vcpus: w.vcpus,
            persistent: w.persistent,
            has_managed_save: w.has_managed_save,
            autostart: w.autostart,
            cpu_time_ns: w.cpu_time_ns,
        }
    }
}

/// Wire list of domains.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDomainList(pub Vec<WireDomain>);

impl XdrEncode for WireDomainList {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0.len() as u32).encode(out);
        for domain in &self.0 {
            domain.encode(out);
        }
    }
}

impl XdrDecode for WireDomainList {
    fn decode(cursor: &mut virt_rpc::xdr::Cursor<'_>) -> Result<Self, virt_rpc::xdr::XdrError> {
        let len = u32::decode(cursor)?;
        if len > 1_000_000 {
            return Err(virt_rpc::xdr::XdrError::LengthTooLarge(len));
        }
        let mut items = Vec::with_capacity((len as usize).min(4096));
        for _ in 0..len {
            items.push(WireDomain::decode(cursor)?);
        }
        Ok(WireDomainList(items))
    }
}

xdr_struct! {
    /// Arguments for `GUARD_SET`.
    pub struct GuardSetArgs {
        /// Domain name.
        pub name: String,
        /// Policy discriminant ([`GuardPolicy::kind`]).
        pub kind: u32,
        /// Policy parameter ([`GuardPolicy::param`]).
        pub param: u64,
    }
}

impl GuardSetArgs {
    /// Builds the wire arguments for one policy.
    pub fn from_policy(name: &str, policy: &GuardPolicy) -> GuardSetArgs {
        GuardSetArgs {
            name: name.to_string(),
            kind: policy.kind(),
            param: policy.param(),
        }
    }

    /// Decodes the policy; `None` for unknown kinds.
    pub fn to_policy(&self) -> Option<GuardPolicy> {
        GuardPolicy::from_wire(self.kind, self.param)
    }
}

xdr_struct! {
    /// Wire form of one guard's status.
    pub struct WireGuardStatus {
        /// The guarded domain.
        pub domain: String,
        /// Policy discriminant.
        pub kind: u32,
        /// Policy parameter.
        pub param: u64,
        /// Consecutive restarts since the domain last reached running.
        pub restarts: u32,
        /// Whether the restart budget is exhausted.
        pub gave_up: bool,
        /// Whether an action is pending (`next_retry_ms` is meaningful).
        pub has_next_retry: bool,
        /// Milliseconds until the next scheduled action.
        pub next_retry_ms: u64,
        /// The last lifecycle observation that drove the guard.
        pub last_event: String,
    }
}

impl From<&GuardStatus> for WireGuardStatus {
    fn from(s: &GuardStatus) -> Self {
        WireGuardStatus {
            domain: s.domain.clone(),
            kind: s.policy.kind(),
            param: s.policy.param(),
            restarts: s.restarts,
            gave_up: s.gave_up,
            has_next_retry: s.next_retry.is_some(),
            next_retry_ms: s.next_retry.map(|d| d.as_millis() as u64).unwrap_or(0),
            last_event: s.last_event.clone(),
        }
    }
}

impl WireGuardStatus {
    /// Decodes into the API status type; `None` for unknown policy kinds.
    pub fn into_status(self) -> Option<GuardStatus> {
        Some(GuardStatus {
            policy: GuardPolicy::from_wire(self.kind, self.param)?,
            domain: self.domain,
            restarts: self.restarts,
            gave_up: self.gave_up,
            next_retry: self
                .has_next_retry
                .then(|| std::time::Duration::from_millis(self.next_retry_ms)),
            last_event: self.last_event,
        })
    }
}

/// Wire list of guard statuses.
#[derive(Debug, Clone, PartialEq)]
pub struct WireGuardStatusList(pub Vec<WireGuardStatus>);

impl XdrEncode for WireGuardStatusList {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.0.len() as u32).encode(out);
        for status in &self.0 {
            status.encode(out);
        }
    }
}

impl XdrDecode for WireGuardStatusList {
    fn decode(cursor: &mut virt_rpc::xdr::Cursor<'_>) -> Result<Self, virt_rpc::xdr::XdrError> {
        let len = u32::decode(cursor)?;
        if len > 1_000_000 {
            return Err(virt_rpc::xdr::XdrError::LengthTooLarge(len));
        }
        let mut items = Vec::with_capacity((len as usize).min(4096));
        for _ in 0..len {
            items.push(WireGuardStatus::decode(cursor)?);
        }
        Ok(WireGuardStatusList(items))
    }
}

xdr_struct! {
    /// Wire form of node facts.
    pub struct WireNodeInfo {
        /// Host name.
        pub hostname: String,
        /// Hypervisor kind.
        pub hypervisor: String,
        /// Physical CPUs.
        pub cpus: u32,
        /// Physical memory in MiB.
        pub memory_mib: u64,
        /// Free memory in MiB.
        pub free_memory_mib: u64,
        /// Active domain count.
        pub active_domains: u32,
        /// Inactive domain count.
        pub inactive_domains: u32,
    }
}

impl From<&NodeInfo> for WireNodeInfo {
    fn from(n: &NodeInfo) -> Self {
        WireNodeInfo {
            hostname: n.hostname.clone(),
            hypervisor: n.hypervisor.clone(),
            cpus: n.cpus,
            memory_mib: n.memory_mib,
            free_memory_mib: n.free_memory_mib,
            active_domains: n.active_domains,
            inactive_domains: n.inactive_domains,
        }
    }
}

impl From<WireNodeInfo> for NodeInfo {
    fn from(w: WireNodeInfo) -> Self {
        NodeInfo {
            hostname: w.hostname,
            hypervisor: w.hypervisor,
            cpus: w.cpus,
            memory_mib: w.memory_mib,
            free_memory_mib: w.free_memory_mib,
            active_domains: w.active_domains,
            inactive_domains: w.inactive_domains,
        }
    }
}

xdr_struct! {
    /// Wire form of a pool record.
    pub struct WirePool {
        /// Name.
        pub name: String,
        /// UUID bytes.
        pub uuid: [u8; 16],
        /// Backend kind name.
        pub backend: String,
        /// Capacity in MiB.
        pub capacity_mib: u64,
        /// Allocation in MiB.
        pub allocation_mib: u64,
        /// Active flag.
        pub active: bool,
        /// Volume count.
        pub volume_count: u32,
    }
}

impl From<&PoolRecord> for WirePool {
    fn from(p: &PoolRecord) -> Self {
        WirePool {
            name: p.name.clone(),
            uuid: *p.uuid.as_bytes(),
            backend: p.backend.clone(),
            capacity_mib: p.capacity_mib,
            allocation_mib: p.allocation_mib,
            active: p.active,
            volume_count: p.volume_count,
        }
    }
}

impl From<WirePool> for PoolRecord {
    fn from(w: WirePool) -> Self {
        PoolRecord {
            name: w.name,
            uuid: Uuid::from_bytes(w.uuid),
            backend: w.backend,
            capacity_mib: w.capacity_mib,
            allocation_mib: w.allocation_mib,
            active: w.active,
            volume_count: w.volume_count,
        }
    }
}

xdr_struct! {
    /// Wire form of a volume record.
    pub struct WireVolume {
        /// Name.
        pub name: String,
        /// Owning pool.
        pub pool: String,
        /// Capacity in MiB.
        pub capacity_mib: u64,
        /// Allocation in MiB.
        pub allocation_mib: u64,
        /// Format.
        pub format: String,
        /// Path.
        pub path: String,
    }
}

impl From<&VolumeRecord> for WireVolume {
    fn from(v: &VolumeRecord) -> Self {
        WireVolume {
            name: v.name.clone(),
            pool: v.pool.clone(),
            capacity_mib: v.capacity_mib,
            allocation_mib: v.allocation_mib,
            format: v.format.clone(),
            path: v.path.clone(),
        }
    }
}

impl From<WireVolume> for VolumeRecord {
    fn from(w: WireVolume) -> Self {
        VolumeRecord {
            name: w.name,
            pool: w.pool,
            capacity_mib: w.capacity_mib,
            allocation_mib: w.allocation_mib,
            format: w.format,
            path: w.path,
        }
    }
}

xdr_struct! {
    /// Wire form of a network record. Leases travel as three parallel
    /// arrays (mac/ip/domain) to stay within scalar XDR array support.
    pub struct WireNetwork {
        /// Name.
        pub name: String,
        /// UUID bytes.
        pub uuid: [u8; 16],
        /// Bridge device.
        pub bridge: String,
        /// Forward mode name.
        pub forward: String,
        /// Active flag.
        pub active: bool,
        /// Lease MACs.
        pub lease_macs: Vec<String>,
        /// Lease IPs.
        pub lease_ips: Vec<String>,
        /// Lease domain names.
        pub lease_domains: Vec<String>,
    }
}

impl From<&NetworkRecord> for WireNetwork {
    fn from(n: &NetworkRecord) -> Self {
        WireNetwork {
            name: n.name.clone(),
            uuid: *n.uuid.as_bytes(),
            bridge: n.bridge.clone(),
            forward: n.forward.clone(),
            active: n.active,
            lease_macs: n.leases.iter().map(|(m, _, _)| m.clone()).collect(),
            lease_ips: n.leases.iter().map(|(_, i, _)| i.clone()).collect(),
            lease_domains: n.leases.iter().map(|(_, _, d)| d.clone()).collect(),
        }
    }
}

impl From<WireNetwork> for NetworkRecord {
    fn from(w: WireNetwork) -> Self {
        let leases = w
            .lease_macs
            .into_iter()
            .zip(w.lease_ips)
            .zip(w.lease_domains)
            .map(|((m, i), d)| (m, i, d))
            .collect();
        NetworkRecord {
            name: w.name,
            uuid: Uuid::from_bytes(w.uuid),
            bridge: w.bridge,
            forward: w.forward,
            active: w.active,
            leases,
        }
    }
}

xdr_struct! {
    /// Wire form of a migration report.
    pub struct WireMigrationReport {
        /// Total duration in ms.
        pub total_ms: u64,
        /// Downtime in ms.
        pub downtime_ms: u64,
        /// Pre-copy iterations.
        pub iterations: u32,
        /// Transferred MiB.
        pub transferred_mib: u64,
        /// Convergence flag.
        pub converged: bool,
    }
}

impl From<&MigrationReport> for WireMigrationReport {
    fn from(r: &MigrationReport) -> Self {
        WireMigrationReport {
            total_ms: r.total_ms,
            downtime_ms: r.downtime_ms,
            iterations: r.iterations,
            transferred_mib: r.transferred_mib,
            converged: r.converged,
        }
    }
}

impl From<WireMigrationReport> for MigrationReport {
    fn from(w: WireMigrationReport) -> Self {
        MigrationReport {
            total_ms: w.total_ms,
            downtime_ms: w.downtime_ms,
            iterations: w.iterations,
            transferred_mib: w.transferred_mib,
            converged: w.converged,
        }
    }
}

xdr_struct! {
    /// Wire form of a lifecycle event.
    pub struct WireEvent {
        /// Domain name.
        pub domain: String,
        /// Domain UUID bytes.
        pub uuid: [u8; 16],
        /// Event kind discriminant.
        pub kind: u32,
        /// Trace id of the request that caused the event, 0 when
        /// untraced (job events carry their job's trace).
        pub trace_id: u64,
    }
}

impl From<&DomainEvent> for WireEvent {
    fn from(e: &DomainEvent) -> Self {
        WireEvent {
            domain: e.domain.clone(),
            uuid: *e.uuid.as_bytes(),
            kind: e.kind.as_u32(),
            trace_id: e.trace_id,
        }
    }
}

impl WireEvent {
    /// Decodes into a [`DomainEvent`], dropping unknown kinds.
    pub fn into_event(self) -> Option<DomainEvent> {
        Some(DomainEvent {
            domain: self.domain,
            uuid: Uuid::from_bytes(self.uuid),
            kind: DomainEventKind::from_u32(self.kind)?,
            trace_id: self.trace_id,
        })
    }
}

xdr_struct! {
    /// Wire form of a domain-job stats snapshot.
    pub struct WireJobStats {
        /// Job kind discriminant.
        pub kind: u32,
        /// Job state discriminant.
        pub state: u32,
        /// Virtual-clock ms since the job started.
        pub elapsed_ms: u64,
        /// Total data the job expects to move, MiB.
        pub data_total_mib: u64,
        /// Data moved so far, MiB.
        pub data_processed_mib: u64,
        /// Data still to move, MiB.
        pub data_remaining_mib: u64,
        /// Pre-copy iterations completed.
        pub memory_iterations: u32,
        /// Failure reason for failed jobs.
        pub error: String,
        /// Trace id of the request that started the job, 0 when
        /// untraced.
        pub trace_id: u64,
    }
}

impl From<&JobStats> for WireJobStats {
    fn from(s: &JobStats) -> Self {
        WireJobStats {
            kind: s.kind.as_u32(),
            state: s.state.as_u32(),
            elapsed_ms: s.elapsed_ms,
            data_total_mib: s.data_total_mib,
            data_processed_mib: s.data_processed_mib,
            data_remaining_mib: s.data_remaining_mib,
            memory_iterations: s.memory_iterations,
            error: s.error.clone(),
            trace_id: s.trace_id,
        }
    }
}

impl From<WireJobStats> for JobStats {
    fn from(w: WireJobStats) -> Self {
        JobStats {
            kind: JobKind::from_u32(w.kind),
            state: JobState::from_u32(w.state),
            elapsed_ms: w.elapsed_ms,
            data_total_mib: w.data_total_mib,
            data_processed_mib: w.data_processed_mib,
            data_remaining_mib: w.data_remaining_mib,
            memory_iterations: w.memory_iterations,
            error: w.error,
            trace_id: w.trace_id,
        }
    }
}

xdr_struct! {
    /// One domain's record in the bulk-stats reply: the name plus an
    /// open-ended typed-parameter list, libvirt's
    /// `virConnectGetAllDomainStats` shape (new stats fields never
    /// change the wire struct).
    pub struct WireDomainStatsRecord {
        /// Domain name.
        pub name: String,
        /// The stats as typed parameters.
        pub params: TypedParamList,
    }
}

/// Wire list of bulk domain-stats records.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDomainStatsList(pub Vec<WireDomainStatsRecord>);

/// The bulk-stats reply payload encoded straight from the driver's
/// records — the bytes of the equivalent [`WireDomainStatsList`], without
/// building one.
#[derive(Debug, Clone, Copy)]
pub struct DomainStatsReply<'a>(pub &'a [DomainStatsRecord]);

/// The one encoder of a bulk-stats list: reserves the exact encoded
/// size up front (a 1000-domain reply is ~156 kB; growing there by
/// doubling would copy it twice over), then writes each record once.
fn encode_stats_list<'a>(
    records: impl ExactSizeIterator<Item = (&'a str, &'a [TypedParam])> + Clone,
    out: &mut Vec<u8>,
) {
    let len: usize = records
        .clone()
        .map(|(name, params)| xdr_str_len(name) + params_encoded_len(params))
        .sum();
    out.reserve(4 + len);
    (records.len() as u32).encode(out);
    for (name, params) in records {
        name.encode(out);
        encode_params(params, out);
    }
}

impl XdrEncode for WireDomainStatsList {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_stats_list(
            self.0
                .iter()
                .map(|r| (r.name.as_str(), r.params.0.as_slice())),
            out,
        );
    }
}

impl XdrEncode for DomainStatsReply<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_stats_list(
            self.0
                .iter()
                .map(|r| (r.name.as_str(), r.params.as_slice())),
            out,
        );
    }
}

/// Smallest encoding of one record: an empty name and an empty
/// parameter list.
const MIN_STATS_RECORD_ENCODED_LEN: usize = 8;

impl XdrDecode for WireDomainStatsList {
    fn decode(cursor: &mut virt_rpc::xdr::Cursor<'_>) -> Result<Self, virt_rpc::xdr::XdrError> {
        let len = u32::decode(cursor)?;
        if len > 1_000_000 {
            return Err(virt_rpc::xdr::XdrError::LengthTooLarge(len));
        }
        // A declared length reserves no more records than the bytes
        // behind it could encode.
        let mut items = Vec::with_capacity(
            (len as usize)
                .min(4096)
                .min(cursor.remaining() / MIN_STATS_RECORD_ENCODED_LEN),
        );
        for _ in 0..len {
            items.push(WireDomainStatsRecord::decode(cursor)?);
        }
        Ok(WireDomainStatsList(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virt_rpc::xdr::{XdrDecode, XdrEncode};

    fn sample_record() -> DomainRecord {
        DomainRecord {
            name: "vm".to_string(),
            uuid: Uuid::from_bytes([9; 16]),
            id: Some(4),
            state: DomainState::Paused,
            memory_mib: 2048,
            max_memory_mib: 4096,
            vcpus: 8,
            persistent: true,
            has_managed_save: false,
            autostart: true,
            cpu_time_ns: 123_456_789,
        }
    }

    #[test]
    fn wire_domain_round_trip() {
        let record = sample_record();
        let wire = WireDomain::from(&record);
        let decoded = WireDomain::from_xdr(&wire.to_xdr()).unwrap();
        let back: DomainRecord = decoded.into();
        assert_eq!(back, record);
    }

    #[test]
    fn inactive_domain_id_encodes_as_minus_one() {
        let mut record = sample_record();
        record.id = None;
        let wire = WireDomain::from(&record);
        assert_eq!(wire.id, -1);
        let back: DomainRecord = WireDomain::from_xdr(&wire.to_xdr()).unwrap().into();
        assert_eq!(back.id, None);
    }

    #[test]
    fn domain_list_round_trip() {
        let list = WireDomainList(vec![
            WireDomain::from(&sample_record()),
            WireDomain::from(&sample_record()),
        ]);
        let decoded = WireDomainList::from_xdr(&list.to_xdr()).unwrap();
        assert_eq!(decoded, list);
    }

    #[test]
    fn node_info_round_trip() {
        let info = NodeInfo {
            hostname: "node".into(),
            hypervisor: "qemu".into(),
            cpus: 16,
            memory_mib: 65536,
            free_memory_mib: 4096,
            active_domains: 10,
            inactive_domains: 3,
        };
        let wire = WireNodeInfo::from(&info);
        let back: NodeInfo = WireNodeInfo::from_xdr(&wire.to_xdr()).unwrap().into();
        assert_eq!(back, info);
    }

    #[test]
    fn network_leases_round_trip_as_parallel_arrays() {
        let record = NetworkRecord {
            name: "default".into(),
            uuid: Uuid::from_bytes([1; 16]),
            bridge: "virbr0".into(),
            forward: "nat".into(),
            active: true,
            leases: vec![
                ("m1".into(), "192.168.122.2".into(), "a".into()),
                ("m2".into(), "192.168.122.3".into(), "b".into()),
            ],
        };
        let wire = WireNetwork::from(&record);
        let back: NetworkRecord = WireNetwork::from_xdr(&wire.to_xdr()).unwrap().into();
        assert_eq!(back, record);
    }

    #[test]
    fn migrate_args_round_trip_options() {
        let options = MigrationOptions {
            bandwidth_mib_s: 500,
            max_downtime_ms: 100,
            max_iterations: 7,
        };
        let args = MigratePerformArgs::from_options("vm", &options);
        let decoded = MigratePerformArgs::from_xdr(&args.to_xdr()).unwrap();
        assert_eq!(decoded.to_options(), options);
        assert_eq!(decoded.name, "vm");
    }

    #[test]
    fn event_round_trip_and_unknown_kind() {
        let event = DomainEvent {
            domain: "vm".into(),
            uuid: Uuid::from_bytes([3; 16]),
            kind: DomainEventKind::MigratedIn,
            trace_id: 0xfeed_beef,
        };
        let wire = WireEvent::from(&event);
        let back = WireEvent::from_xdr(&wire.to_xdr())
            .unwrap()
            .into_event()
            .unwrap();
        assert_eq!(back, event);

        let unknown = WireEvent {
            domain: "vm".into(),
            uuid: [0; 16],
            kind: 999,
            trace_id: 0,
        };
        assert!(unknown.into_event().is_none());
    }

    #[test]
    fn job_stats_round_trip() {
        let stats = JobStats {
            kind: JobKind::Migration,
            state: JobState::Running,
            elapsed_ms: 1234,
            data_total_mib: 4096,
            data_processed_mib: 1024,
            data_remaining_mib: 3072,
            memory_iterations: 2,
            error: String::new(),
            trace_id: 0xabad_cafe,
        };
        let wire = WireJobStats::from(&stats);
        let back: JobStats = WireJobStats::from_xdr(&wire.to_xdr()).unwrap().into();
        assert_eq!(back, stats);
    }

    #[test]
    fn domain_stats_list_round_trip() {
        use crate::typedparam::TypedParam;
        let list = WireDomainStatsList(vec![
            WireDomainStatsRecord {
                name: "vm0".into(),
                params: TypedParamList(vec![
                    TypedParam::uint("state.state", 1),
                    TypedParam::ullong("balloon.current", 2048),
                ]),
            },
            WireDomainStatsRecord {
                name: "vm1".into(),
                params: TypedParamList(vec![TypedParam::string("job.kind", "migration")]),
            },
        ]);
        let decoded = WireDomainStatsList::from_xdr(&list.to_xdr()).unwrap();
        assert_eq!(decoded, list);
    }

    #[test]
    fn stats_reply_encodes_driver_records_as_the_wire_list_exactly_sized() {
        use crate::typedparam::TypedParam;
        let records = vec![
            DomainStatsRecord {
                name: "vm0".into(),
                params: vec![
                    TypedParam::uint("state.state", 1),
                    TypedParam::new("odd", crate::typedparam::ParamValue::Double(1.5)),
                ],
            },
            DomainStatsRecord {
                name: "näme".into(),
                params: vec![TypedParam::string("job.kind", "save")],
            },
        ];
        let list = WireDomainStatsList(
            records
                .iter()
                .cloned()
                .map(|r| WireDomainStatsRecord {
                    name: r.name,
                    params: TypedParamList(r.params),
                })
                .collect(),
        );
        let direct = DomainStatsReply(&records).to_xdr();
        assert_eq!(direct, list.to_xdr());
        // Reserved once, to the byte.
        assert_eq!(direct.capacity(), direct.len());
        assert_eq!(DomainStatsReply(&[]).to_xdr(), 0u32.to_xdr());
    }

    #[test]
    fn stats_list_declared_length_cannot_outrun_its_bytes() {
        // A million records declared, none present: rejected as short
        // (and reserves nothing on the way — see the decoder).
        let mut data = 1_000_000u32.to_xdr();
        assert!(matches!(
            WireDomainStatsList::from_xdr(&data).unwrap_err(),
            virt_rpc::xdr::XdrError::UnexpectedEnd { .. }
        ));
        data = 1_000_001u32.to_xdr();
        assert!(matches!(
            WireDomainStatsList::from_xdr(&data).unwrap_err(),
            virt_rpc::xdr::XdrError::LengthTooLarge(1_000_001)
        ));
    }

    #[test]
    fn guard_status_round_trip() {
        let status = GuardStatus {
            domain: "web".into(),
            policy: GuardPolicy::KeepRunning { max_restarts: 6 },
            restarts: 2,
            gave_up: false,
            next_retry: Some(std::time::Duration::from_millis(150)),
            last_event: "crashed".into(),
        };
        let wire = WireGuardStatus::from(&status);
        let back = WireGuardStatus::from_xdr(&wire.to_xdr())
            .unwrap()
            .into_status()
            .unwrap();
        assert_eq!(back, status);

        // No pending retry encodes as has_next_retry = false.
        let idle = GuardStatus {
            next_retry: None,
            gave_up: true,
            ..status
        };
        let back = WireGuardStatus::from(&idle).into_status().unwrap();
        assert_eq!(back, idle);

        // Unknown policy kinds decode to None, not garbage.
        let unknown = WireGuardStatus {
            domain: "x".into(),
            kind: 77,
            param: 0,
            restarts: 0,
            gave_up: false,
            has_next_retry: false,
            next_retry_ms: 0,
            last_event: String::new(),
        };
        assert!(unknown.into_status().is_none());

        let list = WireGuardStatusList(vec![WireGuardStatus::from(&GuardStatus {
            domain: "a".into(),
            policy: GuardPolicy::AutoResume,
            restarts: 0,
            gave_up: false,
            next_retry: None,
            last_event: "armed".into(),
        })]);
        let decoded = WireGuardStatusList::from_xdr(&list.to_xdr()).unwrap();
        assert_eq!(decoded, list);
    }

    #[test]
    fn guard_set_args_round_trip() {
        for policy in [
            GuardPolicy::KeepRunning { max_restarts: 3 },
            GuardPolicy::AutoResume,
            GuardPolicy::GracefulStop { timeout_ms: 900 },
        ] {
            let args = GuardSetArgs::from_policy("vm", &policy);
            let decoded = GuardSetArgs::from_xdr(&args.to_xdr()).unwrap();
            assert_eq!(decoded.to_policy(), Some(policy));
            assert_eq!(decoded.name, "vm");
        }
        assert_eq!(
            GuardSetArgs {
                name: "vm".into(),
                kind: 0,
                param: 0
            }
            .to_policy(),
            None
        );
    }

    #[test]
    fn priority_classification() {
        assert!(is_high_priority(proc::LIST_DOMAINS));
        assert!(is_high_priority(proc::NODE_INFO));
        assert!(is_high_priority(proc::DOMAIN_DUMP_XML));
        // Job query/abort and bulk stats must get through while normal
        // workers are saturated by the jobs themselves.
        assert!(is_high_priority(proc::DOMAIN_GET_JOB_STATS));
        assert!(is_high_priority(proc::DOMAIN_ABORT_JOB));
        assert!(is_high_priority(proc::CONNECT_GET_ALL_DOMAIN_STATS));
        // Autostart: the getter is a pure read, the setter mutates.
        assert!(is_high_priority(proc::DOMAIN_GET_AUTOSTART));
        assert!(!is_high_priority(proc::DOMAIN_SET_AUTOSTART));
        assert!(!is_high_priority(proc::DOMAIN_START));
        assert!(!is_high_priority(proc::MIGRATE_PERFORM));
        assert!(!is_high_priority(proc::DOMAIN_DESTROY));
        // Guard queries are pure reads; mutating guard procedures and
        // crash injection ride ordinary workers.
        assert!(is_high_priority(proc::GUARD_LIST));
        assert!(is_high_priority(proc::GUARD_STATUS));
        assert!(!is_high_priority(proc::GUARD_SET));
        assert!(!is_high_priority(proc::GUARD_REMOVE));
        assert!(!is_high_priority(proc::DOMAIN_CRASH));
    }

    #[test]
    fn readonly_sessions_cannot_abort_jobs() {
        // High-priority but mutating: the one exception to
        // "high-priority implies readonly-safe".
        assert!(!is_readonly_safe(proc::DOMAIN_ABORT_JOB));
        assert!(is_readonly_safe(proc::DOMAIN_GET_JOB_STATS));
        assert!(is_readonly_safe(proc::CONNECT_GET_ALL_DOMAIN_STATS));
        assert!(is_readonly_safe(proc::LIST_DOMAINS));
        assert!(is_readonly_safe(proc::AUTH));
        assert!(!is_readonly_safe(proc::DOMAIN_START));
        assert!(is_readonly_safe(proc::GUARD_LIST));
        assert!(is_readonly_safe(proc::GUARD_STATUS));
        assert!(!is_readonly_safe(proc::GUARD_SET));
        assert!(!is_readonly_safe(proc::GUARD_REMOVE));
        assert!(!is_readonly_safe(proc::DOMAIN_CRASH));
    }

    #[test]
    fn idempotency_classification() {
        // Pure reads are idempotent.
        assert!(is_idempotent(proc::GET_HOSTNAME));
        assert!(is_idempotent(proc::LIST_DOMAINS));
        assert!(is_idempotent(proc::DOMAIN_DUMP_XML));
        assert!(is_idempotent(proc::NETWORK_INFO));
        // Session management and mutations are not.
        assert!(!is_idempotent(proc::OPEN));
        assert!(!is_idempotent(proc::AUTH));
        assert!(!is_idempotent(proc::EVENT_REGISTER));
        assert!(!is_idempotent(proc::DOMAIN_START));
        assert!(!is_idempotent(proc::DOMAIN_DESTROY));
        assert!(!is_idempotent(proc::VOLUME_CLONE));
        assert!(!is_idempotent(proc::MIGRATE_PERFORM));
        // Job queries are pure reads; abort is a mutation (a retried
        // abort could cancel a *different*, later job).
        assert!(is_idempotent(proc::DOMAIN_GET_JOB_STATS));
        assert!(is_idempotent(proc::CONNECT_GET_ALL_DOMAIN_STATS));
        assert!(is_idempotent(proc::DOMAIN_GET_AUTOSTART));
        assert!(!is_idempotent(proc::DOMAIN_SET_AUTOSTART));
        assert!(!is_idempotent(proc::DOMAIN_ABORT_JOB));
        // Guard queries are reads; set/remove/crash mutate. (Re-setting
        // the same policy would be harmless, but a retried set racing a
        // crash storm could reset a climbing backoff ladder.)
        assert!(is_idempotent(proc::GUARD_LIST));
        assert!(is_idempotent(proc::GUARD_STATUS));
        assert!(!is_idempotent(proc::GUARD_SET));
        assert!(!is_idempotent(proc::GUARD_REMOVE));
        assert!(!is_idempotent(proc::DOMAIN_CRASH));
        // Idempotent procedures are a strict subset of high-priority ones.
        for (num, name) in proc::ALL {
            if is_idempotent(*num) {
                assert!(is_high_priority(*num), "{name} idempotent but not prio");
            }
        }
    }

    #[test]
    fn procedure_numbers_are_unique() {
        let all = [
            proc::OPEN,
            proc::CLOSE,
            proc::GET_HOSTNAME,
            proc::GET_CAPABILITIES,
            proc::NODE_INFO,
            proc::LIST_DOMAINS,
            proc::DOMAIN_LOOKUP_NAME,
            proc::DOMAIN_LOOKUP_ID,
            proc::DOMAIN_LOOKUP_UUID,
            proc::DOMAIN_DEFINE_XML,
            proc::DOMAIN_CREATE_XML,
            proc::DOMAIN_UNDEFINE,
            proc::DOMAIN_START,
            proc::DOMAIN_SHUTDOWN,
            proc::DOMAIN_REBOOT,
            proc::DOMAIN_DESTROY,
            proc::DOMAIN_SUSPEND,
            proc::DOMAIN_RESUME,
            proc::DOMAIN_SAVE,
            proc::DOMAIN_RESTORE,
            proc::DOMAIN_SET_MEMORY,
            proc::DOMAIN_SET_VCPUS,
            proc::DOMAIN_ATTACH_DEVICE,
            proc::DOMAIN_DETACH_DEVICE,
            proc::DOMAIN_SNAPSHOT,
            proc::DOMAIN_LIST_SNAPSHOTS,
            proc::DOMAIN_SET_AUTOSTART,
            proc::DOMAIN_DUMP_XML,
            proc::DOMAIN_SNAPSHOT_REVERT,
            proc::DOMAIN_SNAPSHOT_DELETE,
            proc::DOMAIN_GET_JOB_STATS,
            proc::DOMAIN_ABORT_JOB,
            proc::CONNECT_GET_ALL_DOMAIN_STATS,
            proc::DOMAIN_GET_AUTOSTART,
            proc::MIGRATE_BEGIN,
            proc::MIGRATE_PREPARE,
            proc::MIGRATE_PERFORM,
            proc::MIGRATE_FINISH,
            proc::MIGRATE_CONFIRM,
            proc::MIGRATE_ABORT,
            proc::LIST_POOLS,
            proc::POOL_INFO,
            proc::POOL_DEFINE_XML,
            proc::POOL_START,
            proc::POOL_STOP,
            proc::POOL_UNDEFINE,
            proc::LIST_VOLUMES,
            proc::VOLUME_INFO,
            proc::VOLUME_CREATE_XML,
            proc::VOLUME_DELETE,
            proc::VOLUME_RESIZE,
            proc::VOLUME_CLONE,
            proc::LIST_NETWORKS,
            proc::NETWORK_INFO,
            proc::NETWORK_DEFINE_XML,
            proc::NETWORK_START,
            proc::NETWORK_STOP,
            proc::NETWORK_UNDEFINE,
            proc::EVENT_REGISTER,
            proc::EVENT_DEREGISTER,
            proc::EVENT_LIFECYCLE,
            proc::EVENT_DOMAIN_JOB,
            proc::DOMAIN_CRASH,
            proc::GUARD_SET,
            proc::GUARD_REMOVE,
            proc::GUARD_LIST,
            proc::GUARD_STATUS,
        ];
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }
}
