//! The internal driver architecture.
//!
//! This is libvirt's load-bearing design decision: the public API is a
//! thin veneer over a table of driver entry points
//! ([`HypervisorConnection`]), with one implementation per virtualization
//! platform plus the remote driver that tunnels every call to a daemon.
//! Driver selection is by URI scheme, with the remote driver as the
//! fallback for any scheme no client-side driver claims.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use virt_metrics::wire_enum;

use crate::capabilities::Capabilities;
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::event::{CallbackId, EventCallback};
use crate::guard::{GuardPolicy, GuardStatus};
use crate::job::{JobKind, JobStats};
use crate::typedparam::{stats_field, ParamValue, TypedParam};
use crate::uri::ConnectUri;
use crate::uuid::Uuid;

/// Connection options resolved by the connect builder and handed to the
/// winning driver. Every field is optional; `None` means "driver
/// default". Local drivers are free to ignore transport-level options.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenOptions {
    /// Default deadline applied to every RPC call on the connection.
    pub call_deadline: Option<Duration>,
    /// How many times an idempotent call is retried after a connection
    /// failure.
    pub retries: Option<u32>,
    /// Whether a dead connection is transparently re-dialed.
    pub reconnect: Option<bool>,
}

wire_enum! {
    /// Public lifecycle state of a domain.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum DomainState {
        /// Defined but not running.
        Shutoff = 0 => "shut off",
        /// Executing.
        Running = 1 => "running",
        /// vCPUs paused.
        Paused = 2 => "paused",
        /// Memory saved to storage.
        Saved = 3 => "saved",
        /// The guest crashed.
        Crashed = 4 => "crashed",
    }
}

impl DomainState {
    /// `true` for running or paused.
    pub fn is_active(self) -> bool {
        matches!(self, DomainState::Running | DomainState::Paused)
    }
}

/// A number this build does not know decodes as `Shutoff`.
impl From<u32> for DomainState {
    fn from(number: u32) -> Self {
        Self::from_u32(number).unwrap_or(DomainState::Shutoff)
    }
}

impl From<hypersim::DomainState> for DomainState {
    fn from(state: hypersim::DomainState) -> Self {
        match state {
            hypersim::DomainState::Shutoff => DomainState::Shutoff,
            hypersim::DomainState::Running => DomainState::Running,
            hypersim::DomainState::Paused => DomainState::Paused,
            hypersim::DomainState::Saved => DomainState::Saved,
            hypersim::DomainState::Crashed => DomainState::Crashed,
        }
    }
}

/// Snapshot of a domain as reported through the driver interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRecord {
    /// Name, unique per host.
    pub name: String,
    /// Stable identifier.
    pub uuid: Uuid,
    /// Hypervisor id while active.
    pub id: Option<u32>,
    /// Lifecycle state.
    pub state: DomainState,
    /// Current memory in MiB.
    pub memory_mib: u64,
    /// Balloon ceiling in MiB.
    pub max_memory_mib: u64,
    /// vCPU count.
    pub vcpus: u32,
    /// Whether the configuration is persisted.
    pub persistent: bool,
    /// Whether a managed-save image exists.
    pub has_managed_save: bool,
    /// Whether the domain starts with the host.
    pub autostart: bool,
    /// Simulated vCPU time consumed, nanoseconds.
    pub cpu_time_ns: u64,
}

impl From<hypersim::DomainInfo> for DomainRecord {
    fn from(info: hypersim::DomainInfo) -> Self {
        DomainRecord {
            name: info.name,
            uuid: Uuid::from_bytes(info.uuid),
            id: info.id,
            state: info.state.into(),
            memory_mib: info.memory.0,
            max_memory_mib: info.max_memory.0,
            vcpus: info.vcpus,
            persistent: info.persistent,
            has_managed_save: info.has_managed_save,
            autostart: info.autostart,
            cpu_time_ns: info.cpu_time_ns,
        }
    }
}

/// Host facts as reported by `virsh nodeinfo`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Host name.
    pub hostname: String,
    /// Hypervisor kind.
    pub hypervisor: String,
    /// Physical CPUs.
    pub cpus: u32,
    /// Physical memory in MiB.
    pub memory_mib: u64,
    /// Unreserved memory in MiB.
    pub free_memory_mib: u64,
    /// Active domain count.
    pub active_domains: u32,
    /// Inactive (defined) domain count.
    pub inactive_domains: u32,
}

/// Snapshot of a storage pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolRecord {
    /// Pool name.
    pub name: String,
    /// Stable identifier.
    pub uuid: Uuid,
    /// Backend kind (`dir`, `logical`, `iscsi`, `netfs`).
    pub backend: String,
    /// Total capacity in MiB.
    pub capacity_mib: u64,
    /// Allocated in MiB.
    pub allocation_mib: u64,
    /// Whether the pool is started.
    pub active: bool,
    /// Number of volumes.
    pub volume_count: u32,
}

/// Snapshot of a storage volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeRecord {
    /// Volume name, unique in its pool.
    pub name: String,
    /// Owning pool.
    pub pool: String,
    /// Logical capacity in MiB.
    pub capacity_mib: u64,
    /// Allocated bytes in MiB.
    pub allocation_mib: u64,
    /// Image format.
    pub format: String,
    /// Backing path.
    pub path: String,
}

/// Snapshot of a virtual network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkRecord {
    /// Network name.
    pub name: String,
    /// Stable identifier.
    pub uuid: Uuid,
    /// Bridge device.
    pub bridge: String,
    /// Forward mode string.
    pub forward: String,
    /// Whether the network is started.
    pub active: bool,
    /// `mac ip domain` triplets of current leases.
    pub leases: Vec<(String, String, String)>,
}

/// Report of a completed live migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// End-to-end duration in milliseconds (simulated time).
    pub total_ms: u64,
    /// Guest downtime in milliseconds (simulated time).
    pub downtime_ms: u64,
    /// Pre-copy iterations performed.
    pub iterations: u32,
    /// Data moved in MiB.
    pub transferred_mib: u64,
    /// Whether pre-copy converged within the downtime budget.
    pub converged: bool,
}

/// One domain's entry in a bulk-stats reply
/// (`virConnectGetAllDomainStats`): the name plus an open-ended
/// typed-parameter list, so new stats never change the record shape.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainStatsRecord {
    /// Domain name.
    pub name: String,
    /// The stats as typed parameters.
    pub params: Vec<TypedParam>,
}

impl DomainStatsRecord {
    /// Builds the canonical parameter set from a domain record and its
    /// job stats. Shared by every driver that answers bulk stats.
    pub fn compose(domain: &DomainRecord, job: &JobStats) -> Self {
        DomainStatsRecord {
            name: domain.name.clone(),
            params: StatsParams::of(domain, job).into_vec(),
        }
    }
}

/// One domain's bulk-stats parameters built in place — the stack form of
/// [`DomainStatsRecord::compose`]'s list, for a visitor that only reads
/// it: the five facts, then the three `job.*` fields for a domain with
/// job history. Only those two `job.*` strings allocate.
pub(crate) struct StatsParams {
    params: [TypedParam; 8],
    len: usize,
}

impl StatsParams {
    /// The parameters of a domain with these facts and this job.
    pub(crate) fn new(
        state: DomainState,
        cpu_time_ns: u64,
        memory_mib: u64,
        max_memory_mib: u64,
        vcpus: u32,
        job: &JobStats,
    ) -> Self {
        // What a domain without job history leaves in the `job.*` slots;
        // never read.
        const UNUSED: TypedParam = TypedParam {
            field: Cow::Borrowed(""),
            value: ParamValue::UInt(0),
        };
        let has_job = job.kind != JobKind::None;
        let [kind, job_state, progress] = if has_job {
            [
                TypedParam::string(stats_field::JOB_KIND, job.kind.to_string()),
                TypedParam::string(stats_field::JOB_STATE, job.state.to_string()),
                TypedParam::uint(stats_field::JOB_PROGRESS, job.progress_percent()),
            ]
        } else {
            [UNUSED; 3]
        };
        StatsParams {
            params: [
                TypedParam::uint(stats_field::STATE, state.as_u32()),
                TypedParam::ullong(stats_field::CPU_TIME, cpu_time_ns),
                TypedParam::ullong(stats_field::BALLOON_CURRENT, memory_mib),
                TypedParam::ullong(stats_field::BALLOON_MAXIMUM, max_memory_mib),
                TypedParam::uint(stats_field::VCPU_CURRENT, vcpus),
                kind,
                job_state,
                progress,
            ],
            len: if has_job { 8 } else { 5 },
        }
    }

    fn of(domain: &DomainRecord, job: &JobStats) -> Self {
        Self::new(
            domain.state,
            domain.cpu_time_ns,
            domain.memory_mib,
            domain.max_memory_mib,
            domain.vcpus,
            job,
        )
    }

    /// The parameters as a list of exactly their length.
    fn into_vec(self) -> Vec<TypedParam> {
        self.params.into_iter().take(self.len).collect()
    }
}

impl std::ops::Deref for StatsParams {
    type Target = [TypedParam];

    fn deref(&self) -> &[TypedParam] {
        &self.params[..self.len]
    }
}

/// Bulk stats composed from the per-domain entry points: one
/// [`HypervisorConnection::list_domains`], then each domain's job stats
/// (a failed job query costs that domain its `job.*` fields, never its
/// record). This is what [`HypervisorConnection::for_each_domain_stats`]
/// does by default, collected, and the reference a driver's own visitor
/// must match record for record and charge for charge.
///
/// # Errors
///
/// Whatever `list_domains` fails with.
pub fn compose_all_domain_stats<C: HypervisorConnection + ?Sized>(
    conn: &C,
) -> VirtResult<Vec<DomainStatsRecord>> {
    let mut records = Vec::new();
    for domain in conn.list_domains()? {
        let job = conn.domain_job_stats(&domain.name).unwrap_or_default();
        records.push(DomainStatsRecord::compose(&domain, &job));
    }
    Ok(records)
}

/// Tunables of a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationOptions {
    /// Link bandwidth in MiB/s.
    pub bandwidth_mib_s: u64,
    /// Downtime budget in milliseconds.
    pub max_downtime_ms: u64,
    /// Pre-copy iteration cap.
    pub max_iterations: u32,
}

impl Default for MigrationOptions {
    fn default() -> Self {
        MigrationOptions {
            bandwidth_mib_s: 1024,
            max_downtime_ms: 300,
            max_iterations: 30,
        }
    }
}

/// The complete driver entry-point table.
///
/// Every public API call maps 1:1 onto one of these methods; the five
/// concrete implementations are the embedded platform drivers
/// (qemu/xen/lxc), the stateless ESX driver, the test driver, and the
/// remote driver. Object-safe by construction so connections are held as
/// `Arc<dyn HypervisorConnection>`.
pub trait HypervisorConnection: Send + Sync + std::fmt::Debug {
    /// The canonical URI of this connection.
    fn uri(&self) -> String;

    /// The managed host's name.
    ///
    /// # Errors
    ///
    /// Driver-specific failures (e.g. host down).
    fn hostname(&self) -> VirtResult<String>;

    /// Host facts.
    ///
    /// # Errors
    ///
    /// Driver-specific failures.
    fn node_info(&self) -> VirtResult<NodeInfo>;

    /// Hypervisor capabilities.
    ///
    /// # Errors
    ///
    /// Driver-specific failures.
    fn capabilities(&self) -> VirtResult<Capabilities>;

    /// Whether the connection is usable.
    fn is_alive(&self) -> bool;

    /// Closes the connection. Idempotent.
    fn close(&self);

    // ---- domains -------------------------------------------------------

    /// All domains (active and defined).
    ///
    /// # Errors
    ///
    /// Driver-specific failures.
    fn list_domains(&self) -> VirtResult<Vec<DomainRecord>>;

    /// Lookup by name.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`] when absent.
    fn lookup_domain_by_name(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Lookup by active id.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`] when absent.
    fn lookup_domain_by_id(&self, id: u32) -> VirtResult<DomainRecord>;

    /// Lookup by UUID.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`] when absent.
    fn lookup_domain_by_uuid(&self, uuid: Uuid) -> VirtResult<DomainRecord>;

    /// Persists a domain from its XML description.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`], [`ErrorCode::DomainExists`].
    fn define_domain_xml(&self, xml: &str) -> VirtResult<DomainRecord>;

    /// Creates and starts a transient domain from XML.
    ///
    /// # Errors
    ///
    /// As define plus start failures.
    fn create_domain_xml(&self, xml: &str) -> VirtResult<DomainRecord>;

    /// Removes a domain's persisted configuration (libvirt's
    /// `virDomainUndefine`). An inactive domain disappears entirely; a
    /// *running* domain keeps executing as transient — its definition is
    /// gone, and it vanishes for good when it stops.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`], [`ErrorCode::OperationInvalid`].
    fn undefine_domain(&self, name: &str) -> VirtResult<()>;

    /// Starts a defined domain.
    ///
    /// # Errors
    ///
    /// Lifecycle and capacity failures.
    fn start_domain(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Graceful shutdown.
    ///
    /// # Errors
    ///
    /// Lifecycle failures.
    fn shutdown_domain(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Reboot.
    ///
    /// # Errors
    ///
    /// Lifecycle failures.
    fn reboot_domain(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Hard power-off.
    ///
    /// # Errors
    ///
    /// Lifecycle failures.
    fn destroy_domain(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Pause vCPUs.
    ///
    /// # Errors
    ///
    /// Lifecycle failures.
    fn suspend_domain(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Resume vCPUs.
    ///
    /// # Errors
    ///
    /// Lifecycle failures.
    fn resume_domain(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Managed save to storage.
    ///
    /// # Errors
    ///
    /// Lifecycle failures; [`ErrorCode::NoSupport`] on platforms without
    /// save/restore.
    fn save_domain(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Restore from the managed save image.
    ///
    /// # Errors
    ///
    /// Lifecycle failures.
    fn restore_domain(&self, name: &str) -> VirtResult<DomainRecord>;

    /// Memory ballooning.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] above the ceiling; capacity failures.
    fn set_domain_memory(&self, name: &str, memory_mib: u64) -> VirtResult<DomainRecord>;

    /// vCPU hotplug.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`]; capacity failures.
    fn set_domain_vcpus(&self, name: &str, vcpus: u32) -> VirtResult<DomainRecord>;

    /// Attaches a device described by XML (currently `<disk>`).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`], duplicate targets.
    fn attach_device(&self, name: &str, device_xml: &str) -> VirtResult<DomainRecord>;

    /// Detaches the disk with the given target.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] when no such target.
    fn detach_device(&self, name: &str, target: &str) -> VirtResult<DomainRecord>;

    /// Takes a named snapshot.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSupport`] on platforms without snapshots; duplicate
    /// names.
    fn snapshot_domain(&self, name: &str, snapshot: &str) -> VirtResult<DomainRecord>;

    /// Lists snapshot names.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`].
    fn list_snapshots(&self, name: &str) -> VirtResult<Vec<String>>;

    /// Reverts the domain to a named snapshot (state + memory).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] for unknown snapshots; capacity failures
    /// when reverting to an active snapshot no longer fits.
    fn revert_snapshot(&self, name: &str, snapshot: &str) -> VirtResult<DomainRecord>;

    /// Deletes a named snapshot.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] for unknown snapshots.
    fn delete_snapshot(&self, name: &str, snapshot: &str) -> VirtResult<()>;

    /// Toggles autostart.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`].
    fn set_autostart(&self, name: &str, autostart: bool) -> VirtResult<()>;

    /// Reads the autostart flag. The default derives it from the domain
    /// record; the remote driver overrides this with a dedicated wire
    /// call (`DOMAIN_GET_AUTOSTART`), mirroring libvirt's paired
    /// get/set entry points.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`].
    fn get_autostart(&self, name: &str) -> VirtResult<bool> {
        Ok(self.lookup_domain_by_name(name)?.autostart)
    }

    /// The domain's XML description.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`].
    fn dump_domain_xml(&self, name: &str) -> VirtResult<String>;

    // ---- guards ---------------------------------------------------------

    /// Forces a guest crash (chaos/test tooling): the domain drops to
    /// crashed with no graceful path, as if the guest kernel panicked.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`], [`ErrorCode::OperationInvalid`] when
    /// inactive; [`ErrorCode::NoSupport`] on drivers without crash
    /// injection.
    fn crash_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _ = name;
        Err(VirtError::new(
            ErrorCode::NoSupport,
            "crash injection is not supported by this driver",
        ))
    }

    /// Installs (or replaces) an availability guard on a domain.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`]; [`ErrorCode::NoSupport`] on drivers
    /// without a guard engine.
    fn guard_set(&self, name: &str, policy: &GuardPolicy) -> VirtResult<()> {
        let _ = (name, policy);
        Err(VirtError::new(
            ErrorCode::NoSupport,
            "guards are not supported by this driver",
        ))
    }

    /// Removes a domain's guard.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`] when no guard is defined;
    /// [`ErrorCode::NoSupport`].
    fn guard_remove(&self, name: &str) -> VirtResult<()> {
        let _ = name;
        Err(VirtError::new(
            ErrorCode::NoSupport,
            "guards are not supported by this driver",
        ))
    }

    /// Status of every defined guard, sorted by domain name.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSupport`].
    fn guard_list(&self) -> VirtResult<Vec<GuardStatus>> {
        Err(VirtError::new(
            ErrorCode::NoSupport,
            "guards are not supported by this driver",
        ))
    }

    /// Status of one domain's guard.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`] when no guard is defined;
    /// [`ErrorCode::NoSupport`].
    fn guard_status(&self, name: &str) -> VirtResult<GuardStatus> {
        let _ = name;
        Err(VirtError::new(
            ErrorCode::NoSupport,
            "guards are not supported by this driver",
        ))
    }

    // ---- migration internals --------------------------------------------

    /// Source side, phase 1: produce the description to ship.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`]; [`ErrorCode::OperationInvalid`] when not
    /// running; [`ErrorCode::NoSupport`].
    fn migrate_begin(&self, name: &str) -> VirtResult<String>;

    /// Destination side, phase 2: validate and reserve.
    ///
    /// # Errors
    ///
    /// Capacity and duplicate failures.
    fn migrate_prepare(&self, xml: &str) -> VirtResult<()>;

    /// Source side, phase 3: transfer memory (pre-copy loop).
    ///
    /// # Errors
    ///
    /// Transfer failures.
    fn migrate_perform(
        &self,
        name: &str,
        options: &MigrationOptions,
    ) -> VirtResult<MigrationReport>;

    /// Destination side, phase 4: start the incoming domain.
    ///
    /// # Errors
    ///
    /// Capacity/duplicate failures (rolls the reservation back).
    fn migrate_finish(&self, xml: &str) -> VirtResult<DomainRecord>;

    /// Source side, phase 5: forget the migrated-away domain.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`].
    fn migrate_confirm(&self, name: &str) -> VirtResult<()>;

    /// Destination side, abort: release the prepare-phase reservation.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`] when nothing was reserved.
    fn migrate_abort(&self, name: &str) -> VirtResult<()>;

    // ---- jobs & bulk stats -----------------------------------------------

    /// Current (or most recent) job stats of a domain. Drivers that run
    /// no background jobs report the idle default.
    ///
    /// # Errors
    ///
    /// Driver-specific failures.
    fn domain_job_stats(&self, name: &str) -> VirtResult<JobStats> {
        let _ = name;
        Ok(JobStats::default())
    }

    /// Requests cancellation of the running job on a domain.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationInvalid`] when no job is running (always,
    /// for drivers that run no background jobs).
    fn abort_domain_job(&self, name: &str) -> VirtResult<()> {
        Err(VirtError::new(
            ErrorCode::OperationInvalid,
            format!("domain '{name}' has no active job"),
        ))
    }

    /// Stats of every domain in one call (`virConnectGetAllDomainStats`),
    /// handed to `visit` one domain at a time — name, then typed
    /// parameters — in name order, with nothing kept. This is the bulk
    /// entry point a driver implements. The default composes each row
    /// from [`HypervisorConnection::list_domains`] and per-domain job
    /// stats, for drivers without a domain table of their own; the
    /// embedded driver visits its host's table in one pass (same rows,
    /// same simulated cost), the remote driver reads the daemon's single
    /// reply row by row.
    ///
    /// `visit` runs under the driver's locks — the host table's read lock
    /// and the domain's mutex, or the connection's receive side while the
    /// reply is read — so it must not call back into this connection.
    ///
    /// # Errors
    ///
    /// Driver-specific failures.
    fn for_each_domain_stats(&self, visit: &mut dyn FnMut(&str, &[TypedParam])) -> VirtResult<()> {
        for domain in self.list_domains()? {
            let job = self.domain_job_stats(&domain.name).unwrap_or_default();
            visit(&domain.name, &StatsParams::of(&domain, &job));
        }
        Ok(())
    }

    /// Stats of every domain in one call, collected from
    /// [`HypervisorConnection::for_each_domain_stats`]: one name and one
    /// parameter list per domain. Drivers implement the visitor, never
    /// this.
    ///
    /// # Errors
    ///
    /// Whatever the visit fails with.
    fn get_all_domain_stats(&self) -> VirtResult<Vec<DomainStatsRecord>> {
        let mut records = Vec::new();
        self.for_each_domain_stats(&mut |name, params| {
            records.push(DomainStatsRecord {
                name: name.to_string(),
                params: params.to_vec(),
            });
        })?;
        Ok(records)
    }

    // ---- storage ---------------------------------------------------------

    /// All pool names.
    ///
    /// # Errors
    ///
    /// Driver failures.
    fn list_pools(&self) -> VirtResult<Vec<String>>;

    /// Pool facts.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoStoragePool`].
    fn pool_info(&self, name: &str) -> VirtResult<PoolRecord>;

    /// Defines a pool from XML.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::StorageExists`], [`ErrorCode::XmlError`].
    fn define_pool_xml(&self, xml: &str) -> VirtResult<PoolRecord>;

    /// Starts a pool.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoStoragePool`].
    fn start_pool(&self, name: &str) -> VirtResult<()>;

    /// Stops a pool.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoStoragePool`].
    fn stop_pool(&self, name: &str) -> VirtResult<()>;

    /// Removes an inactive pool.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationInvalid`] when active.
    fn undefine_pool(&self, name: &str) -> VirtResult<()>;

    /// Volume names within a pool.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoStoragePool`].
    fn list_volumes(&self, pool: &str) -> VirtResult<Vec<String>>;

    /// Volume facts.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoStorageVol`].
    fn volume_info(&self, pool: &str, name: &str) -> VirtResult<VolumeRecord>;

    /// Creates a volume from XML.
    ///
    /// # Errors
    ///
    /// Capacity and duplicate failures.
    fn create_volume_xml(&self, pool: &str, xml: &str) -> VirtResult<VolumeRecord>;

    /// Deletes a volume.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoStorageVol`].
    fn delete_volume(&self, pool: &str, name: &str) -> VirtResult<()>;

    /// Grows a volume.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] on shrink; capacity failures.
    fn resize_volume(&self, pool: &str, name: &str, capacity_mib: u64) -> VirtResult<()>;

    /// Clones a volume within its pool.
    ///
    /// # Errors
    ///
    /// Duplicate and capacity failures.
    fn clone_volume(&self, pool: &str, source: &str, new_name: &str) -> VirtResult<VolumeRecord>;

    // ---- networks ----------------------------------------------------------

    /// All network names.
    ///
    /// # Errors
    ///
    /// Driver failures.
    fn list_networks(&self) -> VirtResult<Vec<String>>;

    /// Network facts.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoNetwork`].
    fn network_info(&self, name: &str) -> VirtResult<NetworkRecord>;

    /// Defines a network from XML.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NetworkExists`], [`ErrorCode::XmlError`].
    fn define_network_xml(&self, xml: &str) -> VirtResult<NetworkRecord>;

    /// Starts a network.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoNetwork`].
    fn start_network(&self, name: &str) -> VirtResult<()>;

    /// Stops a network.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoNetwork`].
    fn stop_network(&self, name: &str) -> VirtResult<()>;

    /// Removes an inactive network.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationInvalid`] when active.
    fn undefine_network(&self, name: &str) -> VirtResult<()>;

    // ---- events -------------------------------------------------------------

    /// Registers a lifecycle-event callback.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSupport`] on drivers without event support.
    fn register_event_callback(&self, callback: EventCallback) -> VirtResult<CallbackId>;

    /// Removes a previously registered callback.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] for unknown ids.
    fn unregister_event_callback(&self, id: CallbackId) -> VirtResult<()>;
}

/// A client-side driver: claims URIs and opens connections.
pub trait HypervisorDriver: Send + Sync + std::fmt::Debug {
    /// A short name for diagnostics (`test`, `esx`, `remote`, ...).
    fn name(&self) -> &'static str;

    /// Whether this driver claims the URI.
    fn probe(&self, uri: &ConnectUri) -> bool;

    /// Opens a connection. Local drivers, with no transport to
    /// configure, ignore the options.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoConnect`] and driver-specific failures.
    fn open(
        &self,
        uri: &ConnectUri,
        options: &OpenOptions,
    ) -> VirtResult<Arc<dyn HypervisorConnection>>;
}

/// An ordered set of drivers with libvirt's resolution rule: the first
/// driver that probes positive wins; otherwise the fallback (the remote
/// driver) is consulted.
pub struct DriverRegistry {
    drivers: Vec<Arc<dyn HypervisorDriver>>,
    fallback: Option<Arc<dyn HypervisorDriver>>,
}

impl std::fmt::Debug for DriverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.drivers.iter().map(|d| d.name()).collect();
        f.debug_struct("DriverRegistry")
            .field("drivers", &names)
            .field("fallback", &self.fallback.as_ref().map(|d| d.name()))
            .finish()
    }
}

impl DriverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DriverRegistry {
            drivers: Vec::new(),
            fallback: None,
        }
    }

    /// Appends a driver.
    pub fn register(&mut self, driver: Arc<dyn HypervisorDriver>) {
        self.drivers.push(driver);
    }

    /// Sets the fallback driver for unclaimed schemes.
    pub(crate) fn set_fallback(&mut self, driver: Arc<dyn HypervisorDriver>) {
        self.fallback = Some(driver);
    }

    /// Resolves a URI and opens a connection.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoConnect`] when no driver claims the URI and no
    /// fallback is set; otherwise the winning driver's errors.
    pub fn open(
        &self,
        uri: &ConnectUri,
        options: &OpenOptions,
    ) -> VirtResult<Arc<dyn HypervisorConnection>> {
        for driver in &self.drivers {
            if driver.probe(uri) {
                return driver.open(uri, options);
            }
        }
        match &self.fallback {
            Some(fallback) => fallback.open(uri, options),
            None => Err(VirtError::new(
                ErrorCode::NoConnect,
                format!("no driver for uri '{uri}'"),
            )),
        }
    }
}

impl Default for DriverRegistry {
    fn default() -> Self {
        DriverRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_state_wire_round_trip() {
        for state in [
            DomainState::Shutoff,
            DomainState::Running,
            DomainState::Paused,
            DomainState::Saved,
            DomainState::Crashed,
        ] {
            assert_eq!(DomainState::from_u32(state.as_u32()), Some(state));
            assert_eq!(DomainState::from(state.as_u32()), state);
        }
        assert_eq!(DomainState::from_u32(77), None);
        assert_eq!(DomainState::from(77), DomainState::Shutoff);
    }

    #[test]
    fn domain_state_from_hypersim() {
        assert_eq!(
            DomainState::from(hypersim::DomainState::Running),
            DomainState::Running
        );
        assert!(DomainState::Paused.is_active());
        assert!(!DomainState::Saved.is_active());
        assert_eq!(DomainState::Running.to_string(), "running");
    }

    #[test]
    fn record_from_hypersim_info() {
        let host = hypersim::SimHost::builder("h")
            .latency(hypersim::LatencyModel::zero())
            .build();
        host.define_domain(hypersim::DomainSpec::new("vm").memory_mib(1024).vcpus(2))
            .unwrap();
        let info = host.domain("vm").unwrap();
        let record: DomainRecord = info.into();
        assert_eq!(record.name, "vm");
        assert_eq!(record.memory_mib, 1024);
        assert_eq!(record.vcpus, 2);
        assert_eq!(record.state, DomainState::Shutoff);
        assert!(record.persistent);
    }

    #[test]
    fn migration_options_defaults() {
        let opts = MigrationOptions::default();
        assert_eq!(opts.bandwidth_mib_s, 1024);
        assert_eq!(opts.max_downtime_ms, 300);
        assert_eq!(opts.max_iterations, 30);
    }

    #[derive(Debug)]
    struct DummyDriver {
        scheme: &'static str,
    }

    impl HypervisorDriver for DummyDriver {
        fn name(&self) -> &'static str {
            self.scheme
        }

        fn probe(&self, uri: &ConnectUri) -> bool {
            uri.driver() == self.scheme && uri.transport().is_none() && uri.is_local()
        }

        fn open(
            &self,
            _uri: &ConnectUri,
            _options: &OpenOptions,
        ) -> VirtResult<Arc<dyn HypervisorConnection>> {
            Err(VirtError::new(
                ErrorCode::NoConnect,
                format!("dummy {}", self.scheme),
            ))
        }
    }

    #[test]
    fn registry_resolution_order_and_fallback() {
        let mut registry = DriverRegistry::new();
        registry.register(Arc::new(DummyDriver { scheme: "test" }));
        registry.set_fallback(Arc::new(DummyDriver { scheme: "remote" }));

        let uri: ConnectUri = "test:///default".parse().unwrap();
        let err = registry.open(&uri, &OpenOptions::default()).unwrap_err();
        assert!(err.message().contains("dummy test"));

        // Unclaimed scheme falls through to the fallback.
        let uri: ConnectUri = "qemu:///system".parse().unwrap();
        let err = registry.open(&uri, &OpenOptions::default()).unwrap_err();
        assert!(err.message().contains("dummy remote"));

        // A transport suffix defeats the local-only probe, also fallback.
        let uri: ConnectUri = "test+tcp://h/default".parse().unwrap();
        let err = registry.open(&uri, &OpenOptions::default()).unwrap_err();
        assert!(err.message().contains("dummy remote"));
    }

    #[test]
    fn registry_without_fallback_reports_no_connect() {
        let registry = DriverRegistry::new();
        let uri: ConnectUri = "qemu:///system".parse().unwrap();
        let err = registry.open(&uri, &OpenOptions::default()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoConnect);
    }
}
