//! The embedded (host-backed) connection shared by the stateful drivers.
//!
//! `virtd` constructs one [`EmbeddedConnection`] per platform driver it
//! hosts (qemu, xen, lxc); the test and ESX drivers reuse the same
//! implementation over their own hosts. For QEMU-personality hosts,
//! lifecycle operations that a real libvirt would issue through the
//! domain's monitor socket are routed through [`hypersim::monitor`] — the
//! same command formatting/parsing path the real driver exercises.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use hypersim::monitor::Monitor;
use hypersim::{MigrationParams, SimErrorKind, SimHost};

use crate::capabilities::Capabilities;
use crate::driver::{
    DomainRecord, HypervisorConnection, MigrationOptions, MigrationReport, NetworkRecord, NodeInfo,
    PoolRecord, StatsParams, VolumeRecord,
};
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::event::{
    CallbackId, DomainEvent, DomainEventKind, EventBus, EventCallback, EventFilter,
};
use crate::guard::{GuardEngine, GuardPolicy, GuardRecord, GuardStatus};
use crate::job::{JobKind, JobManager, JobProgress, JobStats, JobTicket};
use crate::metrics::span::{self, Stage};
use crate::metrics::Registry;
use crate::statestore::{DomainStatus, ObjectKind, StateStore, StoreOp};
use crate::typedparam::TypedParam;
use crate::uuid::Uuid;
use crate::xmlfmt::{DiskConfig, DomainConfig, NetworkConfig, PoolConfig, VolumeConfig};

/// Largest slice of migration traffic charged to the virtual clock in one
/// go. Smaller slices mean finer progress granularity and faster abort
/// response, at the cost of more clock charges.
const MIGRATION_SLICE_MIB: u64 = 256;

virt_metrics::metric_set! {
    /// Wall-clock latency histograms for the domain lifecycle operations,
    /// one per operation. Created with the connection (recording is a few
    /// relaxed atomics) and optionally published into a daemon-wide
    /// [`Registry`] with [`EmbeddedConnection::publish_metrics`].
    struct LifecycleMetrics {
        define: Histogram = "define_us", "Wall-clock latency of this domain lifecycle operation";
        create: Histogram = "create_us", "Wall-clock latency of this domain lifecycle operation";
        undefine: Histogram = "undefine_us", "Wall-clock latency of this domain lifecycle operation";
        start: Histogram = "start_us", "Wall-clock latency of this domain lifecycle operation";
        shutdown: Histogram = "shutdown_us", "Wall-clock latency of this domain lifecycle operation";
        reboot: Histogram = "reboot_us", "Wall-clock latency of this domain lifecycle operation";
        destroy: Histogram = "destroy_us", "Wall-clock latency of this domain lifecycle operation";
        suspend: Histogram = "suspend_us", "Wall-clock latency of this domain lifecycle operation";
        resume: Histogram = "resume_us", "Wall-clock latency of this domain lifecycle operation";
        save: Histogram = "save_us", "Wall-clock latency of this domain lifecycle operation";
        restore: Histogram = "restore_us", "Wall-clock latency of this domain lifecycle operation";
        migrate: Histogram = "migrate_us", "Wall-clock latency of this domain lifecycle operation";
    }
}

/// Binds a connection to one driver's partition of a [`StateStore`].
/// The daemon creates one binding per embedded driver so qemu, xen and
/// lxc definitions land in separate subdirectories of the shared
/// statedir (mirroring `/etc/libvirt/qemu` vs `/etc/libvirt/lxc`).
#[derive(Debug, Clone)]
pub struct StoreBinding {
    store: Arc<StateStore>,
    driver: String,
}

impl StoreBinding {
    /// Scopes `store` to the partition named `driver`.
    pub fn new(store: Arc<StateStore>, driver: impl Into<String>) -> Self {
        StoreBinding {
            store,
            driver: driver.into(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<StateStore> {
        &self.store
    }

    /// The partition name.
    pub fn driver(&self) -> &str {
        &self.driver
    }
}

/// What a startup recovery pass brought back.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Persistent domain definitions re-adopted into the host.
    pub domains: u64,
    /// Domains the live-status records said were active when the previous
    /// daemon died; their backing guests died with it, so they come back
    /// shut off with reason `crashed`.
    pub crashed: u64,
    /// Autostart domains actually (re)started.
    pub autostarted: u64,
    /// Network definitions re-defined.
    pub networks: u64,
    /// Pool definitions re-defined.
    pub pools: u64,
    /// Corrupt files moved to quarantine during this pass.
    pub quarantined: u64,
    /// Guard policies re-armed from their persisted records.
    pub guards: u64,
    /// Recorded-crashed guarded domains immediately revived.
    pub revived: u64,
}

impl RecoveryReport {
    /// Total persistent objects brought back.
    pub fn recovered(&self) -> u64 {
        self.domains + self.networks + self.pools
    }
}

/// A connection executing directly against a [`SimHost`].
pub struct EmbeddedConnection {
    host: SimHost,
    uri: String,
    events: EventBus,
    alive: AtomicBool,
    ops: LifecycleMetrics,
    /// Job bookkeeping, keyed by host name so a rebuilt connection over
    /// the same host (daemon restart) sees — and can recover — jobs
    /// started by its predecessor.
    jobs: Arc<JobManager>,
    /// On-disk persistence, when the daemon was given a statedir.
    /// `None` keeps everything in memory (tests, ephemeral daemons).
    store: Option<StoreBinding>,
    /// The availability supervisor, fed off this connection's event bus.
    /// Zero-cost until the first policy is defined.
    guard: GuardEngine,
}

impl std::fmt::Debug for EmbeddedConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddedConnection")
            .field("uri", &self.uri)
            .field("host", &self.host.name())
            .finish()
    }
}

impl EmbeddedConnection {
    /// Wraps a host, reporting `uri` as the connection's canonical URI.
    pub fn new(host: SimHost, uri: impl Into<String>) -> Arc<Self> {
        Self::build(host, uri, None)
    }

    /// Like [`EmbeddedConnection::new`], but every definition and
    /// live-status change is mirrored to `binding`'s store partition,
    /// and [`EmbeddedConnection::recover_from_store`] can reload it.
    pub fn with_store(host: SimHost, uri: impl Into<String>, binding: StoreBinding) -> Arc<Self> {
        Self::build(host, uri, Some(binding))
    }

    fn build(host: SimHost, uri: impl Into<String>, store: Option<StoreBinding>) -> Arc<Self> {
        // Key on the instance id, not the name: hosts with recycled names
        // (test fixtures) must not share job state, while a connection
        // rebuilt over the same host (daemon restart) must.
        let jobs = JobManager::for_host(&format!("{}#{}", host.name(), host.instance_id()));
        let conn = Arc::new(EmbeddedConnection {
            host,
            uri: uri.into(),
            events: EventBus::new(),
            alive: AtomicBool::new(true),
            ops: LifecycleMetrics::new(),
            jobs,
            store,
            guard: GuardEngine::new(),
        });
        // The engine acts through a weak handle (no reference cycle) and
        // observes lifecycle events; emits are synchronous, so the
        // observer only schedules — the engine's worker thread acts.
        conn.guard
            .attach(Arc::downgrade(&conn) as Weak<dyn HypervisorConnection>);
        let engine = conn.guard.clone();
        conn.events.register_filtered(
            EventFilter::LifecycleOnly,
            Arc::new(move |event| engine.observe(event)),
        );
        conn
    }

    /// The availability supervisor attached to this connection.
    pub fn guard_engine(&self) -> &GuardEngine {
        &self.guard
    }

    /// The job manager tracking background jobs on this host.
    pub fn jobs(&self) -> &Arc<JobManager> {
        &self.jobs
    }

    /// The underlying host (used by the daemon's dispatch and by tests).
    pub fn host(&self) -> &SimHost {
        &self.host
    }

    /// Publishes the per-operation lifecycle latency histograms into
    /// `registry` as `driver.{name}.{op}_us`. The registry shares the
    /// connection's own histogram instances, so operations recorded before
    /// or after publication all appear in snapshots.
    pub fn publish_metrics(&self, registry: &Registry, name: &str) {
        self.ops.attach(registry, &format!("driver.{name}."));
        self.guard.publish_metrics(registry);
    }

    /// The event bus (the daemon forwards these to remote clients).
    pub fn events(&self) -> &EventBus {
        &self.events
    }

    fn ensure_alive(&self) -> VirtResult<()> {
        if self.alive.load(Ordering::Acquire) {
            Ok(())
        } else {
            Err(VirtError::new(
                ErrorCode::ConnectInvalid,
                "connection is closed",
            ))
        }
    }

    fn domain_type(&self) -> &str {
        self.host.personality().name()
    }

    fn uses_monitor(&self) -> bool {
        self.domain_type() == "qemu"
    }

    fn emit(&self, record: &DomainRecord, kind: DomainEventKind) {
        self.events.emit(&DomainEvent {
            domain: record.name.clone(),
            uuid: record.uuid,
            kind,
            trace_id: span::current_trace_id(),
        });
    }

    fn record(&self, name: &str) -> VirtResult<DomainRecord> {
        Ok(self.host.domain(name)?.into())
    }

    /// Re-persists (or removes) the on-disk records for `name` after a
    /// state-changing operation, blocking on the store's group-commit
    /// barrier: when this returns `Ok`, the records are on disk. Used by
    /// configuration-changing ops (define/undefine, autostart, device
    /// and resource changes, save/restore, migration finish) whose
    /// effects must survive any crash that happens after they return.
    fn sync_domain_state(&self, name: &str) -> VirtResult<()> {
        self.sync_domain_records(name, true)
    }

    /// Write-behind variant for volatile lifecycle transitions (start,
    /// stop, suspend, crash): the dirty record is queued for the
    /// persister's next coalesced flush cycle and this returns
    /// immediately. Losing the tail of these writes in a crash is
    /// exactly the case boot-time reconciliation already handles — a
    /// stale status record is reinterpreted against reality, never
    /// trusted blindly — so the guest-visible operation does not wait
    /// for an fsync. Errors surface via `statestore.write_error` and the
    /// next durable barrier instead of here.
    fn sync_domain_state_behind(&self, name: &str) {
        let _ = self.sync_domain_records(name, false);
    }

    fn sync_domain_records(&self, name: &str, durable: bool) -> VirtResult<()> {
        let Some(binding) = &self.store else {
            return Ok(());
        };
        let _span = span::stage(Stage::StateStore);
        let store = &binding.store;
        let driver = binding.driver.as_str();
        // One lock acquisition for a consistent (info, spec) pair: the
        // domain must not change state between the two reads.
        match self.host.domain_snapshot(name) {
            Ok((info, spec)) if info.persistent => {
                let config =
                    DomainConfig::from_spec(&spec, self.domain_type(), Uuid::from_bytes(info.uuid));
                let status = DomainStatus {
                    name: name.to_string(),
                    uuid: Uuid::from_bytes(info.uuid),
                    state: info.state,
                    autostart: info.autostart,
                    has_managed_save: info.has_managed_save,
                };
                if durable {
                    // One barrier for both records: the definition and
                    // its status frame ride the same flush cycle.
                    store.commit(vec![
                        StoreOp::Put {
                            kind: ObjectKind::Domain,
                            driver: driver.to_string(),
                            name: name.to_string(),
                            payload: config.to_xml_string(),
                        },
                        StoreOp::Put {
                            kind: ObjectKind::DomainStatus,
                            driver: driver.to_string(),
                            name: name.to_string(),
                            payload: status.to_xml_string(),
                        },
                    ])?;
                } else {
                    // The definition rarely changes on lifecycle ops;
                    // the store's content dedup skips the rewrite when
                    // the committed frame is already identical.
                    store.put_behind(ObjectKind::Domain, driver, name, &config.to_xml_string());
                    store.put_behind(
                        ObjectKind::DomainStatus,
                        driver,
                        name,
                        &status.to_xml_string(),
                    );
                }
            }
            _ => {
                // A vanished domain takes its guard record with it (a
                // live transient domain keeps its guard).
                let sweep_guard = self.host.domain(name).is_err();
                if durable {
                    let mut ops = vec![
                        StoreOp::Remove {
                            kind: ObjectKind::DomainStatus,
                            driver: driver.to_string(),
                            name: name.to_string(),
                        },
                        StoreOp::Remove {
                            kind: ObjectKind::Domain,
                            driver: driver.to_string(),
                            name: name.to_string(),
                        },
                    ];
                    if sweep_guard {
                        ops.push(StoreOp::Remove {
                            kind: ObjectKind::Guard,
                            driver: driver.to_string(),
                            name: name.to_string(),
                        });
                    }
                    store.commit(ops)?;
                } else {
                    store.remove_behind(ObjectKind::DomainStatus, driver, name);
                    store.remove_behind(ObjectKind::Domain, driver, name);
                    if sweep_guard {
                        store.remove_behind(ObjectKind::Guard, driver, name);
                    }
                }
            }
        }
        Ok(())
    }

    /// Reloads this driver's partition of the state store into the host:
    /// the boot-time reconciliation pass a stateful libvirt daemon runs
    /// (`qemuProcessReconnect` and friends).
    ///
    /// Rules, in order:
    /// - Corrupt definition or status files are quarantined, never fatal.
    ///   So is a definition whose UUID an earlier one (by name order)
    ///   already holds.
    /// - Every persistent definition missing from the host is re-adopted
    ///   with its recorded UUID, autostart and managed-save flags.
    /// - A domain whose status said it was active comes back shut off
    ///   with reason `crashed` — its backing guest died with the previous
    ///   daemon. A saved domain stays saved; everything else is shut off.
    /// - Status records with no backing definition (transient domains
    ///   that died with the daemon) are swept from `run/`.
    /// - Autostart domains that are not running are started, best-effort.
    /// - Network and pool definitions missing from the host are
    ///   re-defined (inactive, as after `virsh net-define`).
    pub fn recover_from_store(&self) -> VirtResult<RecoveryReport> {
        let Some(binding) = &self.store else {
            return Ok(RecoveryReport::default());
        };
        let store = &binding.store;
        let driver = binding.driver.as_str();
        // Reads below must see committed frames only: drain any records
        // still queued in the pipeline. At a real daemon boot this is a
        // no-op; when a test reuses one store across simulated daemon
        // lives it makes the recovery input deterministic.
        store.flush()?;
        let quarantined_before = store.quarantined_total();
        let mut report = RecoveryReport::default();

        let mut statuses = std::collections::HashMap::new();
        for (name, payload) in store.load_all(ObjectKind::DomainStatus, driver) {
            match DomainStatus::from_xml_str(&payload) {
                Ok(status) => {
                    statuses.insert(name, status);
                }
                Err(_) => store.quarantine(ObjectKind::DomainStatus, driver, &name),
            }
        }

        for (name, payload) in store.load_all(ObjectKind::Domain, driver) {
            let config = match DomainConfig::from_xml_str(&payload) {
                Ok(config) => config,
                Err(_) => {
                    store.quarantine(ObjectKind::Domain, driver, &name);
                    continue;
                }
            };
            if self.host.domain(&name).is_ok() {
                continue;
            }
            let status = statuses.get(&name);
            let state = match status.map(|s| s.state) {
                Some(s) if s.is_active() => hypersim::DomainState::Crashed,
                Some(hypersim::DomainState::Saved) => hypersim::DomainState::Saved,
                _ => hypersim::DomainState::Shutoff,
            };
            let uuid = status
                .map(|s| s.uuid)
                .or(config.uuid)
                .unwrap_or_else(Uuid::generate);
            let autostart = status.map(|s| s.autostart).unwrap_or(false);
            let has_managed_save = status.map(|s| s.has_managed_save).unwrap_or(false);
            match self.host.adopt_domain(
                config.to_spec(),
                uuid.into_bytes(),
                autostart,
                state,
                has_managed_save,
            ) {
                Ok(_) => {}
                // The name is free (checked above), so the UUID is taken by
                // a definition adopted earlier in `load_all`'s order: a
                // directory from a daemon that reissued a UUID, or a
                // hand-copied `<uuid>`. The first keeps it; this one is
                // quarantined and its status record swept below.
                Err(err) if err.kind() == SimErrorKind::DuplicateDomain => {
                    store.warn(&format!("recovery: definition '{name}' quarantined: {err}"));
                    store.quarantine(ObjectKind::Domain, driver, &name);
                    continue;
                }
                Err(err) => return Err(err.into()),
            }
            report.domains += 1;
            if state == hypersim::DomainState::Crashed {
                report.crashed += 1;
            }
            // Rewrite both files so run/ reflects the reconciled state.
            // Write-behind: N adopted domains coalesce into a handful of
            // batched fsync cycles (F7 measured the old per-domain
            // barrier at ~2 ms/domain); the flush fence below makes the
            // whole reconciliation durable before recovery returns.
            self.sync_domain_state_behind(&name);
        }

        for name in statuses.keys() {
            if self.host.domain(name).is_err() {
                store.remove_behind(ObjectKind::DomainStatus, driver, name);
            }
        }

        // Autostart pass. Failures (e.g. insufficient memory) must not
        // abort daemon boot; the domain simply stays shut off.
        let autostart_pending: Vec<String> = self
            .host
            .list_domains()?
            .into_iter()
            .filter(|d| d.autostart && !d.state.is_active())
            .map(|d| d.name)
            .collect();
        for name in autostart_pending {
            if self.start_domain(&name).is_ok() {
                report.autostarted += 1;
            }
        }

        for (name, payload) in store.load_all(ObjectKind::Network, driver) {
            let config = match NetworkConfig::from_xml_str(&payload) {
                Ok(config) => config,
                Err(_) => {
                    store.quarantine(ObjectKind::Network, driver, &name);
                    continue;
                }
            };
            if self.host.network(&name).is_err() {
                self.host.define_network(config.to_spec())?;
                report.networks += 1;
            }
        }

        for (name, payload) in store.load_all(ObjectKind::Pool, driver) {
            let config = match PoolConfig::from_xml_str(&payload) {
                Ok(config) => config,
                Err(_) => {
                    store.quarantine(ObjectKind::Pool, driver, &name);
                    continue;
                }
            };
            if self.host.pool(&name).is_err() {
                self.host.define_pool(config.to_spec())?;
                report.pools += 1;
            }
        }

        // Guard pass: re-arm persisted policies. Arming reconciles the
        // state recovery brought each domain back in, so a keep-running
        // domain that died with the previous daemon is revived now — the
        // guard's whole point is that nobody has to notice.
        for (name, payload) in store.load_all(ObjectKind::Guard, driver) {
            let record = match GuardRecord::from_xml_str(&payload) {
                Ok(record) if record.domain == name => record,
                // A filename/content mismatch is corruption too.
                _ => {
                    store.quarantine(ObjectKind::Guard, driver, &name);
                    continue;
                }
            };
            let Ok(domain) = self.record(&record.domain) else {
                // The guarded domain no longer exists; sweep the record.
                store.remove_behind(ObjectKind::Guard, driver, &name);
                continue;
            };
            report.guards += 1;
            if self.guard.arm(&record.domain, record.policy, domain.state) {
                report.revived += 1;
            }
        }

        // Fence: every reconciled rewrite and sweep queued above is on
        // disk before recovery reports success.
        store.flush()?;
        report.quarantined = store.quarantined_total() - quarantined_before;
        Ok(report)
    }

    /// Runs a short host operation as a coarse (single-slice) job:
    /// begin → op → complete/fail, emitting job lifecycle events. Used
    /// for save/restore, whose simulated work is one indivisible charge.
    fn run_coarse_job<T>(
        &self,
        record: &DomainRecord,
        kind: JobKind,
        op: impl FnOnce() -> VirtResult<T>,
    ) -> VirtResult<T> {
        let ticket = self.jobs.begin(&record.name, kind)?;
        self.emit(record, DomainEventKind::JobStarted);
        match op() {
            Ok(value) => {
                ticket.complete();
                self.emit(record, DomainEventKind::JobCompleted);
                Ok(value)
            }
            Err(err) => {
                ticket.fail(&err.to_string());
                self.emit(record, DomainEventKind::JobFailed);
                Err(err)
            }
        }
    }

    /// Charges one slice of migration traffic, checking for an abort
    /// request first. Returns the slice's simulated duration in ms.
    fn charge_migration_slice(
        &self,
        record: &DomainRecord,
        ticket: &JobTicket,
        chunk_mib: u64,
    ) -> VirtResult<()> {
        if ticket.aborted() {
            return Err(VirtError::new(
                ErrorCode::OperationAborted,
                format!("migration of '{}' aborted by request", record.name),
            ));
        }
        self.host
            .charge_migration_transfer(hypersim::MiB(chunk_mib))
            .map_err(VirtError::from)
    }
}

impl HypervisorConnection for EmbeddedConnection {
    fn uri(&self) -> String {
        self.uri.clone()
    }

    fn hostname(&self) -> VirtResult<String> {
        self.ensure_alive()?;
        Ok(self.host.name().to_string())
    }

    fn node_info(&self) -> VirtResult<NodeInfo> {
        self.ensure_alive()?;
        let info = self.host.info();
        if !info.up {
            return Err(VirtError::new(ErrorCode::NoConnect, "host is down"));
        }
        Ok(NodeInfo {
            hostname: info.name,
            hypervisor: info.hypervisor,
            cpus: info.cpus,
            memory_mib: info.memory.0,
            free_memory_mib: info.free_memory.0,
            active_domains: info.active_domains as u32,
            inactive_domains: info.inactive_domains as u32,
        })
    }

    fn capabilities(&self) -> VirtResult<Capabilities> {
        self.ensure_alive()?;
        Ok(Capabilities::from_personality(self.host.personality()))
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire) && self.host.is_up()
    }

    fn close(&self) {
        self.alive.store(false, Ordering::Release);
        self.guard.stop();
    }

    // ---- domains -------------------------------------------------------

    fn list_domains(&self) -> VirtResult<Vec<DomainRecord>> {
        self.ensure_alive()?;
        Ok(self
            .host
            .list_domains()?
            .into_iter()
            .map(DomainRecord::from)
            .collect())
    }

    fn lookup_domain_by_name(&self, name: &str) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        self.record(name)
    }

    fn lookup_domain_by_id(&self, id: u32) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        Ok(self.host.domain_by_id(id)?.into())
    }

    fn lookup_domain_by_uuid(&self, uuid: Uuid) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        Ok(self.host.domain_by_uuid(uuid.into_bytes())?.into())
    }

    fn define_domain_xml(&self, xml: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.define.start_timer();
        let _work = span::stage(Stage::DriverWork);
        self.ensure_alive()?;
        let config = DomainConfig::from_xml_str(xml)?;
        let record: DomainRecord = self.host.define_domain(config.to_spec())?.into();
        if let Err(err) = self.sync_domain_state(&record.name) {
            // A definition that cannot be persisted must not exist only
            // in memory — it would silently vanish on restart.
            let _ = self.host.undefine_domain(&record.name);
            return Err(err);
        }
        self.emit(&record, DomainEventKind::Defined);
        Ok(record)
    }

    fn create_domain_xml(&self, xml: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.create.start_timer();
        let _work = span::stage(Stage::DriverWork);
        self.ensure_alive()?;
        let config = DomainConfig::from_xml_str(xml)?;
        let record: DomainRecord = self.host.create_domain(config.to_spec())?.into();
        // Transient: sync leaves no files, and sweeps any stale ones.
        self.sync_domain_state(&record.name)?;
        self.emit(&record, DomainEventKind::Started);
        Ok(record)
    }

    fn undefine_domain(&self, name: &str) -> VirtResult<()> {
        let _timer = self.ops.undefine.start_timer();
        self.ensure_alive()?;
        let record = self.record(name)?;
        if record.state.is_active() {
            // libvirt semantics: the configuration disappears but the
            // guest keeps running as transient, vanishing when it stops.
            self.host.demote_domain_to_transient(name)?;
        } else {
            self.host.undefine_domain(name)?;
        }
        self.sync_domain_state(name)?;
        self.emit(&record, DomainEventKind::Undefined);
        Ok(())
    }

    fn start_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.start.start_timer();
        let _work = span::stage(Stage::DriverWork);
        self.ensure_alive()?;
        let record: DomainRecord = self.host.start_domain(name)?.into();
        let kind = if record.state == crate::driver::DomainState::Crashed {
            DomainEventKind::Crashed
        } else {
            DomainEventKind::Started
        };
        self.sync_domain_state_behind(name);
        self.emit(&record, kind);
        Ok(record)
    }

    fn shutdown_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.shutdown.start_timer();
        let _work = span::stage(Stage::DriverWork);
        self.ensure_alive()?;
        let record: DomainRecord = if self.uses_monitor() {
            // Capture identity first: a transient domain vanishes from the
            // host table the moment it stops.
            let mut before = self.record(name)?;
            Monitor::attach(&self.host, name)
                .execute_line("system_powerdown")
                .map_err(VirtError::from)?;
            match self.host.domain(name) {
                Ok(info) => info.into(),
                Err(_) => {
                    before.state = crate::driver::DomainState::Shutoff;
                    before.id = None;
                    before
                }
            }
        } else {
            self.host.shutdown_domain(name)?.into()
        };
        self.sync_domain_state_behind(name);
        self.emit(&record, DomainEventKind::Stopped);
        Ok(record)
    }

    fn reboot_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.reboot.start_timer();
        self.ensure_alive()?;
        if self.uses_monitor() {
            Monitor::attach(&self.host, name)
                .execute_line("system_reset")
                .map_err(VirtError::from)?;
            self.record(name)
        } else {
            Ok(self.host.reboot_domain(name)?.into())
        }
    }

    fn destroy_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.destroy.start_timer();
        let _work = span::stage(Stage::DriverWork);
        self.ensure_alive()?;
        let record: DomainRecord = self.host.destroy_domain(name)?.into();
        self.sync_domain_state_behind(name);
        self.emit(&record, DomainEventKind::Stopped);
        Ok(record)
    }

    fn suspend_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.suspend.start_timer();
        self.ensure_alive()?;
        let record: DomainRecord = if self.uses_monitor() {
            Monitor::attach(&self.host, name)
                .execute_line("stop")
                .map_err(VirtError::from)?;
            self.record(name)?
        } else {
            self.host.suspend_domain(name)?.into()
        };
        self.sync_domain_state_behind(name);
        self.emit(&record, DomainEventKind::Suspended);
        Ok(record)
    }

    fn resume_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.resume.start_timer();
        self.ensure_alive()?;
        let record: DomainRecord = if self.uses_monitor() {
            Monitor::attach(&self.host, name)
                .execute_line("cont")
                .map_err(VirtError::from)?;
            self.record(name)?
        } else {
            self.host.resume_domain(name)?.into()
        };
        self.sync_domain_state_behind(name);
        self.emit(&record, DomainEventKind::Resumed);
        Ok(record)
    }

    fn save_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.save.start_timer();
        self.ensure_alive()?;
        let before = self.record(name)?;
        let record = self.run_coarse_job(&before, JobKind::Save, || {
            Ok(DomainRecord::from(self.host.save_domain(name)?))
        })?;
        self.sync_domain_state(name)?;
        self.emit(&record, DomainEventKind::Saved);
        Ok(record)
    }

    fn restore_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.restore.start_timer();
        self.ensure_alive()?;
        let before = self.record(name)?;
        let record = self.run_coarse_job(&before, JobKind::Restore, || {
            Ok(DomainRecord::from(self.host.restore_domain(name)?))
        })?;
        self.sync_domain_state(name)?;
        self.emit(&record, DomainEventKind::Restored);
        Ok(record)
    }

    fn set_domain_memory(&self, name: &str, memory_mib: u64) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        if self.uses_monitor() {
            Monitor::attach(&self.host, name)
                .execute_line(&format!("balloon {memory_mib}"))
                .map_err(VirtError::from)?;
        } else {
            self.host
                .set_domain_memory(name, hypersim::MiB(memory_mib))?;
        }
        self.sync_domain_state(name)?;
        self.record(name)
    }

    fn set_domain_vcpus(&self, name: &str, vcpus: u32) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        let record: DomainRecord = self.host.set_domain_vcpus(name, vcpus)?.into();
        self.sync_domain_state(name)?;
        Ok(record)
    }

    fn attach_device(&self, name: &str, device_xml: &str) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        let doc = virt_xml::Document::parse(device_xml)?;
        let el = doc.root();
        if el.name() != "disk" {
            return Err(VirtError::new(
                ErrorCode::XmlError,
                format!("only <disk> devices can be attached, got <{}>", el.name()),
            ));
        }
        let disk = DiskConfig::decode(el)?;
        let record = self.host.attach_disk(
            name,
            hypersim::SimDisk {
                target: disk.target,
                source: disk.source,
                capacity: hypersim::MiB(disk.capacity_mib),
                bus: disk.bus,
            },
        )?;
        self.sync_domain_state(name)?;
        Ok(record.into())
    }

    fn detach_device(&self, name: &str, target: &str) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        let record: DomainRecord = self.host.detach_disk(name, target)?.into();
        self.sync_domain_state(name)?;
        Ok(record)
    }

    fn snapshot_domain(&self, name: &str, snapshot: &str) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        Ok(self.host.snapshot_domain(name, snapshot)?.into())
    }

    fn list_snapshots(&self, name: &str) -> VirtResult<Vec<String>> {
        self.ensure_alive()?;
        Ok(self.host.domain(name)?.snapshots)
    }

    fn revert_snapshot(&self, name: &str, snapshot: &str) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        Ok(self.host.revert_snapshot(name, snapshot)?.into())
    }

    fn delete_snapshot(&self, name: &str, snapshot: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        Ok(self.host.delete_snapshot(name, snapshot)?)
    }

    fn set_autostart(&self, name: &str, autostart: bool) -> VirtResult<()> {
        self.ensure_alive()?;
        self.host.set_autostart(name, autostart)?;
        self.sync_domain_state(name)
    }

    fn dump_domain_xml(&self, name: &str) -> VirtResult<String> {
        self.ensure_alive()?;
        let (info, spec) = self.host.domain_snapshot(name)?;
        let config =
            DomainConfig::from_spec(&spec, self.domain_type(), Uuid::from_bytes(info.uuid));
        Ok(config.to_xml_string())
    }

    // ---- guards ---------------------------------------------------------

    fn crash_domain(&self, name: &str) -> VirtResult<DomainRecord> {
        let _timer = self.ops.destroy.start_timer();
        let _work = span::stage(Stage::DriverWork);
        self.ensure_alive()?;
        let record: DomainRecord = self.host.crash_domain(name)?.into();
        self.sync_domain_state_behind(name);
        self.emit(&record, DomainEventKind::Crashed);
        Ok(record)
    }

    fn guard_set(&self, name: &str, policy: &GuardPolicy) -> VirtResult<()> {
        self.ensure_alive()?;
        // The domain must exist; guards on phantoms would loop forever.
        let record = self.record(name)?;
        // Persist standing policies so they survive daemon restarts.
        // `graceful-stop` is a one-shot command, not a standing policy:
        // re-arming it after a restart would re-kill the domain, and the
        // guard it replaces must not come back either.
        if let Some(binding) = &self.store {
            let _span = span::stage(Stage::StateStore);
            if let GuardPolicy::GracefulStop { .. } = policy {
                binding
                    .store
                    .remove(ObjectKind::Guard, &binding.driver, name)?;
            } else {
                let record = GuardRecord {
                    domain: name.to_string(),
                    policy: *policy,
                };
                binding.store.put(
                    ObjectKind::Guard,
                    &binding.driver,
                    name,
                    &record.to_xml_string(),
                )?;
            }
        }
        self.guard.arm(name, *policy, record.state);
        Ok(())
    }

    fn guard_remove(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        let removed = self.guard.clear(name);
        if let Some(binding) = &self.store {
            binding
                .store
                .remove(ObjectKind::Guard, &binding.driver, name)?;
        }
        if removed {
            Ok(())
        } else {
            Err(VirtError::new(
                ErrorCode::NoDomain,
                format!("domain '{name}' has no guard"),
            ))
        }
    }

    fn guard_list(&self) -> VirtResult<Vec<GuardStatus>> {
        self.ensure_alive()?;
        Ok(self.guard.statuses())
    }

    fn guard_status(&self, name: &str) -> VirtResult<GuardStatus> {
        self.ensure_alive()?;
        self.guard.status(name).ok_or_else(|| {
            VirtError::new(ErrorCode::NoDomain, format!("domain '{name}' has no guard"))
        })
    }

    // ---- migration -------------------------------------------------------

    fn migrate_begin(&self, name: &str) -> VirtResult<String> {
        self.ensure_alive()?;
        if !self.host.personality().capabilities().migration {
            return Err(VirtError::new(
                ErrorCode::NoSupport,
                format!("{} does not support migration", self.domain_type()),
            ));
        }
        let record = self.record(name)?;
        if record.state != crate::driver::DomainState::Running {
            return Err(VirtError::new(
                ErrorCode::OperationInvalid,
                format!("domain '{name}' is not running"),
            ));
        }
        self.dump_domain_xml(name)
    }

    fn migrate_prepare(&self, xml: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        let config = DomainConfig::from_xml_str(xml)?;
        let node = self.node_info()?;
        if self
            .host
            .list_domains()?
            .iter()
            .any(|d| d.name == config.name)
        {
            return Err(VirtError::new(ErrorCode::DomainExists, config.name));
        }
        if config.memory_mib > node.free_memory_mib {
            return Err(VirtError::new(
                ErrorCode::InsufficientResources,
                format!(
                    "incoming domain needs {} MiB, {} MiB free",
                    config.memory_mib, node.free_memory_mib
                ),
            ));
        }
        Ok(())
    }

    fn migrate_perform(
        &self,
        name: &str,
        options: &MigrationOptions,
    ) -> VirtResult<MigrationReport> {
        let _timer = self.ops.migrate.start_timer();
        let _work = span::stage(Stage::DriverWork);
        self.ensure_alive()?;
        let lock_started = std::time::Instant::now();
        let (info, spec) = self.host.domain_snapshot(name)?;
        span::record_span_since(Stage::LockAcquire, lock_started, 0);
        let record = DomainRecord::from(info);
        let params =
            MigrationParams::new(spec.memory(), spec.dirty_rate(), options.bandwidth_mib_s)
                .downtime_limit(std::time::Duration::from_millis(options.max_downtime_ms))
                .max_iterations(options.max_iterations);
        let outcome = hypersim::migration::simulate_precopy(&params).map_err(VirtError::from)?;

        // Run the transfer as a cancellable job: the pre-copy rounds are
        // charged to the virtual clock in bounded slices so job stats
        // advance and an abort request is observed mid-flight. The slices
        // sum to exactly `outcome.transferred`, the amount the previous
        // single-shot implementation charged.
        let ticket = self.jobs.begin(name, JobKind::Migration)?;
        // One long job span for the whole cancellable transfer; each
        // pre-copy slice below becomes a child event under it.
        let _job_span = span::stage(Stage::Job);
        self.emit(&record, DomainEventKind::JobStarted);
        let total_mib = outcome.transferred.0;
        let precopy_mib: u64 = outcome.rounds.iter().map(|r| r.copied.0).sum();
        let mut processed_mib = 0u64;
        let mut elapsed = std::time::Duration::ZERO;
        let mut iterations = 0u32;
        let mut slices: Vec<(u64, std::time::Duration, u32)> = Vec::new();
        for round in &outcome.rounds {
            iterations += 1;
            let copied = round.copied.0;
            let mut left = copied;
            while left > 0 {
                let chunk = left.min(MIGRATION_SLICE_MIB);
                left -= chunk;
                let slice_time = round.duration.mul_f64(chunk as f64 / copied as f64);
                slices.push((chunk, slice_time, iterations));
            }
        }
        // The final stop-and-copy: whatever `transferred` covers beyond
        // the pre-copy rounds, charged as one slice (the guest is paused,
        // so it cannot be subdivided).
        let final_mib = total_mib.saturating_sub(precopy_mib);
        if final_mib > 0 {
            slices.push((final_mib, outcome.downtime, iterations));
        }
        for (chunk, slice_time, iteration) in slices {
            if let Err(err) = self.charge_migration_slice(&record, &ticket, chunk) {
                if err.code() == ErrorCode::OperationAborted {
                    ticket.abort_finish();
                    self.emit(&record, DomainEventKind::JobAborted);
                } else {
                    ticket.fail(&err.to_string());
                    self.emit(&record, DomainEventKind::JobFailed);
                }
                return Err(err);
            }
            processed_mib += chunk;
            elapsed += slice_time;
            // Slice duration on the simulated migration clock — the
            // number the pre-copy math produced, not host wall time.
            span::record_span(Stage::MigrationSlice, slice_time, u64::from(iteration));
            ticket.update(JobProgress {
                elapsed_ms: elapsed.as_millis() as u64,
                total_mib,
                processed_mib,
                remaining_mib: total_mib - processed_mib,
                iterations: iteration,
            });
        }
        ticket.complete();
        self.emit(&record, DomainEventKind::JobCompleted);
        Ok(MigrationReport {
            total_ms: outcome.total_time.as_millis() as u64,
            downtime_ms: outcome.downtime.as_millis() as u64,
            iterations: outcome.iterations(),
            transferred_mib: outcome.transferred.0,
            converged: outcome.converged,
        })
    }

    fn migrate_finish(&self, xml: &str) -> VirtResult<DomainRecord> {
        self.ensure_alive()?;
        let config = DomainConfig::from_xml_str(xml)?;
        // Identity travels with the description: the destination instance
        // keeps the source's UUID, exactly as live migration requires.
        let uuid = config.uuid.map(Uuid::into_bytes);
        let record: DomainRecord = self
            .host
            .import_running_domain(config.to_spec(), uuid)?
            .into();
        self.sync_domain_state(&record.name)?;
        self.emit(&record, DomainEventKind::MigratedIn);
        Ok(record)
    }

    fn migrate_confirm(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        let record = self.record(name)?;
        self.host.forget_migrated_domain(name)?;
        self.sync_domain_state(name)?;
        self.emit(&record, DomainEventKind::MigratedOut);
        Ok(())
    }

    fn migrate_abort(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        // Tear down a domain imported by a finish whose confirm never came.
        if let Ok(record) = self.record(name) {
            if record.state.is_active() {
                self.host.destroy_domain(name)?;
            }
            let _ = self.host.forget_migrated_domain(name);
            self.sync_domain_state(name)?;
        }
        Ok(())
    }

    // ---- jobs & bulk stats -------------------------------------------------

    fn domain_job_stats(&self, name: &str) -> VirtResult<JobStats> {
        self.ensure_alive()?;
        let stats = self.jobs.stats(name);
        if stats.kind == JobKind::None {
            // No job ever ran: validate the domain so typos surface as
            // NoDomain rather than an eternally idle job.
            self.record(name)?;
        }
        Ok(stats)
    }

    fn abort_domain_job(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        self.jobs.abort(name)
    }

    /// One pass over the host's domain table instead of the default's
    /// list-then-query-each: the same rows in the same order, built on
    /// the stack, and the same simulated cost — one `ListDomains`, then
    /// one `QueryDomain` for every domain without job history, which is
    /// what [`HypervisorConnection::domain_job_stats`] spends validating
    /// the name (a failed query never cost the default a row either),
    /// charged in one step after the pass.
    fn for_each_domain_stats(&self, visit: &mut dyn FnMut(&str, &[TypedParam])) -> VirtResult<()> {
        self.ensure_alive()?;
        let jobs = self.jobs.snapshot();
        let idle = JobStats::default();
        let mut without_history = 0;
        self.host.visit_domains(|domain| {
            let job = jobs.get(domain.name).unwrap_or(&idle);
            if job.kind == JobKind::None {
                without_history += 1;
            }
            let params = StatsParams::new(
                domain.state.into(),
                domain.cpu_time_ns,
                domain.memory.0,
                domain.max_memory.0,
                domain.vcpus,
                job,
            );
            visit(domain.name, &params);
        })?;
        self.host.charge_domain_queries(without_history);
        Ok(())
    }

    // ---- storage -----------------------------------------------------------

    fn list_pools(&self) -> VirtResult<Vec<String>> {
        self.ensure_alive()?;
        Ok(self.host.list_pools()?)
    }

    fn pool_info(&self, name: &str) -> VirtResult<PoolRecord> {
        self.ensure_alive()?;
        let pool = self.host.pool(name)?;
        Ok(PoolRecord {
            name: pool.name.clone(),
            uuid: Uuid::from_bytes(pool.uuid),
            backend: pool.backend.to_string(),
            capacity_mib: pool.capacity.0,
            allocation_mib: pool.allocation().0,
            active: pool.active,
            volume_count: pool.volume_count() as u32,
        })
    }

    fn define_pool_xml(&self, xml: &str) -> VirtResult<PoolRecord> {
        self.ensure_alive()?;
        let config = PoolConfig::from_xml_str(xml)?;
        self.host.define_pool(config.to_spec())?;
        if let Some(binding) = &self.store {
            binding.store.put(
                ObjectKind::Pool,
                &binding.driver,
                &config.name,
                &config.to_xml_string(),
            )?;
        }
        self.pool_info(&config.name)
    }

    fn start_pool(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        Ok(self.host.start_pool(name)?)
    }

    fn stop_pool(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        Ok(self.host.stop_pool(name)?)
    }

    fn undefine_pool(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        self.host.undefine_pool(name)?;
        if let Some(binding) = &self.store {
            binding
                .store
                .remove(ObjectKind::Pool, &binding.driver, name)?;
        }
        Ok(())
    }

    fn list_volumes(&self, pool: &str) -> VirtResult<Vec<String>> {
        self.ensure_alive()?;
        Ok(self.host.pool(pool)?.volume_names())
    }

    fn volume_info(&self, pool: &str, name: &str) -> VirtResult<VolumeRecord> {
        self.ensure_alive()?;
        let pool_obj = self.host.pool(pool)?;
        let vol = pool_obj.volume(name)?;
        Ok(VolumeRecord {
            name: vol.name.clone(),
            pool: pool.to_string(),
            capacity_mib: vol.capacity.0,
            allocation_mib: vol.allocation.0,
            format: vol.format.clone(),
            path: vol.path.clone(),
        })
    }

    fn create_volume_xml(&self, pool: &str, xml: &str) -> VirtResult<VolumeRecord> {
        self.ensure_alive()?;
        let config = VolumeConfig::from_xml_str(xml)?;
        self.host.create_volume(pool, config.to_spec())?;
        self.volume_info(pool, &config.name)
    }

    fn delete_volume(&self, pool: &str, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        Ok(self.host.delete_volume(pool, name)?)
    }

    fn resize_volume(&self, pool: &str, name: &str, capacity_mib: u64) -> VirtResult<()> {
        self.ensure_alive()?;
        Ok(self
            .host
            .resize_volume(pool, name, hypersim::MiB(capacity_mib))?)
    }

    fn clone_volume(&self, pool: &str, source: &str, new_name: &str) -> VirtResult<VolumeRecord> {
        self.ensure_alive()?;
        self.host.clone_volume(pool, source, new_name)?;
        self.volume_info(pool, new_name)
    }

    // ---- networks ------------------------------------------------------------

    fn list_networks(&self) -> VirtResult<Vec<String>> {
        self.ensure_alive()?;
        Ok(self.host.list_networks()?)
    }

    fn network_info(&self, name: &str) -> VirtResult<NetworkRecord> {
        self.ensure_alive()?;
        let net = self.host.network(name)?;
        Ok(NetworkRecord {
            name: net.name.clone(),
            uuid: Uuid::from_bytes(net.uuid),
            bridge: net.bridge.clone(),
            forward: net.forward.to_string(),
            active: net.active,
            leases: net
                .leases()
                .iter()
                .map(|l| (l.mac.clone(), l.ip.to_string(), l.domain.clone()))
                .collect(),
        })
    }

    fn define_network_xml(&self, xml: &str) -> VirtResult<NetworkRecord> {
        self.ensure_alive()?;
        let config = NetworkConfig::from_xml_str(xml)?;
        self.host.define_network(config.to_spec())?;
        if let Some(binding) = &self.store {
            binding.store.put(
                ObjectKind::Network,
                &binding.driver,
                &config.name,
                &config.to_xml_string(),
            )?;
        }
        self.network_info(&config.name)
    }

    fn start_network(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        Ok(self.host.start_network(name)?)
    }

    fn stop_network(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        Ok(self.host.stop_network(name)?)
    }

    fn undefine_network(&self, name: &str) -> VirtResult<()> {
        self.ensure_alive()?;
        self.host.undefine_network(name)?;
        if let Some(binding) = &self.store {
            binding
                .store
                .remove(ObjectKind::Network, &binding.driver, name)?;
        }
        Ok(())
    }

    // ---- events -----------------------------------------------------------------

    fn register_event_callback(&self, callback: EventCallback) -> VirtResult<CallbackId> {
        self.ensure_alive()?;
        Ok(self.events.register(callback))
    }

    fn unregister_event_callback(&self, id: CallbackId) -> VirtResult<()> {
        if self.events.unregister(id) {
            Ok(())
        } else {
            Err(VirtError::new(
                ErrorCode::InvalidArg,
                format!("no callback {id}"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DomainState;
    use hypersim::personality::{LxcLike, QemuLike, XenLike};
    use hypersim::LatencyModel;

    fn connection(
        personality: impl hypersim::personality::Personality + 'static,
    ) -> Arc<EmbeddedConnection> {
        let host = SimHost::builder("embedded-test")
            .personality(personality)
            .latency(LatencyModel::zero())
            .build();
        EmbeddedConnection::new(host, "test:///embedded")
    }

    fn domain_xml(name: &str, memory: u64) -> String {
        DomainConfig::new(name, memory, 1).to_xml_string()
    }

    #[test]
    fn lifecycle_through_the_trait() {
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 512)).unwrap();
        let started = conn.start_domain("vm").unwrap();
        assert_eq!(started.state, DomainState::Running);
        let paused = conn.suspend_domain("vm").unwrap();
        assert_eq!(paused.state, DomainState::Paused);
        let resumed = conn.resume_domain("vm").unwrap();
        assert_eq!(resumed.state, DomainState::Running);
        let stopped = conn.shutdown_domain("vm").unwrap();
        assert_eq!(stopped.state, DomainState::Shutoff);
        conn.undefine_domain("vm").unwrap();
        assert!(conn.list_domains().unwrap().is_empty());
    }

    #[test]
    fn qemu_lifecycle_goes_through_the_monitor() {
        // The observable contract: identical behavior; the monitor path is
        // exercised by the qemu personality (this is asserted indirectly by
        // balloon which only exists as a monitor command there).
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 512)).unwrap();
        conn.start_domain("vm").unwrap();
        let ballooned = conn.set_domain_memory("vm", 256).unwrap();
        assert_eq!(ballooned.memory_mib, 256);
    }

    #[test]
    fn xen_and_lxc_paths_work_without_monitor() {
        for conn in [connection(XenLike), connection(LxcLike)] {
            conn.define_domain_xml(&domain_xml("vm", 256)).unwrap();
            conn.start_domain("vm").unwrap();
            conn.suspend_domain("vm").unwrap();
            conn.resume_domain("vm").unwrap();
            conn.destroy_domain("vm").unwrap();
        }
    }

    #[test]
    fn dump_xml_round_trips_through_define() {
        let conn = connection(QemuLike);
        let mut config = DomainConfig::new("vm", 1024, 2);
        config.disks.push(DiskConfig {
            target: "vda".into(),
            source: "/img/a".into(),
            capacity_mib: 100,
            bus: "virtio".into(),
        });
        conn.define_domain_xml(&config.to_xml_string()).unwrap();
        let dumped = conn.dump_domain_xml("vm").unwrap();
        let parsed = DomainConfig::from_xml_str(&dumped).unwrap();
        assert_eq!(parsed.name, "vm");
        assert_eq!(parsed.memory_mib, 1024);
        assert_eq!(parsed.vcpus, 2);
        assert_eq!(parsed.disks.len(), 1);
        assert_eq!(parsed.domain_type, "qemu");
        assert!(parsed.uuid.is_some());
    }

    #[test]
    fn events_fire_for_lifecycle_changes() {
        let conn = connection(QemuLike);
        let (tx, rx) = std::sync::mpsc::channel();
        conn.register_event_callback(Arc::new(move |e: &DomainEvent| {
            tx.send(e.kind).unwrap();
        }))
        .unwrap();
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        conn.start_domain("vm").unwrap();
        conn.destroy_domain("vm").unwrap();
        conn.undefine_domain("vm").unwrap();
        let kinds: Vec<_> = rx.try_iter().collect();
        assert_eq!(
            kinds,
            vec![
                DomainEventKind::Defined,
                DomainEventKind::Started,
                DomainEventKind::Stopped,
                DomainEventKind::Undefined
            ]
        );
    }

    #[test]
    fn unregistering_event_callback() {
        let conn = connection(QemuLike);
        let id = conn.register_event_callback(Arc::new(|_| {})).unwrap();
        conn.unregister_event_callback(id).unwrap();
        let err = conn.unregister_event_callback(id).unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArg);
    }

    #[test]
    fn closed_connection_rejects_calls() {
        let conn = connection(QemuLike);
        conn.close();
        assert!(!conn.is_alive());
        let err = conn.list_domains().unwrap_err();
        assert_eq!(err.code(), ErrorCode::ConnectInvalid);
    }

    #[test]
    fn attach_and_detach_disk_via_xml() {
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        let disk_xml =
            "<disk type='file'><source file='/img/extra'/><target dev='vdb' bus='virtio'/></disk>";
        conn.attach_device("vm", disk_xml).unwrap();
        let dumped = conn.dump_domain_xml("vm").unwrap();
        assert!(dumped.contains("vdb"));
        conn.detach_device("vm", "vdb").unwrap();
        let dumped = conn.dump_domain_xml("vm").unwrap();
        assert!(!dumped.contains("vdb"));
    }

    #[test]
    fn attach_rejects_non_disk_devices() {
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        let err = conn.attach_device("vm", "<tpm model='x'/>").unwrap_err();
        assert_eq!(err.code(), ErrorCode::XmlError);
    }

    #[test]
    fn attach_errors_keep_their_texts() {
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        for (device, message) in [
            (
                "<tpm model='x'/>",
                "only <disk> devices can be attached, got <tpm>",
            ),
            ("<disk/>", "<disk> is missing <target>"),
            (
                "<disk><target bus='ide'/></disk>",
                "<target> is missing dev=",
            ),
            (
                "<disk><target dev='vdb'/><capacity>big</capacity></disk>",
                "<capacity> value 'big' is not a number",
            ),
            (
                "<disk>",
                "unexpected end of input at byte 6 (element <disk> is never closed)",
            ),
        ] {
            let err = conn.attach_device("vm", device).unwrap_err();
            assert_eq!((err.code(), err.message()), (ErrorCode::XmlError, message));
        }
        // The device is a document of its own: a declaration may precede it.
        conn.attach_device(
            "vm",
            "<?xml version='1.0'?><disk><target dev='vdc'/></disk>",
        )
        .unwrap();
    }

    #[test]
    fn node_info_tracks_domains() {
        let conn = connection(XenLike);
        conn.define_domain_xml(&domain_xml("a", 512)).unwrap();
        conn.define_domain_xml(&domain_xml("b", 512)).unwrap();
        conn.start_domain("a").unwrap();
        let info = conn.node_info().unwrap();
        assert_eq!(info.active_domains, 1);
        assert_eq!(info.inactive_domains, 1);
        assert_eq!(info.free_memory_mib, info.memory_mib - 512);
        assert_eq!(info.hypervisor, "xen");
    }

    #[test]
    fn capabilities_reflect_personality() {
        assert!(connection(QemuLike)
            .capabilities()
            .unwrap()
            .has_feature("snapshots"));
        assert!(!connection(LxcLike)
            .capabilities()
            .unwrap()
            .has_feature("migration"));
    }

    #[test]
    fn migration_phases_between_two_embedded_connections() {
        let clock = hypersim::SimClock::new();
        let src_host = SimHost::builder("src")
            .clock(clock.clone())
            .latency(LatencyModel::zero())
            .build();
        let dst_host = SimHost::builder("dst")
            .clock(clock)
            .latency(LatencyModel::zero())
            .seed(2)
            .build();
        let src = EmbeddedConnection::new(src_host, "qemu:///src");
        let dst = EmbeddedConnection::new(dst_host, "qemu:///dst");

        src.define_domain_xml(&domain_xml("vm", 1024)).unwrap();
        src.start_domain("vm").unwrap();

        let xml = src.migrate_begin("vm").unwrap();
        dst.migrate_prepare(&xml).unwrap();
        let report = src
            .migrate_perform("vm", &MigrationOptions::default())
            .unwrap();
        assert!(report.converged);
        assert!(report.transferred_mib >= 1024);
        let record = dst.migrate_finish(&xml).unwrap();
        assert_eq!(record.state, DomainState::Running);
        src.migrate_confirm("vm").unwrap();

        assert!(src.list_domains().unwrap().is_empty());
        assert_eq!(dst.list_domains().unwrap().len(), 1);
    }

    #[test]
    fn migrate_begin_requires_running_domain() {
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        let err = conn.migrate_begin("vm").unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationInvalid);
    }

    #[test]
    fn migrate_begin_rejected_on_lxc() {
        let conn = connection(LxcLike);
        conn.define_domain_xml(&domain_xml("c", 128)).unwrap();
        conn.start_domain("c").unwrap();
        let err = conn.migrate_begin("c").unwrap_err();
        assert_eq!(err.code(), ErrorCode::NoSupport);
    }

    #[test]
    fn migrate_prepare_rejects_duplicates_and_overcommit() {
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        let err = conn.migrate_prepare(&domain_xml("vm", 128)).unwrap_err();
        assert_eq!(err.code(), ErrorCode::DomainExists);
        let err = conn
            .migrate_prepare(&domain_xml("huge", 999_999))
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::InsufficientResources);
    }

    #[test]
    fn migrate_abort_tears_down_unconfirmed_import() {
        let conn = connection(QemuLike);
        let xml = domain_xml("incoming", 256);
        conn.migrate_finish(&xml).unwrap();
        assert_eq!(conn.list_domains().unwrap().len(), 1);
        conn.migrate_abort("incoming").unwrap();
        assert!(conn.list_domains().unwrap().is_empty());
        // Aborting a non-existent domain is a no-op.
        conn.migrate_abort("ghost").unwrap();
    }

    #[test]
    fn storage_operations_through_the_trait() {
        let conn = connection(QemuLike);
        let pool_xml = PoolConfig::new("images", hypersim::PoolBackend::Dir, 1000).to_xml_string();
        let pool = conn.define_pool_xml(&pool_xml).unwrap();
        assert!(!pool.active);
        conn.start_pool("images").unwrap();
        let vol_xml = VolumeConfig::new("root.img", 100).to_xml_string();
        let vol = conn.create_volume_xml("images", &vol_xml).unwrap();
        assert_eq!(vol.capacity_mib, 100);
        assert_eq!(conn.list_volumes("images").unwrap(), vec!["root.img"]);
        conn.clone_volume("images", "root.img", "copy.img").unwrap();
        conn.resize_volume("images", "copy.img", 200).unwrap();
        assert_eq!(
            conn.volume_info("images", "copy.img").unwrap().capacity_mib,
            200
        );
        conn.delete_volume("images", "root.img").unwrap();
        conn.stop_pool("images").unwrap();
        conn.undefine_pool("images").unwrap();
        assert_eq!(conn.list_pools().unwrap(), vec!["default"]);
    }

    #[test]
    fn network_operations_through_the_trait() {
        let conn = connection(QemuLike);
        let net_xml =
            NetworkConfig::new("lan", std::net::Ipv4Addr::new(10, 9, 0, 0)).to_xml_string();
        let net = conn.define_network_xml(&net_xml).unwrap();
        assert!(!net.active);
        conn.start_network("lan").unwrap();
        assert!(conn.network_info("lan").unwrap().active);
        conn.stop_network("lan").unwrap();
        conn.undefine_network("lan").unwrap();
        assert_eq!(conn.list_networks().unwrap(), vec!["default"]);
    }

    #[test]
    fn lookup_by_id_and_uuid() {
        let conn = connection(QemuLike);
        let defined = conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        conn.start_domain("vm").unwrap();
        let by_id = conn.lookup_domain_by_id(1).unwrap();
        assert_eq!(by_id.name, "vm");
        let by_uuid = conn.lookup_domain_by_uuid(defined.uuid).unwrap();
        assert_eq!(by_uuid.name, "vm");
        assert_eq!(
            conn.lookup_domain_by_name("nope").unwrap_err().code(),
            ErrorCode::NoDomain
        );
    }

    #[test]
    fn snapshots_and_autostart() {
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        conn.snapshot_domain("vm", "base").unwrap();
        assert_eq!(conn.list_snapshots("vm").unwrap(), vec!["base"]);
        conn.set_autostart("vm", true).unwrap();
        assert!(conn.lookup_domain_by_name("vm").unwrap().autostart);
        assert!(conn.get_autostart("vm").unwrap());
        conn.set_autostart("vm", false).unwrap();
        assert!(!conn.get_autostart("vm").unwrap());
    }

    #[test]
    fn undefine_running_domain_demotes_to_transient() {
        let conn = connection(QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        conn.start_domain("vm").unwrap();
        conn.undefine_domain("vm").unwrap();
        // Still running, but no longer persistent…
        let record = conn.lookup_domain_by_name("vm").unwrap();
        assert_eq!(record.state, DomainState::Running);
        assert!(!record.persistent);
        // …and it vanishes for good when it stops.
        conn.shutdown_domain("vm").unwrap();
        assert_eq!(
            conn.lookup_domain_by_name("vm").unwrap_err().code(),
            ErrorCode::NoDomain
        );
    }

    // ---- persistence & recovery ------------------------------------------

    fn temp_store(tag: &str) -> Arc<StateStore> {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "virt-embedded-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        StateStore::open(dir).unwrap()
    }

    fn stored_connection(
        store: &Arc<StateStore>,
        personality: impl hypersim::personality::Personality + 'static,
    ) -> Arc<EmbeddedConnection> {
        let host = SimHost::builder("embedded-store")
            .personality(personality)
            .latency(LatencyModel::zero())
            .build();
        EmbeddedConnection::with_store(
            host,
            "qemu:///system",
            StoreBinding::new(Arc::clone(store), "qemu"),
        )
    }

    #[test]
    fn recovery_restores_definitions_states_and_autostart() {
        let store = temp_store("recover");
        let uuids;
        {
            let conn = stored_connection(&store, QemuLike);
            conn.define_domain_xml(&domain_xml("boot", 128)).unwrap();
            conn.define_domain_xml(&domain_xml("idle", 128)).unwrap();
            conn.define_domain_xml(&domain_xml("busy", 128)).unwrap();
            conn.set_autostart("boot", true).unwrap();
            conn.start_domain("busy").unwrap();
            // A transient domain must leave no trace.
            conn.create_domain_xml(&domain_xml("ghost", 64)).unwrap();
            uuids = (
                conn.lookup_domain_by_name("boot").unwrap().uuid,
                conn.lookup_domain_by_name("busy").unwrap().uuid,
            );
            // The connection (and its host) is dropped without any
            // shutdown: the moral equivalent of SIGKILL.
        }

        let conn = stored_connection(&store, QemuLike);
        assert!(conn.list_domains().unwrap().is_empty());
        let report = conn.recover_from_store().unwrap();
        assert_eq!(report.domains, 3);
        assert_eq!(report.crashed, 1);
        assert_eq!(report.autostarted, 1);
        assert_eq!(report.quarantined, 0);

        let boot = conn.lookup_domain_by_name("boot").unwrap();
        assert_eq!(boot.uuid, uuids.0, "identity survives restart");
        assert!(boot.autostart);
        assert_eq!(boot.state, DomainState::Running);

        // `busy` was running when the daemon died: its guest died with
        // it, so it reports shut off with reason crashed.
        let busy = conn.lookup_domain_by_name("busy").unwrap();
        assert_eq!(busy.uuid, uuids.1);
        assert_eq!(busy.state, DomainState::Crashed);
        assert!(!busy.state.is_active());

        let idle = conn.lookup_domain_by_name("idle").unwrap();
        assert_eq!(idle.state, DomainState::Shutoff);

        assert_eq!(
            conn.lookup_domain_by_name("ghost").unwrap_err().code(),
            ErrorCode::NoDomain
        );
    }

    #[test]
    fn recovery_restores_networks_and_pools() {
        let store = temp_store("netpool");
        {
            let conn = stored_connection(&store, QemuLike);
            let net = NetworkConfig::new("lan", std::net::Ipv4Addr::new(10, 8, 0, 0));
            conn.define_network_xml(&net.to_xml_string()).unwrap();
            let pool = PoolConfig::new("images", hypersim::PoolBackend::Dir, 512);
            conn.define_pool_xml(&pool.to_xml_string()).unwrap();
        }
        let conn = stored_connection(&store, QemuLike);
        let report = conn.recover_from_store().unwrap();
        assert_eq!(report.networks, 1);
        assert_eq!(report.pools, 1);
        assert_eq!(report.recovered(), 2);
        assert!(conn.list_networks().unwrap().contains(&"lan".to_string()));
        assert!(conn.list_pools().unwrap().contains(&"images".to_string()));
    }

    #[test]
    fn recovery_quarantines_corrupt_definitions() {
        let store = temp_store("corrupt");
        {
            let conn = stored_connection(&store, QemuLike);
            conn.define_domain_xml(&domain_xml("good", 128)).unwrap();
            conn.define_domain_xml(&domain_xml("bad", 128)).unwrap();
        }
        // Tear the 'bad' definition mid-byte, as a crash would.
        let path = store.root().join("etc/domains/qemu").join("bad.xml");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let conn = stored_connection(&store, QemuLike);
        let report = conn.recover_from_store().unwrap();
        assert_eq!(report.domains, 1);
        assert_eq!(report.quarantined, 1);
        assert!(conn.lookup_domain_by_name("good").is_ok());
        assert_eq!(
            conn.lookup_domain_by_name("bad").unwrap_err().code(),
            ErrorCode::NoDomain
        );
    }

    #[test]
    fn recovery_quarantines_a_second_holder_of_one_uuid() {
        let store = temp_store("uuid-clash");
        let uuid = Uuid::generate();
        for name in ["alpha", "beta"] {
            let mut config = DomainConfig::new(name, 128, 1);
            config.uuid = Some(uuid);
            store
                .put(ObjectKind::Domain, "qemu", name, &config.to_xml_string())
                .unwrap();
        }
        let conn = stored_connection(&store, QemuLike);
        let report = conn.recover_from_store().unwrap();
        assert_eq!(report.domains, 1);
        assert_eq!(report.quarantined, 1);
        // `load_all` is name-ordered: the first holder keeps the UUID.
        assert_eq!(conn.lookup_domain_by_uuid(uuid).unwrap().name, "alpha");
        assert_eq!(
            conn.lookup_domain_by_name("beta").unwrap_err().code(),
            ErrorCode::NoDomain
        );
        assert!(!store.root().join("etc/domains/qemu/beta.xml").exists());
    }

    #[test]
    fn undefine_and_destroy_sweep_state_files() {
        let store = temp_store("sweep");
        let conn = stored_connection(&store, QemuLike);
        conn.define_domain_xml(&domain_xml("vm", 128)).unwrap();
        let def = store.root().join("etc/domains/qemu/vm.xml");
        let run = store.root().join("run/domains/qemu/vm.xml");
        assert!(def.exists() && run.exists());
        conn.start_domain("vm").unwrap();
        conn.undefine_domain("vm").unwrap();
        assert!(
            !def.exists() && !run.exists(),
            "demoted transient domain must leave no state files"
        );
        conn.destroy_domain("vm").unwrap();
        assert!(conn.list_domains().unwrap().is_empty());
    }
}
