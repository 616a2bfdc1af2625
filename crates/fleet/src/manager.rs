//! The fleet manager: N `virtd` hosts behind one front-end.
//!
//! [`FleetManager`] owns one auto-reconnecting [`Connect`] per member
//! host, a push-refreshed [`HostInventory`] cache fed by the bulk
//! `domstats` RPC and lifecycle event subscriptions, and the fleet-wide
//! operations built on them: capacity-aware placement
//! ([`FleetManager::create`]), cross-host live migration
//! ([`FleetManager::migrate`]) with crash reconciliation, and host
//! evacuation ([`FleetManager::evacuate`]). Bulk work fans out with
//! bounded parallelism ([`virt_rpc::fanout::run_bounded`]); per-host
//! deadlines ride on the connections themselves.
//!
//! ## Health
//!
//! A host whose refresh fails (and whose connection is dead) is marked
//! *down*: a `fleet.host_down` counter tick plus a structured log line.
//! Down hosts are skipped by placement and fan-outs until a later
//! refresh reaches them again (`fleet.host_up`). The first successful
//! contact is not counted as a transition — only genuine flaps are.
//!
//! ## Migration reconciliation
//!
//! A fleet migration that fails mid-flight leaves the truth distributed:
//! the destination may or may not have finished adopting the guest, and
//! the source may be unreachable. [`FleetManager::reconcile`] restores
//! the single-owner invariant by asking the *destination* what happened:
//! a running destination copy wins (the source must forget its stale
//! copy — immediately if reachable, else queued and retried when the
//! host returns); anything less is torn down on the destination so the
//! source keeps ownership. Deferred cases are retried on every refresh.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use virt_core::driver::{MigrationOptions, MigrationReport};
use virt_core::guard::GuardPolicy;
use virt_core::log::{LogLevel, LogOutput, LogSettings, Logger, OutputKind};
use virt_core::metrics::span::{self, Stage};
use virt_core::metrics::Registry;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, DomainState, ErrorCode, VirtError, VirtResult};
use virt_rpc::fanout::run_bounded;
use virt_rpc::retry::BackoffSchedule;

use crate::inventory::{DomainSummary, HostInventory};
use crate::placement::{choose, HostCapacity, PlacementPolicy, PlacementRequest, Spread};

/// Concurrent per-host calls a fan-out keeps in flight.
const FANOUT: usize = 8;

/// The retry ladder of deferred reconciliations: 100 ms doubling to a 5 s
/// cap, spread by per-domain jitter.
const RECONCILE_BACKOFF: BackoffSchedule = BackoffSchedule {
    initial: Duration::from_millis(100),
    max: Duration::from_secs(5),
    multiplier: 2,
};

/// One member host: its connection, health flag and inventory cache.
struct FleetHost {
    name: String,
    uri: String,
    conn: Mutex<Option<Connect>>,
    /// Health flag; transitions are counted and logged by the manager.
    up: AtomicBool,
    /// Whether the host has ever been reached (suppresses the initial
    /// "up" transition count).
    ever_seen: AtomicBool,
    /// Memory claimed by placements the node snapshot doesn't know yet.
    reserved_mib: AtomicU64,
    inventory: Mutex<HostInventory>,
    /// Keep-running-guarded domains last seen on this host, captured
    /// while it was reachable — the failover working set once it dies.
    guarded: Mutex<Vec<GuardedDomain>>,
    gauges: HostGauges,
}

impl FleetHost {
    /// Returns the live connection, dialing (and subscribing the event
    /// feed) on first use. The connection auto-reconnects, so one dial
    /// per host lifetime is the steady state.
    fn connection(
        &self,
        deadline: Option<Duration>,
        weak: &Weak<FleetHost>,
    ) -> VirtResult<Connect> {
        let mut guard = self.conn.lock();
        if let Some(conn) = guard.as_ref() {
            return Ok(conn.clone());
        }
        let mut builder = Connect::builder(&self.uri).reconnect(true);
        if let Some(deadline) = deadline {
            builder = builder.call_deadline(deadline);
        }
        let conn = builder.open()?;
        // Push refresh: lifecycle events patch the cache in place or
        // mark it dirty. Best effort — a driver without events still
        // works, the cache just refreshes more often. The callback holds
        // a weak reference so dropping the manager drops the host.
        let weak = weak.clone();
        let _ = conn.register_event_callback(move |event| {
            if let Some(host) = weak.upgrade() {
                host.inventory.lock().apply_event(&event.domain, event.kind);
                host.publish_gauges();
            }
        });
        *guard = Some(conn.clone());
        Ok(conn)
    }

    fn is_up(&self) -> bool {
        self.up.load(Ordering::Acquire)
    }

    fn publish_gauges(&self) {
        let inventory = self.inventory.lock();
        self.gauges.domains.set(inventory.domains.len() as u64);
        self.gauges.active.set(inventory.active() as u64);
        if let Some(node) = &inventory.node {
            let reserved = self.reserved_mib.load(Ordering::Acquire);
            self.gauges
                .free_mib
                .set(node.free_memory_mib.saturating_sub(reserved));
        }
    }

    /// Capacity view for placement: the cached node facts net of
    /// in-flight reservations. `None` until the host has been reached.
    fn capacity(&self) -> Option<HostCapacity> {
        let inventory = self.inventory.lock();
        let node = inventory.node.as_ref()?;
        let reserved = self.reserved_mib.load(Ordering::Acquire);
        Some(HostCapacity {
            host: self.name.clone(),
            cpus: node.cpus,
            memory_mib: node.memory_mib,
            free_memory_mib: node.free_memory_mib.saturating_sub(reserved),
            active_domains: inventory.active() as u32,
            total_domains: inventory.domains.len() as u32,
        })
    }
}

virt_metrics::metric_set! {
    /// Everything `fleet.*` the manager publishes, but the per-host gauges.
    struct FleetMetrics {
        placement_latency: Histogram = "placement.latency_us",
            "Placement decision latency (scoring incl. dirty-host refreshes)";
        placements: Counter = "placement.total", "Placement decisions made";
        rejected: Counter = "placement.rejected",
            "Placements rejected at admission (no host fits)";
        migrations_started: Counter = "migration.started", "Fleet migrations started";
        migrations_completed: Counter = "migration.completed", "Fleet migrations completed";
        migrations_failed: Counter = "migration.failed", "Fleet migrations failed";
        migrations_reconciled: Counter = "migration.reconciled",
            "Failed migrations reconciled back to a single owner";
        migration_latency: Histogram = "migration.latency_us",
            "Wall-clock latency of fleet migrations";
        refresh_latency: Histogram = "refresh.latency_us",
            "Per-host inventory refresh latency (node_info + bulk domstats)";
        host_down: Counter = "host_down", "Host health up->down transitions";
        host_up: Counter = "host_up", "Host health down->up transitions";
        hosts_up: Gauge = "hosts.up", "Member hosts currently reachable";
        guard_failovers: Counter = "guard.failover",
            "Guarded domains re-placed onto a survivor after their host died";
        guard_failover_failed: Counter = "guard.failover_failed",
            "Guard failover attempts that could not re-place the domain";
        guard_reconciled: Counter = "guard.reconciled",
            "Stale home copies of failed-over guarded domains removed after the host returned";
    }
}

virt_metrics::metric_set! {
    /// One member's inventory gauges, `fleet.host.<name>.*`.
    struct HostGauges {
        domains: Gauge = "domains", "Defined domains on this fleet host";
        active: Gauge = "active", "Running domains on this fleet host";
        free_mib: Gauge = "free_mib", "Free memory on this fleet host, net of reservations";
    }
}

/// A guarded domain cached for fleet failover: enough to re-create it
/// on a survivor (full XML) and re-arm its guard there.
#[derive(Debug, Clone)]
struct GuardedDomain {
    name: String,
    xml: String,
    policy: GuardPolicy,
}

/// Where a guarded domain was re-placed after its home host died;
/// cleared once the home host returns and its stale copy is removed.
#[derive(Debug, Clone)]
struct FailoverRecord {
    from: String,
    to: String,
}

/// A reconciliation that could not complete because a host was
/// unreachable; retried with capped, jittered backoff on refresh until
/// it resolves.
#[derive(Debug, Clone)]
struct PendingReconcile {
    domain: String,
    source: String,
    dest: String,
    /// Deferral count (1-based); drives the backoff ladder.
    attempts: u32,
    /// Earliest instant the next retry may run.
    next_due: Instant,
}

impl PendingReconcile {
    fn same_case(&self, other: &PendingReconcile) -> bool {
        self.domain == other.domain && self.source == other.source && self.dest == other.dest
    }
}

/// How a failed migration was reconciled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reconciliation {
    /// The destination finished adopting the guest; the source copy was
    /// (or will be) forgotten.
    DestinationOwns,
    /// The destination never finished; any half-adopted copy was torn
    /// down and the source keeps the guest.
    SourceOwns,
    /// A host was unreachable; queued and retried on the next refresh.
    Deferred,
}

/// Status row for one member host, as shown by `vsh fleet hosts`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStatus {
    /// Fleet-level host name.
    pub name: String,
    /// Connection URI.
    pub uri: String,
    /// Health flag.
    pub up: bool,
    /// Defined domains (from the cache).
    pub domains: usize,
    /// Running domains (from the cache).
    pub active: usize,
    /// Physical memory in MiB (0 until first contact).
    pub memory_mib: u64,
    /// Free memory in MiB, net of reservations (0 until first contact).
    pub free_memory_mib: u64,
}

/// Outcome of [`FleetManager::evacuate`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvacuationReport {
    /// `(domain, destination host)` pairs migrated off successfully.
    pub migrated: Vec<(String, String)>,
    /// `(domain, error)` pairs that could not be moved.
    pub failed: Vec<(String, String)>,
}

/// Configures and builds a [`FleetManager`].
pub struct FleetBuilder {
    hosts: Vec<(String, String)>,
    policy: Box<dyn PlacementPolicy>,
    call_deadline: Option<Duration>,
}

impl FleetBuilder {
    /// Adds a member host by fleet-level name and connection URI.
    pub fn host(mut self, name: impl Into<String>, uri: impl Into<String>) -> Self {
        self.hosts.push((name.into(), uri.into()));
        self
    }

    /// Sets the placement policy (default: [`Spread`]).
    pub fn policy(mut self, policy: Box<dyn PlacementPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Per-host call deadline applied to every member connection
    /// (default 30 s; `None` disables).
    pub fn call_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.call_deadline = deadline;
        self
    }

    /// Builds the manager. Connections are dialed lazily, so a fleet
    /// over daemons that are still starting builds fine — the hosts show
    /// up on the first refresh that reaches them.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidArg`] for an empty fleet or duplicate names.
    pub fn build(self) -> VirtResult<FleetManager> {
        if self.hosts.is_empty() {
            return Err(VirtError::new(
                ErrorCode::InvalidArg,
                "a fleet needs at least one host",
            ));
        }
        let registry = Arc::new(Registry::new());
        // The logger keeps health transitions observable: warnings on
        // stderr for operators, everything in the journal sink so tests
        // and tooling can assert on the structured lines.
        let logger = Arc::new(Logger::new());
        let _ = logger.redefine(LogSettings {
            level: LogLevel::Info,
            filters: Vec::new(),
            outputs: vec![
                LogOutput {
                    level: LogLevel::Warning,
                    kind: OutputKind::Stderr,
                },
                LogOutput {
                    level: LogLevel::Debug,
                    kind: OutputKind::Journald,
                },
            ],
        });
        let metrics = FleetMetrics::new().attach(&registry, "fleet.");
        let mut hosts: Vec<Arc<FleetHost>> = Vec::with_capacity(self.hosts.len());
        for (name, uri) in self.hosts {
            if hosts.iter().any(|h| h.name == name) {
                return Err(VirtError::new(
                    ErrorCode::InvalidArg,
                    format!("duplicate fleet host name '{name}'"),
                ));
            }
            hosts.push(Arc::new(FleetHost {
                gauges: HostGauges::new().attach(&registry, &format!("fleet.host.{name}.")),
                name,
                uri,
                conn: Mutex::new(None),
                up: AtomicBool::new(false),
                ever_seen: AtomicBool::new(false),
                reserved_mib: AtomicU64::new(0),
                inventory: Mutex::new(HostInventory::default()),
                guarded: Mutex::new(Vec::new()),
            }));
        }
        Ok(FleetManager {
            hosts,
            policy: Mutex::new(self.policy),
            registry,
            logger,
            call_deadline: self.call_deadline,
            metrics,
            pending: Mutex::new(Vec::new()),
            failed_over: Mutex::new(HashMap::new()),
        })
    }
}

/// The federation front-end. See the module docs for the design.
pub struct FleetManager {
    hosts: Vec<Arc<FleetHost>>,
    policy: Mutex<Box<dyn PlacementPolicy>>,
    registry: Arc<Registry>,
    logger: Arc<Logger>,
    call_deadline: Option<Duration>,
    metrics: FleetMetrics,
    pending: Mutex<Vec<PendingReconcile>>,
    /// Guarded domains currently living away from home, by domain name.
    failed_over: Mutex<HashMap<String, FailoverRecord>>,
}

impl FleetManager {
    /// Starts a builder with the default spread policy and a 30 s
    /// per-host deadline.
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            hosts: Vec::new(),
            policy: Box::new(Spread),
            call_deadline: Some(Duration::from_secs(30)),
        }
    }

    /// The registry holding the `fleet.*` metrics.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The fleet's logger (health transitions land here).
    pub fn logger(&self) -> &Arc<Logger> {
        &self.logger
    }

    /// Swaps the placement policy at runtime.
    pub fn set_policy(&self, policy: Box<dyn PlacementPolicy>) {
        *self.policy.lock() = policy;
    }

    // ---- membership & health ----------------------------------------------

    fn host(&self, name: &str) -> VirtResult<&Arc<FleetHost>> {
        self.hosts
            .iter()
            .find(|h| h.name == name)
            .ok_or_else(|| VirtError::new(ErrorCode::InvalidArg, format!("no fleet host '{name}'")))
    }

    fn connection(&self, host: &Arc<FleetHost>) -> VirtResult<Connect> {
        let result = host.connection(self.call_deadline, &Arc::downgrade(host));
        if result.is_err() {
            self.mark_down(host, "connect failed");
        }
        result
    }

    fn mark_down(&self, host: &Arc<FleetHost>, reason: &str) {
        if host.up.swap(false, Ordering::AcqRel) {
            self.metrics.host_down.inc();
            self.metrics.hosts_up.sub(1);
            self.logger.warning(
                "fleet",
                &format!(
                    "event=host_down host={} uri={} reason=\"{reason}\"",
                    host.name, host.uri
                ),
            );
        }
    }

    fn mark_up(&self, host: &Arc<FleetHost>) {
        if !host.up.swap(true, Ordering::AcqRel) {
            self.metrics.hosts_up.inc();
            // The first sighting is discovery, not recovery — only count
            // (and shout about) genuine down->up flaps.
            if host.ever_seen.swap(true, Ordering::AcqRel) {
                self.metrics.host_up.inc();
                self.logger.info(
                    "fleet",
                    &format!("event=host_up host={} uri={}", host.name, host.uri),
                );
            }
        }
    }

    // ---- inventory --------------------------------------------------------

    /// Fully refreshes one host: two RPCs (`node_info` + bulk domstats),
    /// then installs the snapshot and clears reservations it now covers.
    fn refresh_host(&self, host: &Arc<FleetHost>) -> VirtResult<()> {
        let started = Instant::now();
        let refresh = || -> VirtResult<()> {
            let conn = self.connection(host)?;
            let node = conn.node_info()?;
            let mut domains = Vec::new();
            conn.for_each_domain_stats(&mut |name, params| {
                domains.push(DomainSummary::from_stats(name, params));
            })?;
            // The fresh node snapshot already accounts for every domain
            // that existed when it was taken, so reservations covering
            // completed placements are dropped with it. (A placement
            // racing this refresh may briefly double-count its memory —
            // the conservative direction.)
            host.reserved_mib.store(0, Ordering::Release);
            host.inventory.lock().install(node, domains);
            host.publish_gauges();
            // Snapshot the keep-running guards (with full XML) while the
            // host is alive — after it dies this cache is all the fleet
            // has to re-create the guests elsewhere. Best effort: a
            // member without a guard engine just yields an empty set.
            let guarded: Vec<GuardedDomain> = conn
                .guard_list()
                .unwrap_or_default()
                .into_iter()
                .filter(|s| matches!(s.policy, GuardPolicy::KeepRunning { .. }) && !s.gave_up)
                .filter_map(|s| {
                    let xml = conn
                        .domain_lookup_by_name(&s.domain)
                        .ok()?
                        .xml_desc()
                        .ok()?;
                    Some(GuardedDomain {
                        name: s.domain,
                        xml,
                        policy: s.policy,
                    })
                })
                .collect();
            *host.guarded.lock() = guarded;
            Ok(())
        };
        match refresh() {
            Ok(()) => {
                self.metrics.refresh_latency.record(started.elapsed());
                self.mark_up(host);
                Ok(())
            }
            Err(err) => {
                self.mark_down(host, &err.to_string());
                Err(err)
            }
        }
    }

    /// Refreshes every host's inventory with bounded parallelism, then
    /// retries deferred reconciliations. Returns per-host results in
    /// membership order.
    pub fn refresh(&self) -> Vec<(String, VirtResult<()>)> {
        let tasks: Vec<_> = self
            .hosts
            .iter()
            .map(|host| {
                let host = host.clone();
                move || (host.name.clone(), self.refresh_host(&host))
            })
            .collect();
        let results = run_bounded(FANOUT, tasks);
        self.retry_pending();
        self.guard_failover_pass();
        self.guard_reconcile_pass();
        results
    }

    /// Refreshes only hosts whose cache is dirty (or that have never
    /// been reached). Errors are reflected in health flags, not
    /// returned — a down host simply stays out of the capacity view.
    fn refresh_dirty(&self) {
        let stale: Vec<_> = self
            .hosts
            .iter()
            .filter(|host| host.inventory.lock().dirty)
            .cloned()
            .collect();
        if stale.is_empty() {
            return;
        }
        let tasks: Vec<_> = stale
            .into_iter()
            .map(|host| move || drop(self.refresh_host(&host)))
            .collect();
        run_bounded(FANOUT, tasks);
    }

    /// Status rows for every member host, cache-backed (refresh first
    /// for live numbers).
    pub fn hosts(&self) -> Vec<HostStatus> {
        self.refresh_dirty();
        self.hosts
            .iter()
            .map(|host| {
                let inventory = host.inventory.lock();
                let (memory, free) = inventory
                    .node
                    .as_ref()
                    .map(|n| {
                        let reserved = host.reserved_mib.load(Ordering::Acquire);
                        (n.memory_mib, n.free_memory_mib.saturating_sub(reserved))
                    })
                    .unwrap_or((0, 0));
                HostStatus {
                    name: host.name.clone(),
                    uri: host.uri.clone(),
                    up: host.is_up(),
                    domains: inventory.domains.len(),
                    active: inventory.active(),
                    memory_mib: memory,
                    free_memory_mib: free,
                }
            })
            .collect()
    }

    /// Every domain in the fleet as `(host, summary)` pairs, from the
    /// cache after refreshing dirty hosts.
    pub fn list(&self) -> Vec<(String, DomainSummary)> {
        self.refresh_dirty();
        let mut rows = Vec::new();
        for host in &self.hosts {
            let inventory = host.inventory.lock();
            for domain in &inventory.domains {
                rows.push((host.name.clone(), domain.clone()));
            }
        }
        rows
    }

    /// Finds which host holds `domain`, from the cache.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoDomain`] when no member host has it.
    pub fn locate(&self, domain: &str) -> VirtResult<String> {
        self.refresh_dirty();
        for host in &self.hosts {
            if host
                .inventory
                .lock()
                .domains
                .iter()
                .any(|d| d.name == domain)
            {
                return Ok(host.name.clone());
            }
        }
        Err(VirtError::new(
            ErrorCode::NoDomain,
            format!("no fleet host has a domain '{domain}'"),
        ))
    }

    /// Probes every reachable host *live* (no cache) and returns those
    /// that currently hold `domain` — the single-residency check the
    /// chaos tests assert on.
    pub fn residency(&self, domain: &str) -> Vec<String> {
        let tasks: Vec<_> = self
            .hosts
            .iter()
            .map(|host| {
                let host = host.clone();
                let domain = domain.to_string();
                move || {
                    let conn = self.connection(&host).ok()?;
                    conn.domain_lookup_by_name(&domain)
                        .ok()
                        .map(|_| host.name.clone())
                }
            })
            .collect();
        run_bounded(FANOUT, tasks).into_iter().flatten().collect()
    }

    // ---- placement --------------------------------------------------------

    /// Chooses a host for `request` under the current policy and
    /// reserves the memory there. Down hosts never receive placements.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InsufficientResources`] when no reachable host fits
    /// (admission rejection).
    pub fn place(&self, request: &PlacementRequest) -> VirtResult<String> {
        let started = Instant::now();
        self.refresh_dirty();
        let candidates: Vec<HostCapacity> = self
            .hosts
            .iter()
            .filter(|host| host.is_up())
            .filter_map(|host| host.capacity())
            .collect();
        let winner = {
            let policy = self.policy.lock();
            choose(policy.as_ref(), request, &candidates)
        };
        let Some(winner) = winner else {
            self.metrics.rejected.inc();
            return Err(VirtError::new(
                ErrorCode::InsufficientResources,
                format!(
                    "no fleet host fits '{}' ({} MiB, {} vcpus; {} candidates)",
                    request.name,
                    request.memory_mib,
                    request.vcpus,
                    candidates.len()
                ),
            ));
        };
        let host = self.host(&winner)?;
        host.reserved_mib
            .fetch_add(request.memory_mib, Ordering::AcqRel);
        host.publish_gauges();
        self.metrics.placements.inc();
        self.metrics.placement_latency.record(started.elapsed());
        Ok(winner)
    }

    /// Places, defines and starts a domain; returns the chosen host.
    ///
    /// On definition/start failure the reservation is released and the
    /// error propagates — the caller can retry under a different policy
    /// or shape.
    pub fn create(&self, request: &PlacementRequest) -> VirtResult<String> {
        let _span = span::enter(Stage::Api, 0);
        let target = self.place(request)?;
        let host = self.host(&target)?;
        let outcome = (|| -> VirtResult<()> {
            let conn = self.connection(host)?;
            let domain = conn.define_domain(&DomainConfig::new(
                &request.name,
                request.memory_mib,
                request.vcpus,
            ))?;
            domain.start()?;
            Ok(())
        })();
        match outcome {
            Ok(()) => {
                let mut inventory = host.inventory.lock();
                inventory.domains.push(DomainSummary {
                    name: request.name.clone(),
                    state: DomainState::Running,
                    memory_mib: request.memory_mib,
                    max_memory_mib: request.memory_mib,
                    vcpus: request.vcpus,
                    job: None,
                });
                drop(inventory);
                host.publish_gauges();
                Ok(target)
            }
            Err(err) => {
                host.reserved_mib
                    .fetch_sub(request.memory_mib, Ordering::AcqRel);
                host.publish_gauges();
                Err(err)
            }
        }
    }

    // ---- migration --------------------------------------------------------

    /// Live-migrates `domain` from `source` to `dest` (fleet host
    /// names), orchestrating the five-phase protocol over both remote
    /// connections. On failure, reconciliation restores the single-owner
    /// invariant before the error is returned.
    pub fn migrate(
        &self,
        source: &str,
        domain: &str,
        dest: &str,
        options: &MigrationOptions,
    ) -> VirtResult<MigrationReport> {
        let _span = span::enter(Stage::Api, 0);
        if source == dest {
            return Err(VirtError::new(
                ErrorCode::InvalidArg,
                "source and destination host are the same",
            ));
        }
        let src = self.host(source)?.clone();
        let dst = self.host(dest)?.clone();
        let src_conn = self.connection(&src)?;
        let dst_conn = self.connection(&dst)?;
        let guest = src_conn.domain_lookup_by_name(domain)?;

        self.metrics.migrations_started.inc();
        let started = Instant::now();
        match guest.migrate_to(&dst_conn, options) {
            Ok(report) => {
                self.metrics.migrations_completed.inc();
                self.metrics.migration_latency.record(started.elapsed());
                // Move the cache entry with the guest.
                let moved = {
                    let mut inventory = src.inventory.lock();
                    let moved = inventory.domains.iter().find(|d| d.name == domain).cloned();
                    inventory.domains.retain(|d| d.name != domain);
                    moved
                };
                match moved {
                    Some(summary) => dst.inventory.lock().domains.push(summary),
                    None => dst.inventory.lock().dirty = true,
                }
                src.publish_gauges();
                dst.publish_gauges();
                Ok(report)
            }
            Err(err) => {
                self.metrics.migrations_failed.inc();
                self.reconcile(domain, source, dest);
                Err(VirtError::new(
                    ErrorCode::MigrateFailed,
                    format!("fleet migration of '{domain}' {source}->{dest} failed: {err}"),
                ))
            }
        }
    }

    /// Restores the single-owner invariant after a failed or interrupted
    /// migration of `domain` from `source` to `dest`. Safe to call
    /// repeatedly; deferred outcomes are queued and retried on refresh.
    pub fn reconcile(&self, domain: &str, source: &str, dest: &str) -> Reconciliation {
        let outcome = self.try_reconcile(domain, source, dest);
        match outcome {
            Reconciliation::Deferred => self.defer_reconcile(domain, source, dest, 1),
            resolved => self.note_reconciled(domain, source, dest, resolved),
        }
        outcome
    }

    /// Queues (or re-queues) a deferred reconciliation on the capped
    /// backoff ladder. The per-domain jitter seed spreads retries of
    /// many deferred cases so a returning host is not hit by all of
    /// them at once.
    fn defer_reconcile(&self, domain: &str, source: &str, dest: &str, attempts: u32) {
        let delay = RECONCILE_BACKOFF.delay(attempts, BackoffSchedule::seed_for(domain));
        let entry = PendingReconcile {
            domain: domain.to_string(),
            source: source.to_string(),
            dest: dest.to_string(),
            attempts,
            next_due: Instant::now() + delay,
        };
        let mut pending = self.pending.lock();
        if let Some(existing) = pending.iter_mut().find(|p| p.same_case(&entry)) {
            // Keep the longer-lived ladder position.
            if existing.attempts < entry.attempts {
                *existing = entry.clone();
            }
        } else {
            pending.push(entry);
        }
        drop(pending);
        self.logger.warning(
            "fleet",
            &format!(
                "event=reconcile_deferred domain={domain} source={source} dest={dest} \
                 attempts={attempts} retry_in_ms={}",
                delay.as_millis()
            ),
        );
    }

    fn note_reconciled(&self, domain: &str, source: &str, dest: &str, resolved: Reconciliation) {
        self.metrics.migrations_reconciled.inc();
        self.logger.info(
            "fleet",
            &format!(
                "event=reconciled domain={domain} source={source} dest={dest} owner={}",
                match resolved {
                    Reconciliation::DestinationOwns => dest,
                    _ => source,
                }
            ),
        );
    }

    fn try_reconcile(&self, domain: &str, source: &str, dest: &str) -> Reconciliation {
        let Ok(src) = self.host(source) else {
            return Reconciliation::Deferred;
        };
        let Ok(dst) = self.host(dest) else {
            return Reconciliation::Deferred;
        };
        // The destination knows whether Finish happened — ask it first.
        let adopted =
            match self
                .connection(dst)
                .and_then(|conn| match conn.domain_lookup_by_name(domain) {
                    Ok(guest) => Ok(Some(guest.state()?)),
                    Err(err) if err.code() == ErrorCode::NoDomain => Ok(None),
                    Err(err) => Err(err),
                }) {
                Ok(state) => state,
                // Destination unreachable: ownership is undecidable right now.
                Err(_) => return Reconciliation::Deferred,
            };
        dst.inventory.lock().dirty = true;
        match adopted {
            Some(state) if state.is_active() => {
                // Finish won: the destination copy runs. The source must
                // forget its stale copy — whatever state a crash-restart
                // recovered it in.
                let forgotten = self.connection(src).and_then(|conn| {
                    match conn.confirm_outgoing_migration(domain) {
                        Ok(()) => Ok(()),
                        Err(err) if err.code() == ErrorCode::NoDomain => Ok(()),
                        Err(err) => Err(err),
                    }
                });
                src.inventory.lock().dirty = true;
                match forgotten {
                    Ok(()) => Reconciliation::DestinationOwns,
                    Err(_) => Reconciliation::Deferred,
                }
            }
            _ => {
                // Finish never completed (absent, or imported but not
                // running): tear down any half-adopted copy; the source
                // keeps the guest — if the source daemon died too, its
                // crash-safe store returns the guest when it restarts.
                if self
                    .connection(dst)
                    .and_then(|conn| conn.abort_incoming_migration(domain))
                    .is_err()
                {
                    return Reconciliation::Deferred;
                }
                if let Ok(s) = self.host(source) {
                    s.inventory.lock().dirty = true;
                }
                Reconciliation::SourceOwns
            }
        }
    }

    fn retry_pending(&self) {
        let now = Instant::now();
        let due: Vec<PendingReconcile> = {
            let mut pending = self.pending.lock();
            let mut due = Vec::new();
            pending.retain(|entry| {
                if entry.next_due <= now {
                    due.push(entry.clone());
                    false
                } else {
                    true
                }
            });
            due
        };
        for entry in due {
            match self.try_reconcile(&entry.domain, &entry.source, &entry.dest) {
                Reconciliation::Deferred => self.defer_reconcile(
                    &entry.domain,
                    &entry.source,
                    &entry.dest,
                    entry.attempts.saturating_add(1),
                ),
                resolved => {
                    self.note_reconciled(&entry.domain, &entry.source, &entry.dest, resolved)
                }
            }
        }
    }

    // ---- guard failover ---------------------------------------------------

    /// Re-places keep-running-guarded domains whose home host is down:
    /// each is re-created from its cached XML on a surviving host chosen
    /// by the placement policy, and its guard is re-armed there.
    fn guard_failover_pass(&self) {
        for host in &self.hosts {
            if host.is_up() || !host.ever_seen.load(Ordering::Acquire) {
                continue;
            }
            let guarded: Vec<GuardedDomain> = host.guarded.lock().clone();
            for guest in guarded {
                if self.failed_over.lock().contains_key(&guest.name) {
                    continue;
                }
                // Already alive somewhere else (e.g. it was migrated off
                // before the crash) — nothing to re-place.
                if self.hosts.iter().any(|h| {
                    h.is_up()
                        && h.inventory
                            .lock()
                            .domains
                            .iter()
                            .any(|d| d.name == guest.name && d.state.is_active())
                }) {
                    continue;
                }
                match self.failover_domain(&guest) {
                    Ok(dest) => {
                        self.failed_over.lock().insert(
                            guest.name.clone(),
                            FailoverRecord {
                                from: host.name.clone(),
                                to: dest.clone(),
                            },
                        );
                        self.metrics.guard_failovers.inc();
                        self.logger.warning(
                            "fleet",
                            &format!(
                                "event=guard_failover domain={} from={} to={dest}",
                                guest.name, host.name
                            ),
                        );
                    }
                    Err(err) => {
                        self.metrics.guard_failover_failed.inc();
                        self.logger.warning(
                            "fleet",
                            &format!(
                                "event=guard_failover_failed domain={} from={} error=\"{err}\"",
                                guest.name, host.name
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Re-creates one guarded guest on a survivor: place (down hosts are
    /// never candidates), define from the cached XML, start, re-guard.
    fn failover_domain(&self, guest: &GuardedDomain) -> VirtResult<String> {
        let config = DomainConfig::from_xml_str(&guest.xml)?;
        let request = PlacementRequest::new(&guest.name, config.memory_mib, config.vcpus);
        let dest = self.place(&request)?;
        let host = self.host(&dest)?;
        let outcome = (|| -> VirtResult<()> {
            let conn = self.connection(host)?;
            let domain = conn.define_domain_xml(&guest.xml)?;
            domain.start()?;
            // Re-arm the guard at the new home so the guest stays
            // supervised; best effort — the revival itself already
            // succeeded.
            let _ = domain.guard_set(&guest.policy);
            Ok(())
        })();
        host.inventory.lock().dirty = true;
        match outcome {
            Ok(()) => Ok(dest),
            Err(err) => {
                host.reserved_mib
                    .fetch_sub(request.memory_mib, Ordering::AcqRel);
                host.publish_gauges();
                Err(err)
            }
        }
    }

    /// Single-residency reconciliation: once a failed-over domain's home
    /// host returns (typically reviving its own copy from the crash-safe
    /// store), the stale home copy is un-guarded, torn down and
    /// undefined — the failover copy keeps ownership.
    fn guard_reconcile_pass(&self) {
        let entries: Vec<(String, FailoverRecord)> = self
            .failed_over
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (domain, record) in entries {
            let Ok(home) = self.host(&record.from) else {
                continue;
            };
            if !home.is_up() {
                continue;
            }
            let removed = self.connection(home).and_then(|conn| {
                match conn.domain_lookup_by_name(&domain) {
                    Ok(stale) => {
                        // Drop the guard first or the home engine would
                        // fight the teardown by restarting the guest.
                        let _ = stale.guard_remove();
                        let _ = stale.destroy();
                        stale.undefine()
                    }
                    Err(err) if err.code() == ErrorCode::NoDomain => Ok(()),
                    Err(err) => Err(err),
                }
            });
            // An Err here means the host flapped again — retried on the
            // next refresh.
            if removed.is_ok() {
                home.inventory.lock().dirty = true;
                self.failed_over.lock().remove(&domain);
                self.metrics.guard_reconciled.inc();
                self.logger.info(
                    "fleet",
                    &format!(
                        "event=guard_reconciled domain={domain} home={} owner={}",
                        record.from, record.to
                    ),
                );
            }
        }
    }

    /// Failed-over guarded domains as `(domain, from, to)` rows.
    pub fn guard_failovers(&self) -> Vec<(String, String, String)> {
        self.failed_over
            .lock()
            .iter()
            .map(|(domain, r)| (domain.clone(), r.from.clone(), r.to.clone()))
            .collect()
    }

    // ---- evacuation -------------------------------------------------------

    /// Migrates every running domain off `source`, choosing destinations
    /// with the placement policy and fanning the migrations out with
    /// bounded parallelism.
    pub fn evacuate(
        &self,
        source: &str,
        options: &MigrationOptions,
    ) -> VirtResult<EvacuationReport> {
        let _span = span::enter(Stage::Api, 0);
        let src = self.host(source)?.clone();
        self.refresh_host(&src)?;
        let running: Vec<DomainSummary> = src
            .inventory
            .lock()
            .domains
            .iter()
            .filter(|d| d.state.is_active())
            .cloned()
            .collect();

        // Sequential placement (reservations serialize the capacity
        // math), then parallel migration.
        let mut plan: Vec<(String, String)> = Vec::new();
        let mut report = EvacuationReport::default();
        for guest in &running {
            let request = PlacementRequest::new(&guest.name, guest.memory_mib, guest.vcpus);
            let choice = {
                let candidates: Vec<HostCapacity> = self
                    .hosts
                    .iter()
                    .filter(|h| h.name != source && h.is_up())
                    .filter_map(|h| h.capacity())
                    .collect();
                let policy = self.policy.lock();
                choose(policy.as_ref(), &request, &candidates)
            };
            match choice {
                Some(dest) => {
                    let host = self.host(&dest)?;
                    host.reserved_mib
                        .fetch_add(guest.memory_mib, Ordering::AcqRel);
                    plan.push((guest.name.clone(), dest));
                }
                None => {
                    self.metrics.rejected.inc();
                    report
                        .failed
                        .push((guest.name.clone(), "no destination fits".to_string()));
                }
            }
        }

        let tasks: Vec<_> = plan
            .into_iter()
            .map(|(domain, dest)| {
                let options = *options;
                move || {
                    let result = self.migrate(source, &domain, &dest, &options);
                    (domain, dest, result)
                }
            })
            .collect();
        for (domain, dest, result) in run_bounded(FANOUT, tasks) {
            match result {
                Ok(_) => report.migrated.push((domain, dest)),
                Err(err) => report.failed.push((domain, err.to_string())),
            }
        }
        Ok(report)
    }
}
