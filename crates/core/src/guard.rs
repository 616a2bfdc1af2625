//! The guard subsystem: per-domain availability policies.
//!
//! The paper's pitch is *non-intrusive management*: guests stay available
//! while management logic watches from the side. The [`GuardEngine`] is
//! that watcher — an always-running supervisor evaluated inside the
//! daemon off the lifecycle [`EventBus`](crate::event::EventBus), with
//! three policies:
//!
//! - [`GuardPolicy::KeepRunning`] — restart the domain whenever it
//!   crashes or stops outside the guard's control, with capped
//!   exponential backoff and per-domain deterministic jitter (the
//!   [`BackoffSchedule`] shared with `virt-rpc` retries) so a crash
//!   storm re-arms spread out rather than as a thundering herd, and a
//!   restart budget after which the guard gives up;
//! - [`GuardPolicy::AutoResume`] — resume the domain when it is paused
//!   unexpectedly;
//! - [`GuardPolicy::GracefulStop`] — ask the guest to shut down, then
//!   destroy it if it has not stopped within a timeout budget.
//!
//! The engine is zero-cost when no policies are defined: event
//! observation is a single relaxed atomic load, and the timer worker
//! thread is only spawned when the first policy arrives. Event callbacks
//! never act inline — lifecycle emits are synchronous, so acting inside
//! the callback would recurse into the driver. Instead the callback only
//! *schedules* work on a monotonic timer queue; a dedicated worker
//! thread executes actions through a [`Weak`] connection handle (no
//! reference cycle with the driver) and exits when the connection dies.
//!
//! Policies persist in the [`StateStore`](crate::statestore::StateStore)
//! as [`GuardRecord`] documents so guards survive daemon restarts;
//! recovery re-arms them and immediately revives recorded-crashed
//! guarded domains. Guard persistence rides the store's group-commit
//! pipeline: arming or clearing a policy blocks on the durable barrier
//! (the record shares a flush cycle with whatever else is in the
//! batch), while the status churn a revival storm generates goes down
//! the write-behind path, where per-object coalescing absorbs it
//! instead of paying an fsync per flip.

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use virt_metrics::span::{self, Stage};
use virt_metrics::Registry;
use virt_rpc::retry::BackoffSchedule;
use virt_xml::{Document, Element};

use crate::driver::{DomainState, HypervisorConnection};
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::event::{DomainEvent, DomainEventKind};

/// Default restart budget for `keep-running` guards.
pub const DEFAULT_MAX_RESTARTS: u32 = 5;

/// Default timeout budget for `graceful-stop` guards, in milliseconds.
pub const DEFAULT_STOP_TIMEOUT_MS: u64 = 5_000;

/// An availability policy attached to one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardPolicy {
    /// Restart on crash or unwanted shutdown, giving up after
    /// `max_restarts` consecutive failed revivals.
    KeepRunning {
        /// Consecutive restarts before the guard gives up. The counter
        /// resets whenever the domain reaches running again.
        max_restarts: u32,
    },
    /// Resume the domain when it is paused unexpectedly.
    AutoResume,
    /// Graceful shutdown with a destroy escalation after `timeout_ms`.
    GracefulStop {
        /// Budget between the shutdown request and the forced destroy.
        timeout_ms: u64,
    },
}

impl GuardPolicy {
    /// Wire discriminant (`0` is reserved as "no policy").
    pub fn kind(&self) -> u32 {
        match self {
            GuardPolicy::KeepRunning { .. } => 1,
            GuardPolicy::AutoResume => 2,
            GuardPolicy::GracefulStop { .. } => 3,
        }
    }

    /// The policy's numeric parameter (restart budget or timeout).
    pub fn param(&self) -> u64 {
        match self {
            GuardPolicy::KeepRunning { max_restarts } => u64::from(*max_restarts),
            GuardPolicy::AutoResume => 0,
            GuardPolicy::GracefulStop { timeout_ms } => *timeout_ms,
        }
    }

    /// Decodes the wire pair; `None` for unknown kinds.
    pub(crate) fn from_wire(kind: u32, param: u64) -> Option<GuardPolicy> {
        Some(match kind {
            1 => GuardPolicy::KeepRunning {
                max_restarts: param.min(u64::from(u32::MAX)) as u32,
            },
            2 => GuardPolicy::AutoResume,
            3 => GuardPolicy::GracefulStop { timeout_ms: param },
            _ => return None,
        })
    }

    /// The policy's stable name, used in XML records and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            GuardPolicy::KeepRunning { .. } => "keep-running",
            GuardPolicy::AutoResume => "auto-resume",
            GuardPolicy::GracefulStop { .. } => "graceful-stop",
        }
    }

    fn from_label(label: &str, param: u64) -> Option<GuardPolicy> {
        match label {
            "keep-running" => Some(GuardPolicy::KeepRunning {
                max_restarts: param.min(u64::from(u32::MAX)) as u32,
            }),
            "auto-resume" => Some(GuardPolicy::AutoResume),
            "graceful-stop" => Some(GuardPolicy::GracefulStop { timeout_ms: param }),
            _ => None,
        }
    }
}

impl std::fmt::Display for GuardPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The persisted form of one guard policy — what `etc/guards` remembers
/// between daemon lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardRecord {
    /// The guarded domain's name.
    pub domain: String,
    /// The policy to re-arm at recovery.
    pub policy: GuardPolicy,
}

impl GuardRecord {
    /// Serializes to the guard-record XML document.
    pub fn to_xml_string(&self) -> String {
        let mut el = Element::new("guard");
        el.set_attr("policy", self.policy.label());
        el.set_attr("param", self.policy.param().to_string());
        el.push_child(Element::with_text("domain", self.domain.clone()));
        el.to_pretty_string()
    }

    /// Parses a guard-record document (schema validation: unknown or
    /// missing fields are errors, so a corrupt-but-checksummed file
    /// still cannot smuggle garbage into recovery).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`] on any malformed document.
    pub fn from_xml_str(xml: &str) -> VirtResult<GuardRecord> {
        let bad =
            |what: &str| VirtError::new(ErrorCode::XmlError, format!("guard: invalid {what}"));
        let doc = Document::parse(xml)
            .map_err(|e| VirtError::new(ErrorCode::XmlError, format!("guard: {e}")))?;
        let el = doc.root();
        if el.name() != "guard" {
            return Err(bad("root element"));
        }
        let domain = el
            .child_text("domain")
            .ok_or_else(|| bad("domain"))?
            .to_string();
        if domain.is_empty() {
            return Err(bad("domain"));
        }
        let param: u64 = el
            .attr("param")
            .ok_or_else(|| bad("param"))?
            .parse()
            .map_err(|_| bad("param"))?;
        let policy = el
            .attr("policy")
            .and_then(|label| GuardPolicy::from_label(label, param))
            .ok_or_else(|| bad("policy"))?;
        Ok(GuardRecord { domain, policy })
    }
}

/// A point-in-time view of one guard, as reported by `vsh guard status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardStatus {
    /// The guarded domain.
    pub domain: String,
    /// The active policy.
    pub policy: GuardPolicy,
    /// Consecutive restarts since the domain last reached running.
    pub restarts: u32,
    /// Whether the restart budget is exhausted.
    pub gave_up: bool,
    /// Time until the next scheduled action, when one is pending.
    pub next_retry: Option<Duration>,
    /// The last lifecycle observation that drove the guard.
    pub last_event: String,
}

/// What the worker does when a scheduled entry comes due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Start a crashed/stopped `keep-running` domain.
    Start,
    /// Resume a paused `auto-resume` domain.
    Resume,
    /// Ask a `graceful-stop` domain to shut down.
    Shutdown,
    /// Destroy a `graceful-stop` domain that outlived its budget.
    DestroyCheck,
}

/// One timer-queue entry. Ordered so the [`BinaryHeap`] pops the
/// earliest deadline first (sequence number breaks ties FIFO).
#[derive(Debug)]
struct Scheduled {
    due: Instant,
    seq: u64,
    epoch: u64,
    domain: String,
    action: Action,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-domain supervisor state.
#[derive(Debug)]
struct GuardState {
    policy: GuardPolicy,
    restarts: u32,
    gave_up: bool,
    next_due: Option<Instant>,
    last_event: &'static str,
    /// Bumped on re-arm so stale queue entries are discarded.
    epoch: u64,
}

virt_metrics::metric_set! {
    /// The engine's interventions, `guard.*`: detached until
    /// [`GuardEngine::publish_metrics`] swaps in the registry's handles.
    struct GuardMetrics {
        revived: Counter = "revived",
            "Guarded domains restarted or resumed back to running by the guard engine";
        gave_up: Counter = "gave_up", "Guards that exhausted their restart budget";
        resumed: Counter = "resumed", "Paused guarded domains auto-resumed";
        stopped: Counter = "stopped",
            "Graceful-stop guards completed (shutdown or destroy escalation)";
        backoff_ms: Histogram = "backoff_ms", "Backoff delay applied before each guarded restart";
    }
}

struct EngineInner {
    conn: Mutex<Option<Weak<dyn HypervisorConnection>>>,
    states: Mutex<HashMap<String, GuardState>>,
    /// Count of defined policies; the zero-cost gate for [`GuardEngine::observe`].
    guarded: AtomicUsize,
    queue: Mutex<BinaryHeap<Scheduled>>,
    cv: Condvar,
    worker: Mutex<Option<JoinHandle<()>>>,
    running: AtomicBool,
    seq: AtomicU64,
    epoch: AtomicU64,
    metrics: RwLock<GuardMetrics>,
}

/// The always-running per-domain availability supervisor.
///
/// Cheap to clone; all clones share one state table, timer queue, and
/// worker thread.
#[derive(Clone)]
pub struct GuardEngine {
    inner: Arc<EngineInner>,
}

impl std::fmt::Debug for GuardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardEngine")
            .field("guarded", &self.inner.guarded.load(Ordering::Relaxed))
            .field("running", &self.inner.running.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for GuardEngine {
    fn default() -> Self {
        GuardEngine::new()
    }
}

/// The backoff ladder for guarded restarts: 50 ms doubling to a 2 s cap —
/// fast enough that a storm converges quickly, slow enough that a crash
/// loop backs off visibly.
const RESTART_BACKOFF: BackoffSchedule = BackoffSchedule {
    initial: Duration::from_millis(50),
    max: Duration::from_secs(2),
    multiplier: 2,
};

impl GuardEngine {
    /// Creates an idle engine: no policies, no worker thread.
    pub fn new() -> GuardEngine {
        GuardEngine {
            inner: Arc::new(EngineInner {
                conn: Mutex::new(None),
                states: Mutex::new(HashMap::new()),
                guarded: AtomicUsize::new(0),
                queue: Mutex::new(BinaryHeap::new()),
                cv: Condvar::new(),
                worker: Mutex::new(None),
                running: AtomicBool::new(false),
                seq: AtomicU64::new(0),
                epoch: AtomicU64::new(0),
                metrics: RwLock::new(GuardMetrics::new()),
            }),
        }
    }

    /// Attaches the connection the worker acts through. Held weakly so
    /// the engine never keeps the driver alive; the worker exits when
    /// the connection is dropped.
    pub fn attach(&self, conn: Weak<dyn HypervisorConnection>) {
        *self.inner.conn.lock() = Some(conn);
    }

    /// Publishes the engine's metrics into `registry` as `guard.*` and
    /// records through the registry's handles from then on, so several
    /// engines in one daemon aggregate into one set.
    pub fn publish_metrics(&self, registry: &Registry) {
        let attached = self.inner.metrics.read().attach(registry, "guard.");
        *self.inner.metrics.write() = attached;
    }

    /// Number of domains currently guarded.
    #[cfg(test)]
    pub(crate) fn guarded_count(&self) -> usize {
        self.inner.guarded.load(Ordering::Relaxed)
    }

    /// Installs (or replaces) `domain`'s policy and arms the worker.
    /// A `graceful-stop` policy acts immediately: the shutdown request
    /// is scheduled now and the destroy escalation at `now + timeout`.
    pub fn set_policy(&self, domain: &str, policy: GuardPolicy) {
        self.ensure_worker();
        let epoch = self.inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let now = Instant::now();
        let mut pending = Vec::new();
        {
            let mut states = self.inner.states.lock();
            let next_due = match policy {
                GuardPolicy::GracefulStop { timeout_ms } => {
                    pending.push((now, Action::Shutdown));
                    pending.push((
                        now + Duration::from_millis(timeout_ms),
                        Action::DestroyCheck,
                    ));
                    Some(now + Duration::from_millis(timeout_ms))
                }
                _ => None,
            };
            let fresh = states
                .insert(
                    domain.to_string(),
                    GuardState {
                        policy,
                        restarts: 0,
                        gave_up: false,
                        next_due,
                        last_event: "armed",
                        epoch,
                    },
                )
                .is_none();
            if fresh {
                self.inner.guarded.fetch_add(1, Ordering::Relaxed);
            }
        }
        for (due, action) in pending {
            self.push(due, epoch, domain, action);
        }
    }

    /// Removes `domain`'s policy; `true` when one was present. Queued
    /// actions for the removed guard are discarded when they come due.
    pub(crate) fn remove_policy(&self, domain: &str) -> bool {
        let removed = self.inner.states.lock().remove(domain).is_some();
        if removed {
            self.inner.guarded.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// The policy guarding `domain`, when one is defined.
    pub fn policy(&self, domain: &str) -> Option<GuardPolicy> {
        self.inner.states.lock().get(domain).map(|s| s.policy)
    }

    /// Point-in-time status of one guard.
    pub fn status(&self, domain: &str) -> Option<GuardStatus> {
        let now = Instant::now();
        self.inner
            .states
            .lock()
            .get(domain)
            .map(|s| Self::snapshot(domain, s, now))
    }

    /// Status of every guard, sorted by domain name.
    pub fn statuses(&self) -> Vec<GuardStatus> {
        let now = Instant::now();
        let mut all: Vec<GuardStatus> = self
            .inner
            .states
            .lock()
            .iter()
            .map(|(name, s)| Self::snapshot(name, s, now))
            .collect();
        all.sort_by(|a, b| a.domain.cmp(&b.domain));
        all
    }

    /// The persisted form of every guard, for statestore writes.
    pub fn records(&self) -> Vec<GuardRecord> {
        self.inner
            .states
            .lock()
            .iter()
            .map(|(name, s)| GuardRecord {
                domain: name.clone(),
                policy: s.policy,
            })
            .collect()
    }

    fn snapshot(domain: &str, s: &GuardState, now: Instant) -> GuardStatus {
        GuardStatus {
            domain: domain.to_string(),
            policy: s.policy,
            restarts: s.restarts,
            gave_up: s.gave_up,
            next_retry: if s.gave_up {
                None
            } else {
                s.next_due.map(|due| due.saturating_duration_since(now))
            },
            last_event: s.last_event.to_string(),
        }
    }

    /// Counts one revival performed outside the worker (the recovery
    /// pass starts recorded-crashed domains synchronously).
    pub(crate) fn note_revived(&self) {
        self.inner.metrics.read().revived.inc();
    }

    /// Schedules an immediate revival of a recorded-crashed guarded
    /// domain (the recovery path: no backoff, the crash predates this
    /// daemon life).
    pub(crate) fn revive_now(&self, domain: &str) {
        self.act_now(domain, "recovered-crashed", Action::Start);
    }

    /// Schedules an immediate restart of an already-crashed
    /// `keep-running` domain (the arm-time reconcile path: the crash
    /// predates the guard, so waiting for the next Crashed event would
    /// wait forever).
    pub(crate) fn restart_now(&self, domain: &str) {
        self.act_now(domain, "armed-crashed", Action::Start);
    }

    /// Schedules an immediate resume of an already-paused `auto-resume`
    /// domain (the arm-time reconcile counterpart of [`restart_now`]).
    ///
    /// [`restart_now`]: GuardEngine::restart_now
    pub(crate) fn resume_now(&self, domain: &str) {
        self.act_now(domain, "armed-paused", Action::Resume);
    }

    fn act_now(&self, domain: &str, label: &'static str, action: Action) {
        let epoch = {
            let mut states = self.inner.states.lock();
            let Some(st) = states.get_mut(domain) else {
                return;
            };
            st.last_event = label;
            st.next_due = Some(Instant::now());
            st.epoch
        };
        self.push(Instant::now(), epoch, domain, action);
    }

    /// The lifecycle-event observer. Registered filtered to lifecycle
    /// events; MUST stay non-reentrant — emits are synchronous, so this
    /// only updates state and schedules, never calls back into the
    /// driver.
    pub fn observe(&self, event: &DomainEvent) {
        if self.inner.guarded.load(Ordering::Relaxed) == 0 {
            return;
        }
        match event.kind {
            DomainEventKind::Crashed => self.on_down(&event.domain, "crashed"),
            DomainEventKind::Stopped => self.on_down(&event.domain, "stopped"),
            DomainEventKind::Suspended => self.on_suspended(&event.domain),
            DomainEventKind::Started | DomainEventKind::Restored | DomainEventKind::MigratedIn => {
                self.on_up(&event.domain, "started")
            }
            DomainEventKind::Resumed => self.on_up(&event.domain, "resumed"),
            DomainEventKind::Undefined | DomainEventKind::MigratedOut => {
                // The domain left this host on purpose; the guard goes
                // with it (fleet-level HA re-places it elsewhere).
                self.remove_policy(&event.domain);
            }
            _ => {}
        }
    }

    /// A crash or stop: escalate per policy.
    fn on_down(&self, domain: &str, label: &'static str) {
        let mut scheduled = None;
        let mut completed_stop = false;
        {
            let mut states = self.inner.states.lock();
            let Some(st) = states.get_mut(domain) else {
                return;
            };
            st.last_event = label;
            match st.policy {
                GuardPolicy::KeepRunning { max_restarts } => {
                    if st.gave_up {
                        return;
                    }
                    st.restarts += 1;
                    if st.restarts > max_restarts {
                        st.gave_up = true;
                        st.next_due = None;
                        self.inner.metrics.read().gave_up.inc();
                    } else {
                        let delay =
                            RESTART_BACKOFF.delay(st.restarts, BackoffSchedule::seed_for(domain));
                        self.inner.metrics.read().backoff_ms.record(delay);
                        let due = Instant::now() + delay;
                        st.next_due = Some(due);
                        scheduled = Some((due, st.epoch));
                    }
                }
                GuardPolicy::GracefulStop { .. } => {
                    // Target state reached; the guard retires.
                    states.remove(domain);
                    self.inner.guarded.fetch_sub(1, Ordering::Relaxed);
                    completed_stop = true;
                }
                GuardPolicy::AutoResume => {
                    st.next_due = None;
                }
            }
        }
        if completed_stop {
            self.inner.metrics.read().stopped.inc();
        }
        if let Some((due, epoch)) = scheduled {
            self.push(due, epoch, domain, Action::Start);
        }
    }

    fn on_suspended(&self, domain: &str) {
        let mut scheduled = None;
        {
            let mut states = self.inner.states.lock();
            let Some(st) = states.get_mut(domain) else {
                return;
            };
            st.last_event = "suspended";
            if let GuardPolicy::AutoResume = st.policy {
                let due = Instant::now();
                st.next_due = Some(due);
                scheduled = Some((due, st.epoch));
            }
        }
        if let Some((due, epoch)) = scheduled {
            self.push(due, epoch, domain, Action::Resume);
        }
    }

    /// The domain reached running: reset the restart ladder. A manual
    /// start also re-arms a given-up guard — operator intervention is
    /// the documented way to clear `gave_up`.
    fn on_up(&self, domain: &str, label: &'static str) {
        let mut states = self.inner.states.lock();
        let Some(st) = states.get_mut(domain) else {
            return;
        };
        if matches!(st.policy, GuardPolicy::GracefulStop { .. }) {
            return;
        }
        st.last_event = label;
        st.restarts = 0;
        st.gave_up = false;
        st.next_due = None;
        st.epoch = self.inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
    }

    fn push(&self, due: Instant, epoch: u64, domain: &str, action: Action) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let mut queue = self.inner.queue.lock();
        queue.push(Scheduled {
            due,
            seq,
            epoch,
            domain: domain.to_string(),
            action,
        });
        self.inner.cv.notify_all();
    }

    fn ensure_worker(&self) {
        let mut worker = self.inner.worker.lock();
        if worker.is_some() {
            return;
        }
        self.inner.running.store(true, Ordering::Release);
        let inner = Arc::clone(&self.inner);
        *worker = Some(
            std::thread::Builder::new()
                .name("guard-engine".into())
                .spawn(move || worker_loop(&inner))
                .expect("guard worker thread spawns"),
        );
    }

    /// Stops and joins the worker thread. Idempotent; a later
    /// [`GuardEngine::set_policy`] restarts it.
    pub fn stop(&self) {
        self.inner.running.store(false, Ordering::Release);
        {
            let _queue = self.inner.queue.lock();
            self.inner.cv.notify_all();
        }
        let handle = self.inner.worker.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Arc<EngineInner>) {
    loop {
        let task = {
            let mut queue = inner.queue.lock();
            loop {
                if !inner.running.load(Ordering::Acquire) {
                    return;
                }
                // Exit with the driver: an attached connection that has
                // been dropped leaves nothing to supervise.
                if let Some(weak) = inner.conn.lock().as_ref() {
                    if weak.strong_count() == 0 {
                        return;
                    }
                }
                let now = Instant::now();
                let wait = match queue.peek() {
                    Some(s) if s.due <= now => break queue.pop(),
                    Some(s) => (s.due - now).min(Duration::from_secs(1)),
                    None => Duration::from_secs(1),
                };
                inner.cv.wait_for(&mut queue, wait);
            }
        };
        let Some(task) = task else { continue };
        if !inner.running.load(Ordering::Acquire) {
            return;
        }
        // Discard stale entries: the guard was removed or re-armed
        // (epoch bumped) after this entry was queued.
        let valid = {
            let states = inner.states.lock();
            states
                .get(&task.domain)
                .is_some_and(|st| st.epoch == task.epoch && !st.gave_up)
        };
        if !valid {
            continue;
        }
        let weak = inner.conn.lock().clone();
        let conn = match weak {
            // Not attached yet; the entry was consumed, drop it.
            None => continue,
            Some(weak) => match weak.upgrade() {
                Some(conn) => conn,
                // The driver is gone; nothing left to supervise.
                None => return,
            },
        };
        // No engine locks may be held across driver calls: lifecycle
        // emits run the observer synchronously on this thread.
        execute(inner, &conn, &task);
    }
}

fn execute(inner: &Arc<EngineInner>, conn: &Arc<dyn HypervisorConnection>, task: &Scheduled) {
    let _work = span::stage(Stage::DriverWork);
    match task.action {
        Action::Start => match conn.start_domain(&task.domain) {
            Ok(record) if record.state != DomainState::Crashed => {
                inner.metrics.read().revived.inc();
            }
            Ok(_) => {
                // Crashed again during start; the Crashed event this
                // emitted has already scheduled the next rung.
            }
            Err(_) => {
                let running = conn
                    .lookup_domain_by_name(&task.domain)
                    .map(|r| r.state == DomainState::Running)
                    .unwrap_or(false);
                if !running {
                    // Start failed (capacity, races): climb the ladder
                    // as if the domain had crashed again.
                    escalate_failed_start(inner, &task.domain);
                }
            }
        },
        Action::Resume => {
            if conn.resume_domain(&task.domain).is_ok() {
                inner.metrics.read().resumed.inc();
            }
        }
        Action::Shutdown => {
            let active = conn
                .lookup_domain_by_name(&task.domain)
                .map(|r| matches!(r.state, DomainState::Running | DomainState::Paused))
                .unwrap_or(false);
            if active {
                let _ = conn.shutdown_domain(&task.domain);
            } else {
                complete_graceful(inner, &task.domain);
            }
        }
        Action::DestroyCheck => {
            if conn.destroy_domain(&task.domain).is_err() {
                // Already gone (or was never active); retire directly.
                complete_graceful(inner, &task.domain);
            }
        }
    }
}

/// Re-runs the keep-running escalation after a failed start attempt.
fn escalate_failed_start(inner: &Arc<EngineInner>, domain: &str) {
    let mut scheduled = None;
    {
        let mut states = inner.states.lock();
        let Some(st) = states.get_mut(domain) else {
            return;
        };
        let GuardPolicy::KeepRunning { max_restarts } = st.policy else {
            return;
        };
        if st.gave_up {
            return;
        }
        st.last_event = "start-failed";
        st.restarts += 1;
        if st.restarts > max_restarts {
            st.gave_up = true;
            st.next_due = None;
            inner.metrics.read().gave_up.inc();
        } else {
            let delay = RESTART_BACKOFF.delay(st.restarts, BackoffSchedule::seed_for(domain));
            inner.metrics.read().backoff_ms.record(delay);
            let due = Instant::now() + delay;
            st.next_due = Some(due);
            scheduled = Some((due, st.epoch));
        }
    }
    if let Some((due, epoch)) = scheduled {
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let mut queue = inner.queue.lock();
        queue.push(Scheduled {
            due,
            seq,
            epoch,
            domain: domain.to_string(),
            action: Action::Start,
        });
        inner.cv.notify_all();
    }
}

/// Retires a graceful-stop guard whose domain is already down.
fn complete_graceful(inner: &Arc<EngineInner>, domain: &str) {
    let removed = {
        let mut states = inner.states.lock();
        match states.get(domain) {
            Some(st) if matches!(st.policy, GuardPolicy::GracefulStop { .. }) => {
                states.remove(domain);
                true
            }
            _ => false,
        }
    };
    if removed {
        inner.guarded.fetch_sub(1, Ordering::Relaxed);
        inner.metrics.read().stopped.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uuid::Uuid;

    fn event(domain: &str, kind: DomainEventKind) -> DomainEvent {
        DomainEvent {
            domain: domain.to_string(),
            uuid: Uuid::generate(),
            kind,
            trace_id: 0,
        }
    }

    #[test]
    fn policy_wire_round_trip() {
        for policy in [
            GuardPolicy::KeepRunning { max_restarts: 7 },
            GuardPolicy::AutoResume,
            GuardPolicy::GracefulStop { timeout_ms: 1234 },
        ] {
            let back = GuardPolicy::from_wire(policy.kind(), policy.param()).unwrap();
            assert_eq!(back, policy);
        }
        assert_eq!(GuardPolicy::from_wire(0, 0), None);
        assert_eq!(GuardPolicy::from_wire(99, 0), None);
    }

    #[test]
    fn record_xml_round_trip_and_rejection() {
        let record = GuardRecord {
            domain: "web".to_string(),
            policy: GuardPolicy::KeepRunning { max_restarts: 8 },
        };
        let xml = record.to_xml_string();
        assert_eq!(GuardRecord::from_xml_str(&xml).unwrap(), record);

        let stop = GuardRecord {
            domain: "db".to_string(),
            policy: GuardPolicy::GracefulStop { timeout_ms: 250 },
        };
        assert_eq!(
            GuardRecord::from_xml_str(&stop.to_xml_string()).unwrap(),
            stop
        );

        for bad in [
            "<guard policy=\"keep-running\"><domain>x</domain></guard>", // no param
            "<guard policy=\"bogus\" param=\"1\"><domain>x</domain></guard>", // unknown policy
            "<guard policy=\"keep-running\" param=\"1\"/>",              // no domain
            "<wrong policy=\"keep-running\" param=\"1\"><domain>x</domain></wrong>",
            "not xml at all",
        ] {
            assert!(
                GuardRecord::from_xml_str(bad).is_err(),
                "must reject: {bad}"
            );
        }
    }

    #[test]
    fn engine_is_idle_until_first_policy() {
        let engine = GuardEngine::new();
        assert_eq!(engine.guarded_count(), 0);
        assert!(engine.inner.worker.lock().is_none(), "no worker yet");
        // Events against an empty engine are a single atomic load.
        engine.observe(&event("ghost", DomainEventKind::Crashed));
        assert!(engine.inner.worker.lock().is_none());
        assert!(engine.statuses().is_empty());
    }

    #[test]
    fn keep_running_escalates_and_gives_up() {
        let engine = GuardEngine::new();
        engine.set_policy("web", GuardPolicy::KeepRunning { max_restarts: 2 });
        assert_eq!(engine.guarded_count(), 1);

        engine.observe(&event("web", DomainEventKind::Crashed));
        let st = engine.status("web").unwrap();
        assert_eq!(st.restarts, 1);
        assert!(!st.gave_up);
        assert!(st.next_retry.is_some(), "a retry must be pending");

        // Reaching running resets the ladder.
        engine.observe(&event("web", DomainEventKind::Started));
        assert_eq!(engine.status("web").unwrap().restarts, 0);

        // Three consecutive crashes with no successful start exhaust
        // max_restarts = 2.
        engine.observe(&event("web", DomainEventKind::Crashed));
        engine.observe(&event("web", DomainEventKind::Crashed));
        engine.observe(&event("web", DomainEventKind::Crashed));
        let st = engine.status("web").unwrap();
        assert!(st.gave_up, "restart budget must exhaust: {st:?}");
        assert_eq!(engine.inner.metrics.read().gave_up.get(), 1);

        // Manual start re-arms.
        engine.observe(&event("web", DomainEventKind::Started));
        assert!(!engine.status("web").unwrap().gave_up);
        engine.stop();
    }

    #[test]
    fn undefine_drops_the_guard() {
        let engine = GuardEngine::new();
        engine.set_policy("gone", GuardPolicy::KeepRunning { max_restarts: 3 });
        engine.observe(&event("gone", DomainEventKind::Undefined));
        assert_eq!(engine.guarded_count(), 0);
        assert!(engine.status("gone").is_none());
        engine.stop();
    }

    #[test]
    fn statuses_sorted_and_records_round_trip() {
        let engine = GuardEngine::new();
        engine.set_policy("zeta", GuardPolicy::AutoResume);
        engine.set_policy("alpha", GuardPolicy::KeepRunning { max_restarts: 1 });
        let all = engine.statuses();
        assert_eq!(
            all.iter().map(|s| s.domain.as_str()).collect::<Vec<_>>(),
            ["alpha", "zeta"]
        );
        let mut records = engine.records();
        records.sort_by(|a, b| a.domain.cmp(&b.domain));
        assert_eq!(records.len(), 2);
        for r in &records {
            let xml = r.to_xml_string();
            assert_eq!(&GuardRecord::from_xml_str(&xml).unwrap(), r);
        }
        engine.stop();
    }
}
