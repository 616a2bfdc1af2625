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
//!   [`BackoffSchedule`](virt_rpc::retry::BackoffSchedule) shared with `virt-rpc` retries) so a crash
//!   storm re-arms spread out rather than as a thundering herd, and a
//!   restart budget after which the guard gives up;
//! - [`GuardPolicy::AutoResume`] — resume the domain when it is paused
//!   unexpectedly;
//! - [`GuardPolicy::GracefulStop`] — ask the guest to shut down, then
//!   destroy it if it has not stopped within a timeout budget.
//!
//! The engine is zero-cost when no policies are defined: event
//! observation is a single relaxed atomic load, and the worker thread is
//! only spawned when the first policy arrives. Every decision is made by
//! one pure machine (`guard/machine.rs`), which holds at most one pending action per
//! domain; the engine only feeds it — under one lock, passing the time
//! in — and runs what it returns with no lock held. Event callbacks never
//! act — lifecycle emits are synchronous, so acting inside the callback
//! would recurse into the driver — they only fill or empty the domain's
//! pending slot, and the worker thread runs each action as it comes due.
//! Arming acts at once, on the caller's thread. Actions go through a
//! [`Weak`] connection handle (no reference cycle with the driver), and
//! the worker exits when the connection dies.
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

mod machine;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use virt_metrics::span::{self, Stage};
use virt_metrics::Registry;
use virt_xml::{Document, Element};

use crate::driver::{DomainState, HypervisorConnection};
use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::event::DomainEvent;
use machine::{Action, Count, Machine};

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

virt_metrics::metric_set! {
    /// The engine's interventions, `guard.*`: detached until
    /// [`GuardEngine::publish_metrics`] swaps in the registry's handles.
    struct GuardMetrics {
        revived: Counter = "revived",
            "Keep-running restarts, by the worker or at arming (recovery included)";
        gave_up: Counter = "gave_up", "Guards that exhausted their restart budget";
        resumed: Counter = "resumed", "Paused guarded domains auto-resumed";
        stopped: Counter = "stopped",
            "Graceful-stop guards completed (shutdown or destroy escalation)";
        backoff_ms: Histogram = "backoff_ms", "Backoff delay applied before each guarded restart";
    }
}

/// How long the idle worker sleeps before it looks at the connection again.
const IDLE_WAIT: Duration = Duration::from_secs(1);

struct EngineInner {
    conn: Mutex<Option<Weak<dyn HypervisorConnection>>>,
    machine: Mutex<Machine>,
    /// Count of guarded domains; the zero-cost gate for [`GuardEngine::observe`].
    guarded: AtomicUsize,
    /// Wakes the worker when an input may have moved a deadline.
    cv: Condvar,
    worker: Mutex<Option<JoinHandle<()>>>,
    running: AtomicBool,
    metrics: RwLock<GuardMetrics>,
}

impl EngineInner {
    /// Feeds the machine one input under its lock, refreshes the
    /// observer's gate and wakes the worker.
    fn feed<T>(&self, input: impl FnOnce(&mut Machine) -> T) -> T {
        let mut machine = self.machine.lock();
        let out = input(&mut machine);
        self.guarded.store(machine.len(), Ordering::Relaxed);
        self.cv.notify_all();
        out
    }

    fn count(&self, count: Option<Count>) {
        let metrics = self.metrics.read();
        match count {
            Some(Count::Revived) => metrics.revived.inc(),
            Some(Count::Resumed) => metrics.resumed.inc(),
            Some(Count::Stopped) => metrics.stopped.inc(),
            Some(Count::GaveUp) => metrics.gave_up.inc(),
            Some(Count::Backoff(delay)) => metrics.backoff_ms.record(delay),
            None => {}
        }
    }

    /// Runs `action` on `domain` and feeds its outcome back, decided at
    /// `now`; `true` when the machine counts it a revival. No engine lock
    /// is held across the driver call: lifecycle emits run the observer
    /// synchronously on this thread.
    fn act(
        &self,
        conn: &dyn HypervisorConnection,
        domain: &str,
        action: Action,
        now: Instant,
    ) -> bool {
        let _work = span::stage(Stage::DriverWork);
        let result = match action {
            Action::Start => conn.start_domain(domain),
            Action::Resume => conn.resume_domain(domain),
            Action::Shutdown => conn.shutdown_domain(domain),
            Action::Destroy => conn.destroy_domain(domain),
        };
        let after = match &result {
            Ok(record) => Some(record.state),
            Err(_) => conn.lookup_domain_by_name(domain).ok().map(|r| r.state),
        };
        let count =
            self.feed(|machine| machine.outcome(domain, action, result.is_ok(), after, now));
        self.count(count);
        count == Some(Count::Revived)
    }
}

/// The always-running per-domain availability supervisor.
///
/// Cheap to clone; all clones share one guard table and worker thread.
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

impl GuardEngine {
    /// Creates an idle engine: no policies, no worker thread.
    pub fn new() -> GuardEngine {
        GuardEngine {
            inner: Arc::new(EngineInner {
                conn: Mutex::new(None),
                machine: Mutex::new(Machine::default()),
                guarded: AtomicUsize::new(0),
                cv: Condvar::new(),
                worker: Mutex::new(None),
                running: AtomicBool::new(false),
                metrics: RwLock::new(GuardMetrics::new()),
            }),
        }
    }

    /// Attaches the connection the engine acts through. Held weakly so
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

    /// Installs (or replaces) `domain`'s policy, given the state the
    /// domain is in, and runs on this thread what arming decides — the
    /// restart, resume or shutdown of `Machine::arm`. `true` when that
    /// revived the domain.
    pub(crate) fn arm(&self, domain: &str, policy: GuardPolicy, observed: DomainState) -> bool {
        self.ensure_worker();
        let now = Instant::now();
        let (action, count) = self
            .inner
            .feed(|machine| machine.arm(domain, policy, observed, now));
        self.inner.count(count);
        let conn = self.inner.conn.lock().as_ref().and_then(Weak::upgrade);
        match (action, conn) {
            (Some(action), Some(conn)) => self.inner.act(&*conn, domain, action, now),
            _ => false,
        }
    }

    /// Removes `domain`'s policy and its pending action; `true` when one
    /// was present.
    pub(crate) fn clear(&self, domain: &str) -> bool {
        self.inner.feed(|machine| machine.clear(domain))
    }

    /// Point-in-time status of one guard.
    pub fn status(&self, domain: &str) -> Option<GuardStatus> {
        self.read(|machine, now| machine.status(domain, now))
    }

    /// Status of every guard, sorted by domain name.
    pub fn statuses(&self) -> Vec<GuardStatus> {
        self.read(|machine, now| machine.statuses(now))
    }

    fn read<T>(&self, view: impl FnOnce(&Machine, Instant) -> T) -> T {
        let now = Instant::now();
        view(&self.inner.machine.lock(), now)
    }

    /// The lifecycle-event observer. Registered filtered to lifecycle
    /// events; MUST stay non-reentrant — emits are synchronous, so this
    /// only feeds the machine, which never acts on an event.
    pub fn observe(&self, event: &DomainEvent) {
        if self.inner.guarded.load(Ordering::Relaxed) == 0 {
            return;
        }
        let now = Instant::now();
        let count = self
            .inner
            .feed(|machine| machine.event(&event.domain, event.kind, now));
        self.inner.count(count);
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
    /// arming restarts it.
    pub fn stop(&self) {
        self.inner.running.store(false, Ordering::Release);
        {
            let _machine = self.inner.machine.lock();
            self.inner.cv.notify_all();
        }
        let handle = self.inner.worker.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// Takes each pending action from the machine as it comes due and runs it.
fn worker_loop(inner: &EngineInner) {
    loop {
        let (domain, action, now) = {
            let mut machine = inner.machine.lock();
            loop {
                if !inner.running.load(Ordering::Acquire) {
                    return;
                }
                // Exit with the driver: an attached connection that has
                // been dropped leaves nothing to supervise.
                if inner
                    .conn
                    .lock()
                    .as_ref()
                    .is_some_and(|weak| weak.strong_count() == 0)
                {
                    return;
                }
                let now = Instant::now();
                match machine.due(now) {
                    Ok((domain, action)) => break (domain, action, now),
                    Err(next) => {
                        let wait = next.map_or(IDLE_WAIT, |due| {
                            due.saturating_duration_since(now).min(IDLE_WAIT)
                        });
                        inner.cv.wait_for(&mut machine, wait);
                    }
                }
            }
        };
        let weak = inner.conn.lock().clone();
        match weak.map(|weak| weak.upgrade()) {
            // Not attached yet; the action was taken, drop it.
            None => {}
            Some(Some(conn)) => {
                inner.act(&*conn, &domain, action, now);
            }
            // The driver is gone; nothing left to supervise.
            Some(None) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DomainEventKind;
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

        // Arming spawns the worker and opens the gate; an event then
        // reaches the machine, and clearing closes the gate again.
        engine.arm(
            "web",
            GuardPolicy::KeepRunning { max_restarts: 2 },
            DomainState::Running,
        );
        assert!(
            engine.inner.worker.lock().is_some(),
            "arming spawns the worker"
        );
        assert_eq!(engine.guarded_count(), 1);
        engine.observe(&event("web", DomainEventKind::Crashed));
        assert_eq!(engine.status("web").unwrap().restarts, 1);
        assert!(engine.clear("web"));
        assert_eq!(engine.guarded_count(), 0);
        engine.stop();
        assert!(
            engine.inner.worker.lock().is_none(),
            "stop joins the worker"
        );
    }
}
