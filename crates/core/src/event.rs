//! Domain lifecycle events.
//!
//! Management applications register callbacks to be notified when domains
//! change state — locally from embedded drivers, remotely via event
//! messages pushed by the daemon. The [`EventBus`] is the shared
//! dispatcher both paths feed.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use virt_metrics::wire_enum;

use crate::uuid::Uuid;

wire_enum! {
    /// What happened to a domain.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    #[non_exhaustive]
    pub enum DomainEventKind {
        /// Configuration persisted.
        Defined = 0 => "defined",
        /// Configuration removed.
        Undefined = 1 => "undefined",
        /// Execution started.
        Started = 2 => "started",
        /// vCPUs paused.
        Suspended = 3 => "suspended",
        /// vCPUs resumed.
        Resumed = 4 => "resumed",
        /// Execution stopped (shutdown or destroy).
        Stopped = 5 => "stopped",
        /// Memory saved to storage.
        Saved = 6 => "saved",
        /// Restored from a save image.
        Restored = 7 => "restored",
        /// The guest crashed.
        Crashed = 8 => "crashed",
        /// Arrived via migration.
        MigratedIn = 9 => "migrated_in",
        /// Left via migration.
        MigratedOut = 10 => "migrated_out",
        /// A background job started on the domain.
        JobStarted = 11 => "job_started",
        /// A background job completed successfully.
        JobCompleted = 12 => "job_completed",
        /// A background job failed.
        JobFailed = 13 => "job_failed",
        /// A background job was aborted by request.
        JobAborted = 14 => "job_aborted",
    }
}

impl DomainEventKind {
    /// `true` for the job-lifecycle kinds pushed on the job event channel.
    pub fn is_job_event(self) -> bool {
        matches!(
            self,
            DomainEventKind::JobStarted
                | DomainEventKind::JobCompleted
                | DomainEventKind::JobFailed
                | DomainEventKind::JobAborted
        )
    }
}

/// A domain lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainEvent {
    /// The domain's name.
    pub domain: String,
    /// The domain's UUID.
    pub uuid: Uuid,
    /// What happened.
    pub kind: DomainEventKind,
    /// Trace id of the request that caused the event (job events carry
    /// their job's trace), 0 when untraced. Connects an asynchronous
    /// notification back to the flight-recorder span tree.
    pub trace_id: u64,
}

/// Callback invoked for each event.
pub(crate) type EventCallback = Arc<dyn Fn(&DomainEvent) + Send + Sync + 'static>;

/// A registration handle returned by [`EventBus::register`].
pub type CallbackId = u32;

/// Which event kinds a registration wants delivered (see
/// [`EventBus::register_filtered`]). Non-matching events are skipped
/// during dispatch before the callback is ever touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventFilter {
    /// Every event.
    #[default]
    All,
    /// Only job-lifecycle events (started/completed/failed/aborted).
    JobsOnly,
    /// Only domain-lifecycle events (everything that is not a job event).
    LifecycleOnly,
}

impl EventFilter {
    /// Whether an event of `kind` passes this filter.
    pub fn matches(self, kind: DomainEventKind) -> bool {
        match self {
            EventFilter::All => true,
            EventFilter::JobsOnly => kind.is_job_event(),
            EventFilter::LifecycleOnly => !kind.is_job_event(),
        }
    }
}

/// Dispatches domain events to registered callbacks.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
/// use virt_core::event::{DomainEvent, DomainEventKind, EventBus};
/// use virt_core::Uuid;
///
/// let bus = EventBus::new();
/// let hits = Arc::new(AtomicU32::new(0));
/// let h = hits.clone();
/// let id = bus.register(Arc::new(move |_event| { h.fetch_add(1, Ordering::SeqCst); }));
/// bus.emit(&DomainEvent { domain: "vm".into(), uuid: Uuid::NIL, kind: DomainEventKind::Started, trace_id: 0 });
/// assert_eq!(hits.load(Ordering::SeqCst), 1);
/// bus.unregister(id);
/// ```
#[derive(Clone, Default)]
pub struct EventBus {
    inner: Arc<Mutex<BusInner>>,
}

#[derive(Default)]
struct BusInner {
    next_id: CallbackId,
    callbacks: HashMap<CallbackId, (EventFilter, EventCallback)>,
    /// Immutable dispatch snapshot, rebuilt on (un)register. `emit`
    /// clones only this one `Arc` under the lock, instead of cloning
    /// every callback `Arc` per event.
    snapshot: Arc<Vec<(CallbackId, EventFilter, EventCallback)>>,
}

impl BusInner {
    fn rebuild_snapshot(&mut self) {
        let mut subs: Vec<(CallbackId, EventFilter, EventCallback)> = self
            .callbacks
            .iter()
            .map(|(id, (filter, callback))| (*id, *filter, Arc::clone(callback)))
            .collect();
        // Registration order, so delivery is deterministic.
        subs.sort_by_key(|(id, _, _)| *id);
        self.snapshot = Arc::new(subs);
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("callbacks", &self.inner.lock().callbacks.len())
            .finish()
    }
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Registers a callback for every event, returning its id.
    pub fn register(&self, callback: EventCallback) -> CallbackId {
        self.register_filtered(EventFilter::All, callback)
    }

    /// Registers a callback that only receives events matching `filter`.
    /// Non-matching events are skipped during dispatch without invoking
    /// (or even cloning) the callback.
    pub(crate) fn register_filtered(
        &self,
        filter: EventFilter,
        callback: EventCallback,
    ) -> CallbackId {
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.callbacks.insert(id, (filter, callback));
        inner.rebuild_snapshot();
        id
    }

    /// Removes a callback; returns whether it existed.
    pub fn unregister(&self, id: CallbackId) -> bool {
        let mut inner = self.inner.lock();
        let existed = inner.callbacks.remove(&id).is_some();
        if existed {
            inner.rebuild_snapshot();
        }
        existed
    }

    /// Number of registered callbacks.
    pub fn len(&self) -> usize {
        self.inner.lock().callbacks.len()
    }

    /// `true` when no callbacks are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delivers an event to every callback whose filter matches.
    ///
    /// Takes the bus lock only long enough to clone the current snapshot
    /// `Arc`; callbacks run on the emitting thread, outside the lock, so
    /// a callback may register/unregister without deadlocking and an
    /// emit on one thread never serializes against emits on others.
    pub fn emit(&self, event: &DomainEvent) {
        let snapshot = Arc::clone(&self.inner.lock().snapshot);
        for (_, filter, callback) in snapshot.iter() {
            if filter.matches(event.kind) {
                callback(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn event(kind: DomainEventKind) -> DomainEvent {
        DomainEvent {
            domain: "vm".to_string(),
            uuid: Uuid::NIL,
            kind,
            trace_id: 0,
        }
    }

    #[test]
    fn kinds_round_trip_the_wire() {
        for v in 0..=14u32 {
            let kind = DomainEventKind::from_u32(v).unwrap();
            assert_eq!(kind.as_u32(), v);
        }
        assert_eq!(DomainEventKind::from_u32(99), None);
    }

    #[test]
    fn job_kinds_are_classified() {
        assert!(DomainEventKind::JobStarted.is_job_event());
        assert!(DomainEventKind::JobAborted.is_job_event());
        assert!(!DomainEventKind::Started.is_job_event());
        assert!(!DomainEventKind::MigratedOut.is_job_event());
    }

    #[test]
    fn multiple_callbacks_all_fire() {
        let bus = EventBus::new();
        let count = Arc::new(AtomicU32::new(0));
        for _ in 0..3 {
            let c = count.clone();
            bus.register(Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        bus.emit(&event(DomainEventKind::Started));
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert_eq!(bus.len(), 3);
    }

    #[test]
    fn unregister_stops_delivery() {
        let bus = EventBus::new();
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        let id = bus.register(Arc::new(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        bus.emit(&event(DomainEventKind::Started));
        assert!(bus.unregister(id));
        assert!(!bus.unregister(id), "second unregister reports absence");
        bus.emit(&event(DomainEventKind::Stopped));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert!(bus.is_empty());
    }

    #[test]
    fn callbacks_receive_event_payload() {
        let bus = EventBus::new();
        let (tx, rx) = std::sync::mpsc::channel();
        bus.register(Arc::new(move |e: &DomainEvent| {
            tx.send(e.clone()).unwrap();
        }));
        bus.emit(&event(DomainEventKind::Crashed));
        let got = rx.recv().unwrap();
        assert_eq!(got.domain, "vm");
        assert_eq!(got.kind, DomainEventKind::Crashed);
    }

    #[test]
    fn callback_may_register_another_without_deadlock() {
        let bus = EventBus::new();
        let bus2 = bus.clone();
        bus.register(Arc::new(move |_| {
            bus2.register(Arc::new(|_| {}));
        }));
        bus.emit(&event(DomainEventKind::Started));
        assert_eq!(bus.len(), 2);
    }

    #[test]
    fn filters_gate_delivery_by_kind() {
        let bus = EventBus::new();
        let jobs = Arc::new(AtomicU32::new(0));
        let lifecycle = Arc::new(AtomicU32::new(0));
        let j = jobs.clone();
        bus.register_filtered(
            EventFilter::JobsOnly,
            Arc::new(move |_| {
                j.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let l = lifecycle.clone();
        bus.register_filtered(
            EventFilter::LifecycleOnly,
            Arc::new(move |_| {
                l.fetch_add(1, Ordering::SeqCst);
            }),
        );
        bus.emit(&event(DomainEventKind::Started));
        bus.emit(&event(DomainEventKind::JobStarted));
        bus.emit(&event(DomainEventKind::JobCompleted));
        assert_eq!(jobs.load(Ordering::SeqCst), 2);
        assert_eq!(lifecycle.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn delivery_follows_registration_order() {
        let bus = EventBus::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..4u32 {
            let log = log.clone();
            bus.register(Arc::new(move |_| log.lock().push(tag)));
        }
        bus.emit(&event(DomainEventKind::Started));
        assert_eq!(*log.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn mid_emit_registration_lands_in_the_next_batch() {
        // The snapshot taken at emit time is the broadcast batch: a
        // callback registered while an emit is in flight must not see
        // that same event.
        let bus = EventBus::new();
        let late_hits = Arc::new(AtomicU32::new(0));
        let bus2 = bus.clone();
        let late = late_hits.clone();
        bus.register(Arc::new(move |_| {
            let late = late.clone();
            bus2.register(Arc::new(move |_| {
                late.fetch_add(1, Ordering::SeqCst);
            }));
        }));
        bus.emit(&event(DomainEventKind::Started));
        assert_eq!(late_hits.load(Ordering::SeqCst), 0);
        bus.emit(&event(DomainEventKind::Stopped));
        assert_eq!(late_hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn clones_share_registrations() {
        let bus = EventBus::new();
        let other = bus.clone();
        other.register(Arc::new(|_| {}));
        assert_eq!(bus.len(), 1);
    }
}
