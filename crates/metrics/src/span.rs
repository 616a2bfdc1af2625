//! Cross-wire request spans: trace ids, typed stages, and RAII guards
//! that record begin/end events into the flight recorder.
//!
//! A trace starts at the client call stub (or at a public-API entry like
//! a migration), travels to the daemon inside the RPC frame header, and
//! is re-entered there with [`server_enter`] — every layer in between
//! opens child stages with [`stage`] off the thread-local context, so a
//! completed request reads back as one span tree: client send → queue
//! wait → dispatch → lock acquisition → driver work → statestore sync →
//! reply write.
//!
//! When the recorder is disabled every constructor here returns an inert
//! guard after a single relaxed atomic load — no allocation, no id
//! generation, no clock read.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::recorder::{EventPhase, FlightRecorder, TraceEvent};

/// One node's identity in a request's span tree. The trace id is shared
/// by every span of the request on both sides of the wire; the span id
/// names this node so children can point at it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Request-wide id, generated once at the root.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
}

impl fmt::Display for SpanContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}/{:016x}", self.trace_id, self.span_id)
    }
}

crate::wire_enum! {
    /// The typed stages a request passes through. The name is the stable
    /// snake_case one used in dumps, logs and the Chrome export.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum Stage {
        /// A public-API operation on the client (e.g. one whole migration).
        Api = 0 => "api",
        /// The client call stub: send through reply receipt.
        ClientSend = 1 => "client_send",
        /// The socket write putting the frame on the wire.
        Socket = 2 => "socket",
        /// Time spent queued for a daemon worker thread.
        QueueWait = 3 => "queue_wait",
        /// Daemon-side dispatch: decode, handle, encode.
        Dispatch = 4 => "dispatch",
        /// Waiting to acquire the domain/host lock.
        LockAcquire = 5 => "lock_acquire",
        /// The driver doing hypervisor work.
        DriverWork = 6 => "driver_work",
        /// Persisting state (statestore put + fsync).
        StateStore = 7 => "statestore_sync",
        /// Writing the reply frame back to the client.
        ReplyWrite = 8 => "reply_write",
        /// A long-running domain job (migration, save, restore).
        Job = 9 => "job",
        /// One pre-copy slice of a migration.
        MigrationSlice = 10 => "migration_slice",
    }
}

thread_local! {
    static CURRENT: Cell<Option<SpanContext>> = const { Cell::new(None) };
}

/// The span context the current thread is working under, if any.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.get())
}

/// The current trace id, or 0 when the thread is not tracing.
pub fn current_trace_id() -> u64 {
    current().map_or(0, |c| c.trace_id)
}

/// Nanoseconds on the process-local trace clock (monotonic, zero at
/// first use).
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Generates a unique nonzero id: a per-process random seed mixed with a
/// counter through splitmix64. No locking, no external RNG dependency.
fn fresh_id() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        // ASLR gives the static's address some per-process entropy.
        nanos ^ (&SEQ as *const AtomicU64 as u64).rotate_left(32)
    });
    loop {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        if id != 0 {
            return id;
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Active {
    ctx: SpanContext,
    parent_id: u64,
    stage: Stage,
    detail: u64,
    start: Instant,
    start_ns: u64,
    previous: Option<SpanContext>,
}

/// RAII stage guard: records a begin event on creation and an end event
/// (with duration) on drop, making its context the thread's current one
/// in between. Inert — a `None` — when tracing is off.
pub struct StageSpan {
    active: Option<Active>,
}

impl StageSpan {
    /// A guard that records nothing.
    const fn inert() -> Self {
        StageSpan { active: None }
    }

    /// This span's context, for carrying across the wire or into a job.
    pub fn context(&self) -> Option<SpanContext> {
        self.active.as_ref().map(|a| a.ctx)
    }

    /// Converts into an owned span that no longer occupies the creating
    /// thread's context slot (restored immediately) but still records its
    /// end event — with the full duration — when dropped, possibly on
    /// another thread. Used to hand a span to a job worker.
    pub fn detach(mut self) -> Option<OwnedSpan> {
        let active = self.active.take()?;
        CURRENT.with(|c| c.set(active.previous));
        Some(OwnedSpan {
            ctx: active.ctx,
            stage: active.stage,
            detail: active.detail,
            start: active.start,
            start_ns: active.start_ns,
        })
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        CURRENT.with(|c| c.set(active.previous));
        FlightRecorder::global().record(&TraceEvent {
            trace_id: active.ctx.trace_id,
            span_id: active.ctx.span_id,
            parent_id: active.parent_id,
            stage: active.stage,
            phase: EventPhase::End,
            t_ns: active.start_ns,
            dur_ns: active.start.elapsed().as_nanos() as u64,
            detail: active.detail,
        });
    }
}

/// A span detached from any thread context: records its end event on
/// drop. Re-enter it on a worker thread with [`OwnedSpan::resume`].
pub struct OwnedSpan {
    ctx: SpanContext,
    stage: Stage,
    detail: u64,
    start: Instant,
    start_ns: u64,
}

impl OwnedSpan {
    /// The span's context.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Makes this span the current thread's context until the guard
    /// drops, so stages opened meanwhile become its children.
    pub fn resume(&self) -> ContextGuard {
        resume(Some(self.ctx))
    }
}

impl Drop for OwnedSpan {
    fn drop(&mut self) {
        FlightRecorder::global().record(&TraceEvent {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: 0,
            stage: self.stage,
            phase: EventPhase::End,
            t_ns: self.start_ns,
            dur_ns: self.start.elapsed().as_nanos() as u64,
            detail: self.detail,
        });
    }
}

/// Restores the previous thread context on drop; records nothing itself.
pub struct ContextGuard {
    previous: Option<SpanContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

/// Sets the thread's span context (e.g. resuming a trace on a worker
/// thread) until the guard drops.
pub fn resume(ctx: Option<SpanContext>) -> ContextGuard {
    let previous = CURRENT.with(|c| c.replace(ctx));
    ContextGuard { previous }
}

fn begin(ctx: SpanContext, parent_id: u64, stage: Stage, detail: u64) -> StageSpan {
    let start = Instant::now();
    let start_ns = now_ns();
    let previous = CURRENT.with(|c| c.replace(Some(ctx)));
    FlightRecorder::global().record(&TraceEvent {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_id,
        stage,
        phase: EventPhase::Begin,
        t_ns: start_ns,
        dur_ns: 0,
        detail,
    });
    StageSpan {
        active: Some(Active {
            ctx,
            parent_id,
            stage,
            detail,
            start,
            start_ns,
            previous,
        }),
    }
}

/// Opens a span: a child of the thread's current context when one is
/// active, otherwise the root of a brand-new trace. Inert when tracing
/// is off.
pub fn enter(stage: Stage, detail: u64) -> StageSpan {
    if !FlightRecorder::global().is_enabled() {
        return StageSpan::inert();
    }
    let (trace_id, parent_id) = match current() {
        Some(parent) => (parent.trace_id, parent.span_id),
        None => (fresh_id(), 0),
    };
    begin(
        SpanContext {
            trace_id,
            span_id: fresh_id(),
        },
        parent_id,
        stage,
        detail,
    )
}

/// Opens a child stage of the current context. Inert when tracing is off
/// **or** the thread has no active trace — an untraced request stays
/// untraced all the way down.
pub fn stage(stage: Stage) -> StageSpan {
    stage_detail(stage, 0)
}

/// [`stage`] with a detail value (slice iteration, byte count, …).
pub fn stage_detail(kind: Stage, detail: u64) -> StageSpan {
    if !FlightRecorder::global().is_enabled() {
        return StageSpan::inert();
    }
    let Some(parent) = current() else {
        return StageSpan::inert();
    };
    begin(
        SpanContext {
            trace_id: parent.trace_id,
            span_id: fresh_id(),
        },
        parent.span_id,
        kind,
        detail,
    )
}

/// Re-enters a trace carried over the wire on the daemon side: opens the
/// request's dispatch span as a child of the client's span. Inert when
/// tracing is off or the frame carried no trace (`trace_id == 0`).
pub fn server_enter(trace_id: u64, parent_span: u64, detail: u64) -> StageSpan {
    if !FlightRecorder::global().is_enabled() {
        return StageSpan::inert();
    }
    // A zero wire id means the client did not trace this call (its own
    // recorder was off — e.g. an out-of-process vsh). The daemon still
    // wants its half: mint a fresh root trace so `vadm trace on` works
    // against any client. When the client did trace, join its tree.
    let (trace_id, parent_span) = if trace_id == 0 {
        (fresh_id(), 0)
    } else {
        (trace_id, parent_span)
    };
    begin(
        SpanContext {
            trace_id,
            span_id: fresh_id(),
        },
        parent_span,
        Stage::Dispatch,
        detail,
    )
}

/// Records an already-measured interval (e.g. a migration slice's
/// simulated duration) as a complete child span of the current context:
/// a begin event back-dated by `dur` plus the matching end event.
pub fn record_span(kind: Stage, dur: Duration, detail: u64) {
    record_measured(kind, || dur, detail);
}

/// [`record_span`] for the interval from `since` to now, reading the clock
/// only when the span will be kept (recorder on, inside a trace).
pub fn record_span_since(kind: Stage, since: Instant, detail: u64) {
    record_measured(kind, || since.elapsed(), detail);
}

fn record_measured(kind: Stage, dur: impl FnOnce() -> Duration, detail: u64) {
    let recorder = FlightRecorder::global();
    if !recorder.is_enabled() {
        return;
    }
    let Some(parent) = current() else {
        return;
    };
    let dur_ns = dur().as_nanos() as u64;
    let start_ns = now_ns().saturating_sub(dur_ns);
    let span_id = fresh_id();
    recorder.record(&TraceEvent {
        trace_id: parent.trace_id,
        span_id,
        parent_id: parent.span_id,
        stage: kind,
        phase: EventPhase::Begin,
        t_ns: start_ns,
        dur_ns: 0,
        detail,
    });
    recorder.record(&TraceEvent {
        trace_id: parent.trace_id,
        span_id,
        parent_id: parent.span_id,
        stage: kind,
        phase: EventPhase::End,
        t_ns: start_ns,
        dur_ns,
        detail,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global and other tests in this binary may
    // toggle it; these tests assert only on their own trace ids.

    #[test]
    fn stage_discriminants_round_trip() {
        for v in 0..=10 {
            let stage = Stage::from_u32(v).unwrap();
            assert_eq!(stage.as_u32(), v);
            assert!(!stage.name().is_empty());
        }
        assert_eq!(Stage::from_u32(11), None);
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:x}");
        }
    }

    #[test]
    fn disabled_tracing_yields_inert_spans() {
        // Not enabling the global recorder here: unless another test has
        // turned it on, everything must be inert.
        let span = stage(Stage::DriverWork);
        if !FlightRecorder::global().is_enabled() {
            assert!(span.context().is_none());
            assert_eq!(current(), None);
        }
    }

    #[test]
    fn spans_nest_and_share_the_trace_id() {
        FlightRecorder::global().set_enabled(true);
        let root = enter(Stage::ClientSend, 42);
        let root_ctx = root.context().unwrap();
        assert_ne!(root_ctx.trace_id, 0);
        {
            let child = stage(Stage::DriverWork);
            let child_ctx = child.context().unwrap();
            assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
            assert_ne!(child_ctx.span_id, root_ctx.span_id);
            assert_eq!(current(), Some(child_ctx));
        }
        assert_eq!(current(), Some(root_ctx));
        drop(root);
        assert_eq!(current(), None);

        let events = FlightRecorder::global().events_for_trace(root_ctx.trace_id);
        // Root begin/end + child begin/end.
        assert_eq!(events.len(), 4);
        let child_end = events
            .iter()
            .find(|e| e.stage == Stage::DriverWork && e.phase == EventPhase::End)
            .unwrap();
        assert_eq!(child_end.parent_id, root_ctx.span_id);
    }

    #[test]
    fn server_enter_joins_the_wire_trace() {
        FlightRecorder::global().set_enabled(true);
        let span = server_enter(0xabcd, 0x1234, 5);
        let ctx = span.context().unwrap();
        assert_eq!(ctx.trace_id, 0xabcd);
        drop(span);
        let events = FlightRecorder::global().events_for_trace(0xabcd);
        assert!(events
            .iter()
            .any(|e| e.parent_id == 0x1234 && e.stage == Stage::Dispatch));
        // An untraced client (zero wire id) still gets a daemon-side
        // trace: a fresh root, not a join.
        let span = server_enter(0, 0, 0);
        let ctx = span.context().unwrap();
        assert_ne!(ctx.trace_id, 0);
        drop(span);
        let root = FlightRecorder::global()
            .events_for_trace(ctx.trace_id)
            .into_iter()
            .find(|e| e.stage == Stage::Dispatch)
            .unwrap();
        assert_eq!(root.parent_id, 0);
    }

    #[test]
    fn detached_span_travels_across_threads() {
        FlightRecorder::global().set_enabled(true);
        let span = enter(Stage::Api, 0);
        let ctx = span.context().unwrap();
        let owned = span.detach().unwrap();
        assert_eq!(current(), None, "detach restores the creating thread");
        let handle = std::thread::spawn(move || {
            let _g = owned.resume();
            let child = stage(Stage::Job);
            let child_ctx = child.context().unwrap();
            assert_eq!(child_ctx.trace_id, ctx.trace_id);
            drop(child);
            drop(_g);
            assert_eq!(current(), None);
            // owned drops here → api end event.
        });
        handle.join().unwrap();
        let events = FlightRecorder::global().events_for_trace(ctx.trace_id);
        assert!(events
            .iter()
            .any(|e| e.stage == Stage::Api && e.phase == EventPhase::End));
        assert!(events
            .iter()
            .any(|e| e.stage == Stage::Job && e.parent_id == ctx.span_id));
    }

    #[test]
    fn record_span_backdates_the_begin_event() {
        FlightRecorder::global().set_enabled(true);
        let root = enter(Stage::Dispatch, 0);
        let trace = root.context().unwrap().trace_id;
        record_span(Stage::QueueWait, Duration::from_micros(250), 3);
        drop(root);
        let events = FlightRecorder::global().events_for_trace(trace);
        let end = events
            .iter()
            .find(|e| e.stage == Stage::QueueWait && e.phase == EventPhase::End)
            .unwrap();
        assert_eq!(end.dur_ns, 250_000);
        assert_eq!(end.detail, 3);
        let begin = events
            .iter()
            .find(|e| e.stage == Stage::QueueWait && e.phase == EventPhase::Begin)
            .unwrap();
        assert_eq!(begin.t_ns, end.t_ns);
    }
}
