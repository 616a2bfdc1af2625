//! The flight recorder: a process-wide, lock-free ring of trace events.
//!
//! Spans ([`crate::span`]) record begin/end events here. The ring has a
//! fixed capacity; writers never block and never allocate — each event is
//! written into a slot guarded by a per-slot sequence word (a seqlock), so
//! the oldest events are silently overwritten under load and a concurrent
//! drain simply skips slots it catches mid-write. When recording is
//! disabled the record path is a single relaxed atomic load.
//!
//! The recorder is process-global ([`FlightRecorder::global`]) for the
//! same reason the job registry is: the admin server must be able to
//! drain it without threading a handle through every layer that records.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::span::Stage;

/// Number of slots in the ring. Power of two so the ticket-to-slot map is
/// a mask. At 64 bytes a slot this is a fixed 256 KiB of process memory.
pub const RECORDER_CAPACITY: usize = 4096;

crate::wire_enum! {
    /// Whether an event opens a span or closes it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum EventPhase {
        /// The span started; `dur_ns` is zero.
        Begin = 0 => "begin",
        /// The span finished; `t_ns` is the span's start, `dur_ns` its length.
        End = 1 => "end",
    }
}

/// One recorded begin/end event. Plain data — copying it in and out of
/// the ring never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace this event belongs to (shared across the wire).
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span's id (0 for a root span).
    pub parent_id: u64,
    /// What kind of work the span covers.
    pub stage: Stage,
    /// Begin or end.
    pub phase: EventPhase,
    /// Span start time, nanoseconds on the process-local trace clock.
    pub t_ns: u64,
    /// Span duration in nanoseconds (end events only).
    pub dur_ns: u64,
    /// Stage-specific detail (procedure number, slice iteration, …).
    pub detail: u64,
}

/// One ring slot: a seqlock word plus the event broken into atomic words,
/// so writers and the drain path need no mutex and no `unsafe`.
struct Slot {
    /// `2·ticket+1` while a write is in flight, `2·ticket+2` when the
    /// slot holds that ticket's event, 0 when never written (or cleared).
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_id: AtomicU64,
    /// `stage << 32 | phase`.
    stage_phase: AtomicU64,
    t_ns: AtomicU64,
    dur_ns: AtomicU64,
    detail: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_id: AtomicU64::new(0),
            stage_phase: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            detail: AtomicU64::new(0),
        }
    }
}

/// The bounded in-memory trace store plus the tracing configuration
/// (enabled flag and slow-request threshold).
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Next write ticket; `ticket & (capacity-1)` picks the slot, so the
    /// oldest event is always the one overwritten.
    next: AtomicU64,
    enabled: AtomicBool,
    slow_threshold_ns: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder with [`RECORDER_CAPACITY`] slots, disabled.
    pub fn new() -> Self {
        FlightRecorder {
            slots: (0..RECORDER_CAPACITY).map(|_| Slot::empty()).collect(),
            next: AtomicU64::new(0),
            enabled: AtomicBool::new(false),
            slow_threshold_ns: AtomicU64::new(0),
        }
    }

    /// The process-wide recorder every span records into.
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(FlightRecorder::new)
    }

    /// Whether spans are being recorded. This is the disabled-path check:
    /// one relaxed load, no branch taken beyond it.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The slow-request threshold (0 = promotion off).
    pub fn slow_threshold(&self) -> Duration {
        Duration::from_nanos(self.slow_threshold_ns.load(Ordering::Relaxed))
    }

    /// Sets the slow-request threshold; requests whose total time exceeds
    /// it get their stage breakdown promoted into the structured log.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        self.slow_threshold_ns
            .store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Appends an event. Lock-free and allocation-free; silently
    /// overwrites the oldest slot when the ring is full.
    pub fn record(&self, event: &TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (RECORDER_CAPACITY - 1)];
        // Seqlock write: odd marker, release fence, payload, even marker.
        // A drain that catches the slot between the markers (or sees the
        // marker change across its payload read) rejects the slot.
        slot.seq.store(ticket * 2 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.trace_id.store(event.trace_id, Ordering::Relaxed);
        slot.span_id.store(event.span_id, Ordering::Relaxed);
        slot.parent_id.store(event.parent_id, Ordering::Relaxed);
        slot.stage_phase.store(
            (u64::from(event.stage.as_u32()) << 32) | u64::from(event.phase.as_u32()),
            Ordering::Relaxed,
        );
        slot.t_ns.store(event.t_ns, Ordering::Relaxed);
        slot.dur_ns.store(event.dur_ns, Ordering::Relaxed);
        slot.detail.store(event.detail, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Copies the ring's current contents, oldest first. Runs while
    /// writers are active: slots caught mid-write are skipped, everything
    /// else comes out whole (the seqlock re-check rejects torn reads).
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.read_ring(false)
    }

    /// [`FlightRecorder::drain`] that also forgets exactly the events it
    /// returns, so that every event comes out of one such call and no
    /// other: what writers record meanwhile — and a slot skipped because
    /// its writer was mid-flight — stays for the next one. The ticket
    /// counter keeps running.
    pub fn drain_and_clear(&self) -> Vec<TraceEvent> {
        self.read_ring(true)
    }

    fn read_ring(&self, forget: bool) -> Vec<TraceEvent> {
        let end = self.next.load(Ordering::Acquire);
        let start = end.saturating_sub(RECORDER_CAPACITY as u64);
        let mut out = Vec::with_capacity((end - start) as usize);
        for ticket in start..end {
            let slot = &self.slots[(ticket as usize) & (RECORDER_CAPACITY - 1)];
            // A couple of retries ride out a writer we raced with; a slot
            // that has moved on to a newer ticket is simply skipped (its
            // new event is visited at its own ticket).
            for _ in 0..3 {
                let seq = slot.seq.load(Ordering::Acquire);
                if seq != ticket * 2 + 2 {
                    if seq == ticket * 2 + 1 {
                        continue; // our ticket, mid-write: retry
                    }
                    break; // overwritten or cleared: skip
                }
                let event = TraceEvent {
                    trace_id: slot.trace_id.load(Ordering::Relaxed),
                    span_id: slot.span_id.load(Ordering::Relaxed),
                    parent_id: slot.parent_id.load(Ordering::Relaxed),
                    stage: Stage::from_u32((slot.stage_phase.load(Ordering::Relaxed) >> 32) as u32)
                        .unwrap_or(Stage::Dispatch),
                    phase: EventPhase::from_u32(
                        (slot.stage_phase.load(Ordering::Relaxed) & 0xffff_ffff) as u32,
                    )
                    .unwrap_or(EventPhase::Begin),
                    t_ns: slot.t_ns.load(Ordering::Relaxed),
                    dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                    detail: slot.detail.load(Ordering::Relaxed),
                };
                fence(Ordering::Acquire);
                // The re-check. Forgetting makes it a compare-and-swap to
                // 0 (never written): it succeeds only on the very event
                // just copied, so a writer's marker is never overwritten,
                // and of two concurrent callers one gets the event. The
                // zero publishes nothing; a reader that sees it skips.
                let unchanged = if forget {
                    slot.seq
                        .compare_exchange(seq, 0, Ordering::Release, Ordering::Relaxed)
                        .is_ok()
                } else {
                    slot.seq.load(Ordering::Relaxed) == seq
                };
                if unchanged {
                    out.push(event);
                    break;
                }
            }
        }
        out
    }

    /// The recorded events belonging to one trace, oldest first.
    pub(crate) fn events_for_trace(&self, trace_id: u64) -> Vec<TraceEvent> {
        let mut events = self.drain();
        events.retain(|e| e.trace_id == trace_id);
        events
    }

    /// Formats a slow-request log line for `trace_id` — total time plus a
    /// per-stage breakdown summed from the trace's end events — when
    /// `total` exceeds the configured threshold. Only called on request
    /// completion, so the ring scan happens solely for slow requests.
    pub fn slow_report(&self, trace_id: u64, total: Duration) -> Option<String> {
        let threshold = self.slow_threshold();
        if !self.is_enabled() || threshold.is_zero() || total < threshold || trace_id == 0 {
            return None;
        }
        let mut by_stage: Vec<(Stage, u64, u64)> = Vec::new(); // stage, count, sum ns
        for event in self.events_for_trace(trace_id) {
            if event.phase != EventPhase::End {
                continue;
            }
            match by_stage.iter_mut().find(|(s, _, _)| *s == event.stage) {
                Some((_, count, sum)) => {
                    *count += 1;
                    *sum += event.dur_ns;
                }
                None => by_stage.push((event.stage, 1, event.dur_ns)),
            }
        }
        let mut report = format!(
            "slow request trace={trace_id:016x} total={:.3}ms stages:",
            total.as_secs_f64() * 1e3
        );
        if by_stage.is_empty() {
            report.push_str(" (no recorded stages)");
        }
        for (stage, count, sum_ns) in by_stage {
            report.push_str(&format!(
                " {}={:.1}us", // µs keeps the line grep-friendly across magnitudes
                stage.name(),
                sum_ns as f64 / 1e3
            ));
            if count > 1 {
                report.push_str(&format!("(x{count})"));
            }
        }
        Some(report)
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &RECORDER_CAPACITY)
            .field("enabled", &self.is_enabled())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// Renders events as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto format): a JSON array of complete (`"X"`) events for finished
/// spans and instant (`"i"`) events for spans still open at dump time.
/// Hand-built — no serde in this workspace — from values that need no
/// string escaping (stage names are static identifiers, ids render hex).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(events.len() * 128 + 2);
    out.push('[');
    let mut first = true;
    for event in events {
        let finished_later = event.phase == EventPhase::Begin
            && events
                .iter()
                .any(|e| e.phase == EventPhase::End && e.span_id == event.span_id);
        if finished_later {
            continue; // its "X" record carries the full span
        }
        if !first {
            out.push(',');
        }
        first = false;
        let (ph, dur) = match event.phase {
            EventPhase::End => ("X", event.dur_ns as f64 / 1e3),
            EventPhase::Begin => ("i", 0.0),
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"virt\",\"ph\":\"{}\",\"ts\":{:.3},",
            event.stage.name(),
            ph,
            event.t_ns as f64 / 1e3
        );
        if event.phase == EventPhase::End {
            let _ = write!(out, "\"dur\":{dur:.3},");
        } else {
            // Instant events need a scope; "t" = thread.
            out.push_str("\"s\":\"t\",");
        }
        let _ = write!(
            out,
            "\"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"detail\":{}}}}}",
            event.trace_id & 0xffff,
            event.trace_id,
            event.span_id,
            event.parent_id,
            event.detail
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(trace: u64, span: u64, phase: EventPhase) -> TraceEvent {
        TraceEvent {
            trace_id: trace,
            span_id: span,
            parent_id: 1,
            stage: Stage::DriverWork,
            phase,
            t_ns: 100,
            dur_ns: if phase == EventPhase::End { 50 } else { 0 },
            detail: 7,
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = FlightRecorder::new();
        recorder.record(&event(1, 2, EventPhase::Begin));
        assert_eq!(recorder.recorded(), 0);
        assert!(recorder.drain().is_empty());
    }

    #[test]
    fn events_round_trip_in_order() {
        let recorder = FlightRecorder::new();
        recorder.set_enabled(true);
        for span in 0..10 {
            recorder.record(&event(9, span, EventPhase::Begin));
        }
        let drained = recorder.drain();
        assert_eq!(drained.len(), 10);
        for (i, e) in drained.iter().enumerate() {
            assert_eq!(e.span_id, i as u64);
            assert_eq!(e.trace_id, 9);
            assert_eq!(e.stage, Stage::DriverWork);
        }
    }

    #[test]
    fn ring_is_bounded_and_overwrites_oldest() {
        let recorder = FlightRecorder::new();
        recorder.set_enabled(true);
        let total = RECORDER_CAPACITY as u64 + 100;
        for span in 0..total {
            recorder.record(&event(1, span, EventPhase::Begin));
        }
        let drained = recorder.drain();
        assert_eq!(drained.len(), RECORDER_CAPACITY);
        // Oldest surviving event is exactly `total - capacity`.
        assert_eq!(drained[0].span_id, total - RECORDER_CAPACITY as u64);
        assert_eq!(drained.last().unwrap().span_id, total - 1);
    }

    #[test]
    fn drain_under_concurrent_writes_returns_whole_events() {
        use std::sync::Arc;
        let recorder = Arc::new(FlightRecorder::new());
        recorder.set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let recorder = Arc::clone(&recorder);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Every event self-describes: span == detail.
                        recorder.record(&TraceEvent {
                            trace_id: t,
                            span_id: n,
                            parent_id: n,
                            stage: Stage::QueueWait,
                            phase: EventPhase::Begin,
                            t_ns: n,
                            dur_ns: n,
                            detail: n,
                        });
                        n += 1;
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            for e in recorder.drain() {
                assert_eq!(e.span_id, e.detail, "torn event escaped the seqlock");
                assert_eq!(e.span_id, e.parent_id);
                assert_eq!(e.t_ns, e.dur_ns);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn clear_empties_the_ring_but_not_the_counter() {
        let recorder = FlightRecorder::new();
        recorder.set_enabled(true);
        recorder.record(&event(1, 1, EventPhase::Begin));
        assert_eq!(recorder.drain_and_clear().len(), 1);
        assert!(recorder.drain().is_empty());
        assert_eq!(recorder.recorded(), 1);
        recorder.record(&event(1, 2, EventPhase::Begin));
        assert_eq!(recorder.drain().len(), 1);
    }

    #[test]
    fn slow_report_respects_threshold_and_sums_stages() {
        let recorder = FlightRecorder::new();
        recorder.set_enabled(true);
        recorder.set_slow_threshold(Duration::from_millis(10));
        let mut e = event(5, 1, EventPhase::End);
        e.dur_ns = 2_000_000;
        recorder.record(&e);
        e.span_id = 2;
        e.dur_ns = 3_000_000;
        recorder.record(&e);
        assert!(
            recorder.slow_report(5, Duration::from_millis(5)).is_none(),
            "below threshold"
        );
        let report = recorder.slow_report(5, Duration::from_millis(20)).unwrap();
        assert!(report.contains("total=20.000ms"), "{report}");
        assert!(report.contains("driver_work=5000.0us(x2)"), "{report}");
        assert!(
            recorder.slow_report(0, Duration::from_secs(1)).is_none(),
            "untraced requests never promote"
        );
    }

    #[test]
    fn chrome_export_pairs_and_instants() {
        let events = [
            event(1, 10, EventPhase::Begin),
            event(1, 10, EventPhase::End),
            event(1, 11, EventPhase::Begin), // still open
        ];
        let json = chrome_trace_json(&events);
        // Span 10 collapsed into one X record; span 11 is an instant.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"dur\":0.050"));
    }
}
