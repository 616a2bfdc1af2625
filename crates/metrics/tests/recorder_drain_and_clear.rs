//! `trace dump --clear` under a live writer: every event comes out of
//! exactly one dump.
//!
//! One thread records numbered events while another keeps dumping and
//! clearing. The writer paces itself to stay within half a ring of what
//! the reader has visited, so nothing is ever overwritten — an event
//! that is in no dump was thrown away by the clear, and one in two dumps
//! was not forgotten by it. A clear that is a second pass over the ring
//! fails this by tens of thousands of events: it also zeroes what was
//! recorded after the drain read the ring's end.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use virt_metrics::recorder::{EventPhase, FlightRecorder, TraceEvent, RECORDER_CAPACITY};
use virt_metrics::span::Stage;

const EVENTS: u64 = 200_000;

#[test]
fn every_event_comes_out_of_exactly_one_dump() {
    let recorder = FlightRecorder::new();
    recorder.set_enabled(true);
    // Tickets below this have been visited by a finished dump.
    let visited = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);
    let mut seen = vec![0u8; EVENTS as usize];

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for n in 0..EVENTS {
                while n >= visited.load(Ordering::Acquire) + (RECORDER_CAPACITY / 2) as u64 {
                    std::thread::yield_now();
                }
                recorder.record(&TraceEvent {
                    trace_id: 1,
                    span_id: n + 1,
                    parent_id: 0,
                    stage: Stage::Dispatch,
                    phase: EventPhase::End,
                    t_ns: n,
                    dur_ns: 0,
                    detail: n,
                });
            }
            writer_done.store(true, Ordering::Release);
        });

        loop {
            // Both read before the dump. Every ticket below `handed_out`
            // has been handed out, and the dump visits each — returning
            // the event, or leaving a slot whose writer is mid-flight for
            // a later dump. Once the writer is done nothing is in flight,
            // so that dump returns all that is left.
            let last = writer_done.load(Ordering::Acquire);
            let handed_out = recorder.recorded();
            for event in recorder.drain_and_clear() {
                seen[event.detail as usize] += 1;
            }
            // A skipped in-flight slot is the writer's current one, so
            // letting the writer run half a ring past everything visited
            // cannot overwrite it.
            visited.store(handed_out, Ordering::Release);
            if last {
                break;
            }
        }
    });

    let lost = seen.iter().filter(|&&n| n == 0).count();
    let twice = seen.iter().filter(|&&n| n > 1).count();
    assert_eq!(
        (lost, twice),
        (0, 0),
        "{lost} of {EVENTS} events lost, {twice} dumped twice"
    );
    assert!(recorder.drain().is_empty());
}
