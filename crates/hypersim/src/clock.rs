//! Virtual time.
//!
//! All simulated latencies are charged to a [`SimClock`] instead of being
//! slept, which keeps simulations deterministic and lets a benchmark run
//! thousands of "multi-second" operations in microseconds of wall time.
//! The clock is shared — cloning a `SimClock` yields a handle onto the same
//! timeline, exactly like hosts sharing a wall clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point on the simulated timeline, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start (truncating).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds since simulation start (truncating).
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Elapsed simulated time since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated time is
    /// monotonic, so this indicates a logic error in the caller.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(
            self.0
                .checked_sub(earlier.0)
                .expect("simulated time moved backwards"),
        )
    }

    /// Saturating difference, for callers that may race clock advances.
    pub fn saturating_duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use hypersim::SimClock;
///
/// let clock = SimClock::new();
/// let t0 = clock.now();
/// clock.advance(Duration::from_millis(250));
/// assert_eq!(clock.now().duration_since(t0), Duration::from_millis(250));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock {
            nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime(self.nanos.load(Ordering::Acquire))
    }

    /// Advances the timeline by `delta`, returning the new time.
    ///
    /// Concurrent advances from multiple threads accumulate, modeling
    /// serialized work on a shared control plane.
    pub fn advance(&self, delta: Duration) -> SimTime {
        let add = delta.as_nanos() as u64;
        SimTime(self.nanos.fetch_add(add, Ordering::AcqRel) + add)
    }

    /// `true` when both handles observe the same timeline.
    #[cfg(test)]
    pub(crate) fn same_timeline(&self, other: &SimClock) -> bool {
        Arc::ptr_eq(&self.nanos, &other.nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clock_starts_at_zero() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimTime::ZERO);
        assert_eq!(clock.now().as_nanos(), 0);
    }

    #[test]
    fn advance_accumulates() {
        let clock = SimClock::new();
        clock.advance(Duration::from_micros(5));
        clock.advance(Duration::from_micros(7));
        assert_eq!(clock.now().as_micros(), 12);
    }

    #[test]
    fn clones_share_the_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(Duration::from_secs(1));
        assert_eq!(b.now().as_secs(), 1);
        assert!(a.same_timeline(&b));
        assert!(!a.same_timeline(&SimClock::new()));
    }

    #[test]
    fn unit_conversions_truncate() {
        let clock = SimClock::new();
        clock.advance(Duration::from_nanos(2_500_000_123));
        let t = clock.now();
        assert_eq!(t.as_nanos(), 2_500_000_123);
        assert_eq!(t.as_micros(), 2_500_000);
        assert_eq!(t.as_millis(), 2_500);
        assert_eq!(t.as_secs(), 2);
    }

    #[test]
    fn duration_since_measures_elapsed() {
        let clock = SimClock::new();
        let t0 = clock.now();
        clock.advance(Duration::from_millis(42));
        assert_eq!(clock.now().duration_since(t0), Duration::from_millis(42));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn duration_since_panics_on_inverted_order() {
        let clock = SimClock::new();
        let t0 = clock.now();
        clock.advance(Duration::from_millis(1));
        let t1 = clock.now();
        let _ = t0.duration_since(t1);
    }

    #[test]
    fn saturating_duration_since_clamps_to_zero() {
        let clock = SimClock::new();
        let t0 = clock.now();
        clock.advance(Duration::from_millis(1));
        let t1 = clock.now();
        assert_eq!(t0.saturating_duration_since(t1), Duration::ZERO);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::ZERO + Duration::from_secs(3);
        assert_eq!(t.as_secs(), 3);
    }

    #[test]
    fn concurrent_advances_accumulate() {
        let clock = SimClock::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = clock.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(Duration::from_nanos(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("thread finished");
        }
        assert_eq!(clock.now().as_nanos(), 8_000);
    }
}
