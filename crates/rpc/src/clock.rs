//! Where the reconnecting client reads the time and waits: the system
//! clock in the product, a manual one in tests, whose `sleep` moves
//! virtual time on at once — so a test of a retry ladder or a breaker
//! cool-down waits out none of it.

use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub(crate) enum Clock {
    System,
    #[cfg(test)]
    Manual(std::sync::Arc<Manual>),
}

impl Clock {
    pub(crate) fn now(&self) -> Instant {
        match self {
            Clock::System => Instant::now(),
            #[cfg(test)]
            Clock::Manual(manual) => manual.now(),
        }
    }

    pub(crate) fn sleep(&self, pause: Duration) {
        match self {
            Clock::System => std::thread::sleep(pause),
            #[cfg(test)]
            Clock::Manual(manual) => manual.advance(pause),
        }
    }
}

/// Virtual time: starts at the real instant it was made and moves only
/// when something sleeps on it or a test advances it.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct Manual {
    start: Instant,
    elapsed: parking_lot::Mutex<Duration>,
}

#[cfg(test)]
impl Manual {
    pub(crate) fn new() -> std::sync::Arc<Manual> {
        std::sync::Arc::new(Manual {
            start: Instant::now(),
            elapsed: parking_lot::Mutex::new(Duration::ZERO),
        })
    }

    pub(crate) fn now(&self) -> Instant {
        self.start + *self.elapsed.lock()
    }

    pub(crate) fn advance(&self, by: Duration) {
        *self.elapsed.lock() += by;
    }

    /// Virtual time slept or advanced so far.
    pub(crate) fn elapsed(&self) -> Duration {
        *self.elapsed.lock()
    }
}
