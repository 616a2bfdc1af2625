//! Retry and circuit-breaker policy: pure state machines.
//!
//! A [`RetryPolicy`] bounds how often an idempotent call may be re-issued
//! after a connection-level failure — capped exponential backoff with
//! deterministic jitter (sourced from the attempt counter, so schedules
//! are reproducible), plus a connection-wide retry budget. A
//! [`CircuitBreaker`] protects the re-dial path: after a run of
//! consecutive connect failures it opens and callers fail fast for a
//! cool-down instead of queueing behind doomed dials.
//!
//! Both types are deliberately free of threads and clocks: callers pass
//! `Instant`s in, which keeps every transition unit-testable.

use std::time::{Duration, Instant};

use crate::fnv1a;
use crate::transport::xorshift64;

/// Capped exponential growth with deterministic, seed-mixed jitter — the
/// backoff shape shared by the retry policy, the guard engine's
/// crash-loop containment, and the fleet's deferred-reconciliation
/// queue.
///
/// The seed matters: jitter derived from the attempt counter *alone*
/// synchronizes every actor retrying in lockstep (fifty guarded domains
/// crashed by the same storm would all restart at the same instant —
/// a thundering herd). Mixing a per-actor seed (hash of the domain
/// name, say) into the jitter spreads simultaneous retries across up to
/// half the base interval while staying fully reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffSchedule {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Upper bound on the un-jittered delay.
    pub max: Duration,
    /// Growth factor applied per retry.
    pub multiplier: u32,
}

impl Default for BackoffSchedule {
    fn default() -> Self {
        BackoffSchedule {
            initial: Duration::from_millis(200),
            max: Duration::from_secs(5),
            multiplier: 2,
        }
    }
}

impl BackoffSchedule {
    /// The un-jittered delay before retry `attempt` (1-based): capped
    /// exponential growth.
    pub fn base(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let grown = self
            .initial
            .as_nanos()
            .saturating_mul((self.multiplier.max(1) as u128).saturating_pow(exp));
        Duration::from_nanos(grown.min(self.max.as_nanos()) as u64)
    }

    /// The delay before retry `attempt` for the actor identified by
    /// `seed`: [`BackoffSchedule::base`] plus up to 50% deterministic
    /// jitter mixed from both the seed and the attempt. Same inputs,
    /// same delay — schedules are reproducible — while distinct seeds
    /// de-synchronize actors retrying in lockstep.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.base(attempt).as_nanos() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let jitter = xorshift64(seed ^ (u64::from(attempt) + 1)) % (base / 2 + 1);
        Duration::from_nanos(base + jitter)
    }

    /// A stable per-actor jitter seed: FNV-1a over the name.
    pub fn seed_for(name: &str) -> u64 {
        // xorshift64 maps 0 to 0; keep the seed non-degenerate.
        fnv1a(name.as_bytes()) | 1
    }
}

/// How failed idempotent calls are retried.
///
/// `backoff(1)` is slept before the first retry, `backoff(2)` before the
/// second, and so on: capped exponential growth plus up to 25%
/// deterministic jitter derived from the attempt number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Upper bound on any single backoff (before jitter).
    pub max_backoff: Duration,
    /// Growth factor applied per retry.
    pub multiplier: u32,
    /// Total retries the whole connection may spend, across all calls.
    /// Guards against retry storms when a daemon flaps for a long time.
    pub retry_budget: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            multiplier: 2,
            retry_budget: 1000,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            multiplier: 1,
            retry_budget: 0,
        }
    }

    /// The growth shape of this policy as a [`BackoffSchedule`].
    pub fn schedule(&self) -> BackoffSchedule {
        BackoffSchedule {
            initial: self.initial_backoff,
            max: self.max_backoff,
            multiplier: self.multiplier,
        }
    }

    /// The pause before retry number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.schedule().base(attempt).as_nanos() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        // Deterministic jitter: the attempt counter seeds a xorshift, so
        // two runs of the same schedule produce identical pauses. A
        // single connection retries one call at a time, so unlike the
        // guard engine it needs no per-actor seed — 25% of base keeps
        // the worst-case pause tight.
        let jitter = xorshift64(u64::from(attempt) + 1) % (base / 4 + 1);
        Duration::from_nanos(base + jitter)
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects attempts before letting one
    /// probe through (half-open).
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// The observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Attempts flow normally.
    Closed,
    /// Attempts are rejected until the cool-down expires.
    Open,
    /// One probe attempt is allowed; its outcome decides the next state.
    HalfOpen,
}

/// The breaker state machine. Callers ask [`CircuitBreaker::check`]
/// before each attempt and report the outcome with
/// [`CircuitBreaker::on_success`] / [`CircuitBreaker::on_failure`].
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: Option<Instant>,
    transitions: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: None,
            transitions: 0,
        }
    }

    /// Whether an attempt may proceed at `now`. An expired cool-down
    /// moves the breaker to half-open and admits one probe.
    pub fn check(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.open_until.is_some_and(|until| now >= until) {
                    self.state = BreakerState::HalfOpen;
                    self.transitions += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful attempt. Returns `true` when the state
    /// changed (half-open/open back to closed).
    pub(crate) fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        self.open_until = None;
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            self.transitions += 1;
            return true;
        }
        false
    }

    /// Records a failed attempt at `now`. Returns `true` when the
    /// breaker opened.
    pub(crate) fn on_failure(&mut self, now: Instant) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trip = self.state == BreakerState::HalfOpen
            || self.consecutive_failures >= self.config.failure_threshold;
        if trip && self.state != BreakerState::Open {
            self.state = BreakerState::Open;
            self.open_until = Some(now + self.config.cooldown);
            self.transitions += 1;
            return true;
        }
        if trip {
            // Already open; push the cool-down out.
            self.open_until = Some(now + self.config.cooldown);
        }
        false
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Total state transitions so far (for metrics).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            multiplier: 2,
            retry_budget: 100,
        };
        let b1 = policy.backoff(1);
        let b2 = policy.backoff(2);
        let b4 = policy.backoff(4);
        let b9 = policy.backoff(9);
        assert!(b1 >= Duration::from_millis(10) && b1 < Duration::from_millis(13));
        assert!(b2 >= Duration::from_millis(20) && b2 < Duration::from_millis(26));
        assert!(b4 >= Duration::from_millis(80), "{b4:?}");
        // Capped: base 80 ms, jitter < 20 ms.
        assert!(b9 < Duration::from_millis(101), "{b9:?}");
    }

    #[test]
    fn backoff_jitter_is_deterministic() {
        let policy = RetryPolicy::default();
        for attempt in 1..8 {
            assert_eq!(policy.backoff(attempt), policy.backoff(attempt));
        }
        // ...but differs across attempts at the same base.
        let flat = RetryPolicy {
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        assert_ne!(flat.backoff(5), flat.backoff(6));
    }

    #[test]
    fn schedule_grows_caps_and_spreads_by_seed() {
        let schedule = BackoffSchedule {
            initial: Duration::from_millis(10),
            max: Duration::from_millis(80),
            multiplier: 2,
        };
        assert_eq!(schedule.base(1), Duration::from_millis(10));
        assert_eq!(schedule.base(2), Duration::from_millis(20));
        assert_eq!(schedule.base(4), Duration::from_millis(80));
        assert_eq!(schedule.base(9), Duration::from_millis(80), "capped");

        // Deterministic: same (attempt, seed) -> same delay; bounded by
        // base + 50%.
        let seed = BackoffSchedule::seed_for("vm-7");
        for attempt in 1..6 {
            let d = schedule.delay(attempt, seed);
            assert_eq!(d, schedule.delay(attempt, seed));
            let base = schedule.base(attempt);
            assert!(d >= base && d <= base + base / 2 + Duration::from_nanos(1));
        }

        // The herd-breaking property: fifty actors retrying the same
        // attempt simultaneously land on many distinct delays.
        let delays: std::collections::HashSet<Duration> = (0..50)
            .map(|i| schedule.delay(1, BackoffSchedule::seed_for(&format!("storm-{i}"))))
            .collect();
        assert!(delays.len() >= 40, "only {} distinct delays", delays.len());
    }

    #[test]
    fn policy_schedule_matches_policy_growth() {
        let policy = RetryPolicy::default();
        for attempt in 1..8 {
            // The jitter shapes differ, but the base growth is shared.
            assert!(policy.backoff(attempt) >= policy.schedule().base(attempt));
        }
    }

    #[test]
    fn none_policy_never_pauses() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.max_attempts, 1);
        assert_eq!(policy.backoff(1), Duration::ZERO);
        assert_eq!(policy.backoff(7), Duration::ZERO);
    }

    #[test]
    fn breaker_opens_after_threshold_and_fails_fast() {
        let t0 = Instant::now();
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(10),
        });
        for _ in 0..2 {
            assert!(breaker.check(t0));
            assert!(!breaker.on_failure(t0));
        }
        assert!(breaker.check(t0));
        assert!(breaker.on_failure(t0), "third failure trips the breaker");
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.check(t0 + Duration::from_secs(5)));
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_closes_on_success() {
        let t0 = Instant::now();
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(1),
        });
        breaker.on_failure(t0);
        assert_eq!(breaker.state(), BreakerState::Open);
        let later = t0 + Duration::from_secs(2);
        assert!(breaker.check(later), "cool-down expired: probe allowed");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.on_success());
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let t0 = Instant::now();
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(1),
        });
        breaker.on_failure(t0);
        breaker.on_failure(t0);
        let later = t0 + Duration::from_secs(2);
        assert!(breaker.check(later));
        assert!(breaker.on_failure(later), "single probe failure reopens");
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.check(later + Duration::from_millis(500)));
    }

    #[test]
    fn transitions_are_counted() {
        let t0 = Instant::now();
        let mut breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(100),
        });
        breaker.on_failure(t0); // closed -> open
        breaker.check(t0 + Duration::from_millis(200)); // open -> half-open
        breaker.on_success(); // half-open -> closed
        assert_eq!(breaker.transitions(), 3);
    }
}
