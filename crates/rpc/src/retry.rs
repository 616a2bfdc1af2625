//! The one backoff formula: capped exponential growth with seeded,
//! deterministic jitter. The client's retry ladder, the guard engine's
//! restarts and the fleet's deferred reconciliation all draw from it.

use std::time::Duration;

use crate::fnv1a;
use crate::transport::xorshift64;

/// Capped exponential growth with deterministic, seed-mixed jitter — the
/// backoff shape shared by the client's retries, the guard engine's
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

#[cfg(test)]
mod tests {
    //! The client's retry ladder and breaker are the session's
    //! (`session.rs`); the tests of their shape stay here beside the
    //! formula they draw from.

    use super::*;
    use crate::session::{
        Bounds, Breaker, Failure, Session, Step, BREAKER_COOLDOWN, BREAKER_THRESHOLD, RETRY_BACKOFF,
    };
    use std::time::Instant;

    /// A session whose connection is dead, within the product's bounds
    /// but for the per-call `retries`.
    fn dead_session(retries: u32, now: Instant) -> Session {
        let mut session = Session::new(retries, true, None, 7, now);
        session.closed(1);
        session
    }

    /// One call that finds the connection dead and whose dials all fail:
    /// the pauses it is told to take, and how it ends.
    fn failing_call(session: &mut Session, now: &mut Instant) -> (Vec<Duration>, Step) {
        let (mut call, mut step) = session.begin(true, None, *now);
        let mut pauses = Vec::new();
        loop {
            step = match step {
                Step::Dial => session.dialed(&mut call, false, *now),
                Step::Retry(pause) => {
                    pauses.push(pause);
                    *now += pause;
                    session.resume(&mut call, *now)
                }
                other => return (pauses, other),
            };
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut now = Instant::now();
        let mut session = dead_session(9, now);
        let (pauses, end) = failing_call(&mut session, &mut now);
        assert_eq!(end, Step::Fail(Failure::Last));
        assert_eq!(pauses.len(), 9);
        for (n, pause) in (1..).zip(&pauses) {
            let base = RETRY_BACKOFF.base(n);
            assert!(
                *pause >= base && *pause <= base + base / 2,
                "{n}: {pause:?}"
            );
        }
        assert_eq!(RETRY_BACKOFF.base(1), Duration::from_millis(100));
        assert_eq!(RETRY_BACKOFF.base(2), Duration::from_millis(200));
        assert_eq!(RETRY_BACKOFF.base(9), Duration::from_secs(5), "capped");
    }

    #[test]
    fn backoff_jitter_is_deterministic() {
        // The same client seed walks the same ladder...
        let ladder = |seed| {
            (1..8)
                .map(|n| RETRY_BACKOFF.delay(n, seed))
                .collect::<Vec<_>>()
        };
        assert_eq!(ladder(7), ladder(7));
        // ...and two clients retrying in lockstep spread apart.
        assert_ne!(ladder(7), ladder(8));
        let mut now = Instant::now();
        let mut session = dead_session(7, now);
        let (pauses, _) = failing_call(&mut session, &mut now);
        assert_eq!(pauses, ladder(7));
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
        for attempt in 1..8 {
            assert!(RETRY_BACKOFF.delay(attempt, 7) >= RETRY_BACKOFF.base(attempt));
        }
    }

    #[test]
    fn none_policy_never_pauses() {
        let mut now = Instant::now();
        let mut session = dead_session(0, now);
        let (pauses, end) = failing_call(&mut session, &mut now);
        assert!(pauses.is_empty());
        assert_eq!(end, Step::Fail(Failure::Last));
    }

    #[test]
    fn breaker_opens_after_threshold_and_fails_fast() {
        let mut now = Instant::now();
        let mut session = dead_session(0, now);
        for _ in 0..BREAKER_THRESHOLD - 1 {
            failing_call(&mut session, &mut now);
            assert!(matches!(session.breaker(), Breaker::Closed { .. }));
        }
        failing_call(&mut session, &mut now);
        assert!(
            matches!(session.breaker(), Breaker::Open { .. }),
            "the threshold's call trips the breaker"
        );
        now += BREAKER_COOLDOWN / 2;
        let (_, step) = session.begin(true, None, now);
        assert_eq!(step, Step::Fail(Failure::CircuitOpen));
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_closes_on_success() {
        let mut now = Instant::now();
        let mut session = dead_session(0, now);
        for _ in 0..BREAKER_THRESHOLD {
            failing_call(&mut session, &mut now);
        }
        now += BREAKER_COOLDOWN;
        let (mut probe, step) = session.begin(true, None, now);
        assert_eq!(step, Step::Dial, "cool-down expired: probe allowed");
        assert_eq!(session.breaker(), Breaker::Probing);
        let Step::Setup(generation) = session.dialed(&mut probe, true, now) else {
            panic!("a connected dial is set up");
        };
        assert_eq!(generation, 2);
        assert_eq!(
            session.set_up(&mut probe, Ok(()), now),
            Step::Send { look: false }
        );
        assert_eq!(session.breaker(), Breaker::Closed { failures: 0 });
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let mut now = Instant::now();
        let mut session = dead_session(0, now);
        for _ in 0..BREAKER_THRESHOLD {
            failing_call(&mut session, &mut now);
        }
        now += BREAKER_COOLDOWN;
        let (_, end) = failing_call(&mut session, &mut now);
        assert_eq!(end, Step::Fail(Failure::Last));
        assert!(
            matches!(session.breaker(), Breaker::Open { .. }),
            "single probe failure reopens"
        );
        let (_, step) = session.begin(true, None, now + BREAKER_COOLDOWN / 2);
        assert_eq!(step, Step::Fail(Failure::CircuitOpen));
    }

    #[test]
    fn transitions_are_counted() {
        // What the driver counts: moves to open and to closed; the move to
        // half-open (probing) is not one of them.
        let mut now = Instant::now();
        let mut session = Session::with_bounds(
            Bounds {
                retries: 0,
                budget: 0,
                threshold: 1,
                cooldown: Duration::from_millis(100),
                reconnect: true,
                keepalive: None,
            },
            7,
            now,
        );
        session.closed(1);
        let mut phases = vec![session.breaker()];
        failing_call(&mut session, &mut now); // closed -> open
        phases.push(session.breaker());
        now += Duration::from_millis(200);
        let (mut probe, _) = session.begin(true, None, now); // open -> probing
        phases.push(session.breaker());
        session.dialed(&mut probe, true, now);
        session.set_up(&mut probe, Ok(()), now); // probing -> closed
        phases.push(session.breaker());
        let kinds: Vec<&str> = phases
            .iter()
            .map(|phase| match phase {
                Breaker::Closed { .. } => "closed",
                Breaker::Open { .. } => "open",
                Breaker::Probing => "probing",
            })
            .collect();
        assert_eq!(kinds, ["closed", "open", "probing", "closed"]);
    }
}
