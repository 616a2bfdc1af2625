//! The client session: every decision the reconnecting client makes, as
//! one pure state machine.
//!
//! [`crate::reconnect::ReconnectingClient`] sends, dials, replays the
//! session setup, sleeps and pings; [`Session`] says which to do next:
//! when to look at the socket before a call, when to re-dial, when to fail
//! fast, when to retry and after what pause, when to replay the setup,
//! when to ping and when to give a silent peer up. Each input carries the
//! time it happened, read from the driver's clock; nothing here reads a
//! clock, sleeps or touches a socket. A call's inputs carry its [`Call`];
//! the connection's (ticks, pongs, `bye`, the listener closing it) carry
//! their generation, and one from a replaced generation has no effect.
//!
//! **The breaker judges calls, not attempts.** It is consulted when a call
//! finds the connection dead. An admitted call runs its own ladder of
//! re-dials, bounded by its retries, the connection's retry budget and its
//! deadline, and reports one outcome: connection restored, or not. So a
//! call without retries is one dial, a retrying call cannot trip its own
//! breaker, and [`BREAKER_THRESHOLD`] calls in a row that could not
//! restore the connection open it. After [`BREAKER_COOLDOWN`] exactly one
//! call is admitted as the probe; every other call that finds the
//! connection dead meanwhile fails fast.

use std::time::{Duration, Instant};

use crate::client::CallError;
use crate::keepalive::KeepaliveConfig;
use crate::retry::BackoffSchedule;

/// How long a connection may sit unused before the next call looks at
/// the socket first. With no thread reading between calls, a daemon that
/// went away in the meantime is only found by looking: doing so before
/// sending lets *any* call — mutating ones too — move to a fresh
/// connection with nothing lost. In a tight loop of calls the look would
/// buy nothing (a peer that dies there fails the call in progress) and
/// cost a syscall per call; after this much quiet its cost is noise.
const LOOK_BEFORE_CALL_AFTER: Duration = Duration::from_millis(1);

/// The pause before a call's `n`th retry: 100 ms doubling to 5 s, plus
/// up to half again of jitter seeded per client, so clients re-dialing
/// one restarted daemon do not retry in lockstep.
pub(crate) const RETRY_BACKOFF: BackoffSchedule = BackoffSchedule {
    initial: Duration::from_millis(100),
    max: Duration::from_secs(5),
    multiplier: 2,
};

/// Retries one connection may take across all its calls, so a daemon that
/// flaps for long does not turn every caller into a retry storm.
pub(crate) const RETRY_BUDGET: u32 = 1000;

/// Calls in a row that could not restore the connection before the
/// breaker opens.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;

/// How long an open breaker fails calls fast before it admits a probe.
pub(crate) const BREAKER_COOLDOWN: Duration = Duration::from_secs(5);

/// What a session decides within: the product's constants, or a test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Bounds {
    /// Retries an idempotent call may take (a mutating call takes none).
    pub(crate) retries: u32,
    pub(crate) budget: u32,
    pub(crate) threshold: u32,
    pub(crate) cooldown: Duration,
    pub(crate) reconnect: bool,
    pub(crate) keepalive: Option<KeepaliveConfig>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Breaker {
    /// `failures` admitted calls in a row failed to restore the connection.
    Closed { failures: u32 },
    /// Calls that find the connection dead fail fast until `until`.
    Open { until: Instant },
    /// One call, the probe, is restoring the connection.
    Probing,
}

/// One call's part of the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Call {
    deadline: Option<Instant>,
    retries_left: u32,
    retries: u32,
    /// The generation the call last sent on.
    generation: u64,
    /// Admitted by the breaker, outcome not yet reported.
    admitted: bool,
    probe: bool,
    /// Has dialed: from then on each attempt is a retry.
    dialed: bool,
}

/// Whether a failed send ends the call. The daemon's answer — its error,
/// or a reply the reader rejected — is final, and a call that timed out
/// may still run: neither is retried. Only a lost connection goes back to
/// the session.
pub(crate) fn ends_call(error: &CallError) -> bool {
    matches!(
        error,
        CallError::Remote(_) | CallError::Protocol(_) | CallError::TimedOut
    )
}

/// What the driver does next for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Step {
    /// Send on the current generation, looking at the socket first if
    /// `look`, else checking only what is already known of it.
    Send {
        look: bool,
    },
    /// Another call is dialing: resume when it is done.
    Wait,
    /// Dial, then report with [`Session::dialed`].
    Dial,
    /// Replay the setup on this fresh generation, then [`Session::set_up`].
    Setup(u64),
    /// Sleep this long, then resume.
    Retry(Duration),
    Fail(Failure),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Failure {
    /// With the error the call has in hand.
    Last,
    Disconnected,
    CircuitOpen,
}

/// What a connection's listener does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Tick {
    /// Nothing to probe: wait for frames with no deadline.
    Idle,
    Wait(Instant),
    /// Send a ping now, then tick again.
    Ping,
    /// `count` pings went unanswered: close the connection.
    GiveUp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Probe {
    next_ping: Instant,
    unanswered: u32,
}

/// One client connection across its generations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Session {
    bounds: Bounds,
    seed: u64,
    generation: u64,
    /// The current generation is set up and not known to be dead.
    up: bool,
    /// A call is dialing or setting up a fresh generation.
    dialing: bool,
    shut: bool,
    breaker: Breaker,
    budget: u32,
    last_call: Instant,
    probe: Option<Probe>,
}

impl Session {
    /// A session, within the product's constants, whose first generation
    /// was connected and set up at `now`.
    pub(crate) fn new(
        retries: u32,
        reconnect: bool,
        keepalive: Option<KeepaliveConfig>,
        seed: u64,
        now: Instant,
    ) -> Session {
        let bounds = Bounds {
            retries,
            budget: RETRY_BUDGET,
            threshold: BREAKER_THRESHOLD,
            cooldown: BREAKER_COOLDOWN,
            reconnect,
            keepalive,
        };
        Session::start(bounds, seed, now)
    }

    fn start(bounds: Bounds, seed: u64, now: Instant) -> Session {
        let mut session = Session {
            bounds,
            seed,
            generation: 1,
            up: true,
            dialing: false,
            shut: false,
            breaker: Breaker::Closed { failures: 0 },
            budget: bounds.budget,
            last_call: now,
            probe: None,
        };
        session.start_probe(now);
        session
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn breaker(&self) -> Breaker {
        self.breaker
    }

    pub(crate) fn is_shut(&self) -> bool {
        self.shut
    }

    /// A call starts.
    pub(crate) fn begin(
        &mut self,
        idempotent: bool,
        deadline: Option<Instant>,
        now: Instant,
    ) -> (Call, Step) {
        let mut call = Call {
            deadline,
            retries_left: if idempotent { self.bounds.retries } else { 0 },
            retries: 0,
            generation: self.generation,
            admitted: false,
            probe: false,
            dialed: false,
        };
        let step = self.need_link(&mut call, now);
        (call, step)
    }

    /// The call is back from [`Step::Wait`] or [`Step::Retry`].
    pub(crate) fn resume(&mut self, call: &mut Call, now: Instant) -> Step {
        self.need_link(call, now)
    }

    /// The call's connection is gone: the look before sending found it
    /// dead (`sent` false: nothing went out, so the first time any call
    /// may move to a fresh connection), or it went away after the call
    /// was sent, when only an idempotent call may be sent again.
    pub(crate) fn lost(&mut self, call: &mut Call, sent: bool, now: Instant) -> Step {
        self.closed(call.generation);
        if sent || call.dialed {
            self.retry(call, now)
        } else {
            self.need_link(call, now)
        }
    }

    /// The call's dial connected (`ok`), or not.
    pub(crate) fn dialed(&mut self, call: &mut Call, ok: bool, now: Instant) -> Step {
        call.dialed = true;
        if !ok {
            self.dialing = false;
            return self.retry(call, now);
        }
        self.generation += 1;
        self.up = false;
        self.start_probe(now);
        Step::Setup(self.generation)
    }

    /// The setup of the call's fresh generation finished.
    pub(crate) fn set_up(
        &mut self,
        call: &mut Call,
        result: Result<(), &CallError>,
        now: Instant,
    ) -> Step {
        self.dialing = false;
        match result {
            Ok(()) if !self.shut => {
                self.up = true;
                self.report(call, true, now);
                call.generation = self.generation;
                // A connection this fresh needs no look.
                self.last_call = now;
                Step::Send { look: false }
            }
            Ok(()) => self.give_up(call, Failure::Disconnected, now),
            Err(error) => {
                self.probe = None;
                if ends_call(error) {
                    self.give_up(call, Failure::Last, now)
                } else {
                    self.retry(call, now)
                }
            }
        }
    }

    /// The client is closed for good.
    pub(crate) fn close(&mut self) {
        self.shut = true;
        self.up = false;
    }

    /// Generation `generation`'s listener is due to probe.
    pub(crate) fn tick(&mut self, generation: u64, now: Instant) -> Tick {
        let (Some(config), Some(probe)) = (self.bounds.keepalive, &mut self.probe) else {
            return Tick::Idle;
        };
        if generation != self.generation {
            return Tick::Idle;
        }
        if now < probe.next_ping {
            return Tick::Wait(probe.next_ping);
        }
        if probe.unanswered >= config.count {
            self.closed(generation);
            return Tick::GiveUp;
        }
        probe.unanswered += 1;
        probe.next_ping = now + config.interval;
        Tick::Ping
    }

    /// A pong arrived on generation `generation`: its peer is alive.
    pub(crate) fn pong(&mut self, generation: u64) {
        match &mut self.probe {
            Some(probe) if generation == self.generation => probe.unanswered = 0,
            _ => {}
        }
    }

    /// The peer of generation `generation` announced a clean shutdown:
    /// its connection is going away, so the next call re-dials before it
    /// sends anything.
    pub(crate) fn bye(&mut self, generation: u64) {
        self.closed(generation);
    }

    /// Generation `generation`'s connection is gone.
    pub(crate) fn closed(&mut self, generation: u64) {
        if generation == self.generation {
            self.up = false;
            self.probe = None;
        }
    }

    fn start_probe(&mut self, now: Instant) {
        self.probe = self.bounds.keepalive.map(|config| Probe {
            next_ping: now + config.interval,
            unanswered: 0,
        });
    }

    /// The call needs a live connection: send on it, or restore it.
    fn need_link(&mut self, call: &mut Call, now: Instant) -> Step {
        if self.shut {
            return self.give_up(call, Failure::Disconnected, now);
        }
        if self.up {
            if call.admitted {
                self.report(call, true, now);
            }
            call.generation = self.generation;
            let quiet = now.saturating_duration_since(self.last_call);
            self.last_call = now;
            return Step::Send {
                look: quiet > LOOK_BEFORE_CALL_AFTER,
            };
        }
        if !self.bounds.reconnect {
            return Step::Fail(Failure::Disconnected);
        }
        if self.dialing {
            return Step::Wait;
        }
        if !call.admitted {
            match self.breaker {
                Breaker::Closed { .. } => {}
                Breaker::Open { until } if now >= until => {
                    self.breaker = Breaker::Probing;
                    call.probe = true;
                }
                Breaker::Open { .. } | Breaker::Probing => return Step::Fail(Failure::CircuitOpen),
            }
            call.admitted = true;
        }
        self.dialing = true;
        Step::Dial
    }

    /// The call's attempt failed: another after a pause, if the call has
    /// a retry left, the connection has budget left, and the pause ends
    /// before the call's deadline.
    fn retry(&mut self, call: &mut Call, now: Instant) -> Step {
        if self.shut {
            return self.give_up(call, Failure::Disconnected, now);
        }
        let pause = RETRY_BACKOFF.delay(call.retries + 1, self.seed);
        if call.retries_left == 0
            || self.budget == 0
            || call
                .deadline
                .is_some_and(|deadline| now + pause >= deadline)
        {
            return self.give_up(call, Failure::Last, now);
        }
        call.retries_left -= 1;
        call.retries += 1;
        self.budget -= 1;
        Step::Retry(pause)
    }

    fn give_up(&mut self, call: &mut Call, why: Failure, now: Instant) -> Step {
        if call.admitted {
            self.report(call, false, now);
        }
        Step::Fail(why)
    }

    /// An admitted call's one outcome: the connection restored, or not.
    fn report(&mut self, call: &mut Call, restored: bool, now: Instant) {
        call.admitted = false;
        let probe = std::mem::take(&mut call.probe);
        let open = Breaker::Open {
            until: now + self.bounds.cooldown,
        };
        self.breaker = match self.breaker {
            _ if restored => Breaker::Closed { failures: 0 },
            Breaker::Probing if !probe => Breaker::Probing,
            Breaker::Closed { failures } if failures + 1 < self.bounds.threshold => {
                Breaker::Closed {
                    failures: failures + 1,
                }
            }
            _ => open,
        };
    }
}

#[cfg(test)]
impl Session {
    /// A session within `bounds` instead of the product's constants.
    pub(crate) fn with_bounds(bounds: Bounds, seed: u64, now: Instant) -> Session {
        Session::start(bounds, seed, now)
    }
}

#[cfg(test)]
mod tests {
    //! Every order of inputs, not a sample of them.
    //!
    //! The model runs the real [`Session`] under a scheduler that may pick
    //! any enabled step next. Up to three calls, each idempotent or
    //! mutating, with or without a deadline, run the driver's loop one
    //! input at a time: the look before a send finds the connection alive
    //! or dead; a send ends in an answer (a reply, the daemon's error, a
    //! reply that does not read), a time-out or a lost connection; a dial
    //! connects or is refused; a setup succeeds, loses its connection or
    //! is refused by the daemon; a retry sleeps its pause. Between any two
    //! steps the peer may die, the listener may close the connection, the
    //! breaker's cool-down may pass and the client may be closed — each as
    //! often as the scenario allows. The search visits every reachable
    //! state once and checks the rules in each. The keepalive rules are
    //! checked over every pattern of answered and unanswered pings.

    use super::*;
    use crate::message::RpcError;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};

    /// The bounds the explorer runs the session within: small enough to
    /// reach every limit.
    const BOUNDS: Bounds = Bounds {
        retries: 2,
        budget: 3,
        threshold: 2,
        cooldown: Duration::from_secs(1),
        reconnect: true,
        keepalive: None,
    };

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Kind {
        idempotent: bool,
        /// Deadline after the start of time, if any.
        deadline: Option<Duration>,
    }

    const IDEMPOTENT: Kind = Kind {
        idempotent: true,
        deadline: None,
    };
    /// Its deadline cuts its ladder short: 100 ms, then 200 ms > 250 ms.
    const HURRIED: Kind = Kind {
        idempotent: true,
        deadline: Some(Duration::from_millis(250)),
    };
    const MUTATING: Kind = Kind {
        idempotent: false,
        deadline: None,
    };

    /// What the world may do besides answering the calls.
    #[derive(Debug, Clone, Copy)]
    struct Scenario {
        kinds: &'static [Kind],
        /// Calls in a row that open the breaker.
        threshold: u32,
        /// Peer deaths and listener closes, together.
        kills: u32,
        /// Whether a setup may fail.
        setup_fails: bool,
        /// Whether a send may time out (besides being answered or lost).
        time_outs: bool,
        /// Whether the breaker's cool-down may pass.
        cooldown: bool,
        /// Whether the client may be closed.
        close: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Phase {
        NotStarted,
        /// The driver holds this step for the call.
        At(Call, Step),
        /// Sent on the connection; no outcome yet.
        Sending(Call),
        Done,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    struct Record {
        /// Lost a connection after sending.
        lost_after_send: bool,
        /// Answered, or timed out.
        ended: bool,
        dials: u32,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        session: Session,
        now: Instant,
        phases: Vec<Phase>,
        records: Vec<Record>,
        /// Generations whose connection is dead in the world.
        dead: u64,
        /// Generations an input has reported dead to the session.
        reported: u64,
        /// Generations set up successfully.
        set_up: u64,
        /// The newest generation a setup was asked for.
        newest: u64,
        retries: u32,
        /// Calls the breaker admitted since it last went half-open.
        probes: u32,
        kills: u32,
        cooled: bool,
        closed: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Env {
        Begin,
        LookFindsDead,
        Send,
        Answered,
        TimedOut,
        LostAfterSend,
        Resume,
        DialOk,
        DialRefused,
        SetupOk,
        SetupLost,
        SetupRefused,
    }

    #[derive(Debug, Clone, Copy)]
    enum Move {
        Call(usize, Env),
        Kill,
        ListenerCloses,
        Bye,
        Cooldown,
        Close,
    }

    fn bit(generation: u64) -> u64 {
        1 << generation
    }

    /// The error a failed send or setup reports to the driver.
    fn outcome(env: Env) -> CallError {
        match env {
            Env::Answered | Env::SetupRefused => CallError::Remote(RpcError::new(1, "refused")),
            Env::TimedOut => CallError::TimedOut,
            _ => CallError::Disconnected,
        }
    }

    impl World {
        fn new(scenario: &Scenario, t0: Instant) -> World {
            let bounds = Bounds {
                threshold: scenario.threshold,
                ..BOUNDS
            };
            let calls = scenario.kinds.len();
            World {
                session: Session::with_bounds(bounds, 7, t0),
                now: t0,
                phases: vec![Phase::NotStarted; calls],
                records: vec![Record::default(); calls],
                dead: 0,
                reported: 0,
                set_up: bit(1),
                newest: 1,
                retries: 0,
                probes: 0,
                kills: 0,
                cooled: false,
                closed: false,
            }
        }

        fn alive(&self, generation: u64) -> bool {
            self.dead & bit(generation) == 0
        }

        fn moves(&self, scenario: &Scenario) -> Vec<Move> {
            let mut moves = Vec::new();
            for (i, phase) in self.phases.iter().enumerate() {
                let mut envs = match *phase {
                    Phase::NotStarted => vec![Env::Begin],
                    // A look finds what the world did; without one, the
                    // death may not have been seen yet.
                    Phase::At(call, Step::Send { .. }) if self.alive(call.generation) => {
                        vec![Env::Send]
                    }
                    Phase::At(_, Step::Send { look: true }) => vec![Env::LookFindsDead],
                    Phase::At(_, Step::Send { look: false }) => {
                        vec![Env::LookFindsDead, Env::Send]
                    }
                    Phase::Sending(call) if self.alive(call.generation) => {
                        vec![Env::Answered, Env::TimedOut, Env::LostAfterSend]
                    }
                    Phase::Sending(_) => vec![Env::LostAfterSend],
                    // Woken when the dial ends.
                    Phase::At(_, Step::Wait) if self.session.dialing => vec![],
                    Phase::At(_, Step::Wait | Step::Retry(_)) => vec![Env::Resume],
                    Phase::At(_, Step::Dial) => vec![Env::DialOk, Env::DialRefused],
                    Phase::At(_, Step::Setup(_)) => {
                        vec![Env::SetupOk, Env::SetupLost, Env::SetupRefused]
                    }
                    Phase::At(_, Step::Fail(_)) | Phase::Done => vec![],
                };
                envs.retain(|env| match env {
                    Env::TimedOut => scenario.time_outs,
                    Env::SetupLost | Env::SetupRefused => scenario.setup_fails,
                    _ => true,
                });
                moves.extend(envs.into_iter().map(|env| Move::Call(i, env)));
            }
            let busy = self
                .phases
                .iter()
                .any(|p| !matches!(p, Phase::Done | Phase::At(_, Step::Fail(_))));
            let current = self.session.generation;
            if self.kills < scenario.kills && self.set_up & bit(current) != 0 && self.alive(current)
            {
                moves.push(Move::Kill);
                moves.push(Move::ListenerCloses);
                moves.push(Move::Bye);
            }
            if scenario.cooldown
                && !self.cooled
                && matches!(self.session.breaker, Breaker::Open { .. })
            {
                moves.push(Move::Cooldown);
            }
            if scenario.close && !self.closed && busy {
                moves.push(Move::Close);
            }
            moves
        }

        fn apply(&mut self, mv: Move, scenario: &Scenario, t0: Instant) {
            match mv {
                Move::Kill => {
                    self.kills += 1;
                    self.dead |= bit(self.session.generation);
                }
                Move::ListenerCloses | Move::Bye => {
                    self.kills += 1;
                    let generation = self.session.generation;
                    self.dead |= bit(generation);
                    self.reported |= bit(generation);
                    if let Move::Bye = mv {
                        self.session.bye(generation);
                    } else {
                        self.session.closed(generation);
                    }
                }
                Move::Cooldown => {
                    self.cooled = true;
                    self.now += BOUNDS.cooldown;
                }
                Move::Close => {
                    self.closed = true;
                    self.session.close();
                }
                Move::Call(i, env) => self.step_call(i, env, scenario.kinds[i], t0),
            }
        }

        fn step_call(&mut self, i: usize, env: Env, kind: Kind, t0: Instant) {
            let now = self.now;
            let was_admitted = matches!(self.phases[i], Phase::At(call, _) if call.admitted);
            let (call, step) = match (self.phases[i], env) {
                (Phase::NotStarted, _) => {
                    let deadline = kind.deadline.map(|d| t0 + d);
                    self.session.begin(kind.idempotent, deadline, now)
                }
                (Phase::At(mut call, _), Env::LookFindsDead) => {
                    self.reported |= bit(call.generation);
                    let step = self.session.lost(&mut call, false, now);
                    (call, step)
                }
                (Phase::At(call, _), Env::Send) => {
                    let record = &self.records[i];
                    assert!(
                        kind.idempotent || !record.lost_after_send,
                        "a mutating call was sent again after a loss after sending"
                    );
                    assert!(!record.ended, "a call was sent again after its answer");
                    assert!(
                        self.set_up & bit(call.generation) != 0,
                        "sent on generation {} before its setup succeeded",
                        call.generation
                    );
                    self.phases[i] = Phase::Sending(call);
                    return;
                }
                (Phase::Sending(mut call), _) => {
                    let error = outcome(env);
                    if env == Env::LostAfterSend {
                        self.dead |= bit(call.generation);
                        self.records[i].lost_after_send = true;
                    } else {
                        self.records[i].ended = true;
                    }
                    if ends_call(&error) {
                        self.phases[i] = Phase::Done;
                        return;
                    }
                    self.reported |= bit(call.generation);
                    let step = self.session.lost(&mut call, true, now);
                    (call, step)
                }
                (Phase::At(mut call, last), Env::Resume) => {
                    if let Step::Retry(pause) = last {
                        self.now += pause;
                    }
                    let step = self.session.resume(&mut call, self.now);
                    (call, step)
                }
                (Phase::At(mut call, _), Env::DialOk | Env::DialRefused) => {
                    self.records[i].dials += 1;
                    let step = self.session.dialed(&mut call, env == Env::DialOk, now);
                    (call, step)
                }
                (Phase::At(mut call, Step::Setup(generation)), _) => {
                    let error = outcome(env);
                    let result = match env {
                        Env::SetupOk => Ok(()),
                        _ => Err(&error),
                    };
                    if result.is_ok() {
                        self.set_up |= bit(generation);
                    } else {
                        self.dead |= bit(generation);
                        self.reported |= bit(generation);
                    }
                    let step = self.session.set_up(&mut call, result, now);
                    (call, step)
                }
                (phase, env) => unreachable!("{env:?} in {phase:?}"),
            };
            if self.session.breaker != Breaker::Probing {
                self.probes = 0;
            } else if call.admitted && !was_admitted {
                self.probes += 1;
                assert_eq!(self.probes, 1, "a half-open breaker admitted a second call");
            }
            self.decided(i, kind, &call, step);
            self.phases[i] = match step {
                Step::Fail(_) => Phase::Done,
                _ => Phase::At(call, step),
            };
        }

        /// Checks a step the session just decided for call `i`.
        fn decided(&mut self, i: usize, kind: Kind, call: &Call, step: Step) {
            match step {
                Step::Setup(generation) => {
                    assert_eq!(
                        generation,
                        self.newest + 1,
                        "a setup for a generation other than the next"
                    );
                    self.newest = generation;
                }
                Step::Retry(pause) => {
                    self.retries += 1;
                    assert!(kind.idempotent, "a mutating call was retried");
                    assert!(call.retries <= BOUNDS.retries, "over the call's retries");
                    assert!(
                        self.retries <= BOUNDS.budget,
                        "over the connection's budget"
                    );
                    if let Some(deadline) = call.deadline {
                        assert!(self.now + pause < deadline, "a retry past the deadline");
                    }
                }
                Step::Fail(Failure::CircuitOpen) => {
                    let open = match self.session.breaker {
                        Breaker::Open { until } => self.now < until,
                        Breaker::Probing => true,
                        Breaker::Closed { .. } => false,
                    };
                    assert!(
                        open,
                        "failed fast with the breaker {:?}",
                        self.session.breaker
                    );
                }
                _ => {}
            }
            assert!(
                self.records[i].dials <= call.retries + 1,
                "a call dialed more often than its retries allow"
            );
        }

        /// The rules, checked in every reachable state.
        fn check(&self) {
            let probes = self
                .phases
                .iter()
                .filter(|p| matches!(p, Phase::At(call, _) | Phase::Sending(call) if call.probe))
                .count();
            assert!(probes <= 1, "{probes} half-open probes out");
            if self.session.breaker == Breaker::Probing {
                assert_eq!(probes, 1, "half-open with no probe out");
            }
            assert_eq!(
                self.session.budget + self.retries,
                BOUNDS.budget,
                "the budget does not match the retries taken"
            );
            let current = self.session.generation;
            if !self.session.up && !self.session.dialing && !self.session.shut {
                assert!(
                    self.reported & bit(current) != 0,
                    "generation {current} believed dead, and nothing from it said so"
                );
            }
        }
    }

    /// Walks every state `scenario` reaches and returns how many. A state
    /// is remembered by its 64-bit hash, which keeps the walk's memory
    /// small; at a few hundred thousand states a collision is a one in
    /// 10^8 chance.
    fn explore(scenario: &Scenario) -> usize {
        let t0 = Instant::now();
        let mut seen = HashSet::new();
        let mut stack = vec![World::new(scenario, t0)];
        while let Some(world) = stack.pop() {
            let mut hasher = DefaultHasher::new();
            world.hash(&mut hasher);
            if !seen.insert(hasher.finish()) {
                continue;
            }
            world.check();
            for mv in world.moves(scenario) {
                let mut next = world.clone();
                next.apply(mv, scenario, t0);
                stack.push(next);
            }
        }
        seen.len()
    }

    #[test]
    fn every_order_of_calls_keeps_the_rules() {
        let all = Scenario {
            kinds: &[],
            threshold: 2,
            kills: 2,
            setup_fails: true,
            time_outs: true,
            cooldown: true,
            close: true,
        };
        let scenarios = [
            Scenario {
                kinds: &[IDEMPOTENT],
                ..all
            },
            Scenario {
                kinds: &[MUTATING],
                ..all
            },
            Scenario {
                kinds: &[HURRIED],
                ..all
            },
            Scenario {
                kinds: &[IDEMPOTENT, MUTATING],
                kills: 1,
                ..all
            },
            Scenario {
                kinds: &[IDEMPOTENT, IDEMPOTENT],
                kills: 1,
                ..all
            },
            Scenario {
                kinds: &[IDEMPOTENT, HURRIED, MUTATING],
                kills: 1,
                setup_fails: false,
                time_outs: false,
                cooldown: false,
                close: false,
                ..all
            },
            // One failed call opens the breaker; after its cool-down the
            // other two find the connection dead together, one of them
            // the probe sleeping out its retry.
            Scenario {
                kinds: &[MUTATING, IDEMPOTENT, MUTATING],
                threshold: 1,
                kills: 1,
                setup_fails: false,
                time_outs: false,
                close: false,
                ..all
            },
        ];
        let states: Vec<usize> = scenarios.iter().map(explore).collect();
        // The walk reached the corners it is meant to: a run that stops
        // early explores far fewer.
        assert!(states.iter().all(|&n| n > 50), "{states:?}");
        assert!(states.iter().sum::<usize>() > 400_000, "{states:?}");
    }

    /// Every pattern of answered and unanswered pings over the first
    /// `PINGS`, answered ever after, with and without pongs and ticks
    /// from an older generation mixed in: the peer is given up exactly
    /// when `count` pings in a row went unanswered and one more interval
    /// passed, and a peer that answered one of its last `count` pings
    /// never is.
    #[test]
    fn keepalive_drops_a_silent_peer_and_keeps_an_answering_one() {
        const PINGS: u32 = 6;
        let interval = Duration::from_millis(10);
        let t0 = Instant::now();
        for count in 1..=3 {
            let bounds = Bounds {
                keepalive: Some(KeepaliveConfig { interval, count }),
                ..BOUNDS
            };
            for pattern in 0..1u32 << PINGS {
                for stale in [false, true] {
                    let mut session = Session::with_bounds(bounds, 7, t0);
                    let mut now = t0;
                    let mut misses = 0;
                    for ping in 0..PINGS + count + 1 {
                        let Tick::Wait(at) = session.tick(1, now) else {
                            panic!("no wait between pings");
                        };
                        assert_eq!(at, now + interval, "pings an interval apart");
                        now = at;
                        if stale {
                            assert_eq!(session.tick(0, now), Tick::Idle);
                            session.pong(0);
                        }
                        let tick = session.tick(1, now);
                        if misses == count {
                            assert_eq!(tick, Tick::GiveUp, "a silent peer was kept");
                            assert_eq!(session.tick(1, now), Tick::Idle);
                            assert!(!session.up);
                            break;
                        }
                        assert_eq!(tick, Tick::Ping, "an answering peer was given up");
                        if ping >= PINGS || pattern & 1 << ping != 0 {
                            session.pong(1);
                            misses = 0;
                        } else {
                            misses += 1;
                        }
                    }
                }
            }
        }
    }
}
