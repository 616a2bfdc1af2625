//! Every guard decision, made in one pure machine.
//!
//! [`Machine`] owns the per-domain guard table and turns one input at a
//! time — arming, clearing, a lifecycle event, the clock reaching a
//! deadline, an action's outcome — into the action to run and the counter
//! to bump. It reads no clock, takes no lock and calls no driver: the
//! engine (`guard.rs`) passes `now` in, runs what comes back with no lock
//! held and reports how it went, so the tests below drive the machine
//! through every short sequence of inputs on synthetic instants.
//!
//! Each guard holds **one** pending action. Arming, clearing and every
//! later decision overwrite that slot, so no timer outlives the decision
//! that set it and at most one action per domain is ever pending.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use virt_rpc::retry::BackoffSchedule;

use super::{GuardPolicy, GuardStatus};
use crate::driver::DomainState;
use crate::event::DomainEventKind;

/// The backoff ladder for guarded restarts: 50 ms doubling to a 2 s cap —
/// fast enough that a storm converges quickly, slow enough that a crash
/// loop backs off visibly.
const RESTART_BACKOFF: BackoffSchedule = BackoffSchedule {
    initial: Duration::from_millis(50),
    max: Duration::from_secs(2),
    multiplier: 2,
};

/// What the engine runs for a guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Action {
    /// Start a crashed or stopped `keep-running` domain.
    Start,
    /// Resume a paused `auto-resume` domain.
    Resume,
    /// Ask a `graceful-stop` domain to shut down.
    Shutdown,
    /// Destroy a `graceful-stop` domain that outlived its budget.
    Destroy,
}

/// The counter a decision bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Count {
    /// A `keep-running` start that left the domain up.
    Revived,
    /// An `auto-resume` resume that went through.
    Resumed,
    /// A `graceful-stop` guard retired.
    Stopped,
    /// A `keep-running` guard spent its restart budget.
    GaveUp,
    /// A restart scheduled after this backoff.
    Backoff(Duration),
}

#[derive(Debug, Clone)]
struct GuardState {
    policy: GuardPolicy,
    /// Rungs climbed since the domain last reached running.
    restarts: u32,
    gave_up: bool,
    /// The one pending action and when it is due.
    pending: Option<(Instant, Action)>,
    last_event: &'static str,
}

impl GuardState {
    /// One rung up the `keep-running` ladder — a crash, a stop or a failed
    /// start: a restart after the rung's backoff, or the give-up once the
    /// budget is spent.
    fn climb(&mut self, domain: &str, max_restarts: u32, now: Instant) -> Option<Count> {
        if self.gave_up {
            return None;
        }
        self.restarts = self.restarts.saturating_add(1);
        if self.restarts > max_restarts {
            self.gave_up = true;
            self.pending = None;
            return Some(Count::GaveUp);
        }
        let delay = RESTART_BACKOFF.delay(self.restarts, BackoffSchedule::seed_for(domain));
        self.pending = Some((now + delay, Action::Start));
        Some(Count::Backoff(delay))
    }

    fn status(&self, domain: &str, now: Instant) -> GuardStatus {
        GuardStatus {
            domain: domain.to_string(),
            policy: self.policy,
            restarts: self.restarts,
            gave_up: self.gave_up,
            next_retry: self
                .pending
                .map(|(due, _)| due.saturating_duration_since(now)),
            last_event: self.last_event.to_string(),
        }
    }
}

/// The guard table and every rule that changes it.
#[derive(Debug, Default, Clone)]
pub(super) struct Machine {
    guards: BTreeMap<String, GuardState>,
}

impl Machine {
    /// Number of guarded domains.
    pub(super) fn len(&self) -> usize {
        self.guards.len()
    }

    /// Installs (or replaces) `domain`'s guard, given the state the domain
    /// is in, and returns the action to run at once.
    ///
    /// Arming reconciles that state. A crashed `keep-running` domain is
    /// started and a paused `auto-resume` one resumed, with no backoff: the
    /// fault predates the guard, so waiting for the next event would wait
    /// forever (recovery re-arms this way the guarded domains that died
    /// with the previous daemon). A shutoff domain is left alone, so
    /// "define, guard, then start when ready" stays legal. `graceful-stop`
    /// shuts an active domain down now and destroys it at the deadline; on
    /// a domain already down it retires at once.
    pub(super) fn arm(
        &mut self,
        domain: &str,
        policy: GuardPolicy,
        observed: DomainState,
        now: Instant,
    ) -> (Option<Action>, Option<Count>) {
        let (act, last_event, pending) = match (policy, observed) {
            (GuardPolicy::KeepRunning { .. }, DomainState::Crashed) => {
                (Some(Action::Start), "armed-crashed", None)
            }
            (GuardPolicy::AutoResume, DomainState::Paused) => {
                (Some(Action::Resume), "armed-paused", None)
            }
            (GuardPolicy::GracefulStop { timeout_ms }, state) if state.is_active() => {
                let deadline = now + Duration::from_millis(timeout_ms);
                (
                    Some(Action::Shutdown),
                    "armed",
                    Some((deadline, Action::Destroy)),
                )
            }
            (GuardPolicy::GracefulStop { .. }, _) => {
                self.guards.remove(domain);
                return (None, Some(Count::Stopped));
            }
            _ => (None, "armed", None),
        };
        let guard = GuardState {
            policy,
            restarts: 0,
            gave_up: false,
            pending,
            last_event,
        };
        self.guards.insert(domain.to_string(), guard);
        (act, None)
    }

    /// Removes `domain`'s guard and its pending action; `true` when one
    /// was present.
    pub(super) fn clear(&mut self, domain: &str) -> bool {
        self.guards.remove(domain).is_some()
    }

    /// A lifecycle event. It never acts — emits are synchronous, so acting
    /// inside one would recurse into the driver — it only changes the
    /// guard and its slot, for the engine's worker to act on when due.
    pub(super) fn event(
        &mut self,
        domain: &str,
        kind: DomainEventKind,
        now: Instant,
    ) -> Option<Count> {
        let guard = self.guards.get_mut(domain)?;
        match kind {
            DomainEventKind::Crashed | DomainEventKind::Stopped => {
                guard.last_event = if kind == DomainEventKind::Crashed {
                    "crashed"
                } else {
                    "stopped"
                };
                match guard.policy {
                    GuardPolicy::KeepRunning { max_restarts } => {
                        guard.climb(domain, max_restarts, now)
                    }
                    GuardPolicy::AutoResume => {
                        guard.pending = None;
                        None
                    }
                    // Target state reached; the guard retires.
                    GuardPolicy::GracefulStop { .. } => {
                        self.guards.remove(domain);
                        Some(Count::Stopped)
                    }
                }
            }
            DomainEventKind::Suspended => {
                guard.last_event = "suspended";
                if guard.policy == GuardPolicy::AutoResume {
                    guard.pending = Some((now, Action::Resume));
                }
                None
            }
            // The domain reached running. Every such event resets the
            // ladder, the engine's own restarts included, and a manual
            // start re-arms a given-up guard.
            DomainEventKind::Started
            | DomainEventKind::Restored
            | DomainEventKind::MigratedIn
            | DomainEventKind::Resumed => {
                if !matches!(guard.policy, GuardPolicy::GracefulStop { .. }) {
                    guard.last_event = if kind == DomainEventKind::Resumed {
                        "resumed"
                    } else {
                        "started"
                    };
                    guard.restarts = 0;
                    guard.gave_up = false;
                    guard.pending = None;
                }
                None
            }
            // The domain left this host on purpose; the guard goes with it
            // (fleet-level HA re-places it elsewhere).
            DomainEventKind::Undefined | DomainEventKind::MigratedOut => {
                self.guards.remove(domain);
                None
            }
            _ => None,
        }
    }

    /// The earliest pending action, taken out of its slot when it is due
    /// at `now`; otherwise when the next one comes due (`None`: nothing is
    /// pending).
    pub(super) fn due(&mut self, now: Instant) -> Result<(String, Action), Option<Instant>> {
        let next = self
            .guards
            .iter()
            .filter_map(|(domain, guard)| guard.pending.map(|(due, action)| (due, domain, action)))
            .min_by_key(|&(due, ..)| due);
        match next {
            Some((due, domain, action)) if due <= now => {
                let domain = domain.clone();
                if let Some(guard) = self.guards.get_mut(&domain) {
                    guard.pending = None;
                }
                Ok((domain, action))
            }
            next => Err(next.map(|(due, ..)| due)),
        }
    }

    /// How an action the engine ran for `domain` went: whether the call
    /// succeeded, and the domain's state after it (`None`: it is gone).
    /// `now` is when the action was decided, so a failed start's backoff
    /// counts from the attempt.
    pub(super) fn outcome(
        &mut self,
        domain: &str,
        action: Action,
        ok: bool,
        after: Option<DomainState>,
        now: Instant,
    ) -> Option<Count> {
        let guard = self.guards.get_mut(domain)?;
        match (action, guard.policy) {
            // A start revived the domain when it succeeded and left it up.
            // One that crashed during start climbed the ladder on its
            // Crashed event; one that failed climbs here, unless something
            // else got the domain running.
            (Action::Start, GuardPolicy::KeepRunning { max_restarts }) => {
                if ok {
                    return (after != Some(DomainState::Crashed)).then_some(Count::Revived);
                }
                if after == Some(DomainState::Running) {
                    return None;
                }
                guard.last_event = "start-failed";
                guard.climb(domain, max_restarts, now)
            }
            (Action::Resume, GuardPolicy::AutoResume) => ok.then_some(Count::Resumed),
            // A guest that has not stopped yet gets until the deadline.
            (Action::Shutdown, GuardPolicy::GracefulStop { .. })
                if after.is_some_and(DomainState::is_active) =>
            {
                None
            }
            // Down, or destroyed at the deadline: the guard retires.
            (Action::Shutdown | Action::Destroy, GuardPolicy::GracefulStop { .. }) => {
                self.guards.remove(domain);
                Some(Count::Stopped)
            }
            _ => None,
        }
    }

    /// Point-in-time status of `domain`'s guard.
    pub(super) fn status(&self, domain: &str, now: Instant) -> Option<GuardStatus> {
        self.guards
            .get(domain)
            .map(|guard| guard.status(domain, now))
    }

    /// Status of every guard, in domain-name order.
    pub(super) fn statuses(&self, now: Instant) -> Vec<GuardStatus> {
        self.guards
            .iter()
            .map(|(domain, guard)| guard.status(domain, now))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    //! Every order of inputs, not a sample of them.
    //!
    //! The explorer runs the real [`Machine`] against a model hypervisor
    //! holding domain `a`, beside `b`, which nobody guards. In any order
    //! the scenario allows, `a` is armed with one of the scenario's
    //! policies or cleared; the guest crashes, stops or pauses; an
    //! operator starts, resumes or undefines it; an event arrives for `b`;
    //! the clock jumps to the earliest pending deadline and the worker
    //! takes what is due; an action the engine is running ends — a start
    //! brings the guest up, crashes it at once or fails, a shutdown stops
    //! it or is ignored — emitting the lifecycle event the driver would
    //! before its outcome is reported. Up to two actions run at once (the
    //! worker's and an arming caller's). The search visits every reachable
    //! state once and checks the rules on every step.

    use super::super::GuardRecord;
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};

    impl Hash for GuardState {
        fn hash<H: Hasher>(&self, state: &mut H) {
            let policy = (self.policy.kind(), self.policy.param());
            (
                policy,
                self.restarts,
                self.gave_up,
                self.pending,
                self.last_event,
            )
                .hash(state);
        }
    }

    impl Hash for Machine {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.guards.hash(state);
        }
    }

    const A: &str = "a";
    /// A domain nobody guards.
    const B: &str = "b";

    /// The longest a restart may wait: the cap plus its 50 % jitter.
    const LONGEST: Duration = Duration::from_secs(3);

    /// Moves of each kind a scenario allows.
    #[derive(Debug, Clone, Copy, Hash)]
    struct Budget {
        arms: u32,
        clears: u32,
        crashes: u32,
        stops: u32,
        pauses: u32,
        starts: u32,
        resumes: u32,
        undefines: u32,
        /// Events for `b`.
        others: u32,
        /// Actions that go wrong: a start that fails or crashes the guest,
        /// a resume that fails, a shutdown the guest ignores or refuses.
        faults: u32,
    }

    #[derive(Debug, Clone, Copy)]
    struct Scenario {
        policies: &'static [GuardPolicy],
        /// The domain's state before the first move.
        initial: DomainState,
        budget: Budget,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Ending {
        Well,
        /// The call fails; the domain is as it was.
        Fails,
        /// A start that succeeds, with the guest crashed at once.
        Crashes,
        /// A shutdown the guest does not act on.
        Ignored,
    }

    #[derive(Debug, Clone, Copy)]
    enum Move {
        Arm(usize),
        Clear,
        /// The guest or an operator changes the domain; the driver emits
        /// this event.
        Guest(DomainEventKind),
        Other(DomainEventKind),
        Due,
        /// Running action `i` ends this way.
        End(usize, Ending),
    }

    #[derive(Clone, Hash)]
    struct World {
        machine: Machine,
        now: Instant,
        /// The domain as the hypervisor has it; `None` once undefined.
        state: Option<DomainState>,
        /// Actions the engine is running, each with the instant it was
        /// decided at.
        running: Vec<(Action, Instant)>,
        left: Budget,
        /// The scenario policy `a` was last armed with, until cleared or
        /// undefined.
        armed: Option<usize>,
        /// A graceful stop counted as done since the last arming.
        retired: bool,
        /// Ladder failures — crashes, stops and failed starts — since the
        /// ladder last reset: at arming or on any event that says the
        /// domain runs, the guard's own restarts included.
        failures: u32,
        gave_ups: u32,
        last_backoff: Option<Duration>,
        /// A pause the guard owes one resume for.
        owed_resume: bool,
        /// The armed graceful stop's deadline.
        deadline: Option<Instant>,
        shutdowns: u32,
        destroys: u32,
    }

    impl World {
        fn new(scenario: &Scenario, t0: Instant) -> World {
            World {
                machine: Machine::default(),
                now: t0,
                state: Some(scenario.initial),
                running: Vec::new(),
                left: scenario.budget,
                armed: None,
                retired: false,
                failures: 0,
                gave_ups: 0,
                last_backoff: None,
                owed_resume: false,
                deadline: None,
                shutdowns: 0,
                destroys: 0,
            }
        }

        fn policy(&self, scenario: &Scenario) -> Option<GuardPolicy> {
            self.armed.map(|i| scenario.policies[i])
        }

        fn next_due(&self) -> Option<Instant> {
            self.machine
                .guards
                .values()
                .filter_map(|guard| guard.pending.map(|(due, _)| due))
                .min()
        }

        fn moves(&self, scenario: &Scenario) -> Vec<Move> {
            use DomainEventKind as Kind;
            let left = self.left;
            let mut moves = Vec::new();
            if left.arms > 0 && self.state.is_some() {
                moves.extend((0..scenario.policies.len()).map(Move::Arm));
            }
            if left.clears > 0 {
                moves.push(Move::Clear);
            }
            let guest = match self.state {
                Some(DomainState::Running) => {
                    vec![
                        (Kind::Crashed, left.crashes),
                        (Kind::Stopped, left.stops),
                        (Kind::Suspended, left.pauses),
                    ]
                }
                Some(DomainState::Paused) => vec![
                    (Kind::Crashed, left.crashes),
                    (Kind::Stopped, left.stops),
                    (Kind::Resumed, left.resumes),
                ],
                Some(_) => vec![
                    (Kind::Started, left.starts),
                    (Kind::Undefined, left.undefines),
                ],
                None => vec![],
            };
            moves.extend(
                guest
                    .into_iter()
                    .filter(|&(_, n)| n > 0)
                    .map(|(kind, _)| Move::Guest(kind)),
            );
            if left.others > 0 {
                moves.extend(
                    [Kind::Crashed, Kind::Suspended, Kind::Started]
                        .into_iter()
                        .map(Move::Other),
                );
            }
            if self.running.len() < 2 && self.next_due().is_some() {
                moves.push(Move::Due);
            }
            for (i, &(action, _)) in self.running.iter().enumerate() {
                for ending in self.endings(action) {
                    if ending == Ending::Well || left.faults > 0 || !self.can_end_well(action) {
                        moves.push(Move::End(i, ending));
                    }
                }
            }
            moves
        }

        /// Whether `action` can go through on the domain as it is.
        fn can_end_well(&self, action: Action) -> bool {
            match (action, self.state) {
                (Action::Start, Some(state)) => !state.is_active(),
                (Action::Resume, Some(state)) => state == DomainState::Paused,
                (Action::Shutdown | Action::Destroy, Some(state)) => state.is_active(),
                (_, None) => false,
            }
        }

        fn endings(&self, action: Action) -> Vec<Ending> {
            if !self.can_end_well(action) {
                return vec![Ending::Fails];
            }
            match action {
                Action::Start => vec![Ending::Well, Ending::Fails, Ending::Crashes],
                Action::Resume => vec![Ending::Well, Ending::Fails],
                Action::Shutdown => vec![Ending::Well, Ending::Fails, Ending::Ignored],
                Action::Destroy => vec![Ending::Well],
            }
        }

        fn apply(&mut self, mv: Move, scenario: &Scenario) {
            match mv {
                Move::Arm(i) => {
                    self.left.arms -= 1;
                    let policy = scenario.policies[i];
                    let observed = self.state.expect("only an existing domain is armed");
                    self.armed = Some(i);
                    self.retired = false;
                    self.failures = 0;
                    self.gave_ups = 0;
                    self.last_backoff = None;
                    self.owed_resume =
                        policy == GuardPolicy::AutoResume && observed == DomainState::Paused;
                    self.deadline = match policy {
                        GuardPolicy::GracefulStop { timeout_ms } if observed.is_active() => {
                            Some(self.now + Duration::from_millis(timeout_ms))
                        }
                        _ => None,
                    };
                    self.shutdowns = 0;
                    self.destroys = 0;
                    let (act, count) = self.machine.arm(A, policy, observed, self.now);
                    self.counted(count, self.now, scenario);
                    if let Some(action) = act {
                        self.acted(A, action, scenario);
                        self.running.push((action, self.now));
                    }
                }
                Move::Clear => {
                    self.left.clears -= 1;
                    self.machine.clear(A);
                    self.armed = None;
                }
                Move::Guest(kind) => {
                    let (left, state) = match kind {
                        DomainEventKind::Crashed => (&mut self.left.crashes, DomainState::Crashed),
                        DomainEventKind::Stopped => (&mut self.left.stops, DomainState::Shutoff),
                        DomainEventKind::Suspended => (&mut self.left.pauses, DomainState::Paused),
                        DomainEventKind::Started => (&mut self.left.starts, DomainState::Running),
                        DomainEventKind::Resumed => (&mut self.left.resumes, DomainState::Running),
                        _ => (&mut self.left.undefines, DomainState::Shutoff),
                    };
                    *left -= 1;
                    self.state = (kind != DomainEventKind::Undefined).then_some(state);
                    self.event(kind, scenario);
                }
                Move::Other(kind) => {
                    self.left.others -= 1;
                    assert!(
                        self.machine.event(B, kind, self.now).is_none(),
                        "an unguarded domain's event counted"
                    );
                }
                Move::Due => {
                    let due = self.next_due().expect("something is pending");
                    if due > self.now {
                        assert_eq!(
                            self.machine.due(self.now),
                            Err(Some(due)),
                            "taken before it was due"
                        );
                        self.now = due;
                    }
                    let (domain, action) = self.machine.due(self.now).expect("due now");
                    self.acted(&domain, action, scenario);
                    self.running.push((action, self.now));
                }
                Move::End(i, ending) => {
                    let (action, decided) = self.running.remove(i);
                    if ending != Ending::Well && self.can_end_well(action) {
                        self.left.faults -= 1;
                    }
                    let event = match (action, ending) {
                        (Action::Start, Ending::Well) => Some(DomainEventKind::Started),
                        (Action::Start, Ending::Crashes) => Some(DomainEventKind::Crashed),
                        (Action::Resume, Ending::Well) => Some(DomainEventKind::Resumed),
                        (Action::Shutdown | Action::Destroy, Ending::Well) => {
                            Some(DomainEventKind::Stopped)
                        }
                        _ => None,
                    };
                    if let Some(kind) = event {
                        self.state = Some(match kind {
                            DomainEventKind::Crashed => DomainState::Crashed,
                            DomainEventKind::Stopped => DomainState::Shutoff,
                            _ => DomainState::Running,
                        });
                        self.event(kind, scenario);
                    }
                    let ok = ending != Ending::Fails;
                    if action == Action::Start
                        && !ok
                        && self.state != Some(DomainState::Running)
                        && self.keeps_running(scenario)
                    {
                        self.failures += 1;
                    }
                    let count = self.machine.outcome(A, action, ok, self.state, decided);
                    self.counted(count, decided, scenario);
                }
            }
        }

        fn keeps_running(&self, scenario: &Scenario) -> bool {
            matches!(self.policy(scenario), Some(GuardPolicy::KeepRunning { .. }))
        }

        /// Feeds an event for `a`, keeping the rules' books first.
        fn event(&mut self, kind: DomainEventKind, scenario: &Scenario) {
            use DomainEventKind as Kind;
            match (self.policy(scenario), kind) {
                (_, Kind::Undefined) => self.armed = None,
                (Some(GuardPolicy::KeepRunning { .. }), Kind::Crashed | Kind::Stopped) => {
                    self.failures += 1;
                }
                (Some(GuardPolicy::KeepRunning { .. }), Kind::Started | Kind::Resumed) => {
                    self.failures = 0;
                    self.gave_ups = 0;
                    self.last_backoff = None;
                }
                (Some(GuardPolicy::AutoResume), Kind::Suspended) => self.owed_resume = true,
                (Some(GuardPolicy::AutoResume), _) => self.owed_resume = false,
                _ => {}
            }
            let count = self.machine.event(A, kind, self.now);
            self.counted(count, self.now, scenario);
        }

        /// Checks an action the machine hands the engine.
        fn acted(&mut self, domain: &str, action: Action, scenario: &Scenario) {
            assert_eq!(domain, A, "acted on a domain nobody guards");
            let policy = self
                .policy(scenario)
                .unwrap_or_else(|| panic!("{action:?} on an unguarded domain"));
            assert!(!self.retired, "{action:?} after the graceful stop retired");
            match (action, policy) {
                (Action::Start, GuardPolicy::KeepRunning { max_restarts }) => {
                    assert!(
                        self.failures <= max_restarts,
                        "a restart after the guard gave up"
                    );
                }
                (Action::Resume, GuardPolicy::AutoResume) => {
                    assert!(self.owed_resume, "a second resume for one pause");
                    self.owed_resume = false;
                }
                (Action::Shutdown, GuardPolicy::GracefulStop { .. }) => {
                    self.shutdowns += 1;
                    assert_eq!(self.shutdowns, 1, "a second shutdown");
                }
                (Action::Destroy, GuardPolicy::GracefulStop { .. }) => {
                    self.destroys += 1;
                    assert_eq!(self.destroys, 1, "a second destroy");
                    assert_eq!(Some(self.now), self.deadline, "a destroy off its deadline");
                }
                _ => panic!("{action:?} under {policy:?}"),
            }
        }

        /// Checks a counter the machine bumps for a decision made at `at`.
        fn counted(&mut self, count: Option<Count>, at: Instant, scenario: &Scenario) {
            let Some(count) = count else { return };
            let policy = self.policy(scenario);
            match (count, policy) {
                (Count::Backoff(delay), Some(GuardPolicy::KeepRunning { .. })) => {
                    let floor = self
                        .last_backoff
                        .map_or(Duration::ZERO, |last| last.min(RESTART_BACKOFF.max));
                    assert!(delay >= floor, "backoff shrank: {floor:?} then {delay:?}");
                    assert!(delay <= LONGEST, "backoff {delay:?} past the cap");
                    self.last_backoff = Some(delay);
                    let pending = self.machine.guards[A].pending;
                    assert_eq!(
                        pending,
                        Some((at + delay, Action::Start)),
                        "backoff not slotted"
                    );
                }
                (Count::GaveUp, Some(GuardPolicy::KeepRunning { .. })) => self.gave_ups += 1,
                (Count::Revived, Some(GuardPolicy::KeepRunning { .. })) => {
                    assert_eq!(
                        self.state,
                        Some(DomainState::Running),
                        "revived, not running"
                    );
                }
                (Count::Resumed, Some(GuardPolicy::AutoResume)) => {}
                (Count::Stopped, Some(GuardPolicy::GracefulStop { .. })) => {
                    assert!(!self.retired, "a graceful stop retired twice");
                    assert!(
                        !self.state.is_some_and(DomainState::is_active),
                        "a graceful stop retired with its domain up"
                    );
                    self.retired = true;
                }
                _ => panic!("{count:?} under {policy:?}"),
            }
        }

        /// The rules, checked in every reachable state.
        fn check(&self, scenario: &Scenario) {
            assert!(!self.machine.guards.contains_key(B), "b is guarded");
            let Some(guard) = self.machine.guards.get(A) else {
                return;
            };
            let policy = self
                .policy(scenario)
                .expect("a guard outlived its clear or undefine");
            assert_eq!(guard.policy, policy);
            let running = |action| self.running.iter().any(|&(a, _)| a == action);
            match policy {
                GuardPolicy::KeepRunning { max_restarts } => {
                    let spent = self.failures > max_restarts;
                    assert_eq!(
                        guard.restarts,
                        self.failures.min(max_restarts + 1),
                        "the ladder is not on the rung its failures put it"
                    );
                    assert_eq!(guard.gave_up, spent, "gave up off the budget");
                    assert_eq!(self.gave_ups, u32::from(spent), "not exactly one give-up");
                    if spent {
                        assert_eq!(guard.pending, None, "a restart pending after the give-up");
                    }
                    assert!(
                        matches!(guard.pending, None | Some((_, Action::Start))),
                        "{:?} pending under keep-running",
                        guard.pending
                    );
                }
                GuardPolicy::AutoResume => {
                    if self.owed_resume {
                        assert!(
                            matches!(guard.pending, Some((_, Action::Resume))),
                            "a pause with no resume coming"
                        );
                    }
                    assert!(
                        matches!(guard.pending, None | Some((_, Action::Resume))),
                        "{:?} pending under auto-resume",
                        guard.pending
                    );
                }
                GuardPolicy::GracefulStop { .. } => {
                    let deadline = self.deadline.expect("armed on an active domain");
                    assert!(
                        guard.pending == Some((deadline, Action::Destroy))
                            || running(Action::Destroy),
                        "a graceful stop with no destroy coming at its deadline"
                    );
                }
            }
        }
    }

    /// Walks every state `scenario` reaches and returns how many. A state
    /// is remembered by its 64-bit hash, which keeps the walk's memory
    /// small.
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
            world.check(scenario);
            for mv in world.moves(scenario) {
                let mut next = world.clone();
                next.apply(mv, scenario);
                stack.push(next);
            }
        }
        seen.len()
    }

    const NONE: Budget = Budget {
        arms: 0,
        clears: 0,
        crashes: 0,
        stops: 0,
        pauses: 0,
        starts: 0,
        resumes: 0,
        undefines: 0,
        others: 0,
        faults: 0,
    };
    const ONE_EACH: Budget = Budget {
        arms: 1,
        clears: 1,
        crashes: 1,
        stops: 1,
        pauses: 1,
        starts: 1,
        resumes: 1,
        undefines: 1,
        others: 1,
        faults: 1,
    };

    #[test]
    fn every_order_of_inputs_keeps_the_rules() {
        let scenarios = [
            // A ladder of two: crashes, stops, failed starts and manual
            // starts in every order, with a re-arm and a clear.
            Scenario {
                policies: &[GuardPolicy::KeepRunning { max_restarts: 2 }],
                initial: DomainState::Running,
                budget: Budget {
                    arms: 2,
                    crashes: 2,
                    faults: 2,
                    others: 0,
                    ..ONE_EACH
                },
            },
            // A long ladder of failed and crashing starts climbs past the
            // cap, then gives up.
            Scenario {
                policies: &[GuardPolicy::KeepRunning { max_restarts: 8 }],
                initial: DomainState::Crashed,
                budget: Budget {
                    arms: 1,
                    faults: 10,
                    ..NONE
                },
            },
            // Pauses, some armed against, some resumed by an operator.
            Scenario {
                policies: &[GuardPolicy::AutoResume],
                initial: DomainState::Paused,
                budget: Budget {
                    arms: 2,
                    pauses: 3,
                    resumes: 2,
                    faults: 2,
                    ..ONE_EACH
                },
            },
            // A graceful stop, re-armed, replaced by keep-running.
            Scenario {
                policies: &[
                    GuardPolicy::GracefulStop { timeout_ms: 1_000 },
                    GuardPolicy::KeepRunning { max_restarts: 1 },
                ],
                initial: DomainState::Running,
                budget: Budget {
                    arms: 3,
                    pauses: 0,
                    others: 0,
                    ..ONE_EACH
                },
            },
            // Every policy replacing every other.
            Scenario {
                policies: &[
                    GuardPolicy::KeepRunning { max_restarts: 1 },
                    GuardPolicy::AutoResume,
                    GuardPolicy::GracefulStop { timeout_ms: 500 },
                ],
                initial: DomainState::Paused,
                budget: Budget {
                    arms: 3,
                    stops: 0,
                    others: 0,
                    undefines: 0,
                    ..ONE_EACH
                },
            },
        ];
        let states: Vec<usize> = scenarios.iter().map(explore).collect();
        // The walk reached the corners it is meant to: a run that stops
        // early explores far fewer.
        assert!(states.iter().all(|&n| n > 40), "{states:?}");
        assert!(states.iter().sum::<usize>() > 300_000, "{states:?}");
    }

    #[test]
    fn keep_running_escalates_and_gives_up() {
        let t0 = Instant::now();
        let mut machine = Machine::default();
        let policy = GuardPolicy::KeepRunning { max_restarts: 2 };
        let armed = machine.arm("web", policy, DomainState::Running, t0);
        assert_eq!(armed, (None, None), "a running domain is left alone");

        let Some(Count::Backoff(delay)) = machine.event("web", DomainEventKind::Crashed, t0) else {
            panic!("a crash schedules a restart");
        };
        let st = machine.status("web", t0).unwrap();
        assert_eq!((st.restarts, st.gave_up), (1, false));
        assert_eq!(st.next_retry, Some(delay), "a retry must be pending");
        assert_eq!(machine.due(t0), Err(Some(t0 + delay)));
        assert_eq!(
            machine.due(t0 + delay),
            Ok(("web".to_string(), Action::Start))
        );

        // Reaching running resets the ladder.
        machine.event("web", DomainEventKind::Started, t0 + delay);
        assert_eq!(machine.status("web", t0).unwrap().restarts, 0);

        // Three consecutive failures with no successful start exhaust
        // max_restarts = 2: two crashes and a start that fails.
        machine.event("web", DomainEventKind::Crashed, t0);
        machine.event("web", DomainEventKind::Crashed, t0);
        let failed = machine.outcome("web", Action::Start, false, Some(DomainState::Crashed), t0);
        assert_eq!(failed, Some(Count::GaveUp));
        let st = machine.status("web", t0).unwrap();
        assert!(st.gave_up, "restart budget must exhaust: {st:?}");
        assert_eq!(st.next_retry, None);
        assert_eq!(machine.event("web", DomainEventKind::Crashed, t0), None);

        // Manual start re-arms.
        machine.event("web", DomainEventKind::Started, t0);
        assert!(!machine.status("web", t0).unwrap().gave_up);
    }

    #[test]
    fn undefine_drops_the_guard() {
        let t0 = Instant::now();
        let mut machine = Machine::default();
        let policy = GuardPolicy::KeepRunning { max_restarts: 3 };
        machine.arm("gone", policy, DomainState::Running, t0);
        machine.event("gone", DomainEventKind::Crashed, t0);
        machine.event("gone", DomainEventKind::Undefined, t0);
        assert_eq!(machine.len(), 0);
        assert!(machine.status("gone", t0).is_none());
        assert_eq!(
            machine.due(t0 + LONGEST),
            Err(None),
            "its restart went with it"
        );
    }

    #[test]
    fn statuses_sorted_and_records_round_trip() {
        let t0 = Instant::now();
        let mut machine = Machine::default();
        machine.arm("zeta", GuardPolicy::AutoResume, DomainState::Running, t0);
        let policy = GuardPolicy::KeepRunning { max_restarts: 1 };
        machine.arm("alpha", policy, DomainState::Shutoff, t0);
        let all = machine.statuses(t0);
        assert_eq!(
            all.iter().map(|s| s.domain.as_str()).collect::<Vec<_>>(),
            ["alpha", "zeta"]
        );
        for status in all {
            let record = GuardRecord {
                domain: status.domain,
                policy: status.policy,
            };
            let xml = record.to_xml_string();
            assert_eq!(GuardRecord::from_xml_str(&xml).unwrap(), record);
        }
    }
}
