//! Who runs a connection's turn: the event loop's turn rule, as a pure
//! state machine.
//!
//! Every event thread of a server waits on one poller, so readiness for
//! one connection can reach two threads at once — an fd event to one, the
//! connection's ready-list entry to another, a second edge while the first
//! is still being handled. The rule: at most one thread runs the
//! connection's turn at a time. Readiness that arrives for a connection in
//! another thread's turn is left with the turn, and its owner acts on it
//! before it lets the turn go; it never starts a second turn. A
//! connection sits on the ready list at most once, and its teardown
//! happens once, whoever notices the death first.
//!
//! Nothing here blocks, locks or touches a socket: every method is one
//! step taken under the connection's lock, and what to do is *returned* —
//! the caller runs the turn, pushes to the ready list or tears down after
//! unlocking. That keeps the rule small enough to enumerate: the tests at
//! the bottom walk every interleaving of two or three threads over fd
//! events, ready-list re-queues and teardowns.

/// Readiness a turn acts on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) struct Ready {
    /// Bytes to read, or frames buffered that no fd event will announce.
    pub(crate) readable: bool,
    /// Room for owed reply bytes.
    pub(crate) writable: bool,
    /// The peer hung up or the fd errored.
    pub(crate) hangup: bool,
}

impl Ready {
    /// What a connection taken off the ready list acts on.
    pub(crate) const LISTED: Ready = Ready {
        readable: true,
        writable: false,
        hangup: false,
    };

    fn is_empty(self) -> bool {
        self == Ready::default()
    }

    fn merge(&mut self, other: Ready) {
        self.readable |= other.readable;
        self.writable |= other.writable;
        self.hangup |= other.hangup;
    }
}

/// One connection's turn.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct Turn {
    /// A thread runs the connection's turn.
    running: bool,
    /// Readiness that arrived during the running turn, for its owner.
    owed: Ready,
    /// On the ready list and not yet taken off it.
    listed: bool,
    /// Torn down: nothing runs any more.
    closed: bool,
}

impl Turn {
    /// Readiness for the connection reached a thread. Returns what that
    /// thread acts on, having taken the turn — or `None`: the owner of the
    /// running turn acts on it, or the connection is gone.
    pub(crate) fn arrive(&mut self, ready: Ready) -> Option<Ready> {
        if self.closed {
            return None;
        }
        if self.running {
            self.owed.merge(ready);
            return None;
        }
        self.running = true;
        Some(ready)
    }

    /// A thread took the connection off the ready list: it arrives as
    /// [`Ready::LISTED`], and may be listed again from here on.
    pub(crate) fn unlist(&mut self) -> Option<Ready> {
        self.listed = false;
        self.arrive(Ready::LISTED)
    }

    /// The connection has frames no fd event will announce. Returns
    /// whether the caller puts it on the ready list (and wakes a waiter):
    /// not when it is already there, or gone.
    pub(crate) fn list(&mut self) -> bool {
        if self.listed || self.closed {
            return false;
        }
        self.listed = true;
        true
    }

    /// The owner has acted on what it was handed. Returns what arrived
    /// meanwhile, for the owner to act on in the same turn — or `None`,
    /// and the turn is released.
    pub(crate) fn finish(&mut self) -> Option<Ready> {
        debug_assert!(self.running, "finishing a turn nobody runs");
        let owed = std::mem::take(&mut self.owed);
        if self.closed || owed.is_empty() {
            self.running = false;
            return None;
        }
        Some(owed)
    }

    /// The connection died (the owner saw it) or is being stopped (no
    /// turn needed). Returns whether the caller tears it down: the first
    /// to ask does, and only the first.
    pub(crate) fn close(&mut self) -> bool {
        !std::mem::replace(&mut self.closed, true)
    }
}

#[cfg(test)]
mod tests {
    //! Every interleaving, not a sample of them.
    //!
    //! The model runs the real [`Turn`] under a scheduler that may pick
    //! any enabled step next. The poller delivers a script of fd events,
    //! each to any thread not busy; a thread holding an event arrives with
    //! it; an idle thread may take the connection off the ready list. A
    //! thread that holds the turn acts, with one of three outcomes — done,
    //! frame budget spent (it lists the connection), or the connection is
    //! dead (it closes it) — and then finishes. A stop from outside may
    //! close the connection at any point. Each step is one call under the
    //! connection's lock, as in the daemon. The search visits every
    //! reachable state once and checks the rules in each; in every state
    //! with nothing left to do it checks that no readiness went unacted
    //! on.

    use super::*;
    use std::collections::HashSet;

    const R: Ready = Ready {
        readable: true,
        writable: false,
        hangup: false,
    };
    const W: Ready = Ready {
        readable: false,
        writable: true,
        hangup: false,
    };
    const H: Ready = Ready {
        readable: true,
        writable: false,
        hangup: true,
    };

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Outcome {
        Done,
        Budget,
        Dead,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Thread {
        Idle,
        /// Holds an event from the poller: the script index.
        Holding(usize),
        /// Runs the turn, handed `ready`.
        Owner(Ready),
        /// Has acted and is about to finish.
        Acted,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Deliver(usize),
        Arrive(usize),
        Unlist(usize),
        Act(usize, Outcome),
        Finish(usize),
        Stop,
    }

    #[derive(Clone, Copy, Debug)]
    struct Scenario {
        threads: usize,
        script: &'static [Ready],
        budgets: usize,
        dead: bool,
        stop: bool,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        turn: Turn,
        threads: Vec<Thread>,
        /// Script events delivered so far.
        delivered: usize,
        /// Entries on the ready list.
        list: usize,
        budgets: usize,
        stopped: bool,
        teardowns: usize,
        /// Readiness delivered (or frames a budget left) that no turn
        /// handed it since has acted on: each is owed a turn handed at
        /// least its kind.
        owed: Vec<Ready>,
        closed: bool,
    }

    impl World {
        fn new(scenario: Scenario) -> World {
            World {
                turn: Turn::default(),
                threads: vec![Thread::Idle; scenario.threads],
                delivered: 0,
                list: 0,
                budgets: 0,
                stopped: false,
                teardowns: 0,
                owed: Vec::new(),
                closed: false,
            }
        }

        fn close(&mut self) {
            if self.turn.close() {
                self.teardowns += 1;
                self.closed = true;
            }
        }

        /// Readiness the turn owes an act on.
        fn demand(&mut self, ready: Ready) {
            if !self.owed.contains(&ready) {
                self.owed.push(ready);
            }
        }

        /// A thread was handed `ready` (it owns the turn now) and acts on
        /// it after this step: every demand it covers is met.
        fn handed(&mut self, thread: usize, ready: Ready) {
            self.owed.retain(|d| {
                let met = (!d.readable || ready.readable)
                    && (!d.writable || ready.writable)
                    && (!d.hangup || ready.hangup);
                !met
            });
            self.threads[thread] = Thread::Owner(ready);
        }

        fn steps(&self, scenario: Scenario) -> Vec<Step> {
            let mut steps = Vec::new();
            let idle = self.threads.iter().position(|t| *t == Thread::Idle);
            for (i, thread) in self.threads.iter().enumerate() {
                match *thread {
                    Thread::Idle => {
                        // Idle threads are interchangeable for delivery;
                        // the first stands for all of them.
                        if Some(i) == idle && self.delivered < scenario.script.len() {
                            steps.push(Step::Deliver(i));
                        }
                        if self.list > 0 {
                            steps.push(Step::Unlist(i));
                        }
                    }
                    Thread::Holding(_) => steps.push(Step::Arrive(i)),
                    Thread::Owner(_) => {
                        steps.push(Step::Act(i, Outcome::Done));
                        if self.budgets < scenario.budgets {
                            steps.push(Step::Act(i, Outcome::Budget));
                        }
                        if scenario.dead {
                            steps.push(Step::Act(i, Outcome::Dead));
                        }
                    }
                    Thread::Acted => steps.push(Step::Finish(i)),
                }
            }
            if scenario.stop && !self.stopped {
                steps.push(Step::Stop);
            }
            steps
        }

        fn apply(&mut self, step: Step, scenario: Scenario) {
            match step {
                Step::Deliver(i) => {
                    self.demand(scenario.script[self.delivered]);
                    self.threads[i] = Thread::Holding(self.delivered);
                    self.delivered += 1;
                }
                Step::Arrive(i) => {
                    let Thread::Holding(event) = self.threads[i] else {
                        unreachable!()
                    };
                    match self.turn.arrive(scenario.script[event]) {
                        Some(ready) => self.handed(i, ready),
                        None => self.threads[i] = Thread::Idle,
                    }
                }
                Step::Unlist(i) => {
                    self.list -= 1;
                    match self.turn.unlist() {
                        Some(ready) => self.handed(i, ready),
                        None => self.threads[i] = Thread::Idle,
                    }
                }
                Step::Act(i, outcome) => {
                    match outcome {
                        Outcome::Done => {}
                        Outcome::Budget => {
                            self.budgets += 1;
                            self.demand(Ready::LISTED);
                            if self.turn.list() {
                                self.list += 1;
                            }
                        }
                        Outcome::Dead => self.close(),
                    }
                    self.threads[i] = Thread::Acted;
                }
                Step::Finish(i) => match self.turn.finish() {
                    Some(ready) => self.handed(i, ready),
                    None => self.threads[i] = Thread::Idle,
                },
                Step::Stop => {
                    self.stopped = true;
                    self.close();
                }
            }
        }

        /// The rules, checked in every reachable state.
        fn check(&self, scenario: Scenario) {
            let owners = self
                .threads
                .iter()
                .filter(|t| matches!(t, Thread::Owner(_) | Thread::Acted))
                .count();
            assert!(owners <= 1, "{owners} threads run the turn at once");
            assert!(self.teardowns <= 1, "torn down {} times", self.teardowns);
            assert!(self.list <= 1, "listed {} times at once", self.list);

            if !self.steps(scenario).is_empty() {
                return;
            }
            // Nothing left to do: every demand was met by a turn handed
            // its kind of readiness after it, unless the connection is
            // gone.
            assert!(
                self.closed || self.owed.is_empty(),
                "readiness {:?} was never acted on",
                self.owed
            );
            if self.closed {
                assert_eq!(self.teardowns, 1, "a closed connection torn down once");
            }
            assert_eq!(self.list, 0, "a listing nobody took");
        }
    }

    /// Visits every state reachable under `scenario`; returns how many.
    fn explore(scenario: Scenario) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![(World::new(scenario), Vec::<Step>::new())];
        while let Some((world, path)) = stack.pop() {
            if !seen.insert(world.clone()) {
                continue;
            }
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                world.check(scenario);
            }));
            if let Err(violation) = checked {
                eprintln!("violated in {scenario:?} after {path:?}");
                std::panic::resume_unwind(violation);
            }
            for step in world.steps(scenario) {
                let mut next = world.clone();
                let mut path = path.clone();
                path.push(step);
                next.apply(step, scenario);
                stack.push((next, path));
            }
        }
        seen.len()
    }

    const SCRIPTS: &[&[Ready]] = &[&[R, R, R], &[R, W, R], &[W, R, W], &[R, H], &[W, W, H]];

    fn every_scenario(threads: usize, dead: bool, stop: bool) -> usize {
        let mut states = 0;
        for script in SCRIPTS {
            for budgets in 0..=2 {
                states += explore(Scenario {
                    threads,
                    script,
                    budgets,
                    dead,
                    stop,
                });
            }
        }
        states
    }

    #[test]
    fn one_turn_at_a_time_and_no_readiness_lost_in_any_interleaving() {
        let states = every_scenario(2, false, false) + every_scenario(3, false, false);
        assert!(
            states > 2_000,
            "only {states} states: the model lost its steps"
        );
    }

    #[test]
    fn teardown_happens_once_whoever_notices() {
        let states = every_scenario(2, true, true) + every_scenario(3, true, false);
        assert!(
            states > 2_000,
            "only {states} states: the model lost its steps"
        );
    }

    #[test]
    fn an_event_during_a_turn_is_acted_on_by_its_owner() {
        let mut turn = Turn::default();
        assert_eq!(turn.arrive(R), Some(R), "the first arrival takes the turn");
        assert_eq!(turn.arrive(W), None, "a second is left with the turn");
        assert!(turn.list(), "frames left over: listed once");
        assert!(!turn.list(), "and not twice");
        assert_eq!(turn.finish(), Some(W), "the owner acts on what it was left");
        assert_eq!(turn.finish(), None, "then lets the turn go");
        assert_eq!(turn.unlist(), Some(Ready::LISTED));
        assert!(turn.close(), "the first closer tears down");
        assert!(!turn.close(), "the second does not");
        assert_eq!(turn.finish(), None);
        assert_eq!(turn.arrive(R), None, "nothing runs once closed");
        assert!(!turn.list());
    }
}
