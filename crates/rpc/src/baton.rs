//! Who reads the socket: the hand-off rules of a connection's receive
//! side, as a pure state machine.
//!
//! A connection has no reader thread. The receive side is a *baton*: a
//! caller whose reply has not arrived takes it if it is free and reads
//! frames itself — its own reply, and any other caller's, which it
//! files in that caller's slot. Callers that find the baton taken park
//! until their slot is filled or they are woken to take over. Whoever
//! puts the baton down wakes exactly one parked waiter.
//!
//! A *listener* is a baton holder with no call of its own, for
//! connections that expect frames nobody asked for (events, keepalive).
//! Once it has the baton it keeps it, so every caller parks and the
//! connection behaves as if it had a reader thread.
//!
//! Nothing here blocks, reads a clock or touches a socket: every method
//! is one step taken under the connection's lock, and whom to wake is
//! *returned* — the caller wakes them after unlocking. That keeps the
//! rules small enough to enumerate: the tests at the bottom walk every
//! interleaving of three callers, a listener, replies in any order,
//! deadlines and a broken wire.

/// One call in flight.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Slot<W, R> {
    serial: u32,
    state: SlotState<W, R>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SlotState<W, R> {
    /// Registered; its owner is sending, or reading the socket itself.
    Active,
    /// Its owner found the baton taken and waits to be woken.
    Parked(W),
    /// The reply arrived (or the connection failed) before the owner
    /// came for it.
    Filled(R),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Listener<W> {
    Absent,
    /// Started while a caller held the baton; next in line for it.
    Waiting(W),
    Reading,
}

/// What a caller does after [`Baton::enter`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Enter<R> {
    /// The reply was already filed; the call is over.
    Done(R),
    /// The baton was free and is now the caller's: read the socket.
    Read,
    /// Someone else is reading: park until woken, then enter again.
    Wait,
}

/// Where a reply frame went.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Routed<W> {
    /// Filed in its caller's slot; wake the owner if it is parked.
    Filed(Option<W>),
    /// No call waits for this serial: its caller gave up on it.
    Late,
}

/// The receive side of one connection. `W` is whatever wakes a waiter
/// (a thread handle), `R` a filed reply.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Baton<W, R> {
    /// Few and short-lived: a linear scan beats hashing the serial.
    slots: Vec<Slot<W, R>>,
    /// A *caller* holds the baton.
    reading: bool,
    listener: Listener<W>,
    closed: bool,
}

impl<W: Clone, R> Baton<W, R> {
    pub(crate) fn new() -> Self {
        Baton {
            slots: Vec::new(),
            reading: false,
            listener: Listener::Absent,
            closed: false,
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether anybody holds the baton.
    pub(crate) fn is_read(&self) -> bool {
        self.reading || matches!(self.listener, Listener::Reading)
    }

    fn slot(&mut self, serial: u32) -> Option<&mut Slot<W, R>> {
        self.slots.iter_mut().find(|slot| slot.serial == serial)
    }

    fn remove(&mut self, serial: u32) -> Option<SlotState<W, R>> {
        let at = self.slots.iter().position(|slot| slot.serial == serial)?;
        Some(self.slots.swap_remove(at).state)
    }

    /// Opens the slot of a call about to be sent — before the send, so
    /// the reply cannot arrive first. `false` on a closed connection:
    /// closing and registering happen under one lock, so a call is
    /// either failed by the close or refused here, never forgotten.
    pub(crate) fn register(&mut self, serial: u32) -> bool {
        if self.closed {
            return false;
        }
        self.slots.push(Slot {
            serial,
            state: SlotState::Active,
        });
        true
    }

    /// The caller's step after sending, and again each time it wakes.
    /// `me` is only called to park.
    pub(crate) fn enter(&mut self, serial: u32, me: impl FnOnce() -> W) -> Enter<R> {
        let taken = self.is_read();
        let Some(slot) = self.slot(serial) else {
            unreachable!("call {serial} entered without a slot");
        };
        if matches!(slot.state, SlotState::Filled(_)) {
            let Some(SlotState::Filled(reply)) = self.remove(serial) else {
                unreachable!("slot {serial} was filled a moment ago");
            };
            return Enter::Done(reply);
        }
        if taken {
            if matches!(slot.state, SlotState::Active) {
                slot.state = SlotState::Parked(me());
            }
            return Enter::Wait;
        }
        slot.state = SlotState::Active;
        self.reading = true;
        Enter::Read
    }

    /// Files the reply to `serial`, read off the wire by whoever holds
    /// the baton. `reply` is only built if a call waits for it.
    pub(crate) fn route(&mut self, serial: u32, reply: impl FnOnce() -> R) -> Routed<W> {
        match self.slot(serial) {
            Some(slot) if !matches!(slot.state, SlotState::Filled(_)) => {
                let owner = match std::mem::replace(&mut slot.state, SlotState::Filled(reply())) {
                    SlotState::Parked(owner) => Some(owner),
                    _ => None,
                };
                Routed::Filed(owner)
            }
            _ => Routed::Late,
        }
    }

    /// Forgets a call that did not end in [`Enter::Done`]: its deadline
    /// passed, its send failed, or it held the baton and is about to
    /// [`Baton::put_down`]. A call that gives up *without* the baton
    /// wakes nobody — it only ever parks behind a reader, and that
    /// reader is still there.
    pub(crate) fn abandon(&mut self, serial: u32) {
        self.remove(serial);
    }

    /// Puts the baton down — the holder read its own reply, its deadline
    /// passed, the wire broke, its probe is done — and returns the one
    /// waiter to wake, so the socket is never left unread while someone
    /// waits on it: the listener if one is in line, else any parked
    /// caller. The woken caller may find the baton gone again (a fresh
    /// caller took it first) and simply parks again behind that one.
    pub(crate) fn put_down(&mut self) -> Option<W> {
        self.reading = false;
        if let Listener::Waiting(listener) = &self.listener {
            return Some(listener.clone());
        }
        self.slots.iter().find_map(|slot| match &slot.state {
            SlotState::Parked(waiter) => Some(waiter.clone()),
            _ => None,
        })
    }

    /// Takes the baton for a probe of the socket if nobody has it.
    pub(crate) fn try_take(&mut self) -> bool {
        if self.closed || self.is_read() {
            return false;
        }
        self.reading = true;
        true
    }

    /// The listener's step at start, and again each time it wakes:
    /// `true` once the baton is its own. It never puts it down.
    pub(crate) fn listener_enter(&mut self, me: impl FnOnce() -> W) -> bool {
        if self.reading {
            if matches!(self.listener, Listener::Absent) {
                self.listener = Listener::Waiting(me());
            }
            return false;
        }
        self.listener = Listener::Reading;
        true
    }

    /// Whether a listener has been started (and has not gone).
    pub(crate) fn has_listener(&self) -> bool {
        !matches!(self.listener, Listener::Absent)
    }

    /// The connection is over: refuses new calls, fails every call in
    /// flight with `failed()`, and returns everyone to wake. Idempotent.
    pub(crate) fn fail_all(&mut self, mut failed: impl FnMut() -> R) -> Vec<W> {
        self.closed = true;
        let mut wake = Vec::new();
        for slot in &mut self.slots {
            if matches!(slot.state, SlotState::Filled(_)) {
                continue;
            }
            if let SlotState::Parked(owner) =
                std::mem::replace(&mut slot.state, SlotState::Filled(failed()))
            {
                wake.push(owner);
            }
        }
        if let Listener::Waiting(listener) = std::mem::replace(&mut self.listener, Listener::Absent)
        {
            wake.push(listener);
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    //! Every interleaving, not a sample of them.
    //!
    //! The model runs the real [`Baton`] under a scheduler that may pick
    //! any enabled step next: three callers (send, enter, read a frame,
    //! wake up), one baton holder without a call (a listener that stays,
    //! or a liveness probe that looks and leaves), and the world around
    //! them (a reply arriving — in any order —, a caller's deadline
    //! passing, the wire breaking). A wake-up is a token, as with
    //! `Thread::unpark`: set by whoever was told to wake the thread,
    //! consumed when the thread runs. The search visits every reachable
    //! state once and checks the hand-off rules in each.

    use super::*;
    use std::collections::{HashSet, VecDeque};

    const CALLERS: usize = 3;
    /// The wake token index of the holder without a call.
    const HOLDER: usize = CALLERS;

    /// `Some(serial)`: the reply to that call; `None`: the connection
    /// failed first.
    type Model = Baton<usize, Option<u32>>;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum End {
        Reply,
        TimedOut,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Caller {
        Idle,
        Sent,
        Reading,
        Parked,
        Finished(End),
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Holder {
        /// Not part of this run, or not started yet.
        Off,
        ListenerWaiting,
        ListenerReading,
        Probing,
        Gone,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Delivery {
        Pending,
        /// Read by its own caller.
        Direct,
        /// Filed in its caller's slot by another reader.
        Filed,
        /// Read after its caller had given up.
        Late,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Send(usize),
        Run(usize),
        Read(usize),
        ReaderTimesOut(usize),
        Reply(usize),
        Deadline(usize),
        Break,
        HolderStarts,
        HolderRuns,
        HolderReads,
        ProbeEnds,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        baton: Model,
        callers: [Caller; CALLERS],
        holder: Holder,
        woken: [bool; CALLERS + 1],
        expired: [bool; CALLERS],
        /// Reply frames sent by the peer and not yet read, oldest first.
        wire: VecDeque<usize>,
        replied: [bool; CALLERS],
        broken: bool,
        delivery: [Delivery; CALLERS],
    }

    #[derive(Clone, Copy)]
    struct Scenario {
        listener: bool,
        probe: bool,
        deadlines: bool,
        breaks: bool,
    }

    impl World {
        fn new() -> World {
            World {
                baton: Baton::new(),
                callers: [Caller::Idle; CALLERS],
                holder: Holder::Off,
                woken: [false; CALLERS + 1],
                expired: [false; CALLERS],
                wire: VecDeque::new(),
                replied: [false; CALLERS],
                broken: false,
                delivery: [Delivery::Pending; CALLERS],
            }
        }

        fn slot_is_filled(&self, caller: usize) -> bool {
            self.baton.slots.iter().any(|slot| {
                slot.serial == caller as u32 && matches!(slot.state, SlotState::Filled(_))
            })
        }

        fn wake(&mut self, waiter: Option<usize>) {
            if let Some(waiter) = waiter {
                self.woken[waiter] = true;
            }
        }

        fn finish(&mut self, caller: usize, filed: Option<u32>) {
            self.callers[caller] = Caller::Finished(match filed {
                Some(serial) => {
                    assert_eq!(serial, caller as u32, "a reply filed in the wrong slot");
                    End::Reply
                }
                None => End::Disconnected,
            });
        }

        /// `enter`, as the call path drives it: after the send and after
        /// every wake-up, with the deadline looked at before parking.
        fn enter(&mut self, caller: usize) {
            match self.baton.enter(caller as u32, || caller) {
                Enter::Done(filed) => self.finish(caller, filed),
                Enter::Read => self.callers[caller] = Caller::Reading,
                Enter::Wait if self.expired[caller] => {
                    self.baton.abandon(caller as u32);
                    self.callers[caller] = Caller::Finished(End::TimedOut);
                }
                Enter::Wait => self.callers[caller] = Caller::Parked,
            }
        }

        /// The baton holder files a frame that is not its own.
        fn route(&mut self, frame: usize) {
            assert_eq!(
                self.delivery[frame],
                Delivery::Pending,
                "a frame read twice"
            );
            match self.baton.route(frame as u32, || Some(frame as u32)) {
                Routed::Filed(owner) => {
                    self.delivery[frame] = Delivery::Filed;
                    self.wake(owner);
                }
                Routed::Late => self.delivery[frame] = Delivery::Late,
            }
        }

        /// A reading caller's call is over, as the call path ends it.
        fn leave(&mut self, caller: usize) -> Option<usize> {
            self.baton.abandon(caller as u32);
            self.baton.put_down()
        }

        /// The wire failed under the baton holder.
        fn fail(&mut self) {
            for waiter in self.baton.fail_all(|| None) {
                self.woken[waiter] = true;
            }
        }

        fn steps(&self, scenario: Scenario) -> Vec<Step> {
            let mut steps = Vec::new();
            for (i, caller) in self.callers.iter().enumerate() {
                match caller {
                    Caller::Idle => steps.push(Step::Send(i)),
                    Caller::Sent => steps.push(Step::Run(i)),
                    Caller::Parked if self.woken[i] => steps.push(Step::Run(i)),
                    Caller::Reading => {
                        if !self.wire.is_empty() || self.broken {
                            steps.push(Step::Read(i));
                        }
                        if self.expired[i] {
                            steps.push(Step::ReaderTimesOut(i));
                        }
                    }
                    Caller::Parked | Caller::Finished(_) => {}
                }
                let in_flight = !matches!(caller, Caller::Idle | Caller::Finished(_));
                if in_flight && scenario.deadlines && !self.expired[i] {
                    steps.push(Step::Deadline(i));
                }
                if !matches!(caller, Caller::Idle) && !self.replied[i] && !self.broken {
                    steps.push(Step::Reply(i));
                }
            }
            if scenario.breaks && !self.broken {
                steps.push(Step::Break);
            }
            match self.holder {
                Holder::Off if scenario.listener || scenario.probe => {
                    steps.push(Step::HolderStarts);
                }
                Holder::ListenerWaiting if self.woken[HOLDER] => steps.push(Step::HolderRuns),
                Holder::ListenerReading | Holder::Probing => {
                    if !self.wire.is_empty() || self.broken {
                        steps.push(Step::HolderReads);
                    }
                    if self.holder == Holder::Probing {
                        steps.push(Step::ProbeEnds);
                    }
                }
                _ => {}
            }
            steps
        }

        fn apply(&mut self, step: Step, scenario: Scenario) {
            match step {
                Step::Send(i) => {
                    self.callers[i] = if self.baton.register(i as u32) {
                        Caller::Sent
                    } else {
                        Caller::Finished(End::Disconnected)
                    };
                }
                Step::Run(i) => {
                    self.woken[i] = false;
                    self.enter(i);
                }
                Step::Read(i) => match self.wire.pop_front() {
                    Some(frame) if frame == i => {
                        assert_eq!(self.delivery[i], Delivery::Pending, "a frame read twice");
                        self.delivery[i] = Delivery::Direct;
                        let next = self.leave(i);
                        self.wake(next);
                        self.callers[i] = Caller::Finished(End::Reply);
                    }
                    Some(frame) => self.route(frame),
                    None => {
                        self.fail();
                        self.leave(i);
                        self.callers[i] = Caller::Finished(End::Disconnected);
                    }
                },
                Step::ReaderTimesOut(i) => {
                    let next = self.leave(i);
                    self.wake(next);
                    self.callers[i] = Caller::Finished(End::TimedOut);
                }
                Step::Reply(i) => {
                    self.replied[i] = true;
                    self.wire.push_back(i);
                }
                Step::Deadline(i) => {
                    self.expired[i] = true;
                    // `park_timeout` returns.
                    if self.callers[i] == Caller::Parked {
                        self.woken[i] = true;
                    }
                }
                Step::Break => self.broken = true,
                Step::HolderStarts if scenario.probe => {
                    self.holder = if self.baton.try_take() {
                        Holder::Probing
                    } else {
                        Holder::Gone
                    };
                }
                Step::HolderStarts | Step::HolderRuns => {
                    self.woken[HOLDER] = false;
                    self.holder = if self.baton.is_closed() {
                        Holder::Gone
                    } else if self.baton.listener_enter(|| HOLDER) {
                        Holder::ListenerReading
                    } else {
                        Holder::ListenerWaiting
                    };
                }
                Step::HolderReads => match self.wire.pop_front() {
                    Some(frame) => self.route(frame),
                    None => {
                        self.fail();
                        if self.holder == Holder::Probing {
                            self.baton.put_down();
                        }
                        self.holder = Holder::Gone;
                    }
                },
                Step::ProbeEnds => {
                    let next = self.baton.put_down();
                    self.wake(next);
                    self.holder = Holder::Gone;
                }
            }
        }

        /// The rules, checked in every reachable state.
        fn check(&self, scenario: Scenario) {
            let reading = self
                .callers
                .iter()
                .filter(|caller| **caller == Caller::Reading)
                .count()
                + usize::from(matches!(
                    self.holder,
                    Holder::ListenerReading | Holder::Probing
                ));
            assert!(reading <= 1, "two readers");
            assert_eq!(
                self.baton.is_read(),
                reading == 1,
                "the baton disagrees with who is reading"
            );

            let someone_woken = self.woken.iter().any(|woken| *woken);
            for (i, caller) in self.callers.iter().enumerate() {
                if *caller != Caller::Parked || self.woken[i] {
                    continue;
                }
                assert!(
                    !self.slot_is_filled(i),
                    "caller {i} has its reply and was not woken"
                );
                assert!(
                    reading == 1 || someone_woken,
                    "caller {i} waits, nobody reads and nobody was woken to"
                );
            }

            for (i, caller) in self.callers.iter().enumerate() {
                let Caller::Finished(end) = caller else {
                    continue;
                };
                let delivered = matches!(self.delivery[i], Delivery::Direct | Delivery::Filed);
                assert_eq!(
                    *end == End::Reply,
                    delivered,
                    "caller {i} ended {end:?} with its reply {:?}",
                    self.delivery[i]
                );
                assert!(*end != End::TimedOut || self.expired[i]);
                assert!(*end != End::Disconnected || self.baton.is_closed());
            }

            // Nothing may depend on a deadline or a failure to make
            // progress: if only those are left, every call is over.
            let stuck = self
                .steps(scenario)
                .iter()
                .all(|step| matches!(step, Step::Deadline(_) | Step::Break));
            if stuck {
                for (i, caller) in self.callers.iter().enumerate() {
                    assert!(
                        matches!(caller, Caller::Finished(_)),
                        "caller {i} is stuck in {caller:?}"
                    );
                }
                assert!(self.baton.slots.is_empty(), "a slot outlived its call");
            }
        }
    }

    /// Visits every state reachable under `scenario`; returns how many.
    fn explore(scenario: Scenario) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![(World::new(), Vec::<Step>::new())];
        while let Some((world, path)) = stack.pop() {
            if !seen.insert(world.clone()) {
                continue;
            }
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                world.check(scenario);
            }));
            if let Err(violation) = checked {
                eprintln!("violated after {path:?}");
                std::panic::resume_unwind(violation);
            }
            for step in world.steps(scenario) {
                let mut next = world.clone();
                let mut path = path.clone();
                path.push(step);
                let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    next.apply(step, scenario);
                }));
                if let Err(violation) = applied {
                    eprintln!("violated by {path:?}");
                    std::panic::resume_unwind(violation);
                }
                stack.push((next, path));
            }
        }
        seen.len()
    }

    #[test]
    fn callers_alone_hand_the_baton_on_in_every_interleaving() {
        let states = explore(Scenario {
            listener: false,
            probe: false,
            deadlines: true,
            breaks: true,
        });
        assert!(
            states > 10_000,
            "only {states} states: the model lost its steps"
        );
    }

    #[test]
    fn a_listener_may_start_at_any_point_of_any_interleaving() {
        let states = explore(Scenario {
            listener: true,
            probe: false,
            deadlines: true,
            breaks: true,
        });
        assert!(
            states > 10_000,
            "only {states} states: the model lost its steps"
        );
    }

    #[test]
    fn a_liveness_probe_may_cut_in_at_any_point_of_any_interleaving() {
        let states = explore(Scenario {
            listener: false,
            probe: true,
            deadlines: true,
            breaks: true,
        });
        assert!(
            states > 10_000,
            "only {states} states: the model lost its steps"
        );
    }

    #[test]
    fn a_closed_connection_refuses_new_calls() {
        let mut baton: Model = Baton::new();
        assert!(baton.register(1));
        assert!(baton.fail_all(|| None).is_empty(), "nobody was parked");
        assert!(!baton.register(2));
        assert_eq!(baton.enter(1, || 0), Enter::Done(None));
    }
}
