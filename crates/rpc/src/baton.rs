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
//! A connection that expects frames nobody asked for (events, keepalive)
//! also has a *watch*: the listener's epoll registration of the
//! connection's socket, which is armed exactly while no call is
//! registered and nobody holds
//! the baton. The listener never blocks in a receive: woken by the
//! watch, it takes the baton ([`Baton::take_armed`]), reads what has
//! arrived without blocking, and puts the baton down again. A call
//! disarms the watch when it opens its slot, before it sends, so its
//! reply wakes nobody and a subscribed caller reads its own reply as an
//! unsubscribed one does. A read pulls in whatever has arrived, and no
//! edge announces a frame already pulled in: a holder that puts the
//! baton down on a watched connection first routes every complete frame
//! still buffered.
//!
//! Nothing here blocks, reads a clock or touches a socket: every method
//! is one step taken under the connection's lock, and whom to wake — and
//! whether to arm or disarm the watch ([`Baton::settle_watch`]) — is
//! *returned*, for the caller to act on. That keeps the rules small
//! enough to enumerate: the tests at the bottom walk every interleaving
//! of three callers, the listener, a liveness probe, replies and an
//! event in any order, deadlines and a broken wire.

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

/// What the holder does after [`Baton::put_down`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PutDown<W> {
    /// A complete frame is buffered on a watched connection, and no edge
    /// will announce it: route it, then put the baton down again.
    Route,
    /// The baton is down; wake this waiter, if any, to read on.
    Wake(Option<W>),
}

/// The receive side of one connection. `W` is whatever wakes a waiter
/// (a thread handle), `R` a filed reply.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Baton<W, R> {
    /// Few and short-lived: a linear scan beats hashing the serial.
    slots: Vec<Slot<W, R>>,
    /// Somebody holds the baton: a caller, the listener or a probe.
    held: bool,
    /// The connection has a listener's watch.
    watched: bool,
    /// The watch is armed, as of the last [`Baton::settle_watch`].
    armed: bool,
    closed: bool,
}

impl<W: Clone, R> Baton<W, R> {
    pub(crate) fn new() -> Self {
        Baton {
            slots: Vec::new(),
            held: false,
            watched: false,
            armed: false,
            closed: false,
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Whether anybody holds the baton.
    #[cfg(test)]
    pub(crate) fn is_read(&self) -> bool {
        self.held
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
        let taken = self.held;
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
        self.held = true;
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
    /// passed, the wire broke, its look is done — and returns the one
    /// waiter to wake, so the socket is never left unread while someone
    /// waits on it. The woken caller may find the baton gone again (a
    /// fresh caller took it first) and simply parks again behind that
    /// one. On a watched connection the holder is first sent back to
    /// route what `buffered` says is still buffered: a frame that has
    /// been read off the socket raises no edge, so nobody else would.
    pub(crate) fn put_down(&mut self, buffered: impl FnOnce() -> bool) -> PutDown<W> {
        if self.watched && !self.closed && buffered() {
            return PutDown::Route;
        }
        self.held = false;
        PutDown::Wake(self.slots.iter().find_map(|slot| match &slot.state {
            SlotState::Parked(waiter) => Some(waiter.clone()),
            _ => None,
        }))
    }

    /// Takes the baton for a look at the socket if nobody has it.
    pub(crate) fn try_take(&mut self) -> bool {
        if self.closed || self.held {
            return false;
        }
        self.held = true;
        true
    }

    /// Takes the baton for the listener, which its watch woke: only while
    /// the watch is armed — a wake-up that raced a call's registration
    /// leaves that call's reply to its caller.
    pub(crate) fn take_armed(&mut self) -> bool {
        if !self.armed {
            return false;
        }
        self.held = true;
        true
    }

    /// The connection gets a listener's watch, disarmed until the next
    /// [`Baton::settle_watch`].
    pub(crate) fn watch(&mut self) {
        self.watched = true;
    }

    /// Whether the connection has a listener's watch.
    pub(crate) fn is_watched(&self) -> bool {
        self.watched
    }

    /// The one rule of the watch: armed exactly while nobody holds the
    /// baton, no call is registered and the connection is open. Returns
    /// `Some(armed)` when the watch must be armed or disarmed to keep it,
    /// `None` when it already does. Whoever changed the state steps here
    /// before releasing the lock; arming a watch reports what is already
    /// waiting on the socket as a new edge.
    pub(crate) fn settle_watch(&mut self) -> Option<bool> {
        let armed = self.watched && !self.closed && !self.held && self.slots.is_empty();
        if armed == self.armed {
            return None;
        }
        self.armed = armed;
        Some(armed)
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
        wake
    }
}

#[cfg(test)]
mod tests {
    //! Every interleaving, not a sample of them.
    //!
    //! The model runs the real [`Baton`] under a scheduler that may pick
    //! any enabled step next: three callers (send, enter, read a frame,
    //! route what is buffered on the way out, wake up), the listener
    //! (started at any point, woken by its watch, reading until nothing
    //! is left), a liveness probe that looks and leaves, and the world
    //! around them (a reply arriving — in any order —, an event pushed, a
    //! caller's deadline passing, the wire breaking). A read pulls in
    //! every frame that has arrived: the first is served, the rest stay
    //! buffered. The watch is a kernel registration: an edge reaches the
    //! listener when a frame arrives while it is armed, or when it is
    //! armed with frames waiting; a starting listener looks first, taking
    //! the baton if it is free. A wake-up is a token, as with
    //! `Thread::unpark` or an eventfd: set by whoever was told to wake the
    //! thread, consumed when the thread runs. The search visits every
    //! reachable state once and checks the rules in each.

    use super::*;
    use std::collections::{HashSet, VecDeque};

    const CALLERS: usize = 3;
    /// Frames `0..CALLERS` are the callers' replies; this one is an event.
    const EVENT: usize = CALLERS;

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
        /// Its call is over and its slot gone, but it still holds the
        /// baton: routing what is buffered before it may put it down.
        Leaving(End),
        Finished(End),
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Listener {
        /// Not part of this run, or not started yet.
        Off,
        /// Its watch exists; its thread has yet to take its first look.
        Starting,
        /// In its poller's wait.
        Waiting,
        /// Holds the baton: reads until nothing is left.
        Reading,
        Gone,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Probe {
        Off,
        Probing,
        Gone,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Delivery {
        Pending,
        /// Read by its own caller.
        Direct,
        /// Filed in its caller's slot by another reader, or, for the
        /// event, handed to the handler.
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
        RouteBuffered(usize),
        Reply(usize),
        Push,
        Deadline(usize),
        Break,
        ListenerStarts,
        ListenerLooks,
        ListenerWakes,
        ListenerReads,
        ListenerPutsDown,
        ProbeStarts,
        ProbeReads,
        ProbeEnds,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        baton: Model,
        callers: [Caller; CALLERS],
        listener: Listener,
        probe: Probe,
        woken: [bool; CALLERS],
        expired: [bool; CALLERS],
        /// Frames sent by the peer and not yet read, oldest first.
        wire: VecDeque<usize>,
        /// Frames a read pulled in beyond the one it served.
        buffered: VecDeque<usize>,
        /// The kernel side of the watch: its interest set.
        armed: bool,
        /// An edge (or a close's wake-up) waits for the listener.
        edge: bool,
        replied: [bool; CALLERS],
        pushed: bool,
        broken: bool,
        delivery: [Delivery; CALLERS + 1],
    }

    #[derive(Clone, Copy)]
    struct Scenario {
        listener: bool,
        probe: bool,
        /// How many callers have a deadline (the first ones).
        deadlines: usize,
        breaks: bool,
    }

    impl World {
        fn new() -> World {
            World {
                baton: Baton::new(),
                callers: [Caller::Idle; CALLERS],
                listener: Listener::Off,
                probe: Probe::Off,
                woken: [false; CALLERS],
                expired: [false; CALLERS],
                wire: VecDeque::new(),
                buffered: VecDeque::new(),
                armed: false,
                edge: false,
                replied: [false; CALLERS],
                pushed: false,
                broken: false,
                delivery: [Delivery::Pending; CALLERS + 1],
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

        /// A frame arrives on the socket: an armed watch reports it.
        fn arrive(&mut self, frame: usize) {
            self.wire.push_back(frame);
            if self.armed {
                self.edge = true;
            }
        }

        /// What a read gets: a buffered frame first, else the oldest on
        /// the wire, pulling in everything behind it. `None`: nothing has
        /// arrived.
        fn read_frame(&mut self) -> Option<usize> {
            if let Some(frame) = self.buffered.pop_front() {
                return Some(frame);
            }
            let frame = self.wire.pop_front()?;
            self.buffered.extend(self.wire.drain(..));
            Some(frame)
        }

        fn nothing_arrived(&self) -> bool {
            self.buffered.is_empty() && self.wire.is_empty()
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

        /// The baton holder delivers a frame that is not its own.
        fn route(&mut self, frame: usize) {
            assert_eq!(
                self.delivery[frame],
                Delivery::Pending,
                "a frame read twice"
            );
            if frame == EVENT {
                self.delivery[frame] = Delivery::Filed;
                return;
            }
            match self.baton.route(frame as u32, || Some(frame as u32)) {
                Routed::Filed(owner) => {
                    self.delivery[frame] = Delivery::Filed;
                    self.wake(owner);
                }
                Routed::Late => self.delivery[frame] = Delivery::Late,
            }
        }

        /// `put_down`, as every holder drives it. `false`: routing what
        /// is buffered comes first.
        fn put_down(&mut self) -> bool {
            let buffered = !self.buffered.is_empty();
            match self.baton.put_down(|| buffered) {
                PutDown::Route => false,
                PutDown::Wake(next) => {
                    // Nothing read off the socket stays buffered once the
                    // baton is down on a listened connection: no edge
                    // would announce it.
                    assert!(
                        !self.baton.is_watched() || self.baton.is_closed() || !buffered,
                        "frames {:?} stay buffered with the baton down",
                        self.buffered
                    );
                    self.wake(next);
                    true
                }
            }
        }

        /// A reading caller's call is over, as the call path ends it.
        fn leave(&mut self, caller: usize, end: End) {
            self.baton.abandon(caller as u32);
            self.callers[caller] = if self.put_down() {
                Caller::Finished(end)
            } else {
                Caller::Leaving(end)
            };
        }

        /// The wire failed under the baton holder, which closes the
        /// connection: every waiter is failed, the listener woken.
        fn fail(&mut self) {
            for waiter in self.baton.fail_all(|| None) {
                self.woken[waiter] = true;
            }
            self.edge = true;
        }

        /// Every unlock: the watch is armed or disarmed as the baton says,
        /// and arming a socket with frames waiting on it is an edge.
        fn settle(&mut self) {
            if let Some(armed) = self.baton.settle_watch() {
                self.armed = armed;
                if armed && (!self.wire.is_empty() || self.broken) {
                    self.edge = true;
                }
            }
        }

        fn steps(&self, scenario: Scenario) -> Vec<Step> {
            let mut steps = Vec::new();
            let readable = !self.nothing_arrived() || self.broken;
            for (i, caller) in self.callers.iter().enumerate() {
                match caller {
                    Caller::Idle => steps.push(Step::Send(i)),
                    Caller::Sent => steps.push(Step::Run(i)),
                    Caller::Parked if self.woken[i] => steps.push(Step::Run(i)),
                    Caller::Reading => {
                        if readable {
                            steps.push(Step::Read(i));
                        }
                        if self.expired[i] {
                            steps.push(Step::ReaderTimesOut(i));
                        }
                    }
                    Caller::Leaving(_) => steps.push(Step::RouteBuffered(i)),
                    Caller::Parked | Caller::Finished(_) => {}
                }
                let in_flight = matches!(caller, Caller::Sent | Caller::Reading | Caller::Parked);
                if in_flight && i < scenario.deadlines && !self.expired[i] {
                    steps.push(Step::Deadline(i));
                }
                if !matches!(caller, Caller::Idle) && !self.replied[i] && !self.broken {
                    steps.push(Step::Reply(i));
                }
            }
            if scenario.listener && !self.pushed && !self.broken {
                steps.push(Step::Push);
            }
            if scenario.breaks && !self.broken {
                steps.push(Step::Break);
            }
            match self.listener {
                Listener::Off if scenario.listener => steps.push(Step::ListenerStarts),
                Listener::Starting => steps.push(Step::ListenerLooks),
                Listener::Waiting if self.edge => steps.push(Step::ListenerWakes),
                Listener::Reading if readable => steps.push(Step::ListenerReads),
                Listener::Reading => steps.push(Step::ListenerPutsDown),
                _ => {}
            }
            match self.probe {
                Probe::Off if scenario.probe => steps.push(Step::ProbeStarts),
                Probe::Probing => {
                    if readable {
                        steps.push(Step::ProbeReads);
                    }
                    // A transport that cannot look without blocking ends
                    // the look at once; one that can looks until nothing
                    // is left.
                    if !scenario.listener || (self.nothing_arrived() && !self.broken) {
                        steps.push(Step::ProbeEnds);
                    }
                }
                _ => {}
            }
            steps
        }

        fn apply(&mut self, step: Step) {
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
                Step::Read(i) => match self.read_frame() {
                    Some(frame) if frame == i => {
                        assert_eq!(self.delivery[i], Delivery::Pending, "a frame read twice");
                        self.delivery[i] = Delivery::Direct;
                        self.leave(i, End::Reply);
                    }
                    Some(frame) => self.route(frame),
                    None => {
                        self.fail();
                        self.leave(i, End::Disconnected);
                    }
                },
                Step::ReaderTimesOut(i) => self.leave(i, End::TimedOut),
                Step::RouteBuffered(i) => {
                    let Caller::Leaving(end) = self.callers[i] else {
                        unreachable!("only a leaving caller routes on its way out");
                    };
                    let frame = self
                        .buffered
                        .pop_front()
                        .expect("sent back to route nothing");
                    self.route(frame);
                    if self.put_down() {
                        self.callers[i] = Caller::Finished(end);
                    }
                }
                Step::Reply(i) => {
                    self.replied[i] = true;
                    self.arrive(i);
                }
                Step::Push => {
                    self.pushed = true;
                    self.arrive(EVENT);
                }
                Step::Deadline(i) => {
                    self.expired[i] = true;
                    // `park_timeout` returns.
                    if self.callers[i] == Caller::Parked {
                        self.woken[i] = true;
                    }
                }
                Step::Break => {
                    // The hang-up is readable news, and raises an edge.
                    self.broken = true;
                    if self.armed {
                        self.edge = true;
                    }
                }
                Step::ListenerStarts => {
                    self.listener = if self.baton.is_closed() {
                        Listener::Gone
                    } else {
                        self.baton.watch();
                        Listener::Starting
                    };
                }
                Step::ListenerLooks => {
                    self.listener = if self.baton.is_closed() {
                        Listener::Gone
                    } else if self.baton.try_take() {
                        Listener::Reading
                    } else {
                        Listener::Waiting
                    };
                }
                Step::ListenerWakes => {
                    self.edge = false;
                    if self.baton.is_closed() {
                        self.listener = Listener::Gone;
                    } else if self.baton.take_armed() {
                        self.listener = Listener::Reading;
                    }
                }
                Step::ListenerReads => match self.read_frame() {
                    Some(frame) => self.route(frame),
                    None => {
                        self.fail();
                        assert!(self.put_down(), "a closed connection has nothing to route");
                        self.listener = Listener::Waiting;
                    }
                },
                Step::ListenerPutsDown => {
                    assert!(self.put_down(), "the listener read everything");
                    self.listener = Listener::Waiting;
                }
                Step::ProbeStarts => {
                    self.probe = if self.baton.try_take() {
                        Probe::Probing
                    } else {
                        Probe::Gone
                    };
                }
                Step::ProbeReads => match self.read_frame() {
                    Some(frame) => self.route(frame),
                    None => {
                        self.fail();
                        assert!(self.put_down(), "a closed connection has nothing to route");
                        self.probe = Probe::Gone;
                    }
                },
                Step::ProbeEnds => {
                    assert!(self.put_down(), "the probe read everything");
                    self.probe = Probe::Gone;
                }
            }
            self.settle();
        }

        /// The rules, checked in every reachable state.
        fn check(&self, scenario: Scenario) {
            let holding = self
                .callers
                .iter()
                .filter(|caller| matches!(caller, Caller::Reading | Caller::Leaving(_)))
                .count()
                + usize::from(self.listener == Listener::Reading)
                + usize::from(self.probe == Probe::Probing);
            assert!(holding <= 1, "two readers");
            assert_eq!(
                self.baton.is_read(),
                holding == 1,
                "the baton disagrees with who is reading"
            );

            // The watch: armed exactly while no call is registered and
            // nobody holds the baton (and the connection is open).
            if self.baton.is_watched() {
                let registered = self.callers.iter().any(|caller| {
                    matches!(caller, Caller::Sent | Caller::Reading | Caller::Parked)
                });
                assert_eq!(
                    self.armed,
                    !registered && holding == 0 && !self.baton.is_closed(),
                    "the watch is {} with a call registered: {registered}, held: {}",
                    if self.armed { "armed" } else { "disarmed" },
                    holding == 1
                );
            }

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
                    holding == 1 || someone_woken,
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
            // progress: if only those are left, every call is over — and
            // on a connection with a listener, every frame was read.
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
                if scenario.listener && !self.baton.is_closed() {
                    assert_eq!(
                        self.delivery[EVENT],
                        Delivery::Filed,
                        "the event was never handed up: wire {:?}, buffered {:?}",
                        self.wire,
                        self.buffered
                    );
                    assert!(self.nothing_arrived(), "frames nobody will read");
                    assert!(!self.broken, "a hang-up nobody will see");
                }
            }
        }
    }

    /// Visits every state reachable under `scenario`; returns how many.
    fn explore(scenario: Scenario) -> usize {
        let mut seen = HashSet::new();
        visit(World::new(), scenario, &mut seen, &mut Vec::new());
        seen.len()
    }

    /// Depth first from `world`, reached by `path`, which names the steps
    /// to a violation.
    fn visit(world: World, scenario: Scenario, seen: &mut HashSet<World>, path: &mut Vec<Step>) {
        if !seen.insert(world.clone()) {
            return;
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
            path.push(step);
            let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                next.apply(step);
            }));
            if let Err(violation) = applied {
                eprintln!("violated by {path:?}");
                std::panic::resume_unwind(violation);
            }
            visit(next, scenario, seen, path);
            path.pop();
        }
    }

    #[test]
    fn callers_alone_hand_the_baton_on_in_every_interleaving() {
        let states = explore(Scenario {
            listener: false,
            probe: false,
            deadlines: CALLERS,
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
            deadlines: 1,
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
            deadlines: CALLERS,
            breaks: true,
        });
        assert!(
            states > 10_000,
            "only {states} states: the model lost its steps"
        );
    }

    #[test]
    fn a_probe_may_cut_in_on_a_listened_connection() {
        let states = explore(Scenario {
            listener: true,
            probe: true,
            deadlines: 0,
            breaks: false,
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

    #[test]
    fn a_call_disarms_the_watch_before_it_sends_and_its_end_rearms_it() {
        let mut baton: Model = Baton::new();
        baton.watch();
        assert_eq!(baton.settle_watch(), Some(true), "idle: armed");
        assert!(baton.register(1));
        assert_eq!(baton.settle_watch(), Some(false), "registered: disarmed");
        assert_eq!(baton.enter(1, || 0), Enter::Read);
        assert_eq!(baton.settle_watch(), None);
        baton.abandon(1);
        assert_eq!(
            baton.put_down(|| true),
            PutDown::Route,
            "an event read with the reply"
        );
        assert_eq!(baton.put_down(|| false), PutDown::Wake(None));
        assert_eq!(
            baton.settle_watch(),
            Some(true),
            "down and idle: armed again"
        );
    }
}
