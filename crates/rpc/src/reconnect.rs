//! Transparent reconnection: a [`CallClient`] that survives its transport.
//!
//! A [`ReconnectingClient`] owns a transport *factory* rather than a
//! transport: when the current connection dies (I/O error, peer close,
//! keepalive verdict) the next call re-dials, replays the session
//! handshake through a caller-supplied [`SessionSetup`] closure
//! (authentication, `OPEN`, event re-registration), and re-installs the
//! event handler — callers never observe the generation change.
//!
//! What to do when — retry an idempotent call, fail fast on the circuit
//! breaker, ping, give a silent peer up — is the session state machine's
//! decision (`session.rs`); this driver does what it says, and reads the
//! time and sleeps through one clock.
//!
//! A generation costs no thread unless it must hear from the daemon
//! unasked — keepalive is configured, or [`ReconnectingClient::listen`]
//! was called for an event subscription — and then exactly one: the
//! [`CallClient`] listener, which also drives the keepalive probe from
//! its receive deadline.
//!
//! Everything is observable through [`ReconnectMetrics`].

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::client::{CallClient, CallError};
use crate::clock::Clock;
use crate::keepalive::{self, KeepaliveConfig};
use crate::message::Packet;
use crate::session::{ends_call, Breaker, Call, Failure, Session, Step, Tick};
use crate::transport::Transport;
use crate::xdr::{XdrDecode, XdrEncode, XdrError};

/// Dials a fresh transport to the same endpoint.
pub type TransportFactory = Box<dyn Fn() -> io::Result<Arc<dyn Transport>> + Send + Sync>;

/// Replays the session handshake (authentication, open, event
/// subscriptions) on a freshly dialed client. Runs once at construction
/// and again after every re-dial.
pub type SessionSetup = Box<dyn Fn(&CallClient) -> Result<(), CallError> + Send + Sync>;

/// Resilience settings, assembled by the connection builder. The retry
/// ladder, the retry budget and the breaker are constants of the session.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectConfig {
    /// Whether a dead connection is re-dialed on the next call. When
    /// `false` the wrapper behaves like a plain [`CallClient`].
    pub auto_reconnect: bool,
    /// How many times an idempotent call may be re-issued after a
    /// connection failure (0: never).
    pub retries: u32,
    /// Keepalive probing per generation (`None` disables it).
    pub keepalive: Option<KeepaliveConfig>,
    /// Default per-call deadline, measured from call entry and spanning
    /// retries. `None` leaves the [`CallClient`] default timeout in
    /// force per attempt.
    pub call_deadline: Option<std::time::Duration>,
}

impl Default for ReconnectConfig {
    /// Reconnects on the next call but never retries calls — the safest
    /// transparent default.
    fn default() -> Self {
        ReconnectConfig {
            auto_reconnect: true,
            retries: 0,
            keepalive: None,
            call_deadline: None,
        }
    }
}

virt_metrics::metric_set! {
    /// Client-side resilience counters. Shared `Arc<Counter>`s so the same
    /// atomics can live in a metrics registry and aggregate across
    /// connections: `ReconnectMetrics::new().attach(registry, "rpc.")`.
    pub struct ReconnectMetrics {
        reconnect_attempts: Counter = "reconnect.attempts",
            "Re-dial attempts after a dead connection";
        reconnect_successes: Counter = "reconnect.successes",
            "Re-dials that restored a working session";
        reconnect_failures: Counter = "reconnect.failures",
            "Re-dials that failed to restore a session";
        retries: Counter = "retry.calls",
            "Idempotent calls re-issued after a connection failure";
        breaker_transitions: Counter = "reconnect.breaker_transitions",
            "Reconnect circuit-breaker state transitions";
        breaker_fast_fails: Counter = "reconnect.breaker_fast_fails",
            "Calls rejected fast while the reconnect breaker was open";
        peer_byes: Counter = "reconnect.peer_byes",
            "Farewell messages received from cleanly shutting-down peers";
        callbacks_replayed: Counter = "reconnect.callbacks_replayed",
            "Event subscriptions re-registered after a reconnect";
    }
}

type SharedHandler = Arc<dyn Fn(Packet) + Send + Sync + 'static>;

/// What the lock guards: the session and what the driver keeps beside it.
struct State {
    session: Session,
    /// The live generation, swapped in when its setup succeeds.
    current: CallClient,
    /// Every generation gets a listener (set by `listen`, implied by
    /// keepalive).
    listening: bool,
}

struct Shared {
    factory: TransportFactory,
    setup: SessionSetup,
    call_deadline: Option<std::time::Duration>,
    metrics: ReconnectMetrics,
    clock: Clock,
    state: Mutex<State>,
    /// Signalled when a dial ends, for calls told to [`Step::Wait`].
    dial_done: Condvar,
    /// The caller's event handler, re-installed every generation.
    event_handler: Mutex<Option<SharedHandler>>,
}

/// A resilient client endpoint. Cloning shares the connection.
#[derive(Clone)]
pub struct ReconnectingClient {
    inner: Arc<Shared>,
}

impl std::fmt::Debug for ReconnectingClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("ReconnectingClient")
            .field("generation", &state.session.generation())
            .field("shut", &state.session.is_shut())
            .finish()
    }
}

/// A jitter seed per client, so clients re-dialing one restarted daemon
/// spread their retries.
fn next_seed() -> u64 {
    static CLIENTS: AtomicU64 = AtomicU64::new(0);
    crate::fnv1a(&CLIENTS.fetch_add(1, Ordering::Relaxed).to_le_bytes()) | 1
}

impl ReconnectingClient {
    /// A client whose first generation is `transport`, already dialed (so
    /// the caller classifies its dial errors), and which re-dials through
    /// `factory`; `setup` runs on it and on every generation after.
    ///
    /// # Errors
    ///
    /// `setup`'s error; the transport is closed on failure.
    pub fn with_transport(
        transport: Arc<dyn Transport>,
        factory: TransportFactory,
        setup: SessionSetup,
        config: ReconnectConfig,
        metrics: ReconnectMetrics,
    ) -> Result<Self, CallError> {
        let clock = Clock::System;
        let session = Session::new(
            config.retries,
            config.auto_reconnect,
            config.keepalive,
            next_seed(),
            clock.now(),
        );
        Self::start(transport, factory, setup, config, metrics, clock, session)
    }

    fn start(
        transport: Arc<dyn Transport>,
        factory: TransportFactory,
        setup: SessionSetup,
        config: ReconnectConfig,
        metrics: ReconnectMetrics,
        clock: Clock,
        session: Session,
    ) -> Result<Self, CallError> {
        let first = CallClient::from_arc(transport);
        let client = ReconnectingClient {
            inner: Arc::new(Shared {
                factory,
                setup,
                call_deadline: config.call_deadline,
                metrics,
                clock,
                state: Mutex::new(State {
                    session,
                    current: first.clone(),
                    listening: config.keepalive.is_some(),
                }),
                dial_done: Condvar::new(),
                event_handler: Mutex::new(None),
            }),
        };
        if let Err(e) = client.install_generation(&first, 1) {
            client.close();
            return Err(e);
        }
        if config.keepalive.is_some() {
            first.listen(client.keepalive_probe(1));
        }
        Ok(client)
    }

    /// Registers the handler invoked for every application event, on
    /// this and every future generation. Keepalive traffic is consumed
    /// internally and never reaches the handler. Events are handled when
    /// somebody reads them: promptly once [`ReconnectingClient::listen`]
    /// has been called, otherwise with the next call.
    pub fn set_event_handler(&self, handler: impl Fn(Packet) + Send + Sync + 'static) {
        *self.inner.event_handler.lock() = Some(Arc::new(handler));
    }

    /// Gives this generation and every future one a listener (see
    /// [`CallClient::listen`]), so events arrive without a call to carry
    /// them. Call it before subscribing to anything.
    pub fn listen(&self) {
        let (current, generation) = {
            let mut state = self.inner.state.lock();
            state.listening = true;
            (state.current.clone(), state.session.generation())
        };
        current.listen(self.keepalive_probe(generation));
    }

    /// Issues a call and blocks for the decoded reply.
    ///
    /// A dead connection is re-dialed first (any call may do this:
    /// nothing has been sent yet). After a *mid-call* connection failure
    /// only `idempotent` calls are re-issued, within their retries, the
    /// connection's retry budget and the deadline: the daemon may have
    /// executed a mutating one.
    ///
    /// # Errors
    ///
    /// - [`CallError::Remote`]: the daemon executed the call and said no,
    /// - [`CallError::TimedOut`]: deadline exceeded (never retried — the
    ///   outcome is unknown),
    /// - [`CallError::CircuitOpen`]: breaker rejecting re-dials,
    /// - [`CallError::Io`]/[`CallError::Disconnected`]: connection loss
    ///   that could not (or must not) be retried away,
    /// - [`CallError::Protocol`]: a reply that does not decode as `R`
    ///   (never retried: the daemon answered).
    pub fn call<R: XdrDecode>(
        &self,
        program: u32,
        procedure: u32,
        idempotent: bool,
        args: &impl XdrEncode,
        deadline: Option<Instant>,
    ) -> Result<R, CallError> {
        let mut reply = None;
        self.call_reading(
            program,
            procedure,
            idempotent,
            args,
            deadline,
            &mut |payload| {
                reply = Some(R::from_xdr(payload)?);
                Ok(())
            },
        )?;
        Ok(reply.expect("a call that succeeded decoded its reply"))
    }

    /// As [`ReconnectingClient::call`], but the reply's payload is handed
    /// to `read` where it lies instead of being decoded as one value —
    /// for a reader that takes a large reply apart piece by piece. `read`
    /// runs once, for the attempt that got a reply, while that
    /// connection's receive side is held; what it rejects is a
    /// [`CallError::Protocol`], which is never retried, so rows a reader
    /// already handed on are never handed on twice.
    ///
    /// # Errors
    ///
    /// As [`ReconnectingClient::call`].
    pub fn call_reading(
        &self,
        program: u32,
        procedure: u32,
        idempotent: bool,
        args: &impl XdrEncode,
        deadline: Option<Instant>,
        read: &mut dyn FnMut(&[u8]) -> Result<(), XdrError>,
    ) -> Result<(), CallError> {
        let shared = &*self.inner;
        let now = shared.clock.now();
        let deadline = deadline.or_else(|| shared.call_deadline.map(|limit| now + limit));
        let (mut call, mut step, mut client) = {
            let mut state = shared.state.lock();
            let (call, step) = state.session.begin(idempotent, deadline, now);
            (call, step, state.current.clone())
        };
        let mut last = CallError::Disconnected;
        loop {
            step = match step {
                Step::Send { look } => {
                    let dead = if look {
                        client.is_closed()
                    } else {
                        client.is_known_closed()
                    };
                    if !dead {
                        match client.read_with_deadline(program, procedure, args, deadline, read) {
                            Ok(()) => return Ok(()),
                            Err(e) if ends_call(&e) => return Err(e),
                            Err(e) => last = e,
                        }
                    }
                    self.feed(&mut call, &mut client, |state, call, now| {
                        state.session.lost(call, !dead, now)
                    })
                }
                Step::Wait => self.feed(&mut call, &mut client, resume),
                Step::Dial => self.redial(&mut call, &mut client, &mut last),
                Step::Setup(_) => unreachable!("only a dial starts a setup"),
                Step::Retry(pause) => {
                    shared.metrics.retries.inc();
                    shared.clock.sleep(pause);
                    self.feed(&mut call, &mut client, resume)
                }
                Step::Fail(Failure::Last) => return Err(last),
                Step::Fail(Failure::Disconnected) => return Err(CallError::Disconnected),
                Step::Fail(Failure::CircuitOpen) => {
                    shared.metrics.breaker_fast_fails.inc();
                    return Err(CallError::CircuitOpen);
                }
            };
        }
    }

    /// Whether the current generation is connected and the client has
    /// not been shut down — as of now: a connection nobody is reading
    /// is looked at first (see [`CallClient::is_closed`]).
    pub fn is_alive(&self) -> bool {
        let (shut, current) = {
            let state = self.inner.state.lock();
            (state.session.is_shut(), state.current.clone())
        };
        !shut && !current.is_closed()
    }

    /// How many times the connection has been established: 1 until the
    /// first reconnect.
    pub fn generation(&self) -> u64 {
        self.inner.state.lock().session.generation()
    }

    /// Shuts the client down for good: no more calls, no more re-dials.
    pub fn close(&self) {
        let current = {
            let mut state = self.inner.state.lock();
            state.session.close();
            state.current.clone()
        };
        self.inner.dial_done.notify_all();
        current.close();
    }

    /// Runs `f` against the current generation's [`CallClient`] without
    /// any resilience (close handshakes, onewy sends).
    pub fn with_current<T>(&self, f: impl FnOnce(&CallClient) -> T) -> T {
        let client = self.inner.state.lock().current.clone();
        f(&client)
    }

    /// Feeds one input to the session under the lock, at the clock's
    /// now; a call told to wait sleeps on the lock until a dial ends and
    /// is resumed. Counts the breaker's moves to closed or open, and
    /// leaves the current generation in `client`.
    fn feed(
        &self,
        call: &mut Call,
        client: &mut CallClient,
        input: impl FnOnce(&mut State, &mut Call, Instant) -> Step,
    ) -> Step {
        let shared = &*self.inner;
        let mut state = shared.state.lock();
        let before = state.session.breaker();
        let mut step = input(&mut state, call, shared.clock.now());
        while step == Step::Wait {
            shared.dial_done.wait(&mut state);
            step = state.session.resume(call, shared.clock.now());
        }
        let after = state.session.breaker();
        if std::mem::discriminant(&before) != std::mem::discriminant(&after)
            && after != Breaker::Probing
        {
            shared.metrics.breaker_transitions.inc();
        }
        *client = state.current.clone();
        step
    }

    /// One dial for `call` and, when it connects, the session setup on
    /// the fresh generation, which becomes current if the setup succeeds.
    fn redial(&self, call: &mut Call, client: &mut CallClient, last: &mut CallError) -> Step {
        let shared = &*self.inner;
        shared.metrics.reconnect_attempts.inc();
        let dialed = (shared.factory)();
        let ok = dialed.is_ok();
        let step = self.feed(call, client, |state, call, now| {
            state.session.dialed(call, ok, now)
        });
        let transport = match dialed {
            Ok(transport) => transport,
            Err(e) => {
                shared.metrics.reconnect_failures.inc();
                *last = CallError::Io(e);
                shared.dial_done.notify_all();
                return step;
            }
        };
        let Step::Setup(generation) = step else {
            unreachable!("a dial that connected is followed by its setup")
        };
        let fresh = CallClient::from_arc(transport);
        let result = self.install_generation(&fresh, generation);
        let outcome = result.as_ref().map(|_| ());
        let mut installed = false;
        let step = self.feed(call, client, |state, call, now| {
            let step = state.session.set_up(call, outcome, now);
            // Current, and listened to, from the moment the session counts
            // it up: no call is handed the dead generation after that, and
            // no `listen` misses it.
            if let Step::Send { .. } = step {
                state.current = fresh.clone();
                if state.listening {
                    fresh.listen(self.keepalive_probe(generation));
                }
                installed = true;
            }
            step
        });
        shared.dial_done.notify_all();
        match result {
            Ok(()) => shared.metrics.reconnect_successes.inc(),
            Err(e) => {
                shared.metrics.reconnect_failures.inc();
                *last = e;
            }
        }
        if !installed {
            fresh.close();
        }
        step
    }

    /// Wires a fresh generation: keepalive interception + user events,
    /// and the session handshake.
    fn install_generation(&self, client: &CallClient, generation: u64) -> Result<(), CallError> {
        // Weak: the handler must not keep the shared state (and thus the
        // generation chain) alive forever.
        let shared: Weak<Shared> = Arc::downgrade(&self.inner);
        client.set_event_handler(move |client: &CallClient, packet: Packet| {
            if let Some(pong) = keepalive::respond(&packet) {
                let _ = client.send_oneway(&pong);
                return;
            }
            let Some(shared) = shared.upgrade() else {
                return;
            };
            if keepalive::is_pong(&packet) {
                shared.state.lock().session.pong(generation);
                return;
            }
            if keepalive::is_bye(&packet) {
                shared.state.lock().session.bye(generation);
                shared.metrics.peer_byes.inc();
                return;
            }
            let handler = shared.event_handler.lock().clone();
            if let Some(handler) = handler {
                handler(packet);
            }
        });
        (self.inner.setup)(client)
    }

    /// What generation `generation`'s listener does between frames: asks
    /// the session whether to ping, and to be called again at its next
    /// tick — so probing costs no thread and no polling. A peer that
    /// stops answering gets the connection closed, which hands control to
    /// the reconnect path on the next call.
    fn keepalive_probe(
        &self,
        generation: u64,
    ) -> impl FnMut(&CallClient) -> Option<Instant> + Send + 'static {
        let shared = Arc::downgrade(&self.inner);
        move |client| loop {
            let shared = shared.upgrade()?;
            let now = shared.clock.now();
            let tick = shared.state.lock().session.tick(generation, now);
            match tick {
                Tick::Idle => return None,
                Tick::Wait(at) => return Some(at),
                Tick::Ping => {
                    if client.send_oneway(&keepalive::ping_packet()).is_err() {
                        shared.state.lock().session.closed(generation);
                        client.close();
                        return None;
                    }
                }
                Tick::GiveUp => {
                    client.close();
                    return None;
                }
            }
        }
    }
}

fn resume(state: &mut State, call: &mut Call, now: Instant) -> Step {
    state.session.resume(call, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Manual;
    use crate::message::{Header, MessageType, RpcError, REMOTE_PROGRAM};
    use crate::session::{Bounds, BREAKER_COOLDOWN, BREAKER_THRESHOLD, RETRY_BACKOFF};
    use crate::transport::{memory_listener, Listener, MemoryConnector};
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::time::Duration;
    use virt_metrics::Counter;

    impl ReconnectingClient {
        fn breaker_state(&self) -> Breaker {
            self.inner.state.lock().session.breaker()
        }

        fn metrics(&self) -> &ReconnectMetrics {
            &self.inner.metrics
        }
    }

    /// An echo service behind a memory listener: every accept spawns a
    /// server loop; procedure 99 replies with an error; stop() kills the
    /// current connections.
    struct EchoService {
        connector: MemoryConnector,
        live: Arc<Mutex<Vec<Arc<dyn Transport>>>>,
        accepting: Arc<AtomicBool>,
        /// Dials still to be refused before accepting again.
        refusals: Arc<AtomicU32>,
    }

    impl EchoService {
        fn start() -> EchoService {
            let (listener, connector) = memory_listener();
            let live: Arc<Mutex<Vec<Arc<dyn Transport>>>> = Arc::new(Mutex::new(Vec::new()));
            let accepting = Arc::new(AtomicBool::new(true));
            let live2 = Arc::clone(&live);
            std::thread::spawn(move || {
                while let Ok(conn) = listener.accept() {
                    let conn: Arc<dyn Transport> = Arc::from(conn);
                    live2.lock().push(Arc::clone(&conn));
                    std::thread::spawn(move || {
                        while let Ok(frame) = conn.recv_frame() {
                            let packet = match Packet::from_body(&frame) {
                                Ok(p) => p,
                                Err(_) => break,
                            };
                            if let Some(pong) = keepalive::respond(&packet) {
                                let _ = conn.send_frame(&pong.to_frame()[4..]);
                                continue;
                            }
                            if packet.header.mtype != MessageType::Call {
                                continue;
                            }
                            let reply = if packet.header.procedure == 99 {
                                Packet::new(
                                    packet.header.reply_error(),
                                    &RpcError::new(7, "denied"),
                                )
                            } else {
                                Packet {
                                    header: packet.header.reply_ok(),
                                    payload: packet.payload.clone(),
                                }
                            };
                            let _ = conn.send_frame(&reply.to_frame()[4..]);
                        }
                    });
                }
            });
            EchoService {
                connector,
                live,
                accepting,
                refusals: Arc::new(AtomicU32::new(0)),
            }
        }

        fn first_conn(&self) -> Arc<dyn Transport> {
            // The acceptor thread may lag behind a dial; wait for the
            // connection to land before handing it out.
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.live.lock().is_empty() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.live.lock()[0].clone()
        }

        fn kill_connections(&self) {
            // The acceptor thread may lag behind a dial; wait for the
            // connection to land so the kill cannot be a no-op.
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.live.lock().is_empty() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            for conn in self.live.lock().drain(..) {
                let _ = conn.shutdown();
            }
        }

        fn refuse_new(&self, refuse: bool) {
            self.accepting.store(!refuse, Ordering::Release);
        }

        /// Refuses the next `dials` dials, then accepts again.
        fn refuse_next(&self, dials: u32) {
            self.refusals.store(dials, Ordering::Release);
        }

        fn factory(&self) -> TransportFactory {
            let connector = self.connector.clone();
            let accepting = Arc::clone(&self.accepting);
            let refusals = Arc::clone(&self.refusals);
            Box::new(move || {
                let refused = refusals
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .is_ok();
                if refused || !accepting.load(Ordering::Acquire) {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        "service refusing connections",
                    ));
                }
                connector
                    .connect()
                    .map(|t| Arc::new(t) as Arc<dyn Transport>)
            })
        }
    }

    fn client_for(service: &EchoService, config: ReconnectConfig) -> ReconnectingClient {
        ReconnectingClient::with_transport(
            (service.factory())().unwrap(),
            service.factory(),
            Box::new(|_| Ok(())),
            config,
            ReconnectMetrics::new(),
        )
        .expect("initial connect")
    }

    /// A client on a manual clock: its retry pauses and the breaker's
    /// cool-down pass in virtual time. `bounds` replaces the product's
    /// retry budget and breaker when given.
    fn manual_client(
        service: &EchoService,
        config: ReconnectConfig,
        bounds: Option<Bounds>,
    ) -> (ReconnectingClient, Arc<Manual>) {
        let clock = Manual::new();
        let now = clock.now();
        let session = match bounds {
            Some(bounds) => Session::with_bounds(bounds, 1, now),
            None => Session::new(
                config.retries,
                config.auto_reconnect,
                config.keepalive,
                1,
                now,
            ),
        };
        let client = ReconnectingClient::start(
            (service.factory())().unwrap(),
            service.factory(),
            Box::new(|_| Ok(())),
            config,
            ReconnectMetrics::new(),
            Clock::Manual(Arc::clone(&clock)),
            session,
        )
        .expect("initial connect");
        (client, clock)
    }

    fn retrying(retries: u32) -> ReconnectConfig {
        ReconnectConfig {
            retries,
            ..ReconnectConfig::default()
        }
    }

    /// Until the client has seen its connection close.
    fn wait_dead(client: &ReconnectingClient) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.is_alive() {
            assert!(Instant::now() < deadline, "the client never saw the close");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn calls_flow_through_a_healthy_connection() {
        let service = EchoService::start();
        let client = client_for(&service, ReconnectConfig::default());
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, true, &"hello".to_string(), None)
            .unwrap();
        assert_eq!(reply, "hello");
        assert_eq!(client.generation(), 1);
        client.close();
    }

    #[test]
    fn idempotent_call_survives_a_killed_connection() {
        let service = EchoService::start();
        let (client, _clock) = manual_client(&service, retrying(9), None);
        let _: String = client
            .call(REMOTE_PROGRAM, 1, true, &"warm".to_string(), None)
            .unwrap();
        service.kill_connections();
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, true, &"again".to_string(), None)
            .expect("idempotent call retried onto a fresh connection");
        assert_eq!(reply, "again");
        assert!(client.generation() >= 2, "re-dialed");
        assert!(client.metrics().reconnect_successes.get() >= 1);
        client.close();
    }

    #[test]
    fn mutating_call_fails_cleanly_after_mid_call_loss() {
        let service = EchoService::start();
        let (client, _clock) = manual_client(&service, retrying(9), None);
        let _: String = client
            .call(REMOTE_PROGRAM, 1, false, &"x".to_string(), None)
            .unwrap();
        // Kill while nothing is in flight and let the client see it:
        // the connection is known-dead, so a mutating call reconnects
        // first (nothing sent yet) and then succeeds.
        service.kill_connections();
        wait_dead(&client);
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, false, &"safe".to_string(), None)
            .expect("pre-send reconnect is safe for mutating calls");
        assert_eq!(reply, "safe");

        // Killed unseen, the next mutating call is sent into the dead
        // connection: the loss comes after the send, and it is not
        // sent again.
        let retries = client.metrics().retries.get();
        service.kill_connections();
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, false, &"lost".to_string(), None)
            .unwrap_err();
        assert!(
            matches!(err, CallError::Io(_) | CallError::Disconnected),
            "got {err:?}"
        );
        assert_eq!(client.metrics().retries.get(), retries);
        client.close();
    }

    #[test]
    fn retries_exhaust_when_the_endpoint_stays_down() {
        let service = EchoService::start();
        let (client, clock) = manual_client(&service, retrying(2), None);
        service.refuse_new(true);
        service.kill_connections();
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(
            matches!(err, CallError::Io(_) | CallError::Disconnected),
            "got {err:?}"
        );
        assert_eq!(client.metrics().retries.get(), 2);
        assert!(clock.elapsed() >= RETRY_BACKOFF.base(1) + RETRY_BACKOFF.base(2));
        client.close();
    }

    #[test]
    fn breaker_opens_and_fails_fast_then_recovers() {
        let service = EchoService::start();
        let (client, clock) = manual_client(&service, ReconnectConfig::default(), None);
        service.refuse_new(true);
        service.kill_connections();
        // Wait until the client has noticed the close, so each call below
        // deterministically triggers a re-dial attempt.
        wait_dead(&client);
        // Each call makes one re-dial attempt; BREAKER_THRESHOLD failures
        // trip it.
        for _ in 0..BREAKER_THRESHOLD {
            let _ = client.call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None);
        }
        assert!(matches!(client.breaker_state(), Breaker::Open { .. }));
        let attempts = client.metrics().reconnect_attempts.get();
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(matches!(err, CallError::CircuitOpen), "got {err:?}");
        assert_eq!(
            client.metrics().reconnect_attempts.get(),
            attempts,
            "fails fast"
        );
        assert!(client.metrics().breaker_fast_fails.get() >= 1);

        // After the cool-down, a probe is allowed and service is back.
        service.refuse_new(false);
        clock.advance(BREAKER_COOLDOWN);
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, true, &"back".to_string(), None)
            .expect("half-open probe reconnects");
        assert_eq!(reply, "back");
        assert_eq!(client.breaker_state(), Breaker::Closed { failures: 0 });
        // Closed -> open -> closed; the move to half-open is not counted.
        assert_eq!(client.metrics().breaker_transitions.get(), 2);
        client.close();
    }

    /// The breaker judges calls, not attempts: a call with retries left
    /// outlives more refused re-dials than the breaker's threshold.
    #[test]
    fn a_retrying_call_outlives_refused_dials() {
        let service = EchoService::start();
        let (client, clock) = manual_client(&service, retrying(9), None);
        service.kill_connections();
        wait_dead(&client);
        service.refuse_next(BREAKER_THRESHOLD);
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, true, &"fourth".to_string(), None)
            .expect("the fourth dial connects");
        assert_eq!(reply, "fourth");
        let metrics = client.metrics();
        assert_eq!(metrics.reconnect_attempts.get(), 4);
        assert_eq!(metrics.reconnect_failures.get(), 3);
        assert_eq!(metrics.retries.get(), 3);
        assert_eq!(client.breaker_state(), Breaker::Closed { failures: 0 });
        let ladder: Duration = (1..=3).map(|n| RETRY_BACKOFF.base(n)).sum();
        assert!(clock.elapsed() >= ladder, "the ladder was waited out");
        client.close();
    }

    /// Beside it, the no-retry case: each failed call is one dial, three
    /// of them open the breaker, and the fourth fails fast.
    #[test]
    fn calls_without_retries_open_the_breaker() {
        let service = EchoService::start();
        let (client, _clock) = manual_client(&service, ReconnectConfig::default(), None);
        service.kill_connections();
        wait_dead(&client);
        service.refuse_next(u32::MAX);
        for failed in 1..=BREAKER_THRESHOLD {
            let err = client
                .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
                .unwrap_err();
            assert!(matches!(err, CallError::Io(_)), "got {err:?}");
            assert_eq!(client.metrics().reconnect_attempts.get(), u64::from(failed));
        }
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(matches!(err, CallError::CircuitOpen), "got {err:?}");
        assert_eq!(
            client.metrics().reconnect_attempts.get(),
            u64::from(BREAKER_THRESHOLD)
        );
        client.close();
    }

    #[test]
    fn remote_errors_are_never_retried() {
        let service = EchoService::start();
        let client = client_for(&service, retrying(9));
        let retries_before = client.metrics().retries.get();
        let err = client
            .call::<String>(REMOTE_PROGRAM, 99, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(matches!(err, CallError::Remote(_)), "got {err:?}");
        assert_eq!(client.metrics().retries.get(), retries_before);

        // Nor is a reply its reader rejects: the reader may have acted on
        // part of it, and it is handed the reply exactly once.
        let mut reads = 0;
        let err = client
            .call_reading(REMOTE_PROGRAM, 1, true, &"x".to_string(), None, &mut |_| {
                reads += 1;
                Err(XdrError::BadPadding)
            })
            .unwrap_err();
        assert!(matches!(err, CallError::Protocol(_)), "got {err:?}");
        assert_eq!(reads, 1);
        assert_eq!(client.metrics().retries.get(), retries_before);
        client.close();
    }

    #[test]
    fn retry_budget_bounds_total_retries() {
        let service = EchoService::start();
        let (client, _clock) = manual_client(
            &service,
            ReconnectConfig::default(),
            Some(Bounds {
                retries: 9,
                budget: 3,
                threshold: BREAKER_THRESHOLD,
                cooldown: BREAKER_COOLDOWN,
                reconnect: true,
                keepalive: None,
            }),
        );
        service.refuse_new(true);
        service.kill_connections();
        let _ = client.call::<String>(REMOTE_PROGRAM, 1, true, &"a".to_string(), None);
        let _ = client.call::<String>(REMOTE_PROGRAM, 1, true, &"b".to_string(), None);
        assert_eq!(
            client.metrics().retries.get(),
            3,
            "budget caps retries across calls"
        );
        client.close();
    }

    #[test]
    fn events_are_forwarded_and_keepalive_is_consumed() {
        let service = EchoService::start();
        let client = client_for(&service, ReconnectConfig::default());
        let (tx, rx) = std::sync::mpsc::channel();
        client.set_event_handler(move |packet| {
            let _ = tx.send(packet.header.procedure);
        });
        // What a subscription does: without it nobody reads between calls.
        client.listen();
        // Push an event and a pong from the server side.
        let server_conn = service.first_conn();
        let pong = keepalive::pong_packet();
        server_conn.send_frame(&pong.to_frame()[4..]).unwrap();
        let event = Packet::new(Header::event(REMOTE_PROGRAM, 90), &());
        server_conn.send_frame(&event.to_frame()[4..]).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).expect("event"), 90);
        assert!(rx.try_recv().is_err(), "keepalive never reaches handler");
        client.close();
    }

    #[test]
    fn keepalive_keeps_an_answering_peer_and_drops_a_silent_one() {
        use crate::fault::{FaultMode, FaultyTransport};

        let service = EchoService::start();
        let (faulty, control) = FaultyTransport::new((service.factory())().unwrap());
        let client = ReconnectingClient::with_transport(
            Arc::new(faulty),
            service.factory(),
            Box::new(|_| Ok(())),
            ReconnectConfig {
                auto_reconnect: false,
                keepalive: Some(KeepaliveConfig {
                    interval: Duration::from_millis(10),
                    count: 2,
                }),
                ..ReconnectConfig::default()
            },
            ReconnectMetrics::new(),
        )
        .unwrap();
        let wait_for = |what: &str, pred: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !pred() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // Nobody calls: the pings below are sent by the listener, off its
        // receive deadline. Twice `count` of them answered and the
        // connection is still there.
        wait_for("pings to go out", &|| control.sends() >= 5);
        assert!(client.is_alive(), "every ping was answered");
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, true, &"between pings".to_string(), None)
            .unwrap();
        assert_eq!(reply, "between pings");
        // From here on the pings vanish: `count` of them later it is over.
        control.set(FaultMode::BlackHole);
        wait_for("the silent peer to be given up", &|| !client.is_alive());
    }

    #[test]
    fn bye_marks_a_clean_shutdown() {
        let service = EchoService::start();
        let client = client_for(&service, ReconnectConfig::default());
        let server_conn = service.first_conn();
        let bye = keepalive::bye_packet();
        server_conn.send_frame(&bye.to_frame()[4..]).unwrap();
        // A farewell still sitting in the socket counts: the look finds it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.metrics().peer_byes.get() == 0 {
            assert!(Instant::now() < deadline, "the bye was never read");
            client.is_alive();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(client.metrics().peer_byes.get(), 1);
        // The peer is going away: even a mutating call moves to a fresh
        // connection before it sends anything.
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, false, &"after bye".to_string(), None)
            .unwrap();
        assert_eq!(reply, "after bye");
        assert_eq!(client.generation(), 2);
        client.close();
    }

    #[test]
    fn session_setup_replays_on_every_generation() {
        let service = EchoService::start();
        let setups = Arc::new(Counter::new());
        let setups2 = Arc::clone(&setups);
        let clock = Manual::new();
        let client = ReconnectingClient::start(
            (service.factory())().unwrap(),
            service.factory(),
            Box::new(move |_| {
                setups2.inc();
                Ok(())
            }),
            retrying(9),
            ReconnectMetrics::new(),
            Clock::Manual(Arc::clone(&clock)),
            Session::new(9, true, None, 1, clock.now()),
        )
        .unwrap();
        assert_eq!(setups.get(), 1);
        service.kill_connections();
        let _: String = client
            .call(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap();
        assert_eq!(setups.get(), 2, "handshake replayed after reconnect");
        client.close();
    }

    #[test]
    fn closed_client_refuses_everything() {
        let service = EchoService::start();
        let client = client_for(&service, ReconnectConfig::default());
        client.close();
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(matches!(err, CallError::Disconnected));
        assert!(!client.is_alive());
    }

    #[test]
    fn auto_reconnect_off_behaves_like_a_plain_client() {
        let service = EchoService::start();
        let client = client_for(
            &service,
            ReconnectConfig {
                auto_reconnect: false,
                ..ReconnectConfig::default()
            },
        );
        service.kill_connections();
        wait_dead(&client);
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(matches!(err, CallError::Disconnected), "got {err:?}");
    }
}
