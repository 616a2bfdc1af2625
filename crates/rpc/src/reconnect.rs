//! Transparent reconnection: a [`CallClient`] that survives its transport.
//!
//! A [`ReconnectingClient`] owns a transport *factory* rather than a
//! transport: when the current connection dies (I/O error, peer close,
//! keepalive verdict) the next call re-dials, replays the session
//! handshake through a caller-supplied [`SessionSetup`] closure
//! (authentication, `OPEN`, event re-registration), and re-installs the
//! event handler — callers never observe the generation change.
//!
//! Three policies bound the behavior:
//! - a [`RetryPolicy`] decides how often an *idempotent* call may be
//!   re-issued after a connection-level failure (mutating calls are
//!   never retried — they surface the failure immediately, because the
//!   daemon may or may not have executed them);
//! - a [`CircuitBreaker`] guards the re-dial path: persistent failure
//!   opens it and calls fail fast with [`CallError::CircuitOpen`]
//!   instead of queueing behind doomed dials;
//! - an optional keepalive probe detects silent peers per generation.
//!
//! A generation costs no thread unless it must hear from the daemon
//! unasked — keepalive is configured, or [`ReconnectingClient::listen`]
//! was called for an event subscription — and then exactly one: the
//! [`CallClient`] listener, which also drives the keepalive probe from
//! its receive deadline.
//!
//! Everything is observable through [`ReconnectMetrics`].

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::client::{CallClient, CallError};
use crate::keepalive::{self, KeepaliveAction, KeepaliveConfig, KeepaliveState};
use crate::message::Packet;
use crate::retry::{BreakerConfig, CircuitBreaker, RetryPolicy};
use crate::transport::Transport;
use crate::xdr::{XdrDecode, XdrEncode, XdrError};

/// Dials a fresh transport to the same endpoint.
pub type TransportFactory = Box<dyn Fn() -> io::Result<Arc<dyn Transport>> + Send + Sync>;

/// Replays the session handshake (authentication, open, event
/// subscriptions) on a freshly dialed client. Runs once at construction
/// and again after every re-dial.
pub type SessionSetup = Box<dyn Fn(&CallClient) -> Result<(), CallError> + Send + Sync>;

/// Resilience knobs, assembled by the connection builder.
#[derive(Debug, Clone, Copy)]
pub struct ReconnectConfig {
    /// Whether a dead connection is re-dialed on the next call. When
    /// `false` the wrapper behaves like a plain [`CallClient`].
    pub auto_reconnect: bool,
    /// Retry policy for idempotent calls.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning for the re-dial path.
    pub breaker: BreakerConfig,
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
            retry: RetryPolicy::none(),
            breaker: BreakerConfig::default(),
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

/// How long a connection may sit unused before the next call looks at
/// the socket first. With no thread reading between calls, a daemon that
/// went away in the meantime is only found by looking: doing so before
/// sending lets *any* call — mutating ones too — move to a fresh
/// connection with nothing lost. In a tight loop of calls the look would
/// buy nothing (a peer that dies there fails the call in progress) and
/// cost a syscall per call; after this much quiet its cost is noise.
const LOOK_BEFORE_CALL_AFTER: Duration = Duration::from_millis(1);

struct Shared {
    factory: TransportFactory,
    setup: SessionSetup,
    config: ReconnectConfig,
    metrics: ReconnectMetrics,
    /// The live generation. Swapped under `redial_gate` on reconnect.
    current: Mutex<CallClient>,
    /// Serializes re-dials so one failure triggers one reconnect.
    redial_gate: Mutex<()>,
    breaker: Mutex<CircuitBreaker>,
    /// Remaining connection-wide retry budget.
    budget: AtomicU64,
    /// The caller's event handler, re-installed every generation.
    event_handler: Mutex<Option<SharedHandler>>,
    generation: AtomicU64,
    shut: AtomicBool,
    peer_bye: AtomicBool,
    /// Every generation gets a listener (set by `listen`, implied by
    /// keepalive).
    listening: AtomicBool,
    /// When the last call started, in nanoseconds since `born`.
    last_call_ns: AtomicU64,
    born: Instant,
}

/// A resilient client endpoint. Cloning shares the connection.
#[derive(Clone)]
pub struct ReconnectingClient {
    inner: Arc<Shared>,
}

impl std::fmt::Debug for ReconnectingClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReconnectingClient")
            .field("generation", &self.inner.generation.load(Ordering::Relaxed))
            .field("shut", &self.inner.shut.load(Ordering::Relaxed))
            .finish()
    }
}

impl ReconnectingClient {
    /// Dials through `factory` and runs `setup` on the fresh session.
    ///
    /// # Errors
    ///
    /// [`CallError::Io`] when the dial fails; `setup`'s error otherwise.
    pub fn connect(
        factory: TransportFactory,
        setup: SessionSetup,
        config: ReconnectConfig,
        metrics: ReconnectMetrics,
    ) -> Result<Self, CallError> {
        let transport = factory().map_err(CallError::Io)?;
        Self::with_transport(transport, factory, setup, config, metrics)
    }

    /// Like [`ReconnectingClient::connect`], but the first generation
    /// uses an already established transport (whose dial errors the
    /// caller wanted to classify itself).
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
        let first = CallClient::from_arc(transport);
        let inner = Arc::new(Shared {
            factory,
            setup,
            breaker: Mutex::new(CircuitBreaker::new(config.breaker)),
            budget: AtomicU64::new(u64::from(config.retry.retry_budget)),
            config,
            metrics,
            current: Mutex::new(first.clone()),
            redial_gate: Mutex::new(()),
            event_handler: Mutex::new(None),
            generation: AtomicU64::new(0),
            shut: AtomicBool::new(false),
            peer_bye: AtomicBool::new(false),
            listening: AtomicBool::new(config.keepalive.is_some()),
            last_call_ns: AtomicU64::new(0),
            born: Instant::now(),
        });
        let client = ReconnectingClient { inner };
        if let Err(e) = client.install_generation(first) {
            client.close();
            return Err(e);
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
        // Not while a re-dial is wiring up the next generation: it would
        // have read the flag before we set it and be missed below.
        let _gate = self.inner.redial_gate.lock();
        self.inner.listening.store(true, Ordering::Release);
        let current = self.inner.current.lock().clone();
        current.listen(keepalive_probe(None));
    }

    /// Issues a call and blocks for the decoded reply.
    ///
    /// A dead connection is transparently re-dialed first (any call may
    /// do this: nothing has been sent yet). After a *mid-call*
    /// connection failure, only `idempotent` calls are re-issued —
    /// bounded by the retry policy, the connection's retry budget, and
    /// the deadline; mutating calls surface the failure immediately
    /// because the daemon may have executed them.
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
        if self.inner.shut.load(Ordering::Acquire) {
            return Err(CallError::Disconnected);
        }
        let now = Instant::now();
        let deadline =
            deadline.or_else(|| self.inner.config.call_deadline.map(|limit| now + limit));
        let policy = self.inner.config.retry;
        let max_attempts = if idempotent {
            policy.max_attempts.max(1)
        } else {
            1
        };
        let mut attempt = 1u32;
        loop {
            let outcome = self.healthy_client(now).and_then(|client| {
                client.read_with_deadline(program, procedure, args, deadline, &mut *read)
            });
            let err = match outcome {
                Ok(()) => return Ok(()),
                // The daemon answered: its verdict, or a reply that does
                // not read, is final. A timeout is ambiguous (the call may
                // still execute), so never retry.
                Err(e @ (CallError::Remote(_) | CallError::Protocol(_) | CallError::TimedOut)) => {
                    return Err(e)
                }
                Err(CallError::CircuitOpen) => return Err(CallError::CircuitOpen),
                Err(e) => e,
            };
            if attempt >= max_attempts || self.inner.shut.load(Ordering::Acquire) {
                return Err(err);
            }
            if !self.take_budget() {
                return Err(err);
            }
            let pause = policy.backoff(attempt);
            if let Some(deadline) = deadline {
                if Instant::now() + pause >= deadline {
                    return Err(err);
                }
            }
            self.inner.metrics.retries.inc();
            std::thread::sleep(pause);
            attempt += 1;
        }
    }

    /// Whether the current generation is connected and the client has
    /// not been shut down — as of now: a connection nobody is reading
    /// is looked at first (see [`CallClient::is_closed`]).
    pub fn is_alive(&self) -> bool {
        let current = self.inner.current.lock().clone();
        !self.inner.shut.load(Ordering::Acquire) && !current.is_closed()
    }

    /// The current generation's peer description.
    pub fn peer(&self) -> String {
        self.inner.current.lock().peer()
    }

    /// How many times the connection has been (re-)established; 0 until
    /// the first reconnect.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// Whether the peer announced a clean shutdown (`bye`) at any point
    /// up to now (a farewell still sitting in the socket counts).
    #[cfg(test)]
    pub(crate) fn peer_said_bye(&self) -> bool {
        self.is_alive();
        self.inner.peer_bye.load(Ordering::Acquire)
    }

    /// The breaker's current state.
    #[cfg(test)]
    pub(crate) fn breaker_state(&self) -> crate::retry::BreakerState {
        self.inner.breaker.lock().state()
    }

    /// Shuts the client down for good: no more calls, no more re-dials.
    pub fn close(&self) {
        self.inner.shut.store(true, Ordering::Release);
        self.inner.current.lock().close();
    }

    /// Runs `f` against the current generation's [`CallClient`] without
    /// any resilience (close handshakes, onewy sends).
    pub fn with_current<T>(&self, f: impl FnOnce(&CallClient) -> T) -> T {
        let client = self.inner.current.lock().clone();
        f(&client)
    }

    fn take_budget(&self) -> bool {
        self.inner
            .budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }

    /// Returns a connected client, re-dialing if the current generation
    /// is dead. `now` is when the call started.
    fn healthy_client(&self, now: Instant) -> Result<CallClient, CallError> {
        let client = self.inner.current.lock().clone();
        let now_ns = now.saturating_duration_since(self.inner.born).as_nanos() as u64;
        let quiet_ns =
            now_ns.saturating_sub(self.inner.last_call_ns.swap(now_ns, Ordering::Relaxed));
        let dead = if quiet_ns > LOOK_BEFORE_CALL_AFTER.as_nanos() as u64 {
            client.is_closed()
        } else {
            client.is_known_closed()
        };
        if !dead {
            return Ok(client);
        }
        if self.inner.shut.load(Ordering::Acquire) || !self.inner.config.auto_reconnect {
            return Err(CallError::Disconnected);
        }
        let _gate = self.inner.redial_gate.lock();
        // Another caller may have reconnected while we waited.
        let client = self.inner.current.lock().clone();
        if !client.is_known_closed() {
            return Ok(client);
        }
        if !self.inner.breaker.lock().check(Instant::now()) {
            self.inner.metrics.breaker_fast_fails.inc();
            return Err(CallError::CircuitOpen);
        }
        self.inner.metrics.reconnect_attempts.inc();
        let result = (self.inner.factory)()
            .map_err(CallError::Io)
            .map(CallClient::from_arc)
            .and_then(|fresh| {
                self.install_generation(fresh.clone())?;
                Ok(fresh)
            });
        match result {
            Ok(fresh) => {
                if self.inner.breaker.lock().on_success() {
                    self.inner.metrics.breaker_transitions.inc();
                }
                self.inner.metrics.reconnect_successes.inc();
                *self.inner.current.lock() = fresh.clone();
                Ok(fresh)
            }
            Err(e) => {
                if self.inner.breaker.lock().on_failure(Instant::now()) {
                    self.inner.metrics.breaker_transitions.inc();
                }
                self.inner.metrics.reconnect_failures.inc();
                Err(e)
            }
        }
    }

    /// Wires a fresh generation: keepalive interception + user events,
    /// the listener if this connection has one, and the session
    /// handshake. Closes the client on handshake failure.
    fn install_generation(&self, client: CallClient) -> Result<(), CallError> {
        self.inner.generation.fetch_add(1, Ordering::Relaxed);
        let keepalive_state = self
            .inner
            .config
            .keepalive
            .map(|config| Arc::new(Mutex::new(KeepaliveState::new(config, Instant::now()))));

        // Weak: the handler must not keep the shared state (and thus the
        // generation chain) alive forever.
        let shared: Weak<Shared> = Arc::downgrade(&self.inner);
        let pong_state = keepalive_state.clone();
        client.set_event_handler(move |client: &CallClient, packet: Packet| {
            if let Some(pong) = keepalive::respond(&packet) {
                let _ = client.send_oneway(&pong);
                return;
            }
            if keepalive::is_pong(&packet) {
                if let Some(state) = &pong_state {
                    state.lock().on_pong();
                }
                return;
            }
            let Some(shared) = shared.upgrade() else {
                return;
            };
            if keepalive::is_bye(&packet) {
                shared.peer_bye.store(true, Ordering::Release);
                shared.metrics.peer_byes.inc();
                return;
            }
            let handler = shared.event_handler.lock().clone();
            if let Some(handler) = handler {
                handler(packet);
            }
        });

        if self.inner.listening.load(Ordering::Acquire) {
            client.listen(keepalive_probe(keepalive_state));
        }

        if let Err(e) = (self.inner.setup)(&client) {
            client.close();
            return Err(e);
        }
        Ok(())
    }
}

/// What a generation's listener does between frames: drives the
/// keepalive state machine, if there is one, and asks to be called again
/// at its next action time — so probing costs no thread and no polling.
/// A peer that stops answering gets the connection closed, which hands
/// control to the reconnect path on the next call.
fn keepalive_probe(
    state: Option<Arc<Mutex<KeepaliveState>>>,
) -> impl FnMut(&CallClient) -> Option<Instant> + Send + 'static {
    move |client| {
        let state = state.as_ref()?;
        loop {
            let action = state.lock().poll(Instant::now());
            match action {
                KeepaliveAction::Wait(deadline) => return Some(deadline),
                KeepaliveAction::SendPing => {
                    if client.send_oneway(&keepalive::ping_packet()).is_err() {
                        client.close();
                        return None;
                    }
                    state.lock().on_ping_sent(Instant::now());
                }
                KeepaliveAction::Dead => {
                    client.close();
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Header, MessageType, RpcError, REMOTE_PROGRAM};
    use crate::retry::BreakerState;
    use crate::transport::{memory_listener, Listener, MemoryConnector};
    use std::time::Duration;
    use virt_metrics::Counter;

    /// An echo service behind a memory listener: every accept spawns a
    /// server loop; procedure 99 replies with an error; stop() kills the
    /// current connections.
    struct EchoService {
        connector: MemoryConnector,
        live: Arc<Mutex<Vec<Arc<dyn Transport>>>>,
        accepting: Arc<AtomicBool>,
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

        fn factory(&self) -> TransportFactory {
            let connector = self.connector.clone();
            let accepting = Arc::clone(&self.accepting);
            Box::new(move || {
                if !accepting.load(Ordering::Acquire) {
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

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
            multiplier: 2,
            retry_budget: 100,
        }
    }

    fn client_for(service: &EchoService, config: ReconnectConfig) -> ReconnectingClient {
        ReconnectingClient::connect(
            service.factory(),
            Box::new(|_| Ok(())),
            config,
            ReconnectMetrics::new(),
        )
        .expect("initial connect")
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
        let client = client_for(
            &service,
            ReconnectConfig {
                retry: fast_retry(),
                ..ReconnectConfig::default()
            },
        );
        let _: String = client
            .call(REMOTE_PROGRAM, 1, true, &"warm".to_string(), None)
            .unwrap();
        service.kill_connections();
        let metrics = client.inner.metrics.clone();
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, true, &"again".to_string(), None)
            .expect("idempotent call retried onto a fresh connection");
        assert_eq!(reply, "again");
        assert!(client.generation() >= 2, "re-dialed");
        assert!(metrics.reconnect_successes.get() >= 1);
        client.close();
    }

    #[test]
    fn mutating_call_fails_cleanly_after_mid_call_loss() {
        let service = EchoService::start();
        let client = client_for(
            &service,
            ReconnectConfig {
                retry: fast_retry(),
                ..ReconnectConfig::default()
            },
        );
        let _: String = client
            .call(REMOTE_PROGRAM, 1, false, &"x".to_string(), None)
            .unwrap();
        // Black-hole style: kill while nothing is in flight, then issue a
        // mutating call. The *first* send fails mid-call -> no retry.
        service.kill_connections();
        // Wait for the client to notice the close.
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.is_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // The connection is known-dead, so a mutating call reconnects
        // first (nothing sent yet) and then succeeds.
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, false, &"safe".to_string(), None)
            .expect("pre-send reconnect is safe for mutating calls");
        assert_eq!(reply, "safe");
        client.close();
    }

    #[test]
    fn retries_exhaust_when_the_endpoint_stays_down() {
        let service = EchoService::start();
        let client = client_for(
            &service,
            ReconnectConfig {
                retry: RetryPolicy {
                    max_attempts: 3,
                    initial_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(2),
                    multiplier: 1,
                    retry_budget: 100,
                },
                breaker: BreakerConfig {
                    failure_threshold: 100,
                    cooldown: Duration::from_millis(50),
                },
                ..ReconnectConfig::default()
            },
        );
        service.refuse_new(true);
        service.kill_connections();
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(
            matches!(err, CallError::Io(_) | CallError::Disconnected),
            "got {err:?}"
        );
        client.close();
    }

    #[test]
    fn breaker_opens_and_fails_fast_then_recovers() {
        let service = EchoService::start();
        let client = client_for(
            &service,
            ReconnectConfig {
                retry: RetryPolicy::none(),
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_millis(100),
                },
                ..ReconnectConfig::default()
            },
        );
        service.refuse_new(true);
        service.kill_connections();
        // Wait until the client has noticed the close, so each call below
        // deterministically triggers a re-dial attempt.
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.is_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Each call makes one re-dial attempt; two failures trip it.
        for _ in 0..2 {
            let _ = client.call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None);
        }
        assert_eq!(client.breaker_state(), BreakerState::Open);
        let start = Instant::now();
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(matches!(err, CallError::CircuitOpen), "got {err:?}");
        assert!(start.elapsed() < Duration::from_millis(50), "fails fast");
        assert!(client.inner.metrics.breaker_fast_fails.get() >= 1);

        // After the cool-down, a probe is allowed and service is back.
        service.refuse_new(false);
        std::thread::sleep(Duration::from_millis(150));
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, true, &"back".to_string(), None)
            .expect("half-open probe reconnects");
        assert_eq!(reply, "back");
        assert_eq!(client.breaker_state(), BreakerState::Closed);
        client.close();
    }

    #[test]
    fn remote_errors_are_never_retried() {
        let service = EchoService::start();
        let client = client_for(
            &service,
            ReconnectConfig {
                retry: fast_retry(),
                ..ReconnectConfig::default()
            },
        );
        let retries_before = client.inner.metrics.retries.get();
        let err = client
            .call::<String>(REMOTE_PROGRAM, 99, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(matches!(err, CallError::Remote(_)), "got {err:?}");
        assert_eq!(client.inner.metrics.retries.get(), retries_before);

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
        assert_eq!(client.inner.metrics.retries.get(), retries_before);
        client.close();
    }

    #[test]
    fn retry_budget_bounds_total_retries() {
        let service = EchoService::start();
        let client = client_for(
            &service,
            ReconnectConfig {
                retry: RetryPolicy {
                    max_attempts: 10,
                    initial_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(1),
                    multiplier: 1,
                    retry_budget: 3,
                },
                breaker: BreakerConfig {
                    failure_threshold: 1000,
                    cooldown: Duration::from_millis(10),
                },
                ..ReconnectConfig::default()
            },
        );
        service.refuse_new(true);
        service.kill_connections();
        let _ = client.call::<String>(REMOTE_PROGRAM, 1, true, &"a".to_string(), None);
        let _ = client.call::<String>(REMOTE_PROGRAM, 1, true, &"b".to_string(), None);
        assert_eq!(
            client.inner.metrics.retries.get(),
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
        use crate::keepalive::KeepaliveConfig;

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
        assert!(!client.peer_said_bye());
        let server_conn = service.first_conn();
        let bye = keepalive::bye_packet();
        server_conn.send_frame(&bye.to_frame()[4..]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !client.peer_said_bye() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(client.peer_said_bye());
        assert_eq!(client.inner.metrics.peer_byes.get(), 1);
        client.close();
    }

    #[test]
    fn session_setup_replays_on_every_generation() {
        let service = EchoService::start();
        let setups = Arc::new(Counter::new());
        let setups2 = Arc::clone(&setups);
        let client = ReconnectingClient::connect(
            service.factory(),
            Box::new(move |_| {
                setups2.inc();
                Ok(())
            }),
            ReconnectConfig {
                retry: fast_retry(),
                ..ReconnectConfig::default()
            },
            ReconnectMetrics::new(),
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
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.is_alive() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, true, &"x".to_string(), None)
            .unwrap_err();
        assert!(matches!(err, CallError::Disconnected), "got {err:?}");
    }
}
