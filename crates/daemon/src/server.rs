//! The server object: client acceptance, tracking, and request execution.
//!
//! A [`Server`] owns a worker pool, a client table, and an event core.
//! Services (listeners) are attached with [`Server::serve`], which
//! returns a [`ServeHandle`] for graceful shutdown/join. [`Server::admit`]
//! turns every accepted transport into one [`ClientHandle`] with its
//! write side, a `ConnSink`, in one critical section with the client
//! limit. Clients whose transports expose a descriptor to poll are
//! multiplexed onto a small fixed set of event threads sharing one
//! poller (see [`crate::eventloop`]); the rest get a dedicated reader
//! thread. Either
//! way, every complete frame goes through `Server::process_frame` —
//! high-priority procedures run inline (on the event thread or reader
//! thread), so control-plane queries stay responsive when ordinary
//! workers are wedged on a hung hypervisor call. Every other call is a
//! pool job: queued for a worker, or — a lone call an event thread read,
//! while another event thread still watches the poller — run by the
//! thread that read it ([`Calls`]).

use std::any::Any;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use virt_core::log::Logger;
use virt_metrics::span::{self, Stage};
use virt_metrics::Registry;
use virt_rpc::keepalive;
use virt_rpc::message::{Header, MessageStatus, Packet, RpcError, KEEPALIVE_PROGRAM};
use virt_rpc::transport::{Listener, Transport, TransportKind};
use virt_rpc::{PoolBatch, PoolLimits, PoolStats, WorkerPool};

use crate::eventloop::{ConnSink, EventCore, EventLoopMetrics};

/// Whether an `accept()` failure is transient pressure worth retrying
/// (with backoff) rather than a dead listener. EMFILE/ENFILE have no
/// stable `ErrorKind`, so those are matched by errno — the values are
/// identical across the Unix platforms this builds on.
fn accept_error_is_retryable(e: &std::io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    ) || matches!(e.raw_os_error(), Some(ENFILE) | Some(EMFILE))
}

/// Handles one program's procedures for a server.
pub trait ProgramDispatcher: Send + Sync + 'static {
    /// The program number this dispatcher serves.
    fn program(&self) -> u32;

    /// Whether a procedure may run on priority workers.
    fn is_high_priority(&self, procedure: u32) -> bool;

    /// Executes one call, returning the reply packet. Must not panic; a
    /// pooled call that does is answered with an error naming it.
    fn dispatch(&self, client: &Arc<ClientHandle>, header: Header, payload: &[u8]) -> Packet;

    /// The procedure's name, for messages about it; `None` where the
    /// program has no table of names.
    fn procedure_name(&self, procedure: u32) -> Option<&'static str> {
        let _ = procedure;
        None
    }

    /// Invoked when a client disconnects (cleanup of per-client state).
    fn on_disconnect(&self, client_id: u64);
}

/// Identity facts a client establishes during its session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientIdentity {
    /// Authenticated username, when the daemon requires authentication.
    pub username: Option<String>,
    /// Whether the session is restricted to read-only procedures.
    pub readonly: bool,
}

/// A connected client, as tracked by its server.
pub struct ClientHandle {
    /// Server-unique id.
    pub id: u64,
    /// The transport this client is connected over.
    pub transport: Arc<dyn Transport>,
    /// Wall-clock connect time, for display only — subject to NTP steps
    /// and manual clock changes.
    pub connected_at: SystemTime,
    /// Monotonic connect time; durations derived from this cannot go
    /// backwards or jump when the wall clock is adjusted.
    pub connected_since: Instant,
    /// Session identity, filled in by the dispatcher (AUTH/OPEN).
    pub identity: Mutex<ClientIdentity>,
    /// The write side, built at admission: queued behind the socket of
    /// the loop that owns it (direct-write fast path, replies of a burst
    /// gathered into one write, bounded backlog), or the transport's own
    /// send for a connection a reader thread serves.
    pub(crate) sink: ConnSink,
}

impl ClientHandle {
    /// Sends a packet to this client (replies and events).
    ///
    /// # Errors
    ///
    /// Transport failures (client already gone), or the write-queue
    /// hard cap (the client stopped reading and was cut loose).
    pub fn send(&self, packet: &Packet) -> std::io::Result<()> {
        // Frame into a pooled buffer and emit as one write — the reply
        // hot path allocates nothing in steady state.
        let mut frame = virt_rpc::BufferPool::global().get();
        packet.encode_frame_into(&mut frame);
        self.sink.send_wire(&frame)
    }

    /// The transport flavor.
    fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// Seconds since the Unix epoch at connect time (display only).
    pub fn connected_secs(&self) -> u64 {
        self.connected_at
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_secs()
    }

    /// Seconds this client has been connected, measured on the monotonic
    /// clock — unlike deriving it from [`ClientHandle::connected_at`],
    /// this cannot go negative or jump when the wall clock is stepped.
    pub fn session_secs(&self) -> u64 {
        self.connected_since.elapsed().as_secs()
    }
}

/// A client's externally visible facts (admin `client-list`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSnapshot {
    /// Server-unique id.
    pub id: u64,
    /// Transport name (`memory`, `unix`, `tcp`, `tls`).
    pub transport: String,
    /// Peer description.
    pub peer: String,
    /// Connect time, seconds since epoch (display).
    pub connected_secs: u64,
    /// Session age in seconds, from the monotonic clock.
    pub session_secs: u64,
    /// Authenticated username, empty when unauthenticated.
    pub username: String,
    /// Whether the session is read-only.
    pub readonly: bool,
}

struct ServerState {
    clients: HashMap<u64, Arc<ClientHandle>>,
    max_clients: u32,
    /// The id the next admitted client gets.
    next_client_id: u64,
    /// Listeners attached via [`Server::serve`], closed at shutdown.
    services: Vec<Arc<dyn Listener>>,
}

virt_metrics::metric_set! {
    /// Per-server admission and transport counters. All atomics, shared
    /// with the metrics registry via [`Server::publish_metrics`] so the
    /// admin interface observes live values.
    struct ServerMetrics {
        clients_accepted: Counter = "clients_accepted",
            "Connections admitted into the client table";
        clients_refused: Counter = "clients_refused",
            "Connections refused because the client limit was reached";
        clients_connected: Gauge = "clients_connected", "Clients connected right now";
        keepalive_pings: Counter = "keepalive_pings",
            "Keepalive pings answered inline, never queued behind the pool";
        bytes_in: Counter = "bytes_in", "Frame payload bytes received from clients";
        bytes_out: Counter = "bytes_out", "Frame payload bytes sent to clients";
        panics: Counter = "panics",
            "Calls, inline or pooled, whose dispatcher panicked, answered with an error reply";
    }
}

/// One pooled call, owning its bytes: it runs after the buffer it was
/// read from is reused, on whichever thread takes it.
pub(crate) struct PooledCall {
    client: Arc<ClientHandle>,
    header: Header,
    payload: Vec<u8>,
    received: Instant,
}

/// The pooled calls of one turn. An event thread's turn holds back its
/// first pooled call ([`Calls::new`] with `keep`), for the thread to run
/// itself once the turn is over if another event thread still watches
/// the poller — unless the turn turns out to be a burst of several
/// frames ([`Calls::burst`]). The rest, and every pooled call of a
/// reader thread, are queued in one [`PoolBatch`], whose wakes go out at
/// [`Calls::wake`] (or when the value drops).
pub(crate) struct Calls<'s> {
    server: &'s Arc<Server>,
    keep: bool,
    kept: Option<PooledCall>,
    batch: Option<PoolBatch>,
}

impl<'s> Calls<'s> {
    /// The calls of a turn; `keep` holds back its first pooled call.
    pub(crate) fn new(server: &'s Arc<Server>, keep: bool) -> Calls<'s> {
        Calls {
            server,
            keep,
            kept: None,
            batch: None,
        }
    }

    fn push(&mut self, call: PooledCall) {
        if self.keep && self.kept.is_none() {
            self.kept = Some(call);
            return;
        }
        let server = Arc::clone(self.server);
        self.batch
            .get_or_insert_with(|| self.server.pool.batch())
            .push(move || server.dispatch_pooled(call));
    }

    /// The turn hands up several frames at once: its client has more
    /// calls in flight, whose next burst needs a thread while this one
    /// would run the kept call — a hop all the same. So the turn keeps
    /// nothing, and a call it held back joins the batch, still first.
    pub(crate) fn burst(&mut self) {
        self.keep = false;
        if let Some(call) = self.kept.take() {
            self.push(call);
        }
    }

    /// The burst is handed up: wakes workers for the queued calls.
    pub(crate) fn wake(&mut self) {
        self.batch = None;
    }

    /// The call held back, for the thread that read it to settle
    /// ([`Server::run_kept`] or [`Server::queue`]).
    pub(crate) fn into_kept(mut self) -> Option<PooledCall> {
        self.kept.take()
    }
}

/// A service attached with [`Server::serve`]: the accept loop's handle.
///
/// Unlike the old fire-and-forget accept thread, the handle makes the
/// service's lifecycle explicit: [`ServeHandle::shutdown`] stops
/// accepting (idempotent, callable from any thread) and
/// [`ServeHandle::join`] additionally waits for the accept thread to
/// exit. Dropping the handle does *not* stop the service — the server
/// still closes it during [`Server::shutdown`].
#[must_use = "holding the handle is how a service is shut down and joined; the server only closes it at full shutdown"]
pub struct ServeHandle {
    listener: Arc<dyn Listener>,
    closed: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The listener's local description (socket path, address).
    pub fn local_desc(&self) -> String {
        self.listener.local_desc()
    }

    /// Stops accepting new connections. Existing clients are untouched.
    pub fn shutdown(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            self.listener.close();
        }
    }

    /// Stops accepting and waits for the accept thread to exit.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("listener", &self.listener.local_desc())
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

/// A named server: worker pool + client table + attached services.
pub struct Server {
    name: String,
    pool: WorkerPool,
    dispatcher: Arc<dyn ProgramDispatcher>,
    state: Mutex<ServerState>,
    metrics: ServerMetrics,
    eventloop_metrics: Arc<EventLoopMetrics>,
    /// `None` where epoll is unavailable; every connection then runs on
    /// a reader thread.
    event_core: Option<EventCore>,
    running: Arc<AtomicBool>,
    /// Installed by the daemon via [`Server::set_logger`]; server-level
    /// faults (accept failures, dead event loops) fall back to stderr
    /// when unset so they are never swallowed.
    logger: OnceLock<Arc<Logger>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("name", &self.name)
            .field("clients", &self.state.lock().clients.len())
            .finish()
    }
}

impl Server {
    /// Creates a server with the given pool limits and dispatcher, its
    /// connections served by `event_threads` threads waiting on one
    /// poller.
    ///
    /// # Errors
    ///
    /// Invalid pool limits.
    pub fn new(
        name: impl Into<String>,
        pool_limits: PoolLimits,
        max_clients: u32,
        dispatcher: Arc<dyn ProgramDispatcher>,
        event_threads: usize,
    ) -> Result<Arc<Server>, String> {
        let name = name.into();
        let pool = WorkerPool::start(pool_limits)?;
        let eventloop_metrics = Arc::new(EventLoopMetrics::new());
        Ok(Arc::new_cyclic(|weak: &Weak<Server>| {
            // Where epoll is unavailable (or the threads cannot spawn)
            // the server still works — every connection just gets a
            // reader thread.
            let event_core = EventCore::start(
                &name,
                event_threads,
                weak.clone(),
                Arc::clone(&eventloop_metrics),
            )
            .ok();
            Server {
                name,
                pool,
                dispatcher,
                state: Mutex::new(ServerState {
                    clients: HashMap::new(),
                    max_clients,
                    next_client_id: 1,
                    services: Vec::new(),
                }),
                metrics: ServerMetrics::new(),
                eventloop_metrics,
                event_core,
                running: Arc::new(AtomicBool::new(true)),
                logger: OnceLock::new(),
            }
        }))
    }

    /// The server's name (`virtd`, `admin`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Routes server-level fault reporting (accept failures, event-loop
    /// deaths) through the daemon's logger. First call wins; without one
    /// those messages go to stderr.
    pub fn set_logger(&self, logger: Arc<Logger>) {
        let _ = self.logger.set(logger);
    }

    fn log_warning(&self, message: &str) {
        match self.logger.get() {
            Some(logger) => logger.warning(&format!("server.{}", self.name), message),
            None => eprintln!("virtd[server.{}] warning: {message}", self.name),
        }
    }

    pub(crate) fn log_error(&self, message: &str) {
        match self.logger.get() {
            Some(logger) => logger.error(&format!("server.{}", self.name), message),
            None => eprintln!("virtd[server.{}] error: {message}", self.name),
        }
    }

    /// Publishes this server's metrics into `registry`: admission and
    /// transport counters as `server.{name}.*` and the worker pool's
    /// histograms and gauges as `pool.{name}.*`. The registry shares the
    /// server's own atomics, so snapshots are always live.
    pub fn publish_metrics(&self, registry: &Registry) {
        let n = &self.name;
        self.metrics.attach(registry, &format!("server.{n}."));
        self.eventloop_metrics
            .attach(registry, &format!("server.{n}.event_loop."));
        self.pool.publish_metrics(registry, n);
    }

    /// Worker pool statistics (admin `srv-threadpool-info`).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Adjusts worker pool limits at runtime (admin `srv-threadpool-set`).
    ///
    /// # Errors
    ///
    /// Invalid limits; the old limits stay in force.
    pub(crate) fn set_pool_limits(&self, limits: PoolLimits) -> Result<(), String> {
        self.pool.set_limits(limits)
    }

    /// Jobs completed since start (a thin read of the pool's
    /// registry-backed counter).
    #[cfg(test)]
    fn jobs_completed(&self) -> u64 {
        self.pool.completed()
    }

    /// Current client count.
    pub fn client_count(&self) -> usize {
        self.state.lock().clients.len()
    }

    /// The configured client limit.
    pub fn max_clients(&self) -> u32 {
        self.state.lock().max_clients
    }

    /// Changes the client limit (admin `srv-clients-set`). Existing
    /// clients above a lowered limit stay connected; only new connections
    /// are refused.
    pub fn set_max_clients(&self, max: u32) {
        self.state.lock().max_clients = max;
    }

    /// Count of connections refused due to the client limit (a thin read
    /// of the registry-backed counter).
    pub(crate) fn refused_count(&self) -> u64 {
        self.metrics.clients_refused.get()
    }

    /// Snapshots of all connected clients, id-ordered.
    pub fn clients(&self) -> Vec<ClientSnapshot> {
        let state = self.state.lock();
        let mut list: Vec<ClientSnapshot> = state
            .clients
            .values()
            .map(|c| {
                let identity = c.identity.lock().clone();
                ClientSnapshot {
                    id: c.id,
                    transport: c.transport_kind().to_string(),
                    peer: c.transport.peer(),
                    connected_secs: c.connected_secs(),
                    session_secs: c.session_secs(),
                    username: identity.username.unwrap_or_default(),
                    readonly: identity.readonly,
                }
            })
            .collect();
        list.sort_by_key(|c| c.id);
        list
    }

    /// Looks up one client.
    pub fn client(&self, id: u64) -> Option<Arc<ClientHandle>> {
        self.state.lock().clients.get(&id).cloned()
    }

    /// Forcefully closes a client's connection (admin
    /// `client-disconnect`). Returns whether the client existed.
    pub(crate) fn disconnect_client(&self, id: u64) -> bool {
        let client = self.state.lock().clients.get(&id).cloned();
        match client {
            Some(client) => {
                // Shutting the transport down unblocks the reader thread,
                // which performs the table cleanup.
                let _ = client.transport.shutdown();
                true
            }
            None => false,
        }
    }

    /// Attaches a listener; accepted clients are served until the
    /// returned handle — or the whole server — is shut down.
    pub fn serve(self: &Arc<Self>, listener: Box<dyn Listener>) -> ServeHandle {
        let listener: Arc<dyn Listener> = Arc::from(listener);
        self.state.lock().services.push(Arc::clone(&listener));
        let closed = Arc::new(AtomicBool::new(false));
        let server = Arc::clone(self);
        let accept_listener = Arc::clone(&listener);
        let accept_closed = Arc::clone(&closed);
        let thread = std::thread::Builder::new()
            .name(format!("{}-accept", self.name))
            .spawn(move || {
                let mut backoff = Duration::from_millis(10);
                loop {
                    if accept_closed.load(Ordering::Acquire)
                        || !server.running.load(Ordering::Acquire)
                    {
                        break;
                    }
                    match accept_listener.accept() {
                        Ok(transport) => {
                            // Socket listeners unblock `accept` on close by
                            // dialing themselves; the flag tells that apart
                            // from a real client.
                            if accept_closed.load(Ordering::Acquire)
                                || !server.running.load(Ordering::Acquire)
                            {
                                let _ = transport.shutdown();
                                break;
                            }
                            backoff = Duration::from_millis(10);
                            server.admit(Arc::from(transport));
                        }
                        Err(e) => {
                            if accept_closed.load(Ordering::Acquire)
                                || !server.running.load(Ordering::Acquire)
                            {
                                break;
                            }
                            if !accept_error_is_retryable(&e) {
                                server.log_error(&format!(
                                    "accept on {} failed: {e}; service stopped",
                                    accept_listener.local_desc()
                                ));
                                break;
                            }
                            // Transient pressure — typically fd exhaustion
                            // at C10K scale (EMFILE/ENFILE) or an aborted
                            // handshake. Back off and keep accepting: the
                            // daemon must not silently stop taking clients
                            // because it briefly ran out of descriptors.
                            server.log_warning(&format!(
                                "accept on {} failed: {e}; retrying in {backoff:?}",
                                accept_listener.local_desc()
                            ));
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(Duration::from_secs(1));
                        }
                    }
                }
            })
            .expect("spawning accept thread");
        ServeHandle {
            listener,
            closed,
            thread: Some(thread),
        }
    }

    /// Admits a single transport directly (bypassing a listener) — used by
    /// tests and by in-process endpoints.
    pub fn admit(self: &Arc<Self>, transport: Arc<dyn Transport>) {
        // The limit check and the insert are one critical section, so
        // admissions racing for the last slot cannot both take it.
        let mut state = self.state.lock();
        if state.clients.len() as u32 >= state.max_clients {
            drop(state);
            self.metrics.clients_refused.inc();
            let _ = transport.shutdown();
            return;
        }
        let id = state.next_client_id;
        state.next_client_id += 1;
        let claim = self
            .event_core
            .as_ref()
            .and_then(|core| core.claim(&transport, id));
        let client = Arc::new(ClientHandle {
            id,
            sink: ConnSink::new(
                Arc::clone(&transport),
                claim.as_ref(),
                Arc::clone(&self.eventloop_metrics),
                Arc::clone(&self.metrics.bytes_out),
            ),
            transport,
            connected_at: SystemTime::now(),
            connected_since: Instant::now(),
            identity: Mutex::new(ClientIdentity::default()),
        });
        state.clients.insert(id, Arc::clone(&client));
        self.metrics.clients_accepted.inc();
        self.metrics.clients_connected.inc();
        drop(state);
        match claim {
            Some(claim) => claim.publish(client),
            None => self.spawn_reader(client),
        }
    }

    fn spawn_reader(self: &Arc<Self>, client: Arc<ClientHandle>) {
        let server = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("{}-client-{}", self.name, client.id))
            .spawn(move || server.client_loop(client))
            .expect("spawning client thread");
    }

    /// Handles one complete frame body from `client` — keepalive and
    /// high-priority procedures inline, everything else into the turn's
    /// `calls`: held back if it is the first of a turn that keeps one,
    /// queued in the turn's batch otherwise. Returns whether to keep the
    /// connection (protocol garbage drops it). Shared by the event
    /// threads and reader threads, and the one place received payload
    /// bytes are counted.
    pub(crate) fn process_frame(
        self: &Arc<Self>,
        client: &Arc<ClientHandle>,
        body: &[u8],
        calls: &mut Calls<'_>,
    ) -> bool {
        self.metrics.bytes_in.add(body.len() as u64);
        // The header is decoded in place; the payload stays a slice of
        // the caller's buffer for everything answered on this thread.
        let Ok((header, payload)) = Packet::split_body(body) else {
            return false; // protocol garbage: drop the client
        };

        if header.program == KEEPALIVE_PROGRAM {
            match header.procedure {
                // Keepalive is answered inline, never queued: liveness
                // probes must not wait behind a busy pool.
                keepalive::PROC_PING => {
                    self.metrics.keepalive_pings.inc();
                    let _ = client.send(&keepalive::pong_packet());
                    return true;
                }
                // A bye announces the client's own clean shutdown; the
                // connection teardown follows on its own.
                keepalive::PROC_PONG | keepalive::PROC_BYE => return true,
                _ => {}
            }
        }

        if header.program != self.dispatcher.program() {
            let reply = Packet::new(
                header.reply_error(),
                &RpcError::new(
                    virt_core::ErrorCode::RpcFailure.as_u32(),
                    format!("unknown program {:#x}", header.program),
                ),
            );
            let _ = client.send(&reply);
            return true;
        }

        // High-priority procedures are guaranteed to finish without
        // waiting on a hypervisor, so — like keepalive above — they are
        // answered inline on the event (or reader) thread instead of
        // crossing to a worker and back (a queue, a wake at the end of
        // the burst, and the worker's own reply write); everything that
        // can block rides the ordinary pool, keeping this thread free to
        // notice disconnects on its other connections.
        //
        // That leaves the pool's priority workers with nothing to do: the
        // daemon hands the pool ordinary jobs only (a turn's batch, or a
        // call kept or queued after the turn), so they sit parked — 5 on the main server,
        // 1 on the admin server, whose dispatcher classes every procedure
        // high-priority and so never reaches its pool at all. They are
        // kept only because the benchmark package still names
        // `submit(false, ..)` and `PoolLimits::new()` (ROADMAP item 2).
        if self.dispatcher.is_high_priority(header.procedure) {
            let _trace = span::server_enter(
                header.trace_id,
                header.parent_span,
                u64::from(header.procedure),
            );
            self.answer(client, header, payload);
            return true;
        }

        // A pooled call runs after this turn, so it owns its bytes.
        calls.push(PooledCall {
            client: Arc::clone(client),
            header,
            payload: payload.to_vec(),
            received: Instant::now(),
        });
        true
    }

    /// Runs a turn's kept call on this thread, as a pool job (its wait,
    /// run time and completion are the pool's; shutdown waits for it).
    pub(crate) fn run_kept(&self, call: PooledCall) {
        self.pool
            .run_kept(call.received, || self.dispatch_pooled(call));
    }

    /// Queues a turn's kept call for a worker after all — no other event
    /// thread was left watching the poller.
    pub(crate) fn queue(self: &Arc<Self>, call: PooledCall) {
        let server = Arc::clone(self);
        self.pool
            .submit(false, move || server.dispatch_pooled(call));
    }

    /// A pooled call, on whichever thread runs it.
    fn dispatch_pooled(&self, call: PooledCall) {
        let PooledCall {
            client,
            header,
            payload,
            received,
        } = call;
        // Re-enter the wire trace here: the dispatch span becomes a child
        // of the client's stub span, and the time since the frame was
        // read is attributed as a queue-wait stage.
        let _trace = span::server_enter(
            header.trace_id,
            header.parent_span,
            u64::from(header.procedure),
        );
        span::record_span_since(Stage::QueueWait, received, 0);
        self.answer(&client, header, &payload);
    }

    /// Dispatches one call, inline or pooled, and sends the reply. A
    /// dispatcher that panics costs no thread: the caller gets an error
    /// reply naming the procedure and the panic, and the daemon's log a
    /// line.
    fn answer(&self, client: &Arc<ClientHandle>, header: Header, payload: &[u8]) {
        let dispatched = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.dispatcher.dispatch(client, header, payload)
        }));
        let reply = match dispatched {
            Ok(reply) => reply,
            Err(panic) => self.panicked(client.id, header, panic.as_ref()),
        };
        debug_assert_eq!(reply.header.serial, header.serial);
        debug_assert!(matches!(
            reply.header.status,
            MessageStatus::Ok | MessageStatus::Error
        ));
        let _write = span::stage(Stage::ReplyWrite);
        let _ = client.send(&reply);
    }

    /// Counts and logs a dispatcher's panic; returns the caller's reply.
    fn panicked(&self, client_id: u64, header: Header, panic: &(dyn Any + Send)) -> Packet {
        let message = panic
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a panic without a message".to_string());
        let procedure = match self.dispatcher.procedure_name(header.procedure) {
            Some(name) => format!("{name} ({})", header.procedure),
            None => format!("procedure {}", header.procedure),
        };
        self.metrics.panics.inc();
        self.log_error(&format!(
            "client {client_id} {procedure} panicked: {message}"
        ));
        Packet::new(
            header.reply_error(),
            &RpcError::new(
                virt_core::ErrorCode::Internal.as_u32(),
                format!("{procedure} panicked: {message}"),
            ),
        )
    }

    /// Removes a client from the table, firing the dispatcher's
    /// disconnect callback exactly once (table presence is the guard).
    pub(crate) fn remove_client(&self, id: u64) {
        if self.state.lock().clients.remove(&id).is_some() {
            self.metrics.clients_connected.dec();
            self.dispatcher.on_disconnect(id);
        }
    }

    /// Per-connection reader: blocking framed reads on a dedicated
    /// thread, for every client no event loop claimed — a transport with
    /// no readiness surface, a failed registration, or no epoll at all.
    fn client_loop(self: Arc<Self>, client: Arc<ClientHandle>) {
        // One receive buffer per client connection, refilled in place —
        // after the first frames it has grown to the working size and
        // the read path stops allocating.
        let mut frame = virt_rpc::BufferPool::global().get();
        while self.running.load(Ordering::Acquire) {
            if client.transport.recv_frame_into(&mut frame).is_err() {
                break;
            }
            // A reader thread's turn is one frame, and it keeps no call:
            // the batch drops, and its call gets a worker, before the
            // next blocking read.
            if !self.process_frame(&client, &frame, &mut Calls::new(&self, false)) {
                break;
            }
        }
        // Cleanup.
        self.remove_client(client.id);
        let _ = client.transport.shutdown();
    }

    /// Stops the server gracefully: stops accepting, lets in-flight
    /// work finish, drains queued replies to the wire, says farewell
    /// (`bye`) to every client — so they can tell an orderly shutdown
    /// apart from a crash — and only then closes connections and stops
    /// the event loops.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::AcqRel) {
            return; // already shut down
        }
        // 1. Stop accepting new connections.
        let services: Vec<Arc<dyn Listener>> = self.state.lock().services.drain(..).collect();
        for listener in services {
            listener.close();
        }
        // 2. Let running jobs finish, on workers and kept by event
        //    threads; their replies land in the sinks (queued jobs that
        //    never started are dropped).
        self.pool.shutdown();
        // 3. Drain queued replies to the wire while the loops still run.
        if let Some(core) = &self.event_core {
            core.drain(Duration::from_secs(5));
        }
        // 4. Farewell and close.
        let clients: Vec<Arc<ClientHandle>> = self.state.lock().clients.values().cloned().collect();
        let bye = keepalive::bye_packet();
        for client in clients {
            let _ = client.send(&bye);
            let _ = client.transport.shutdown();
        }
        // 5. Flush any byes that queued, then stop the event threads and
        //    tear down what remains.
        if let Some(core) = &self.event_core {
            core.drain(Duration::from_millis(250));
            core.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use virt_rpc::message::{MessageType, REMOTE_PROGRAM};
    use virt_rpc::transport::memory_pair;
    use virt_rpc::CallClient;

    /// Echo dispatcher: replies with the request payload; procedure 7 is
    /// high priority; procedure 99 blocks while the gate is shut (a "hung
    /// hypervisor call").
    #[derive(Default)]
    struct EchoDispatcher {
        gate: Gate,
        disconnects: Mutex<Vec<u64>>,
    }

    /// Holds every call that reaches it while shut.
    #[derive(Default)]
    struct Gate {
        shut: Mutex<bool>,
        opened: parking_lot::Condvar,
        /// Calls held right now.
        held: std::sync::atomic::AtomicUsize,
    }

    impl Gate {
        fn shut(&self) {
            *self.shut.lock() = true;
        }

        fn open(&self) {
            *self.shut.lock() = false;
            self.opened.notify_all();
        }

        fn pass(&self) {
            let mut shut = self.shut.lock();
            if *shut {
                self.held.fetch_add(1, Ordering::SeqCst);
                while *shut {
                    self.opened.wait(&mut shut);
                }
                self.held.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    impl ProgramDispatcher for EchoDispatcher {
        fn program(&self) -> u32 {
            REMOTE_PROGRAM
        }

        fn is_high_priority(&self, procedure: u32) -> bool {
            procedure == 7
        }

        fn dispatch(&self, _client: &Arc<ClientHandle>, header: Header, payload: &[u8]) -> Packet {
            if header.procedure == 99 {
                self.gate.pass();
            }
            Packet {
                header: header.reply_ok(),
                payload: payload.to_vec(),
            }
        }

        fn on_disconnect(&self, client_id: u64) {
            self.disconnects.lock().push(client_id);
        }
    }

    fn small_limits() -> PoolLimits {
        PoolLimits {
            min_workers: 1,
            max_workers: 2,
            priority_workers: 1,
        }
    }

    fn connect(server: &Arc<Server>) -> CallClient {
        let (client_side, server_side) = memory_pair();
        server.admit(Arc::new(server_side));
        CallClient::new(client_side)
    }

    fn wait_until(pred: impl Fn() -> bool, what: &str) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn round_trip_through_the_pool() {
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let client = connect(&server);
        let reply: String = client.call(REMOTE_PROGRAM, 1, &"ping".to_string()).unwrap();
        assert_eq!(reply, "ping");
        assert_eq!(server.client_count(), 1);
        // The reply leaves from inside the job; the worker counts the job
        // only once it has returned.
        server.pool.quiesce();
        assert_eq!(server.jobs_completed(), 1);
        client.close();
        server.shutdown();
    }

    #[test]
    fn client_limit_refuses_excess_connections() {
        let server = Server::new(
            "t",
            small_limits(),
            2,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let c1 = connect(&server);
        let c2 = connect(&server);
        // Both are live.
        let _: String = c1.call(REMOTE_PROGRAM, 1, &"a".to_string()).unwrap();
        let _: String = c2.call(REMOTE_PROGRAM, 1, &"b".to_string()).unwrap();
        // The third connection is refused: its transport gets shut down.
        let c3 = connect(&server);
        let err = c3
            .call::<String>(REMOTE_PROGRAM, 1, &"c".to_string())
            .unwrap_err();
        assert!(matches!(
            err,
            virt_rpc::client::CallError::Disconnected | virt_rpc::client::CallError::Io(_)
        ));
        assert_eq!(server.refused_count(), 1);
        assert_eq!(server.client_count(), 2);
        server.shutdown();
    }

    #[test]
    fn racing_admissions_respect_the_client_limit() {
        const RACERS: usize = 8;
        let server = Server::new(
            "t",
            small_limits(),
            1,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        for round in 0..200 {
            let refused = server.refused_count();
            let barrier = std::sync::Barrier::new(RACERS);
            // Each racer keeps its client end, so the one admitted stays
            // connected until the counts are read.
            let peers: Vec<_> = std::thread::scope(|s| {
                let racers: Vec<_> = (0..RACERS)
                    .map(|_| {
                        s.spawn(|| {
                            let (client_side, server_side) = memory_pair();
                            barrier.wait();
                            server.admit(Arc::new(server_side));
                            client_side
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert_eq!(server.client_count(), 1, "round {round}");
            assert_eq!(
                server.refused_count() - refused,
                RACERS as u64 - 1,
                "round {round}"
            );
            for peer in &peers {
                let _ = peer.shutdown();
            }
            wait_until(|| server.client_count() == 0, "the admitted client left");
        }
        server.shutdown();
    }

    type ScriptedAccept = std::io::Result<Box<dyn Transport>>;

    /// Listener driven by a script of accept outcomes; once the script
    /// is exhausted, `accept` blocks until `close`.
    struct ScriptedListener {
        rx: Mutex<std::sync::mpsc::Receiver<ScriptedAccept>>,
        tx: Mutex<Option<std::sync::mpsc::Sender<ScriptedAccept>>>,
    }

    impl Listener for ScriptedListener {
        fn accept(&self) -> std::io::Result<Box<dyn Transport>> {
            self.rx
                .lock()
                .recv()
                .unwrap_or_else(|_| Err(std::io::ErrorKind::UnexpectedEof.into()))
        }

        fn local_desc(&self) -> String {
            "scripted".into()
        }

        fn close(&self) {
            self.tx.lock().take();
        }
    }

    #[test]
    fn accept_loop_survives_transient_fd_exhaustion() {
        const EMFILE: i32 = 24;
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        // Script: fd exhaustion first, then a real client — the accept
        // loop must back off and keep accepting, not exit.
        tx.send(Err(std::io::Error::from_raw_os_error(EMFILE)))
            .unwrap();
        let (client_side, server_side) = memory_pair();
        tx.send(Ok(Box::new(server_side) as Box<dyn Transport>))
            .unwrap();
        let handle = server.serve(Box::new(ScriptedListener {
            rx: Mutex::new(rx),
            tx: Mutex::new(Some(tx)),
        }));
        let client = CallClient::new(client_side);
        let reply: String = client
            .call(REMOTE_PROGRAM, 1, &"still accepting".to_string())
            .unwrap();
        assert_eq!(reply, "still accepting");
        handle.join();
        server.shutdown();
    }

    #[test]
    fn raising_the_limit_admits_new_clients() {
        let server = Server::new(
            "t",
            small_limits(),
            1,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let _c1 = connect(&server);
        wait_until(|| server.client_count() == 1, "first client admitted");
        server.set_max_clients(2);
        let c2 = connect(&server);
        let _: String = c2.call(REMOTE_PROGRAM, 1, &"x".to_string()).unwrap();
        assert_eq!(server.client_count(), 2);
        server.shutdown();
    }

    #[test]
    fn forced_disconnect_removes_the_client() {
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let client = connect(&server);
        let _: String = client.call(REMOTE_PROGRAM, 1, &"x".to_string()).unwrap();
        let id = server.clients()[0].id;
        assert!(server.disconnect_client(id));
        wait_until(|| server.client_count() == 0, "client table drained");
        assert!(
            !server.disconnect_client(id),
            "second disconnect reports absence"
        );
        // The client observes the closed connection.
        let err = client
            .call::<String>(REMOTE_PROGRAM, 1, &"y".to_string())
            .unwrap_err();
        assert!(matches!(
            err,
            virt_rpc::client::CallError::Disconnected | virt_rpc::client::CallError::Io(_)
        ));
        server.shutdown();
    }

    #[test]
    fn client_snapshots_expose_identity() {
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let client = connect(&server);
        let _: String = client.call(REMOTE_PROGRAM, 1, &"x".to_string()).unwrap();
        let snapshots = server.clients();
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].transport, "memory");
        assert!(snapshots[0].connected_secs > 0);
        server.shutdown();
    }

    #[test]
    fn priority_procedure_completes_while_ordinary_workers_hang() {
        let dispatcher = Arc::new(EchoDispatcher::default());
        dispatcher.gate.shut();
        let server = Server::new(
            "t",
            PoolLimits {
                min_workers: 1,
                max_workers: 1,
                priority_workers: 1,
            },
            10,
            dispatcher.clone(),
            2,
        )
        .unwrap();
        let client = connect(&server);
        // Hang ordinary calls, each from a thread of its own, until the
        // single ordinary worker is wedged *and* an event thread holds a
        // kept call: all the pooled capacity there is short of the last
        // thread watching the poller.
        let mut hanging = Vec::new();
        let kept = || server.eventloop_metrics.kept_calls.get();
        while !(server.pool_stats().free_workers == 0 && kept() == 1) {
            assert!(
                hanging.len() < 4,
                "no worker and kept call hung after 4 calls"
            );
            let hang_client = client.clone();
            hanging.push(std::thread::spawn(move || {
                let _: String = hang_client
                    .call(REMOTE_PROGRAM, 99, &"hang".to_string())
                    .unwrap();
            }));
            let sent = hanging.len();
            wait_until(
                || {
                    let held = dispatcher.gate.held.load(Ordering::SeqCst);
                    held + server.pool_stats().job_queue_depth as usize == sent
                },
                "the hung call held or queued",
            );
        }
        // The high-priority procedure still completes.
        let reply: String = client
            .call(REMOTE_PROGRAM, 7, &"urgent".to_string())
            .unwrap();
        assert_eq!(reply, "urgent");
        dispatcher.gate.open();
        for hung in hanging {
            hung.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn pool_limits_adjustable_at_runtime() {
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        server
            .set_pool_limits(PoolLimits {
                min_workers: 3,
                max_workers: 6,
                priority_workers: 2,
            })
            .unwrap();
        wait_until(
            || {
                let s = server.pool_stats();
                s.current_workers >= 3 && s.priority_workers == 2
            },
            "pool grew",
        );
        assert!(server
            .set_pool_limits(PoolLimits {
                min_workers: 9,
                max_workers: 3,
                priority_workers: 1
            })
            .is_err());
        server.shutdown();
    }

    #[test]
    fn keepalive_pings_answered_inline() {
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let (client_side, server_side) = memory_pair();
        server.admit(Arc::new(server_side));
        // Raw ping (no CallClient, to observe the pong frame directly).
        let ping = virt_rpc::keepalive::ping_packet();
        client_side.send_frame(&ping.to_frame()[4..]).unwrap();
        let frame = client_side.recv_frame().unwrap();
        let pong = Packet::from_body(&frame).unwrap();
        assert!(virt_rpc::keepalive::is_pong(&pong));
        server.shutdown();
    }

    #[test]
    fn shutdown_says_goodbye_to_connected_clients() {
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let (client_side, server_side) = memory_pair();
        server.admit(Arc::new(server_side));
        wait_until(|| server.client_count() == 1, "admitted");
        server.shutdown();
        // The last frame before the close is the farewell.
        let frame = client_side.recv_frame().unwrap();
        let bye = Packet::from_body(&frame).unwrap();
        assert!(virt_rpc::keepalive::is_bye(&bye));
        assert!(client_side.recv_frame().is_err(), "then the close");
    }

    #[test]
    fn client_byes_are_consumed_without_a_reply() {
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let (client_side, server_side) = memory_pair();
        server.admit(Arc::new(server_side));
        wait_until(|| server.client_count() == 1, "admitted");
        let bye = virt_rpc::keepalive::bye_packet();
        client_side.send_frame(&bye.to_frame()[4..]).unwrap();
        // The bye is skipped, not dispatched: a following echo call still
        // works and nothing was sent in between.
        let call = Packet::new(Header::call(REMOTE_PROGRAM, 1, 9), &42u32);
        client_side.send_frame(&call.to_frame()[4..]).unwrap();
        let frame = client_side.recv_frame().unwrap();
        let reply = Packet::from_body(&frame).unwrap();
        assert_eq!(reply.header.serial, 9);
        assert_eq!(reply.header.status, MessageStatus::Ok);
        server.shutdown();
    }

    #[test]
    fn wrong_program_gets_an_error_reply() {
        let server = Server::new(
            "t",
            small_limits(),
            10,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let (client_side, server_side) = memory_pair();
        server.admit(Arc::new(server_side));
        let call = Packet::new(Header::call(0xbad, 1, 5), &());
        client_side.send_frame(&call.to_frame()[4..]).unwrap();
        let frame = client_side.recv_frame().unwrap();
        let reply = Packet::from_body(&frame).unwrap();
        assert_eq!(reply.header.mtype, MessageType::Reply);
        assert_eq!(reply.header.status, MessageStatus::Error);
        assert_eq!(reply.header.serial, 5);
        server.shutdown();
    }

    #[test]
    fn garbage_frames_drop_the_client() {
        let dispatcher = Arc::new(EchoDispatcher::default());
        let server = Server::new("t", small_limits(), 10, dispatcher.clone(), 2).unwrap();
        let (client_side, server_side) = memory_pair();
        server.admit(Arc::new(server_side));
        wait_until(|| server.client_count() == 1, "admitted");
        client_side.send_frame(&[1, 2, 3, 4]).unwrap();
        wait_until(|| server.client_count() == 0, "dropped");
        assert_eq!(dispatcher.disconnects.lock().len(), 1);
        server.shutdown();
    }

    #[test]
    fn disconnect_callback_fires_per_client() {
        let dispatcher = Arc::new(EchoDispatcher::default());
        let server = Server::new("t", small_limits(), 10, dispatcher.clone(), 2).unwrap();
        let c1 = connect(&server);
        let c2 = connect(&server);
        let _: String = c1.call(REMOTE_PROGRAM, 1, &"x".to_string()).unwrap();
        let _: String = c2.call(REMOTE_PROGRAM, 1, &"x".to_string()).unwrap();
        c1.close();
        c2.close();
        wait_until(
            || dispatcher.disconnects.lock().len() == 2,
            "both disconnect callbacks",
        );
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_multiplex_correctly() {
        let server = Server::new(
            "t",
            PoolLimits {
                min_workers: 4,
                max_workers: 8,
                priority_workers: 1,
            },
            64,
            Arc::new(EchoDispatcher::default()),
            2,
        )
        .unwrap();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let client = connect(&server);
                std::thread::spawn(move || {
                    for j in 0..50 {
                        let msg = format!("{i}-{j}");
                        let reply: String = client.call(REMOTE_PROGRAM, 1, &msg).unwrap();
                        assert_eq!(reply, msg);
                    }
                    client.close();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.pool.quiesce();
        assert_eq!(server.jobs_completed(), 400);
        server.shutdown();
    }
}
