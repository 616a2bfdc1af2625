//! The event-driven connection core: a small fixed set of event threads
//! owning every ready-capable client connection.
//!
//! Thread-per-connection caps a daemon at thread-spawn cost: 5k idle
//! monitoring clients would pin 5k stacks. Instead, each accepted
//! transport that exposes a descriptor ([`Readiness::Fd`]: sockets, the
//! socketpairs of in-process connections included) is registered with
//! the server's one [`Poller`], and its N event threads all wait on it.
//! Registrations are edge-triggered and each wait takes one event, so a
//! readiness change wakes one thread. A connection's *turn* — hand up
//! what it sent, answer what runs inline, write the replies — is run by
//! one thread at a time: readiness that reaches another thread while a
//! turn runs is left with the turn, and its owner acts on it before
//! letting go (the rule, and its exhaustive check, are in `turn.rs`). A
//! burst — whatever one client has sent by the time a thread gets to it —
//! costs one read and one write:
//!
//! - **Reads** are nonblocking and buffered: one `try_read` of up to
//!   [`READ_CHUNK`](virt_rpc::framebuf::READ_CHUNK) bytes lands in the
//!   connection's [`FrameBuf`] (the same splitter the socket transports
//!   use), and every complete frame in it is handed to the server *in
//!   place*. Keepalive and high-priority procedures run inline on the
//!   event thread. A lone frame's pooled call is held back (below);
//!   every pooled call of a burst is queued for the worker pool through
//!   one batch per pass, which
//!   wakes an idle worker for each of them when the pass's frames are all
//!   handed up — just before its gathered write — so the thread is not
//!   preempted mid-burst by a worker woken per call, and a hung call
//!   strands nothing queued behind it while a worker is idle. A short
//!   read means the socket is drained: whatever arrives after it is a new
//!   edge, so nothing probes for `EAGAIN` — except after the peer shut its
//!   side, whose end-of-stream has no edge of its own. A partial frame
//!   stays buffered across any number of turns. At most
//!   `MAX_FRAMES_PER_EVENT` frames are handed up per pass; frames left in
//!   the buffer or unread in the socket are bytes no edge will announce,
//!   so that connection goes on the *ready list* (where its first turn
//!   also comes from) instead of waiting for an event that will not come.
//! - **The kept call.** A turn that hands up a lone frame — a client
//!   that sent one call and waits for it — holds its pooled call back.
//!   With the turn released, the thread runs that call itself — counted
//!   as a pool job — if at least one other event thread still waits on
//!   the poller, and queues it for the pool if not. So a lone pooled call
//!   costs no thread hop while a thread is left watching, and the last
//!   watcher never leaves the poller for a call that may block: a hung
//!   call stalls no connection. A burst keeps nothing: its client has
//!   more calls in flight, whose next burst would need a second thread
//!   while the first ran the call — a hop all the same. Reader threads
//!   keep nothing.
//! - **Writes** go through a per-connection [`ConnSink`]: a reply is
//!   tried as a direct nonblocking write, and only what the socket does
//!   not take is kept — whole frames back to back in one pooled buffer,
//!   drained on `EPOLLOUT`. When a turn finds more than one frame
//!   buffered it *corks* the sink for that burst: replies written
//!   meanwhile (inline ones, and any worker reply that lands in the
//!   window) are gathered into the same buffer and leave in one write
//!   when the burst ends. A cork never outlives one pass of one turn, and
//!   a single-frame burst never corks — a lone call keeps the direct
//!   write. Owed bytes, gathered or spilled, count alike: past a soft cap
//!   the turn stops *reading* from that client and hands out no more of
//!   its buffered frames (natural backpressure; it resumes, from the
//!   buffer first, once a flush takes the backlog under the resume mark);
//!   past a hard cap the client is disconnected rather than allowed to
//!   balloon daemon memory.
//! - **Idle connections hold no buffers.** The read buffer and the write
//!   buffer are checked out of the [`BufferPool`] when a burst needs
//!   them and go back as soon as they are empty.
//! - **Teardown** happens once: whichever turn notices the death (read
//!   EOF, write error, hangup), or the stop, removes the connection,
//!   deregistering the fd and dropping whatever pooled buffers the
//!   connection held back to the freelist.
//!
//! Every admitted client has a sink. A socket the core registered gets
//! the queued route above; every connection a dedicated reader thread
//! serves — a transport with no descriptor ([`Readiness::Blocking`], e.g.
//! the simulated-TLS transport), a socket whose registration failed, or
//! any connection where epoll is missing — gets the direct route, the
//! transport's own send. Payload bytes out are counted in
//! [`ConnSink::send_wire`], whichever the route.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use virt_metrics::Counter;
use virt_rpc::framebuf::FrameBuf;
use virt_rpc::poll::{Events, PollEvent, Poller, WAKE_TOKEN};
use virt_rpc::transport::{Readiness, Transport};
use virt_rpc::{BufferPool, PooledBuf};

use crate::server::{Calls, ClientHandle, Server};

mod turn;

use turn::{Ready, Turn};

/// Frames handed up per connection per pass before yielding. Capping the
/// batch keeps one flooding client from starving the other connections
/// without losing any frames: what is left in the connection's buffer or
/// its socket puts it on the ready list. (The bytes asked of a socket per
/// read are the splitter's [`virt_rpc::framebuf::READ_CHUNK`].)
const MAX_FRAMES_PER_EVENT: usize = 32;

/// Queued-write bytes above which a turn stops reading from a
/// connection until its queue drains.
const WRITE_SOFT_CAP: usize = 256 * 1024;
/// Queued-write bytes below which a paused connection resumes reads.
const WRITE_RESUME_MARK: usize = 64 * 1024;
/// Queued-write bytes above which the connection is disconnected — a
/// client that never reads replies cannot hold daemon memory.
const WRITE_HARD_CAP: usize = 4 * 1024 * 1024;

virt_metrics::metric_set! {
    /// `server.{name}.event_loop.*` instrumentation, shared across all
    /// event threads of one server.
    pub(crate) struct EventLoopMetrics {
        registered_fds: Gauge = "registered_fds",
            "Connections owned by the event loops (sockets, in-process socketpairs included)";
        wakeups: Counter = "wakeups", "Event-loop thread wakeups from epoll_wait";
        ready_events: Counter = "ready_events", "Readiness events delivered to the event loops";
        read_calls: Counter = "read_calls", "Socket reads issued by the event loops";
        write_calls: Counter = "write_calls", "Socket writes issued for event-loop connections";
        frames_in: Counter = "frames_in",
            "Complete request frames the event loops handed to the server";
        write_queue_bytes: Gauge = "write_queue_bytes",
            "Reply bytes queued for write across all connections";
        reads_paused: Counter = "reads_paused",
            "Times a connection's reads were paused by write backpressure";
        backpressure_closes: Counter = "backpressure_closes",
            "Connections dropped for exceeding the write-queue hard cap";
        kept_calls: Counter = "kept_calls", "Pooled calls run by the thread that read them";
    }
}

#[derive(Default)]
struct SinkState {
    /// Reply bytes accepted but not yet on the wire: whole frames back
    /// to back, of which `out[written..]` is still owed to the socket.
    /// `None` whenever nothing is owed — an idle connection parks no
    /// buffer.
    out: Option<PooledBuf>,
    written: usize,
    /// A turn is inside a multi-frame burst: replies gather in
    /// `out` and leave in one write when the burst ends.
    corked: bool,
    /// EPOLLOUT interest is armed.
    want_write: bool,
    closed: bool,
}

impl SinkState {
    /// Bytes owed to the socket.
    fn queued(&self) -> usize {
        self.out.as_ref().map_or(0, |out| out.len() - self.written)
    }

    /// Gives the buffer back to the pool — cut down to what the pool
    /// parks, should a backlog have grown it past that.
    fn release(&mut self) {
        if let Some(mut out) = self.out.take() {
            out.shrink_to_parked();
        }
        self.written = 0;
    }
}

enum SinkRoute {
    /// The transport's own send: every connection a reader thread serves.
    Direct,
    /// Nonblocking fd: direct-write fast path, with what the socket does
    /// not take (and what a corked burst gathers) kept in one buffer the
    /// turn writes out.
    Queued {
        fd: i32,
        token: u64,
        poller: Arc<Poller>,
        state: Mutex<SinkState>,
    },
}

/// The write side of one client connection. Shared between the
/// connection's turn (flushing on `EPOLLOUT`), if it has turns, and every
/// thread that replies (`ClientHandle::send`).
pub(crate) struct ConnSink {
    transport: Arc<dyn Transport>,
    route: SinkRoute,
    /// EPOLLIN interest is dropped (write soft cap exceeded). Changed
    /// only under the state lock, but read by turns without it: a
    /// worker can be pre-empted inside its reply's write with the lock
    /// held, and the next turn must not queue up behind that just
    /// to look at a flag. It publishes nothing else, hence `Relaxed`.
    paused_reads: AtomicBool,
    metrics: Arc<EventLoopMetrics>,
    bytes_out: Arc<Counter>,
}

impl ConnSink {
    /// The sink of a connection being admitted: queued behind the socket
    /// the event core has `claim`ed, direct for everything else.
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        claim: Option<&Claim>,
        metrics: Arc<EventLoopMetrics>,
        bytes_out: Arc<Counter>,
    ) -> ConnSink {
        let route = match claim {
            Some(Claim { shared, fd, token }) => SinkRoute::Queued {
                fd: *fd,
                token: *token,
                poller: Arc::clone(&shared.poller),
                state: Mutex::default(),
            },
            None => SinkRoute::Direct,
        };
        ConnSink {
            transport,
            route,
            paused_reads: AtomicBool::new(false),
            metrics,
            bytes_out,
        }
    }

    /// Sends one complete wire frame (length prefix included, as laid
    /// out by `Packet::encode_frame_into`). Its payload bytes are counted
    /// here, for every connection, before the write: a client holding
    /// its reply finds it counted.
    pub(crate) fn send_wire(&self, wire: &[u8]) -> io::Result<()> {
        self.bytes_out.add((wire.len() - 4) as u64);
        match &self.route {
            SinkRoute::Direct => self.transport.send_framed(wire),
            SinkRoute::Queued { state, .. } => self.send_queued(&mut state.lock(), wire),
        }
    }

    fn send_queued(&self, st: &mut SinkState, wire: &[u8]) -> io::Result<()> {
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection closed",
            ));
        }
        let mut off = 0;
        if !st.corked && st.out.is_none() {
            // Fast path: the socket usually accepts the whole frame and
            // no queuing (or loop involvement) happens at all.
            loop {
                self.metrics.write_calls.inc();
                match self.transport.try_write(&wire[off..]) {
                    Ok(0) => {
                        self.close_locked(st);
                        return Err(io::ErrorKind::WriteZero.into());
                    }
                    Ok(n) => {
                        off += n;
                        if off == wire.len() {
                            return Ok(());
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        self.close_locked(st);
                        return Err(e);
                    }
                }
            }
        }
        // Keep the remainder (or, corked or with a backlog, the whole
        // frame — ordering must hold) behind what is already owed.
        let SinkState { out, written, .. } = st;
        let out = out.get_or_insert_with(|| BufferPool::global().get());
        if *written > out.len() - *written {
            // More written than owed: reclaim the front, so a steady
            // slow reader cannot grow the buffer past its backlog.
            out.drain(..*written);
            *written = 0;
        }
        out.extend_from_slice(&wire[off..]);
        self.metrics
            .write_queue_bytes
            .add((wire.len() - off) as u64);
        if st.queued() > WRITE_HARD_CAP {
            // The client is not reading replies; cut it loose instead of
            // letting its backlog grow without bound.
            self.metrics.backpressure_closes.inc();
            self.close_locked(st);
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "write queue overflow",
            ));
        }
        let mut update = false;
        // A corked burst writes (and arms EPOLLOUT if it must) itself.
        if !st.corked && !st.want_write {
            st.want_write = true;
            update = true;
        }
        if st.queued() > WRITE_SOFT_CAP && !self.reads_paused() {
            self.paused_reads.store(true, Ordering::Relaxed);
            self.metrics.reads_paused.inc();
            update = true;
        }
        if update {
            self.update_interest_locked(st);
        }
        Ok(())
    }

    /// Starts gathering: until [`ConnSink::uncork`], replies are appended
    /// to the write buffer instead of written one by one. The turn's
    /// thread only, around one multi-frame burst.
    fn cork(&self) {
        if let SinkRoute::Queued { state, .. } = &self.route {
            state.lock().corked = true;
        }
    }

    /// Ends a corked burst: everything gathered leaves in one write
    /// (what the socket refuses waits for `EPOLLOUT`). Returns whether
    /// the connection survives.
    fn uncork(&self) -> bool {
        let SinkRoute::Queued { state, .. } = &self.route else {
            return true;
        };
        let mut st = state.lock();
        st.corked = false;
        self.write_out(&mut st)
    }

    /// Drains as much of the owed bytes as the socket accepts. Called by
    /// a turn on `EPOLLOUT`; returns whether the connection survives.
    fn flush(&self) -> bool {
        let SinkRoute::Queued { state, .. } = &self.route else {
            return true;
        };
        self.write_out(&mut state.lock())
    }

    /// Writes `out[written..]` until it is gone or the socket pushes
    /// back, releases the buffer once nothing is owed, and settles the
    /// epoll interest: `EPOLLOUT` exactly while bytes are owed, reads
    /// resumed once the backlog is under the resume mark.
    fn write_out(&self, st: &mut SinkState) -> bool {
        if st.closed {
            return false;
        }
        while let Some(out) = &st.out {
            if st.written == out.len() {
                st.release();
                break;
            }
            self.metrics.write_calls.inc();
            match self.transport.try_write(&out[st.written..]) {
                Ok(0) => {
                    self.close_locked(st);
                    return false;
                }
                Ok(n) => {
                    st.written += n;
                    self.metrics.write_queue_bytes.sub(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_locked(st);
                    return false;
                }
            }
        }
        let owed = st.queued();
        let mut update = st.want_write != (owed > 0);
        st.want_write = owed > 0;
        if self.reads_paused() && owed <= WRITE_RESUME_MARK {
            self.paused_reads.store(false, Ordering::Relaxed);
            update = true;
        }
        if update {
            self.update_interest_locked(st);
        }
        true
    }

    /// Whether backpressure currently pauses reads from this connection.
    fn reads_paused(&self) -> bool {
        self.paused_reads.load(Ordering::Relaxed)
    }

    /// Unwritten reply bytes queued on this connection.
    fn queued_bytes(&self) -> usize {
        match &self.route {
            SinkRoute::Direct => 0,
            SinkRoute::Queued { state, .. } => state.lock().queued(),
        }
    }

    /// Marks the sink dead, releases the buffer, and shuts the transport
    /// down (which surfaces as a hangup to the turn).
    fn close(&self) {
        if let SinkRoute::Queued { state, .. } = &self.route {
            let mut st = state.lock();
            if !st.closed {
                self.close_locked(&mut st);
                return;
            }
        }
        let _ = self.transport.shutdown();
    }

    fn close_locked(&self, st: &mut SinkState) {
        st.closed = true;
        self.metrics.write_queue_bytes.sub(st.queued() as u64);
        st.release();
        // Waking the peer: shutdown makes the fd readable-with-EOF, so
        // a turn notices and runs the teardown path. EPOLLERR
        // and EPOLLHUP are always delivered regardless of interest.
        let _ = self.transport.shutdown();
    }

    fn update_interest_locked(&self, st: &SinkState) {
        if let SinkRoute::Queued {
            fd, token, poller, ..
        } = &self.route
        {
            let _ = poller.modify(*fd, *token, !self.reads_paused(), st.want_write);
        }
    }
}

/// One event-core-owned connection: the client (whose sink is the write
/// side), its registered fd, the read buffer and the turn, keyed by the
/// client id (which doubles as the epoll token).
struct Conn {
    client: Arc<ClientHandle>,
    fd: i32,
    /// Bytes read off the socket but not yet handed up. `None` between
    /// bursts that ended with nothing left over. Only the thread running
    /// the turn touches it.
    reader: Mutex<Option<FrameBuf<PooledBuf>>>,
    /// The peer sends nothing more. Its end-of-stream follows
    /// what the socket holds with no edge of its own, so the turn reads
    /// until it instead of stopping at a short read. Set before the
    /// event that saw it arrives at the turn, whose lock orders the store
    /// before the pass that acts on that event — hence `Relaxed`.
    read_closed: AtomicBool,
    /// Who runs the connection's turn, what it owes, whether it is on
    /// the ready list or torn down (`turn.rs` holds the rule).
    turn: Mutex<Turn>,
}

struct Shared {
    poller: Arc<Poller>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Connections with frames to hand up that no fd event will
    /// announce: those a turn's frame budget left with frames buffered or
    /// unread, and those just published.
    ready: Mutex<Vec<u64>>,
    shutdown: AtomicBool,
    /// Set when the poller fails: `claim` hands out no more connections.
    dead: AtomicBool,
    /// Weak, so the core (owned by the server) never keeps it alive.
    server: Weak<Server>,
    metrics: Arc<EventLoopMetrics>,
}

/// The event core's hold on a connection being admitted: its fd,
/// already registered with the poller under `token`, and skipped by the
/// event threads until [`Claim::publish`] puts the connection in the map.
pub(crate) struct Claim {
    shared: Arc<Shared>,
    fd: i32,
    token: u64,
}

impl Claim {
    /// Hands the admitted client to the event threads, which read its
    /// frames from here on.
    pub(crate) fn publish(self, client: Arc<ClientHandle>) {
        let Claim { shared, fd, token } = self;
        let conn = Arc::new(Conn {
            client,
            fd,
            reader: Mutex::new(None),
            read_closed: AtomicBool::new(false),
            turn: Mutex::new(Turn::default()),
        });
        shared.conns.lock().insert(token, Arc::clone(&conn));
        shared.metrics.registered_fds.inc();
        // Readiness the socket had before its connection was in the map
        // went to a thread that skipped it, and an edge is not reported
        // twice: the first turn comes off the ready list.
        EventCore::list(&shared, &conn);
    }
}

/// The event core of one server: one poller, and `event_threads` threads
/// waiting on it.
pub(crate) struct EventCore {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl EventCore {
    /// Starts the event threads. Fails where epoll is unavailable — the
    /// server then serves every connection on a reader thread.
    pub(crate) fn start(
        server_name: &str,
        event_threads: usize,
        server: Weak<Server>,
        metrics: Arc<EventLoopMetrics>,
    ) -> io::Result<EventCore> {
        let shared = Arc::new(Shared {
            poller: Arc::new(Poller::new()?),
            conns: Mutex::new(HashMap::new()),
            ready: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            server,
            metrics,
        });
        let core = EventCore {
            shared,
            threads: Mutex::new(Vec::new()),
        };
        for i in 0..event_threads.max(1) {
            let shared = Arc::clone(&core.shared);
            let handle = std::thread::Builder::new()
                .name(format!("{server_name}-evloop-{i}"))
                .spawn(move || Self::run(&shared))
                .map_err(|e| io::Error::other(format!("spawning event thread: {e}")))?;
            core.threads.lock().push(handle);
        }
        Ok(core)
    }

    /// Registers the fd of a connection being admitted with the poller,
    /// as `token`. `None` when the event threads cannot own it — a
    /// transport with no descriptor, a stopped or failed core, or a
    /// failed registration — and the connection gets a reader thread
    /// instead.
    pub(crate) fn claim(&self, transport: &Arc<dyn Transport>, token: u64) -> Option<Claim> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Acquire) || shared.dead.load(Ordering::Acquire) {
            return None;
        }
        let Readiness::Fd(fd) = transport.readiness() else {
            return None;
        };
        transport.set_nonblocking(true).ok()?;
        // No thread acts on this fd before `publish`: they skip tokens
        // absent from the map, and `publish` lists the connection for its
        // first turn. If epoll_ctl fails the socket goes back to blocking
        // mode for its reader thread.
        if shared.poller.register(fd, token, true, false).is_err() {
            let _ = transport.set_nonblocking(false);
            return None;
        }
        Some(Claim {
            shared: Arc::clone(shared),
            fd,
            token,
        })
    }

    /// Blocks until every connection's write queue is empty or the
    /// timeout passes — the graceful half of shutdown: in-flight replies
    /// reach the wire before the event threads stop.
    pub(crate) fn drain(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let conns: Vec<Arc<Conn>> = self.shared.conns.lock().values().cloned().collect();
            let pending: usize = conns.iter().map(|c| c.client.sink.queued_bytes()).sum();
            if pending == 0 || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops the event threads and tears down every remaining connection
    /// (removing each from the server's client table).
    pub(crate) fn stop(&self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::Release);
        // One wake reaches one waiter; each passes it on as it leaves.
        shared.poller.wake();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
        let conns: Vec<Arc<Conn>> = shared.conns.lock().values().cloned().collect();
        for conn in &conns {
            Self::close(shared, conn);
        }
    }

    fn run(shared: &Arc<Shared>) {
        // One event per wait: a thread that keeps a call — and then
        // blocks in it — holds no other readiness; what else is ready
        // stays with the poller for the next waiter.
        let mut events = Events::with_capacity(1);
        let mut listed: Vec<u64> = Vec::new();
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                // One wake reaches one waiter: pass the stop on.
                shared.poller.wake();
                return;
            }
            if let Err(e) = shared.poller.wait(&mut events, None) {
                Self::fail(shared, &e);
                return;
            }
            shared.metrics.wakeups.inc();
            shared.metrics.ready_events.add(events.len() as u64);
            for ev in events.iter() {
                if ev.token == WAKE_TOKEN {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    // Only the last turn off the list may keep a call:
                    // one that blocks strands no listed connection.
                    listed.append(&mut shared.ready.lock());
                    let last = listed.len().saturating_sub(1);
                    for (i, id) in listed.drain(..).enumerate() {
                        let conn = shared.conns.lock().get(&id).cloned();
                        if let Some(conn) = conn {
                            Self::turn(shared, &conn, None, i == last);
                        }
                    }
                    continue;
                }
                let conn = shared.conns.lock().get(&ev.token).cloned();
                let Some(conn) = conn else { continue };
                if ev.read_closed {
                    conn.read_closed.store(true, Ordering::Relaxed);
                }
                Self::turn(shared, &conn, Some(ready_of(&ev)), true);
            }
        }
    }

    /// A broken poller strands every connection: no more are claimed,
    /// the error is surfaced once, and the connections are torn down so
    /// clients see a close instead of a black hole.
    fn fail(shared: &Arc<Shared>, e: &io::Error) {
        if shared.dead.swap(true, Ordering::AcqRel) {
            return;
        }
        if !shared.shutdown.load(Ordering::Acquire) {
            if let Some(server) = shared.server.upgrade() {
                server.log_error(&format!(
                    "event poller failed: {e}; its connections were closed and new \
                     connections get reader threads"
                ));
            }
        }
        let conns: Vec<Arc<Conn>> = shared.conns.lock().values().cloned().collect();
        for conn in &conns {
            Self::close(shared, conn);
        }
    }

    /// Readiness for `conn` reached this thread: an fd event, or
    /// (`None`) its ready-list entry. Runs the connection's turn unless
    /// another thread does — which then acts on this readiness too — and,
    /// with the turn released, settles the call the turn kept: run here
    /// if another thread still waits on the poller (so a call that
    /// blocks stalls no connection), queued for the pool if not.
    fn turn(shared: &Arc<Shared>, conn: &Arc<Conn>, ready: Option<Ready>, may_keep: bool) {
        // Without the server its core is being dropped: no turn.
        let Some(server) = shared.server.upgrade() else {
            return;
        };
        let handed = match ready {
            Some(ready) => conn.turn.lock().arrive(ready),
            None => conn.turn.lock().unlist(),
        };
        let Some(mut ready) = handed else { return };
        let mut calls = Calls::new(&server, may_keep);
        loop {
            if !Self::act(shared, &server, conn, ready, &mut calls) {
                Self::close(shared, conn);
            }
            match conn.turn.lock().finish() {
                Some(owed) => ready = owed,
                None => break,
            }
        }
        let Some(call) = calls.into_kept() else {
            return;
        };
        if shared.poller.waiting() > 0 {
            shared.metrics.kept_calls.inc();
            server.run_kept(call);
        } else {
            server.queue(call);
        }
    }

    /// One pass of a turn: acts on `ready`. Returns whether the
    /// connection survives.
    fn act(
        shared: &Arc<Shared>,
        server: &Arc<Server>,
        conn: &Arc<Conn>,
        ready: Ready,
        calls: &mut Calls<'_>,
    ) -> bool {
        let mut alive = true;
        let mut read = ready.readable || ready.hangup;
        if ready.writable {
            alive = conn.client.sink.flush();
            // A flush may have resumed paused reads: start with what is
            // buffered, which no fd event will announce.
            read |= conn.reader.lock().is_some();
        }
        if alive && read {
            alive = Self::handle_readable(shared, server, conn, ready.hangup, calls);
        }
        alive
    }

    /// A connection's read pass: hands up what is buffered, reads
    /// the socket for more, wakes workers for the pass's queued calls and
    /// sends gathered replies off. Returns whether the connection
    /// survives.
    fn handle_readable(
        shared: &Arc<Shared>,
        server: &Arc<Server>,
        conn: &Arc<Conn>,
        hangup: bool,
        calls: &mut Calls<'_>,
    ) -> bool {
        if conn.client.sink.reads_paused() {
            // Backpressure: nothing more is read or handed up until the
            // backlog drains. A peer that is gone will never drain it.
            return !hangup;
        }
        let mut slot = conn.reader.lock();
        let mut buf = slot
            .take()
            .unwrap_or_else(|| FrameBuf::new(BufferPool::global().get()));
        let mut corked = false;
        let burst = Self::read_burst(shared, server, conn, &mut buf, &mut corked, calls);
        // The burst's wakes, just before its one write: a worker that
        // gets the CPU at once has its reply gathered into that write.
        calls.wake();
        let mut alive = burst.is_some();
        if corked {
            alive &= conn.client.sink.uncork();
        }
        if alive {
            // Frames the budget left — in the buffer, or unread in the
            // socket, which an edge-triggered fd does not announce again
            // — get their turn off the ready list (a pause the gathered
            // write has just lifted included); frames held back by a
            // pause wait for the flush.
            let unread = burst == Some(true);
            if (unread || buf.has_frame()) && !conn.client.sink.reads_paused() {
                Self::list(shared, conn);
            }
            if !buf.is_empty() {
                *slot = Some(buf);
            }
        }
        alive
    }

    /// Hands up complete frames and reads until the socket is drained
    /// (a short read), the frame budget is spent, backpressure pauses
    /// the connection, or it dies. `None` when it died; otherwise whether
    /// the socket may still hold bytes no edge will announce.
    fn read_burst(
        shared: &Arc<Shared>,
        server: &Arc<Server>,
        conn: &Arc<Conn>,
        buf: &mut FrameBuf<PooledBuf>,
        corked: &mut bool,
        calls: &mut Calls<'_>,
    ) -> Option<bool> {
        let metrics = &shared.metrics;
        let to_the_end = conn.read_closed.load(Ordering::Relaxed);
        let mut frames = 0;
        let mut drained = false;
        loop {
            loop {
                let (body, more) = match buf.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => return None, // protocol garbage
                };
                if !*corked && (more || frames > 0) {
                    // A burst: gather its replies into one write, and
                    // keep no call.
                    conn.client.sink.cork();
                    *corked = true;
                    calls.burst();
                }
                metrics.frames_in.inc();
                if !server.process_frame(&conn.client, body, calls) {
                    return None;
                }
                frames += 1;
                if frames >= MAX_FRAMES_PER_EVENT || conn.client.sink.reads_paused() {
                    return Some(!drained);
                }
            }
            if drained {
                return Some(false);
            }
            let read = buf.fill(|space| {
                metrics.read_calls.inc();
                conn.client.transport.try_read(space)
            });
            match read {
                Ok(0) => return None, // EOF (mid-frame or not)
                // A short read drained the socket: whatever arrives
                // after it is a new edge. Only a full buffer — or a
                // stream whose end is still to be read — is worth
                // another try.
                Ok(_) => drained = !buf.is_full() && !to_the_end,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Some(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return None, // socket error or a bad prefix
            }
        }
    }

    /// Puts `conn` on the ready list (once) and wakes a thread for it.
    fn list(shared: &Shared, conn: &Conn) {
        if conn.turn.lock().list() {
            shared.ready.lock().push(conn.client.id);
            shared.poller.wake();
        }
    }

    /// Tears `conn` down if nobody has yet: whoever notices the death
    /// first (the turn's owner) or the stop.
    fn close(shared: &Shared, conn: &Conn) {
        if !conn.turn.lock().close() {
            return;
        }
        shared.conns.lock().remove(&conn.client.id);
        shared.poller.deregister(conn.fd);
        conn.client.sink.close();
        // The read buffer (if a partial frame held one) goes back to the
        // freelist now, not when the last thread that looked the
        // connection up lets go of it.
        drop(conn.reader.lock().take());
        shared.metrics.registered_fds.dec();
        if let Some(server) = shared.server.upgrade() {
            server.remove_client(conn.client.id);
        }
    }
}

/// What a turn acts on for one poller event.
fn ready_of(ev: &PollEvent) -> Ready {
    Ready {
        readable: ev.readable,
        writable: ev.writable,
        hangup: ev.hangup,
    }
}

impl Drop for EventCore {
    fn drop(&mut self) {
        self.stop();
    }
}
