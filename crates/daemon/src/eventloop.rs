//! The event-driven connection core: a small fixed set of epoll loop
//! threads owning every ready-capable client connection.
//!
//! Thread-per-connection caps a daemon at thread-spawn cost: 5k idle
//! monitoring clients would pin 5k stacks. Instead, each accepted
//! transport that exposes a readiness surface ([`Readiness::Fd`] for
//! sockets, [`Readiness::Notify`] for in-process channels) is handed to
//! one of N loop threads, which multiplex all of them over a single
//! [`Poller`]. A burst — whatever one client has sent by the time the
//! loop gets to it — costs one read and one write, and wakes workers for
//! its pooled calls only once it is handed up:
//!
//! - **Reads** are nonblocking and buffered: one `try_read` of up to
//!   [`READ_CHUNK`](virt_rpc::framebuf::READ_CHUNK) bytes lands in the
//!   connection's [`FrameBuf`] (the same splitter the socket transports
//!   use), and every complete frame in it is handed to the server *in
//!   place*. Keepalive and high-priority procedures run inline on the
//!   loop thread; everything else is queued for the worker pool through
//!   one [`PoolBatch`] per turn, which wakes an idle worker for each of
//!   them when the turn's frames are all handed up — just before its
//!   gathered write, which then also carries the reply of a worker that
//!   got the CPU at once — so the loop is not preempted mid-burst by a
//!   worker woken per call. A pooled call thus starts at most the rest of
//!   its own turn later (≤ `MAX_FRAMES_PER_EVENT` inline frames, which
//!   never block), and a hung call strands nothing queued behind it while
//!   a worker is idle. A short read
//!   means the socket is drained — level-triggered epoll reports
//!   whatever arrives next, so nothing probes for `EAGAIN`. A partial
//!   frame stays buffered across any number of readiness events. At
//!   most `MAX_FRAMES_PER_EVENT` frames are handed up per turn;
//!   complete frames left in the buffer are bytes the kernel will never
//!   announce again, so that connection goes on the loop's *ready list*
//!   (the one in-process channels use) instead of waiting for an event
//!   that will not come.
//! - **Writes** go through a per-connection [`ConnSink`]: a reply is
//!   tried as a direct nonblocking write, and only what the socket does
//!   not take is kept — whole frames back to back in one pooled buffer,
//!   drained on `EPOLLOUT`. When the loop finds more than one frame
//!   buffered for a connection it *corks* the sink for that burst:
//!   replies written meanwhile (inline ones, and any worker reply that
//!   lands in the window) are gathered into the same buffer and leave in
//!   one write when the burst ends. A cork never outlives one turn of
//!   one connection on the loop thread, and a single-frame burst never
//!   corks — a lone call keeps the direct write. Owed bytes, gathered or
//!   spilled, count alike: past a soft cap the loop stops *reading* from
//!   that client and hands out no more of its buffered frames (natural
//!   backpressure; it resumes, from the buffer first, once a flush takes
//!   the backlog under the resume mark); past a hard cap the client is
//!   disconnected rather than allowed to balloon daemon memory.
//! - **Idle connections hold no buffers.** The read buffer and the write
//!   buffer are checked out of the [`BufferPool`] when a burst needs
//!   them and go back as soon as they are empty.
//! - **Teardown** is single-owner: whichever event notices the death
//!   (read EOF, write error, hangup) removes the connection exactly
//!   once, deregistering the fd and dropping whatever pooled buffers the
//!   connection held back to the freelist.
//!
//! Every admitted client has a sink. A socket the loop registered gets
//! the queued route above; an in-process channel, and every connection a
//! dedicated reader thread serves — a transport with no readiness surface
//! ([`Readiness::Blocking`], e.g. the simulated-TLS transport), a socket
//! whose registration failed, or any connection where epoll is missing —
//! gets the direct route, the transport's own send. Payload bytes out are
//! counted in [`ConnSink::send_wire`], whichever the route.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use virt_metrics::Counter;
use virt_rpc::framebuf::FrameBuf;
use virt_rpc::poll::{PollEvent, Poller, WAKE_TOKEN};
use virt_rpc::transport::{Readiness, Transport};
use virt_rpc::{BufferPool, PoolBatch, PooledBuf};

use crate::server::{ClientHandle, Server};

/// Frames processed per connection per turn before yielding. Capping the
/// batch keeps one flooding client from starving the rest of the loop
/// without losing any frames: what is left in the socket is re-reported
/// by level-triggered epoll, what is left in the connection's buffer
/// puts it on the ready list. (The bytes asked of a socket per read are
/// the splitter's [`virt_rpc::framebuf::READ_CHUNK`].)
const MAX_FRAMES_PER_EVENT: usize = 32;

/// Queued-write bytes above which the loop stops reading from a
/// connection until its queue drains.
const WRITE_SOFT_CAP: usize = 256 * 1024;
/// Queued-write bytes below which a paused connection resumes reads.
const WRITE_RESUME_MARK: usize = 64 * 1024;
/// Queued-write bytes above which the connection is disconnected — a
/// client that never reads replies cannot hold daemon memory.
const WRITE_HARD_CAP: usize = 4 * 1024 * 1024;

virt_metrics::metric_set! {
    /// `server.{name}.event_loop.*` instrumentation, shared across all
    /// loop threads of one server.
    pub(crate) struct EventLoopMetrics {
        registered_fds: Gauge = "registered_fds",
            "Connections owned by the event loops (sockets and in-process channels)";
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
    /// The owning loop is inside a multi-frame burst: replies gather in
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
}

enum SinkRoute {
    /// The transport's own send: an in-process channel, whose send never
    /// blocks, and every connection a reader thread serves.
    Direct,
    /// Nonblocking fd: direct-write fast path, with what the socket does
    /// not take (and what a corked burst gathers) kept in one buffer the
    /// owning loop writes out.
    Queued {
        fd: i32,
        token: u64,
        poller: Arc<Poller>,
        state: Mutex<SinkState>,
    },
}

/// The write side of one client connection. Shared between the owning
/// loop (flushing on `EPOLLOUT`), if there is one, and every thread that
/// replies (`ClientHandle::send`).
pub(crate) struct ConnSink {
    transport: Arc<dyn Transport>,
    route: SinkRoute,
    /// EPOLLIN interest is dropped (write soft cap exceeded). Changed
    /// only under the state lock, but read by the loop without it: a
    /// worker can be pre-empted inside its reply's write with the lock
    /// held, and the loop's next turn must not queue up behind that just
    /// to look at a flag. It publishes nothing else, hence `Relaxed`.
    paused_reads: AtomicBool,
    metrics: Arc<EventLoopMetrics>,
    bytes_out: Arc<Counter>,
}

impl ConnSink {
    /// The sink of a connection being admitted: queued behind the socket
    /// a loop has `claim`ed, direct for everything else.
    pub(crate) fn new(
        transport: Arc<dyn Transport>,
        claim: Option<&Claim>,
        metrics: Arc<EventLoopMetrics>,
        bytes_out: Arc<Counter>,
    ) -> ConnSink {
        let route = match claim {
            Some(Claim {
                shared,
                kind: ConnKind::Fd(fd),
                token,
            }) => SinkRoute::Queued {
                fd: *fd,
                token: *token,
                poller: Arc::clone(&shared.poller),
                state: Mutex::default(),
            },
            _ => SinkRoute::Direct,
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
    /// to the write buffer instead of written one by one. Loop thread
    /// only, around one multi-frame burst.
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
    /// the loop on `EPOLLOUT`; returns whether the connection survives.
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
                st.out = None;
                st.written = 0;
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
    /// down (which surfaces as a hangup on the owning loop).
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
        st.out = None;
        st.written = 0;
        // Waking the peer: shutdown makes the fd readable-with-EOF, so
        // the owning loop notices and runs the teardown path. EPOLLERR
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

enum ConnKind {
    Fd(i32),
    Channel,
}

/// One event-loop-owned connection: the client (whose sink is the write
/// side) plus the read buffer, keyed by the client id (which doubles as
/// the epoll token).
struct Conn {
    client: Arc<ClientHandle>,
    kind: ConnKind,
    /// Fd conns: bytes read off the socket but not yet handed up.
    /// `None` between bursts that ended with nothing left over.
    reader: Mutex<Option<FrameBuf<PooledBuf>>>,
    /// On the ready list: set by whoever queues the connection (the
    /// channel notifier, or the loop itself for frames left buffered),
    /// cleared by the drain — one queued wakeup at a time.
    ready_pending: Arc<AtomicBool>,
    /// First closer wins; everything else becomes a no-op.
    closing: AtomicBool,
}

struct LoopShared {
    poller: Arc<Poller>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Connections with frames to hand up that no fd event will
    /// announce: channels flagged by their notifier, and sockets with
    /// complete frames left in their read buffer.
    ready: Mutex<Vec<u64>>,
    shutdown: AtomicBool,
    /// Set when the loop thread dies on a poller error: `claim` skips
    /// dead loops so new connections never land on a poller nothing
    /// waits on.
    dead: AtomicBool,
    /// Weak, so the core (owned by the server) never keeps it alive.
    server: Weak<Server>,
    metrics: Arc<EventLoopMetrics>,
}

/// A loop's hold on a connection being admitted: the loop that will own
/// it and, for a socket, the fd — already registered with that loop's
/// poller under `token`, and skipped by the loop until
/// [`Claim::publish`] puts the connection in its map.
pub(crate) struct Claim {
    shared: Arc<LoopShared>,
    kind: ConnKind,
    token: u64,
}

impl Claim {
    /// Hands the admitted client to its loop, which reads its frames from
    /// here on.
    pub(crate) fn publish(self, client: Arc<ClientHandle>) {
        let Claim {
            shared,
            kind,
            token,
        } = self;
        let conn = Arc::new(Conn {
            client,
            kind,
            reader: Mutex::new(None),
            ready_pending: Arc::new(AtomicBool::new(false)),
            closing: AtomicBool::new(false),
        });
        shared.conns.lock().insert(token, Arc::clone(&conn));
        shared.metrics.registered_fds.inc();
        if let ConnKind::Channel = conn.kind {
            let flag = Arc::clone(&conn.ready_pending);
            let weak: Weak<LoopShared> = Arc::downgrade(&shared);
            // The notifier fires immediately if frames are already
            // waiting, so publishing cannot miss a wakeup.
            conn.client
                .transport
                .set_ready_notifier(Some(Arc::new(move || {
                    if !flag.swap(true, Ordering::AcqRel) {
                        if let Some(shared) = weak.upgrade() {
                            shared.ready.lock().push(token);
                            shared.poller.wake();
                        }
                    }
                })));
        }
    }
}

/// The event cores of one server: N loop threads, each with its own
/// poller and connection map.
pub(crate) struct EventCore {
    loops: Vec<Arc<LoopShared>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_loop: AtomicUsize,
}

impl EventCore {
    /// Starts the loop threads. Fails where epoll is unavailable — the
    /// server then serves every connection on a reader thread.
    pub(crate) fn start(
        server_name: &str,
        event_threads: usize,
        server: Weak<Server>,
        metrics: Arc<EventLoopMetrics>,
    ) -> io::Result<EventCore> {
        let threads_wanted = event_threads.max(1);
        let mut loops = Vec::with_capacity(threads_wanted);
        let mut handles = Vec::with_capacity(threads_wanted);
        for i in 0..threads_wanted {
            let shared = Arc::new(LoopShared {
                poller: Arc::new(Poller::new()?),
                conns: Mutex::new(HashMap::new()),
                ready: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                dead: AtomicBool::new(false),
                server: server.clone(),
                metrics: Arc::clone(&metrics),
            });
            let run_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("{server_name}-evloop-{i}"))
                .spawn(move || Self::run(&run_shared))
                .map_err(|e| io::Error::other(format!("spawning event loop: {e}")))?;
            loops.push(shared);
            handles.push(handle);
        }
        Ok(EventCore {
            loops,
            threads: Mutex::new(handles),
            next_loop: AtomicUsize::new(0),
        })
    }

    /// Picks a loop for a connection being admitted as `token` and, for
    /// a socket, registers its fd there. `None` when no loop can own it —
    /// a transport with no readiness surface, a stopped core, or a failed
    /// registration — and the connection gets a reader thread instead.
    pub(crate) fn claim(&self, transport: &Arc<dyn Transport>, token: u64) -> Option<Claim> {
        // Round-robin across loops that are still alive: a loop whose
        // poller failed is marked dead and skipped, so new connections
        // never land on a poller no thread waits on.
        let start = self.next_loop.fetch_add(1, Ordering::Relaxed);
        let shared = (0..self.loops.len())
            .map(|i| &self.loops[(start + i) % self.loops.len()])
            .find(|l| !l.shutdown.load(Ordering::Acquire) && !l.dead.load(Ordering::Acquire))?;
        let kind = match transport.readiness() {
            Readiness::Fd(fd) => {
                transport.set_nonblocking(true).ok()?;
                // The loop cannot act on this fd before `publish`: it
                // skips tokens absent from its conn map, and
                // level-triggered epoll re-reports the readiness on the
                // next wait. If epoll_ctl fails the socket goes back to
                // blocking mode for its reader thread.
                if shared.poller.register(fd, token, true, false).is_err() {
                    let _ = transport.set_nonblocking(false);
                    return None;
                }
                ConnKind::Fd(fd)
            }
            Readiness::Notify => ConnKind::Channel,
            Readiness::Blocking => return None,
        };
        Some(Claim {
            shared: Arc::clone(shared),
            kind,
            token,
        })
    }

    /// Blocks until every connection's write queue is empty or the
    /// timeout passes — the graceful half of shutdown: in-flight replies
    /// reach the wire before the loops stop.
    pub(crate) fn drain(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            let pending: usize = self
                .loops
                .iter()
                .flat_map(|l| l.conns.lock().values().cloned().collect::<Vec<_>>())
                .map(|c| c.client.sink.queued_bytes())
                .sum();
            if pending == 0 || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops the loop threads and tears down every remaining connection
    /// (removing each from the server's client table).
    pub(crate) fn stop(&self) {
        for shared in &self.loops {
            shared.shutdown.store(true, Ordering::Release);
            shared.poller.wake();
        }
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
        for shared in &self.loops {
            let conns: Vec<Arc<Conn>> = shared.conns.lock().values().cloned().collect();
            for conn in conns {
                Self::teardown(shared, &conn);
            }
        }
    }

    fn run(shared: &Arc<LoopShared>) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(256);
        loop {
            events.clear();
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Err(e) = shared.poller.wait(&mut events, None) {
                // A broken poller strands every connection this loop
                // owns. Mark the loop dead first (claim() skips dead
                // loops), surface the error, then tear the connections
                // down so clients see a close instead of a black hole.
                shared.dead.store(true, Ordering::Release);
                if !shared.shutdown.load(Ordering::Acquire) {
                    if let Some(server) = shared.server.upgrade() {
                        server.log_error(&format!(
                            "event loop poller failed: {e}; its connections were closed and \
                             new connections go to the remaining loops"
                        ));
                    }
                }
                let conns: Vec<Arc<Conn>> = shared.conns.lock().values().cloned().collect();
                for conn in &conns {
                    Self::teardown(shared, conn);
                }
                return;
            }
            shared.metrics.wakeups.inc();
            shared.metrics.ready_events.add(events.len() as u64);
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            for ev in &events {
                if ev.token == WAKE_TOKEN {
                    Self::drain_ready(shared);
                    continue;
                }
                let conn = shared.conns.lock().get(&ev.token).cloned();
                let Some(conn) = conn else { continue };
                let mut keep = true;
                let mut turn = ev.readable || ev.hangup;
                if ev.writable {
                    keep = conn.client.sink.flush();
                    // A flush may have resumed paused reads: start with
                    // what is buffered, which no fd event will announce.
                    turn |= conn.reader.lock().is_some();
                }
                if keep && turn {
                    keep = Self::handle_readable(shared, &conn, ev.hangup);
                }
                if !keep {
                    Self::teardown(shared, &conn);
                }
            }
        }
    }

    /// One turn of an fd connection: hands up what is buffered, reads
    /// the socket for more, wakes workers for the turn's pooled calls and
    /// sends gathered replies off. Returns whether the connection
    /// survives.
    fn handle_readable(shared: &Arc<LoopShared>, conn: &Arc<Conn>, hangup: bool) -> bool {
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
        let mut batch = None;
        let mut keep = Self::read_burst(shared, conn, &mut buf, &mut corked, &mut batch);
        // The burst's wakes, just before its one write: a worker that
        // gets the CPU at once has its reply gathered into that write.
        drop(batch);
        if corked {
            keep &= conn.client.sink.uncork();
        }
        if keep && !buf.is_empty() {
            // Frames the budget (or a pause the gathered write has just
            // lifted) left behind get their turn off the ready list;
            // frames held back by a pause wait for the flush.
            if buf.has_frame() && !conn.client.sink.reads_paused() {
                Self::queue_ready(shared, conn);
            }
            *slot = Some(buf);
        }
        keep
    }

    /// Hands up complete frames and reads until the socket is drained
    /// (a short read), the frame budget is spent, backpressure pauses
    /// the connection, or it dies.
    fn read_burst(
        shared: &Arc<LoopShared>,
        conn: &Arc<Conn>,
        buf: &mut FrameBuf<PooledBuf>,
        corked: &mut bool,
        batch: &mut Option<PoolBatch>,
    ) -> bool {
        let Some(server) = shared.server.upgrade() else {
            return false;
        };
        let metrics = &shared.metrics;
        let mut frames = 0;
        let mut drained = false;
        loop {
            loop {
                let (body, more) = match buf.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => return false, // protocol garbage
                };
                if !*corked && (more || frames > 0) {
                    // A burst: gather its replies into one write.
                    conn.client.sink.cork();
                    *corked = true;
                }
                metrics.frames_in.inc();
                if !server.process_frame(&conn.client, body, batch) {
                    return false;
                }
                frames += 1;
                if frames >= MAX_FRAMES_PER_EVENT || conn.client.sink.reads_paused() {
                    return true;
                }
            }
            if drained {
                return true;
            }
            let read = buf.fill(|space| {
                metrics.read_calls.inc();
                conn.client.transport.try_read(space)
            });
            match read {
                Ok(0) => return false, // EOF (mid-frame or not)
                // Level-triggered epoll announces whatever comes after a
                // short read; only a full buffer is worth another try.
                Ok(_) => drained = !buf.is_full(),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false, // socket error or a bad prefix
            }
        }
    }

    /// Puts `conn` on the ready list (once) and wakes the loop for it.
    fn queue_ready(shared: &Arc<LoopShared>, conn: &Arc<Conn>) {
        if !conn.ready_pending.swap(true, Ordering::AcqRel) {
            shared.ready.lock().push(conn.client.id);
            shared.poller.wake();
        }
    }

    /// Gives every connection on the ready list one turn. Whoever
    /// queues a connection wakes the poller *after* pushing it, so one
    /// pass per wake-up loses nothing — and a connection that re-queues
    /// itself waits behind the fds of the next `epoll_wait`.
    fn drain_ready(shared: &Arc<LoopShared>) {
        let ids: Vec<u64> = std::mem::take(&mut *shared.ready.lock());
        for id in ids {
            let conn = shared.conns.lock().get(&id).cloned();
            let Some(conn) = conn else { continue };
            // Clear before the turn: a frame arriving mid-turn re-flags
            // and re-queues rather than getting lost.
            conn.ready_pending.store(false, Ordering::Release);
            let keep = match conn.kind {
                ConnKind::Fd(_) => Self::handle_readable(shared, &conn, false),
                ConnKind::Channel => Self::drain_one_channel(shared, &conn),
            };
            if !keep {
                Self::teardown(shared, &conn);
            }
        }
    }

    /// One turn of a channel connection; its pooled calls get their wake
    /// when `batch` drops, on return.
    fn drain_one_channel(shared: &Arc<LoopShared>, conn: &Arc<Conn>) -> bool {
        let Some(server) = shared.server.upgrade() else {
            return false;
        };
        let mut batch = None;
        for _ in 0..MAX_FRAMES_PER_EVENT {
            match conn.client.transport.try_recv_frame() {
                Ok(Some(body)) => {
                    shared.metrics.frames_in.inc();
                    if !server.process_frame(&conn.client, &body, &mut batch) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(_) => return false, // peer closed
            }
        }
        // Budget spent with frames still queued: self-requeue so other
        // connections get a turn first.
        Self::queue_ready(shared, conn);
        true
    }

    fn teardown(shared: &Arc<LoopShared>, conn: &Arc<Conn>) {
        if conn.closing.swap(true, Ordering::AcqRel) {
            return;
        }
        shared.conns.lock().remove(&conn.client.id);
        if let ConnKind::Fd(fd) = conn.kind {
            shared.poller.deregister(fd);
        }
        conn.client.transport.set_ready_notifier(None);
        conn.client.sink.close();
        shared.metrics.registered_fds.dec();
        if let Some(server) = shared.server.upgrade() {
            server.remove_client(conn.client.id);
        }
        // Dropping the last Conn reference returns its read buffer (if a
        // partial frame held one) to the freelist.
    }
}

impl Drop for EventCore {
    fn drop(&mut self) {
        self.stop();
    }
}
