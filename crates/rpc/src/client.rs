//! The call client: concurrent request/reply with serial matching.
//!
//! Multiple threads may issue calls simultaneously over one connection —
//! the property that makes a single daemon connection usable by a whole
//! management application — and no thread is dedicated to reading it.
//! After sending, a caller reads the socket itself: it holds the
//! connection's *baton* ([`crate::baton`]) until its own reply arrives,
//! decodes that reply straight out of the receive buffer, files any
//! other caller's reply it happens to read, and on the way out wakes one
//! waiting caller to take over. A lone caller therefore pays one send
//! and one receive per call and never changes threads.
//!
//! Frames nobody asked for — events, keepalive — are read by whoever
//! reads next. A connection that must see them promptly starts a
//! *listener* ([`CallClient::listen`]): the one thread this module can
//! spawn. It never blocks in a receive: it waits on its own poller for
//! the connection's *watch*, which is armed only while no call is in
//! flight and nobody holds the baton, takes the baton when woken, reads
//! what has arrived without waiting and puts the baton down. A caller on
//! a subscribed connection therefore still reads its own reply.

use std::io;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::Thread;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use virt_metrics::span::{self, Stage};

use crate::baton::{Baton, Enter, PutDown, Routed};
use crate::bufpool::{BufferPool, MAX_PARKED_RECORD_CAPACITY};
use crate::message::{self, Header, MessageStatus, MessageType, Packet, RpcError};
use crate::poll::{Events, Poller};
use crate::transport::{Readiness, ReadyNotifier, Transport};
use crate::xdr::{XdrDecode, XdrEncode, XdrError};

/// A failure of a remote call.
#[derive(Debug)]
#[non_exhaustive]
pub enum CallError {
    /// The transport failed or closed.
    Io(io::Error),
    /// The peer's bytes did not decode.
    Protocol(XdrError),
    /// The remote side executed the call and returned an error.
    Remote(RpcError),
    /// The connection was closed while the call was in flight.
    Disconnected,
    /// No reply arrived within the configured timeout or deadline.
    TimedOut,
    /// The reconnect circuit breaker is open: the endpoint has failed
    /// repeatedly and calls fail fast until the cool-down expires.
    CircuitOpen,
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Io(e) => write!(f, "transport error: {e}"),
            CallError::Protocol(e) => write!(f, "protocol error: {e}"),
            CallError::Remote(e) => write!(f, "{e}"),
            CallError::Disconnected => f.write_str("connection closed during call"),
            CallError::TimedOut => f.write_str("call timed out"),
            CallError::CircuitOpen => f.write_str("circuit breaker open, failing fast"),
        }
    }
}

impl std::error::Error for CallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CallError::Io(e) => Some(e),
            CallError::Protocol(e) => Some(e),
            CallError::Remote(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CallError {
    fn from(e: io::Error) -> Self {
        CallError::Io(e)
    }
}

impl From<XdrError> for CallError {
    fn from(e: XdrError) -> Self {
        CallError::Protocol(e)
    }
}

type EventHandler = Box<dyn Fn(&CallClient, Packet) + Send + 'static>;

/// What a listener does between wake-ups: called before each wait, it
/// returns when to call it again at the latest (`None`: at the next
/// wake-up).
type Idle = Box<dyn FnMut(&CallClient) -> Option<Instant> + Send + 'static>;

/// The receive side of a connection, under one lock.
struct Receive {
    /// Who reads, who waits. A reply filed for another caller is `None`
    /// when the connection failed before it arrived.
    baton: Baton<Thread, Option<Packet>>,
    /// The receive buffer of the callers, taken with the baton and put
    /// back with it. Grown to the working frame size, it stays there.
    buf: Vec<u8>,
    /// The listener's watch, once [`CallClient::listen`] started one.
    watch: Option<Arc<Watch>>,
}

impl Receive {
    /// Arms or disarms the watch as the baton's rule says it must be.
    fn settle_watch(&mut self, transport: &dyn Transport) {
        if let (Some(armed), Some(watch)) = (self.baton.settle_watch(), &self.watch) {
            watch.set(transport, armed);
        }
    }
}

/// The receive side, locked. Unlocking first brings the listener's watch
/// in line with the baton, so no step leaves it armed against the rule
/// or disarmed with nobody to read.
struct Locked<'a> {
    receive: MutexGuard<'a, Receive>,
    transport: &'a dyn Transport,
}

impl Deref for Locked<'_> {
    type Target = Receive;

    fn deref(&self) -> &Receive {
        &self.receive
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut Receive {
        &mut self.receive
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        self.receive.settle_watch(self.transport);
    }
}

/// The poller token of a watched socket; the wake channel has its own.
const WATCH_TOKEN: u64 = 0;

/// What the listener waits on: a poller of its own — an epoll instance
/// and an eventfd, so two descriptors per subscribed connection — and
/// what wakes it while the watch is armed.
struct Watch {
    poller: Arc<Poller>,
    source: Source,
}

enum Source {
    /// The connection's socket, registered in the poller; arming and
    /// disarming change its interest set, which only this poller's one
    /// waiter sees.
    Fd(i32),
    /// A channel whose ready notifier, installed while armed, wakes the
    /// poller. Installing it fires it at once if frames are waiting, so
    /// a frame queued while disarmed is not missed.
    Notify(ReadyNotifier),
}

impl Watch {
    /// # Errors
    ///
    /// `Unsupported` for a transport with neither a descriptor nor a
    /// ready notifier, and in a build without epoll; the poller's own
    /// failures (descriptors exhausted).
    fn new(transport: &dyn Transport) -> io::Result<Watch> {
        let poller = Arc::new(Poller::new()?);
        let source = if let Some(fd) = transport.watch_fd() {
            poller.register(fd, WATCH_TOKEN, false, false)?;
            Source::Fd(fd)
        } else if transport.readiness() == Readiness::Notify {
            let poller = Arc::downgrade(&poller);
            Source::Notify(Arc::new(move || {
                if let Some(poller) = poller.upgrade() {
                    poller.wake();
                }
            }))
        } else {
            return Err(io::ErrorKind::Unsupported.into());
        };
        Ok(Watch { poller, source })
    }

    fn set(&self, transport: &dyn Transport, armed: bool) {
        match &self.source {
            Source::Fd(fd) => {
                // A failure means the socket is gone; so is the call
                // that would have needed the watch.
                let _ = self.poller.modify(*fd, WATCH_TOKEN, armed, false);
            }
            Source::Notify(notify) => {
                transport.set_ready_notifier(armed.then(|| Arc::clone(notify)));
            }
        }
    }
}

virt_metrics::metric_set! {
    /// Process-wide counters of the stub (`rpc.late_replies`,
    /// `rpc.client.*`), resolved once.
    struct StubMetrics {
        late_replies: Counter = "late_replies",
            "Replies whose serial matched no waiting call (read after their call gave up)";
        replies_direct: Counter = "client.replies_direct",
            "Replies read by their own caller and decoded in the receive buffer";
        replies_routed: Counter = "client.replies_routed",
            "Replies read by another thread and filed for their caller";
        baton_handoffs: Counter = "client.baton_handoffs",
            "Times a thread done reading woke another to take the socket over";
    }
}

fn stub_metrics() -> &'static StubMetrics {
    static METRICS: OnceLock<StubMetrics> = OnceLock::new();
    METRICS.get_or_init(|| StubMetrics::new().attach(crate::process_metrics(), "rpc."))
}

struct ClientInner {
    transport: Arc<dyn Transport>,
    next_serial: AtomicU32,
    receive: Mutex<Receive>,
    event_handler: Mutex<Option<EventHandler>>,
    call_timeout: Mutex<Option<Duration>>,
    metrics: &'static StubMetrics,
}

impl ClientInner {
    fn receive(&self) -> Locked<'_> {
        Locked {
            receive: self.receive.lock(),
            transport: &*self.transport,
        }
    }
}

impl Drop for ClientInner {
    /// The last handle is gone: hang up, so the peer sees it now, and wake
    /// a listener — which holds only a `Weak` of this — so it exits.
    fn drop(&mut self) {
        let receive = self.receive.get_mut();
        unpark_all(receive.baton.fail_all(|| None));
        receive.settle_watch(&*self.transport);
        let _ = self.transport.shutdown();
        if let Some(watch) = &receive.watch {
            watch.poller.wake();
        }
    }
}

fn unpark_all(waiters: Vec<Thread>) {
    for waiter in waiters {
        waiter.unpark();
    }
}

/// A client endpoint over one transport.
///
/// Cloning shares the connection. Dropping the last handle closes it;
/// [`CallClient::close`] does so while other handles remain.
#[derive(Clone)]
pub struct CallClient {
    inner: Arc<ClientInner>,
}

impl std::fmt::Debug for CallClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CallClient")
            .field("peer", &self.inner.transport.peer())
            .field("closed", &self.is_known_closed())
            .finish()
    }
}

impl CallClient {
    /// Wraps a transport. Spawns nothing.
    pub fn new(transport: impl Transport + 'static) -> Self {
        Self::from_arc(Arc::new(transport))
    }

    /// Wraps an already shared transport.
    pub(crate) fn from_arc(transport: Arc<dyn Transport>) -> Self {
        CallClient {
            inner: Arc::new(ClientInner {
                transport,
                next_serial: AtomicU32::new(1),
                receive: Mutex::new(Receive {
                    baton: Baton::new(),
                    buf: Vec::new(),
                    watch: None,
                }),
                event_handler: Mutex::new(None),
                call_timeout: Mutex::new(Some(Duration::from_secs(30))),
                metrics: stub_metrics(),
            }),
        }
    }

    /// Sets the *default* reply timeout (`None` waits forever) used by
    /// calls that do not carry their own deadline. Default 30 s.
    ///
    /// Note this is connection-global and therefore racy as a per-call
    /// mechanism: two threads toggling it fight over one slot. Callers
    /// needing per-call limits should use
    /// [`CallClient::call_with_deadline`] instead and leave this as the
    /// connection's baseline.
    pub fn set_call_timeout(&self, timeout: Option<Duration>) {
        *self.inner.call_timeout.lock() = timeout;
    }

    /// The configured default reply timeout.
    fn call_timeout(&self) -> Option<Duration> {
        *self.inner.call_timeout.lock()
    }

    /// Registers the handler invoked for every message that is not a
    /// reply, on whichever thread read it off the socket — before that
    /// thread reads on, so an event ahead of a reply on the wire is
    /// handled before that call returns. The handler is passed the
    /// connection (to answer on it) rather than capturing a handle,
    /// which would keep the connection open forever. Replaces any
    /// previous handler.
    ///
    /// Without a listener such messages are read when the next call is —
    /// see [`CallClient::listen`].
    pub fn set_event_handler(&self, handler: impl Fn(&CallClient, Packet) + Send + 'static) {
        *self.inner.event_handler.lock() = Some(Box::new(handler));
    }

    /// Whether the connection has been closed (locally or by the peer),
    /// as of now: when no thread is reading the socket this looks at it
    /// first, without blocking, and handles what it finds — a farewell,
    /// a late reply, the peer's hang-up.
    pub(crate) fn is_closed(&self) -> bool {
        self.look(Baton::try_take);
        self.is_known_closed()
    }

    /// Whether the connection is closed as far as anyone has seen —
    /// without looking at the socket.
    pub(crate) fn is_known_closed(&self) -> bool {
        self.inner.receive().baton.is_closed()
    }

    /// Takes the baton if `take` hands it over, routes every frame that
    /// has arrived, without waiting for more, and puts the baton down.
    fn look(&self, take: fn(&mut Baton<Thread, Option<Packet>>) -> bool) {
        if !take(&mut self.inner.receive().baton) {
            return;
        }
        let holding = Holding {
            client: self,
            serial: None,
            buf: Vec::new(),
        };
        while self.route_arrived() {}
        drop(holding);
    }

    /// Reads one frame that has already arrived and routes it, for the
    /// baton's holder; `false` when there is none. A connection that
    /// fails here is closed.
    fn route_arrived(&self) -> bool {
        match self.inner.transport.try_recv_frame() {
            Ok(Some(frame)) if self.route(&frame, None).is_ok() => true,
            Ok(None) => false,
            // A transport that cannot look without blocking: all we
            // know is what the last call saw.
            Err(e) if e.kind() == io::ErrorKind::Unsupported => false,
            Ok(Some(_)) | Err(_) => {
                self.close();
                false
            }
        }
    }

    /// The underlying transport's peer description.
    pub fn peer(&self) -> String {
        self.inner.transport.peer()
    }

    /// Issues a call, blocks for the matching reply and decodes it as
    /// `R`, within the connection's default timeout.
    ///
    /// # Errors
    ///
    /// - [`CallError::Remote`] when the peer replied with an error status,
    /// - [`CallError::Io`]/[`CallError::Disconnected`] on transport loss,
    /// - [`CallError::TimedOut`] past the configured timeout,
    /// - [`CallError::Protocol`] when the reply does not decode as `R`.
    pub fn call<R: XdrDecode>(
        &self,
        program: u32,
        procedure: u32,
        args: &impl XdrEncode,
    ) -> Result<R, CallError> {
        self.call_with_deadline(program, procedure, args, None)
    }

    /// Issues a call that must complete by `deadline` (an absolute
    /// instant, so the limit covers queueing and retries uniformly).
    /// `None` falls back to the connection's default timeout.
    ///
    /// # Errors
    ///
    /// As [`CallClient::call`]; [`CallError::TimedOut`] when the
    /// deadline passes first (including a deadline already in the past,
    /// which fails without sending).
    pub(crate) fn call_with_deadline<R: XdrDecode>(
        &self,
        program: u32,
        procedure: u32,
        args: &impl XdrEncode,
        deadline: Option<Instant>,
    ) -> Result<R, CallError> {
        // The generic shell only encodes and decodes; everything between
        // is compiled once.
        let mut reply = None;
        self.read_with_deadline(program, procedure, args, deadline, &mut |payload| {
            reply = Some(R::from_xdr(payload)?);
            Ok(())
        })?;
        Ok(reply.expect("a call that succeeded decoded its reply"))
    }

    /// As [`CallClient::call_with_deadline`], but the reply's payload is
    /// handed to `read` where it lies instead of being decoded as one
    /// value — for a reader that takes a large reply apart piece by
    /// piece. `read` runs at most once, holding the connection's receive
    /// side.
    ///
    /// # Errors
    ///
    /// As [`CallClient::call_with_deadline`]; [`CallError::Protocol`]
    /// with whatever `read` rejected.
    pub(crate) fn read_with_deadline(
        &self,
        program: u32,
        procedure: u32,
        args: &impl XdrEncode,
        deadline: Option<Instant>,
        read: &mut dyn FnMut(&[u8]) -> Result<(), XdrError>,
    ) -> Result<(), CallError> {
        self.transact(
            Header::call(program, procedure, 0),
            deadline,
            &|header, frame| message::encode_frame(header, args, frame),
            read,
        )
    }

    /// One call: register, send, then wait for the reply — reading the
    /// socket if nobody else is. `decode` sees the payload of a
    /// successful reply exactly once, borrowed from wherever it lies.
    fn transact(
        &self,
        mut header: Header,
        deadline: Option<Instant>,
        encode: &dyn Fn(&Header, &mut Vec<u8>),
        decode: &mut dyn FnMut(&[u8]) -> Result<(), XdrError>,
    ) -> Result<(), CallError> {
        let deadline = match deadline {
            Some(deadline) if deadline <= Instant::now() => return Err(CallError::TimedOut),
            Some(deadline) => Some(deadline),
            None => self.call_timeout().map(|timeout| Instant::now() + timeout),
        };
        let inner = &*self.inner;
        let serial = inner.next_serial.fetch_add(1, Ordering::Relaxed);
        header.serial = serial;

        // The client-side stub span covers send through reply receipt;
        // its context rides in the frame header so the daemon can attach
        // its spans to the same trace. Inert when tracing is off.
        let stub_span = span::enter(Stage::ClientSend, u64::from(header.procedure));
        if let Some(ctx) = stub_span.context() {
            header.trace_id = ctx.trace_id;
            header.parent_span = ctx.span_id;
        }

        if !inner.receive().baton.register(serial) {
            return Err(CallError::Disconnected);
        }

        // Encode prefix + header + args straight into a pooled buffer and
        // put it on the wire as one write — no intermediate packet body.
        let sent = {
            let _socket = span::stage(Stage::Socket);
            let mut frame = BufferPool::global().get();
            encode(&header, &mut frame);
            inner.transport.send_framed(&frame)
        };
        if let Err(e) = sent {
            // A stream that failed a write — perhaps halfway through the
            // frame — carries nothing more: every call on it is over,
            // and the next one should find the connection closed.
            self.close();
            inner.receive().baton.abandon(serial);
            return Err(CallError::Io(e));
        }

        let mut receive = inner.receive();
        let mut holding = loop {
            match receive.baton.enter(serial, std::thread::current) {
                Enter::Done(filed) => {
                    drop(receive);
                    let reply = filed.ok_or(CallError::Disconnected)?;
                    return finish(&reply.header, &reply.payload, decode);
                }
                Enter::Read => {
                    break Holding {
                        client: self,
                        serial: Some(serial),
                        buf: std::mem::take(&mut receive.buf),
                    }
                }
                Enter::Wait => {
                    let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                    if left.is_some_and(|left| left.is_zero()) {
                        receive.baton.abandon(serial);
                        return Err(CallError::TimedOut);
                    }
                    drop(receive);
                    // Woken when the reply is filed, when it is this
                    // caller's turn to read, or for no reason at all:
                    // `enter` tells which.
                    match left {
                        Some(left) => std::thread::park_timeout(left),
                        None => std::thread::park(),
                    }
                    receive = inner.receive();
                }
            }
        };
        drop(receive);

        // The baton is put down when `holding` goes — after the reply has
        // been decoded where it lies, and also should a handler or a
        // decoder panic under us.
        loop {
            match inner.transport.recv_frame_until(&mut holding.buf, deadline) {
                Ok(_) => match self.route(&holding.buf, Some(serial)) {
                    Ok(Some((header, payload))) => {
                        inner.metrics.replies_direct.inc();
                        return finish(&header, payload, decode);
                    }
                    Ok(None) => continue,
                    Err(_) => break,
                },
                Err(e) if e.kind() == io::ErrorKind::TimedOut => return Err(CallError::TimedOut),
                Err(_) => break,
            }
        }
        // The wire broke, or the peer is not speaking the protocol.
        self.close();
        Err(CallError::Disconnected)
    }

    /// Delivers one frame read off the socket, by whoever read it: a
    /// reply goes to its caller's slot (and wakes the caller), a reply
    /// nobody waits for is counted, anything else goes to the handler.
    /// The reply to `own` — the reader's own call — is handed back
    /// instead, still in the receive buffer.
    ///
    /// # Errors
    ///
    /// A frame without a valid header: the peer is not speaking the
    /// protocol and the connection is beyond saving.
    fn route<'a>(
        &self,
        body: &'a [u8],
        own: Option<u32>,
    ) -> Result<Option<(Header, &'a [u8])>, XdrError> {
        let (header, payload) = Packet::split_body(body)?;
        let owned = || Packet {
            header,
            payload: payload.to_vec(),
        };
        match header.mtype {
            MessageType::Reply if own == Some(header.serial) => return Ok(Some((header, payload))),
            MessageType::Reply => {
                let routed = self
                    .inner
                    .receive()
                    .baton
                    .route(header.serial, || Some(owned()));
                match routed {
                    Routed::Filed(owner) => {
                        self.inner.metrics.replies_routed.inc();
                        if let Some(owner) = owner {
                            owner.unpark();
                        }
                    }
                    // Its caller timed out (or was failed by a
                    // disconnect) and forgot the serial. Dropped, but
                    // counted — a rising rate means deadlines are
                    // tighter than the daemon's actual latency.
                    Routed::Late => {
                        self.inner.metrics.late_replies.inc();
                        if rpc_debug() {
                            eprintln!(
                                "virt-rpc: dropped late reply serial={} proc={} from {}",
                                header.serial,
                                header.procedure,
                                self.inner.transport.peer(),
                            );
                        }
                    }
                }
            }
            // Clients do not serve calls; one that arrives is shown to
            // the handler like an event (keepalive rides on this).
            MessageType::Event | MessageType::Call => {
                let handler = self.inner.event_handler.lock();
                if let Some(handler) = handler.as_ref() {
                    handler(self, owned());
                }
            }
        }
        Ok(None)
    }

    /// Wakes the waiter a departing baton holder was told to.
    fn hand_off(&self, next: Option<Thread>) {
        if let Some(next) = next {
            self.inner.metrics.baton_handoffs.inc();
            next.unpark();
        }
    }

    /// Starts the connection's listener, if it has none: a thread that
    /// handles frames nobody called for when they arrive, not when the
    /// next call happens to read them. It waits on a poller of its own
    /// for the connection's watch, which is armed only while no call is
    /// in flight and nobody holds the baton; when woken it takes the
    /// baton, reads what has arrived and puts it down. Callers still
    /// read their own replies: arming and disarming cost a call two
    /// `epoll_ctl`s on a socket, and wake nobody. The poller costs the
    /// connection an epoll descriptor and an eventfd.
    ///
    /// A transport with neither a descriptor to poll
    /// ([`Transport::watch_fd`]) nor a ready notifier, or a build without
    /// epoll, gets no listener: its frames wait for the next call.
    ///
    /// `idle` runs on the listener before each wait and returns when it
    /// wants to run again at the latest; keepalive probing lives there.
    /// The listener holds the connection weakly: it exits when the
    /// connection closes or its last handle is dropped.
    pub fn listen(&self, idle: impl FnMut(&CallClient) -> Option<Instant> + Send + 'static) {
        let mut receive = self.inner.receive();
        if receive.baton.is_closed() || receive.baton.is_watched() {
            return;
        }
        let watch = match Watch::new(&*self.inner.transport) {
            Ok(watch) => Arc::new(watch),
            Err(e) => {
                if rpc_debug() {
                    eprintln!(
                        "virt-rpc: no listener on {}: {e}",
                        self.inner.transport.peer()
                    );
                }
                return;
            }
        };
        // Armed as the lock is released, if the connection is idle.
        receive.watch = Some(Arc::clone(&watch));
        receive.baton.watch();
        let weak = Arc::downgrade(&self.inner);
        let idle: Idle = Box::new(idle);
        std::thread::Builder::new()
            .name("virt-rpc-listener".to_string())
            .spawn(move || listener_loop(weak, &watch, idle))
            .expect("spawning rpc listener thread");
    }

    /// Sends a message without expecting a reply (events, keepalive pongs).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send_oneway(&self, packet: &Packet) -> Result<(), CallError> {
        let mut frame = BufferPool::global().get();
        packet.encode_frame_into(&mut frame);
        self.inner
            .transport
            .send_framed(&frame)
            .map_err(CallError::Io)
    }

    /// Closes the connection, failing all in-flight calls.
    pub fn close(&self) {
        let (waiters, watch) = {
            let mut receive = self.inner.receive();
            (receive.baton.fail_all(|| None), receive.watch.clone())
        };
        unpark_all(waiters);
        let _ = self.inner.transport.shutdown();
        if let Some(watch) = watch {
            watch.poller.wake();
        }
    }
}

/// The baton in a thread's hand. Dropping it puts the baton down — the
/// caller's slot forgotten, its receive buffer back with the connection,
/// on a watched connection every frame already read off the socket
/// routed, one waiter woken to read on — however the holder's work
/// ended.
struct Holding<'a> {
    client: &'a CallClient,
    /// The holder's own call; `None` for a look at the socket.
    serial: Option<u32>,
    buf: Vec<u8>,
}

impl Drop for Holding<'_> {
    fn drop(&mut self) {
        let client = self.client;
        let transport = &*client.inner.transport;
        let mut receive = client.inner.receive();
        if (1..=MAX_PARKED_RECORD_CAPACITY).contains(&self.buf.capacity()) {
            receive.buf = std::mem::take(&mut self.buf);
        }
        if let Some(serial) = self.serial {
            receive.baton.abandon(serial);
        }
        // A holder unwinding from a panic — a handler's, say — routes
        // nothing more, lest the next frame panic it again and abort the
        // process: the listener is woken to route what is buffered.
        let unwinding = std::thread::panicking();
        loop {
            match receive
                .baton
                .put_down(|| !unwinding && transport.has_buffered_frame())
            {
                PutDown::Wake(next) => {
                    let watch = receive.watch.clone().filter(|_| unwinding);
                    drop(receive);
                    client.hand_off(next);
                    if let Some(watch) = watch {
                        watch.poller.wake();
                    }
                    return;
                }
                PutDown::Route => {
                    drop(receive);
                    // Routing runs the event handler with the baton still
                    // held: should it panic, this puts it down on the way
                    // out.
                    let on_panic = Holding {
                        client,
                        serial: None,
                        buf: Vec::new(),
                    };
                    client.route_arrived();
                    std::mem::forget(on_panic);
                    receive = client.inner.receive();
                }
            }
        }
    }
}

/// Turns a reply into the call's result: an error status becomes
/// [`CallError::Remote`], anything else is `decode`'s to read.
fn finish(
    header: &Header,
    payload: &[u8],
    decode: &mut dyn FnMut(&[u8]) -> Result<(), XdrError>,
) -> Result<(), CallError> {
    if header.status == MessageStatus::Error {
        return Err(match RpcError::from_xdr(payload) {
            Ok(err) => CallError::Remote(err),
            Err(xdr) => CallError::Protocol(xdr),
        });
    }
    Ok(decode(payload)?)
}

/// Whether `VIRT_RPC_DEBUG` asked for wire-level diagnostics on stderr,
/// resolved once (this crate has no logger dependency).
fn rpc_debug() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("VIRT_RPC_DEBUG").is_some())
}

/// The listener: waits for its watch (or `idle`'s deadline), then takes
/// the baton if the watch is still armed and routes what has arrived —
/// for as long as the connection lives. Its first look takes the baton
/// whenever it is free: frames read off the socket before there was a
/// watch raise no edge. It never blocks in a receive, and holds the
/// connection only weakly, upgrading for as long as one look or one
/// `idle` call takes; the close, and the drop of the last handle, wake it
/// to exit.
fn listener_loop(weak: Weak<ClientInner>, watch: &Watch, mut idle: Idle) {
    let client = || weak.upgrade().map(|inner| CallClient { inner });
    let mut take: fn(&mut Baton<Thread, Option<Packet>>) -> bool = Baton::try_take;
    let mut events = Events::with_capacity(2);
    loop {
        let deadline = {
            let Some(client) = client() else { return };
            client.look(take);
            if client.is_known_closed() {
                return;
            }
            idle(&client)
        };
        take = Baton::take_armed;
        // Rounded up to the poller's millisecond: a wait that ended just
        // short of the deadline would only come straight back.
        let timeout = deadline.map(|deadline| {
            deadline.saturating_duration_since(Instant::now()) + Duration::from_nanos(999_999)
        });
        if watch.poller.wait(&mut events, timeout).is_err() {
            if let Some(client) = client() {
                client.close();
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests;
