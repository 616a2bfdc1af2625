//! The event loop's burst paths, over real Unix sockets.
//!
//! A burst — everything one client has sent by the time the loop gets to
//! it — is read with one `read` and answered with one `write`. That
//! creates three states the frame-at-a-time loop never had, each with a
//! regression test here:
//!
//! 1. more complete frames in the user-space buffer than the per-turn
//!    budget allows, with the socket already drained: no fd event will
//!    ever announce them, so the connection must come back off the
//!    loop's ready list;
//! 2. a connection paused by write backpressure with complete frames
//!    still buffered: when the flush lifts the pause, the loop must
//!    resume from the buffer, not only from what the socket reports;
//! 3. (in `eventloop_teardown.rs`, which owns the buffer-pool deltas) a
//!    client dying with gathered replies unwritten.
//!
//! The last two tests are the structural guard `scripts/ci.sh` also runs
//! in release: syscalls per burst and per lone call, counted by the
//! daemon's own `event_loop.{read_calls, write_calls}` counters.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use virt_core::protocol::{self, proc};
use virt_core::xmlfmt::DomainConfig;
use virt_core::Connect;
use virt_metrics::{MetricValue, Registry};
use virt_rpc::framebuf::READ_CHUNK;
use virt_rpc::keepalive::{is_pong, ping_packet};
use virt_rpc::message::{encode_frame, Header, MessageStatus, REMOTE_PROGRAM};
use virt_rpc::transport::UnixSocketListener;
use virt_rpc::{Packet, PoolLimits};
use virtd::server::{ClientHandle, ProgramDispatcher};
use virtd::{Server, Virtd};

fn socket_path(tag: &str) -> String {
    static N: AtomicUsize = AtomicUsize::new(0);
    format!(
        "/tmp/virtd-burst-{tag}-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

fn start_unix_daemon(tag: &str) -> (Virtd, String) {
    let daemon = Virtd::builder(format!("burst-{tag}-{}", std::process::id()))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let path = socket_path(tag);
    daemon.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
    (daemon, path)
}

fn metric(registry: &Registry, name: &str) -> u64 {
    registry
        .snapshot(name)
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
            MetricValue::Histogram(_) => panic!("{name} is a histogram"),
        })
        .unwrap_or_else(|| panic!("metric {name} not registered"))
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Reads one framed packet; the socket's read timeout bounds the wait.
fn read_packet(sock: &mut UnixStream) -> std::io::Result<Packet> {
    let mut prefix = [0u8; 4];
    sock.read_exact(&mut prefix)?;
    let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
    sock.read_exact(&mut body)?;
    Ok(Packet::from_body(&body).expect("well-formed reply"))
}

fn connect(path: &str) -> UnixStream {
    let sock = UnixStream::connect(path).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock
}

#[test]
fn buffered_frames_past_the_budget_are_answered_without_another_fd_event() {
    let (daemon, path) = start_unix_daemon("budget");
    let reads = "server.virtd.event_loop.read_calls";

    // As many pings as one read can carry: the first read drains the
    // socket, the loop hands up its budget of 32 and must come back for
    // the rest on its own — nothing more will ever arrive.
    let ping = ping_packet().to_frame();
    let count = READ_CHUNK / ping.len();
    assert!(count > 2 * 32, "need several budgets' worth of frames");
    let burst = ping.repeat(count);

    let mut sock = connect(&path);
    let reads_before = metric(daemon.metrics(), reads);
    sock.write_all(&burst).unwrap();
    for i in 0..count {
        let reply = read_packet(&mut sock).unwrap_or_else(|e| panic!("pong {i} of {count}: {e}"));
        assert!(is_pong(&reply));
    }
    // One read took the lot; the turn that found the buffer empty
    // probed once more. The frame-at-a-time loop made two per frame.
    let read_calls = metric(daemon.metrics(), reads) - reads_before;
    assert!(
        read_calls <= 3,
        "{read_calls} reads for one {count}-frame write"
    );
    assert_eq!(
        metric(daemon.metrics(), "server.virtd.event_loop.frames_in"),
        count as u64
    );

    // Exactly `count` replies: nothing was answered twice.
    sock.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut extra = [0u8; 1];
    let err = sock.read(&mut extra).unwrap_err();
    assert!(matches!(
        err.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut
    ));

    drop(sock);
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Bytes of every [`InlineBulk`] reply: three unread ones are more than
/// the 256 KiB at which the event loop pauses a connection's reads.
const REPLY_BYTES: usize = 96 * 1024;

/// Answers every call with [`REPLY_BYTES`] of payload, inline on the loop
/// thread.
struct InlineBulk;

impl ProgramDispatcher for InlineBulk {
    fn program(&self) -> u32 {
        REMOTE_PROGRAM
    }
    fn is_high_priority(&self, _procedure: u32) -> bool {
        true
    }
    fn dispatch(&self, _client: &Arc<ClientHandle>, header: Header, _payload: &[u8]) -> Packet {
        Packet {
            header: header.reply_ok(),
            payload: vec![0x5a; REPLY_BYTES],
        }
    }
    fn on_disconnect(&self, _client_id: u64) {}
}

#[test]
fn paused_connection_resumes_from_its_buffer_when_the_flush_lifts_the_pause() {
    // 96 KiB replies against the loop's 256 KiB soft cap, so one burst of
    // four calls trips the pause part way through; one loop thread, so
    // the order of events is the order of this test.
    let server = Server::new(
        "burst",
        PoolLimits {
            min_workers: 1,
            max_workers: 1,
            priority_workers: 1,
        },
        4,
        Arc::new(InlineBulk),
        1,
    )
    .unwrap();
    let registry = Registry::new();
    server.publish_metrics(&registry);
    let path = socket_path("resume");
    let service = server.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
    let frames_in = "server.burst.event_loop.frames_in";
    let queued = "server.burst.event_loop.write_queue_bytes";
    let paused = "server.burst.event_loop.reads_paused";

    let mut sock = connect(&path);
    let mut request = Vec::new();
    let mut sent = 0u32;
    let mut next_request = |request: &mut Vec<u8>| {
        sent += 1;
        encode_frame(&Header::call(REMOTE_PROGRAM, 1, sent), &(), request);
        sent
    };

    // Never reading, one request at a time, until the server's writes
    // stop fitting our receive queue: some reply bytes are now owed.
    while metric(&registry, queued) == 0 {
        let n = next_request(&mut request);
        sock.write_all(&request).unwrap();
        wait_until("the request to be processed", || {
            metric(&registry, frames_in) == u64::from(n)
        });
        assert!(n < 10_000, "the server never ran out of socket buffer");
    }
    assert_eq!(
        metric(&registry, paused),
        0,
        "one owed reply is under the cap"
    );

    // Four more in ONE write: one read buffers all four, a reply part
    // way through takes the backlog over the soft cap, and the complete
    // frames behind it stay buffered with the socket drained.
    let mut burst = Vec::new();
    for _ in 0..4 {
        next_request(&mut request);
        burst.extend_from_slice(&request);
    }
    assert!(burst.len() <= READ_CHUNK);
    let handed_up = metric(&registry, frames_in);
    sock.write_all(&burst).unwrap();
    wait_until("the pause", || metric(&registry, paused) == 1);
    std::thread::sleep(Duration::from_millis(50));
    let held_back = handed_up + 4 - metric(&registry, frames_in);
    assert!(
        (1..4).contains(&held_back),
        "a paused connection hands out no further buffered frames ({held_back} of 4 held back)"
    );

    // Start reading. The flush takes the backlog under the resume mark;
    // only the buffer knows about the requests still held back.
    for serial in 1..=sent {
        let reply = read_packet(&mut sock).unwrap_or_else(|e| panic!("reply {serial}: {e}"));
        assert_eq!(reply.header.serial, serial);
        assert_eq!(reply.header.status, MessageStatus::Ok);
        assert_eq!(reply.payload.len(), REPLY_BYTES);
    }
    assert_eq!(metric(&registry, frames_in), u64::from(sent));
    // The gauge drops just after the write that handed us the last bytes.
    wait_until("the write queue to drain", || {
        metric(&registry, queued) == 0
    });
    assert_eq!(
        metric(&registry, "server.burst.event_loop.backpressure_closes"),
        0
    );

    drop(sock);
    service.join();
    server.shutdown();
}

/// A hand-driven remote-protocol connection: `OPEN` done, calls encoded
/// and replies read by the test itself.
struct RawConn {
    sock: UnixStream,
    serial: u32,
    frame: Vec<u8>,
}

impl RawConn {
    fn open(path: &str) -> RawConn {
        let mut conn = RawConn {
            sock: connect(path),
            serial: 0,
            frame: Vec::new(),
        };
        let args = protocol::OpenArgs {
            uri: "qemu:///system".to_string(),
            readonly: false,
        };
        let mut wire = Vec::new();
        conn.encode_call(proc::OPEN, &args, &mut wire);
        conn.sock.write_all(&wire).unwrap();
        let reply = read_packet(&mut conn.sock).unwrap();
        assert_eq!(reply.header.status, MessageStatus::Ok, "OPEN refused");
        conn
    }

    /// Appends one framed call to `wire`.
    fn encode_call(
        &mut self,
        procedure: u32,
        args: &impl virt_rpc::xdr::XdrEncode,
        wire: &mut Vec<u8>,
    ) {
        self.serial += 1;
        let header = Header::call(REMOTE_PROGRAM, procedure, self.serial);
        encode_frame(&header, args, &mut self.frame);
        wire.extend_from_slice(&self.frame);
    }

    /// Sends `depth` lookups of `name` in one write and reads every reply.
    fn lookup_burst(&mut self, name: &str, depth: usize) {
        let mut wire = Vec::new();
        for _ in 0..depth {
            self.encode_call(proc::DOMAIN_LOOKUP_NAME, &name, &mut wire);
        }
        self.sock.write_all(&wire).unwrap();
        for _ in 0..depth {
            let reply = read_packet(&mut self.sock).unwrap();
            assert_eq!(reply.header.status, MessageStatus::Ok);
            let domain: protocol::WireDomain = reply.decode_payload().unwrap();
            assert_eq!(domain.name, name);
        }
    }
}

/// A daemon with one defined domain and an opened raw connection, all
/// other connections closed — the counters move for `raw` alone.
fn lookup_fixture(tag: &str) -> (Virtd, String, RawConn) {
    let (daemon, path) = start_unix_daemon(tag);
    let conn = Connect::builder(format!("qemu+unix:///system?socket={path}"))
        .open()
        .unwrap();
    conn.define_domain(&DomainConfig::new("burst-vm", 256, 1))
        .unwrap();
    conn.close();
    wait_until("the set-up connection to go", || {
        metric(daemon.metrics(), "server.virtd.event_loop.registered_fds") == 0
    });
    let raw = RawConn::open(&path);
    (daemon, path, raw)
}

fn syscalls(daemon: &Virtd) -> (u64, u64) {
    (
        metric(daemon.metrics(), "server.virtd.event_loop.read_calls"),
        metric(daemon.metrics(), "server.virtd.event_loop.write_calls"),
    )
}

#[test]
fn a_burst_of_sixteen_calls_costs_one_read_and_one_write() {
    const BURSTS: u64 = 64;
    let (daemon, path, mut raw) = lookup_fixture("guard16");
    raw.lookup_burst("burst-vm", 16); // warm
    let before = syscalls(&daemon);
    for _ in 0..BURSTS {
        raw.lookup_burst("burst-vm", 16);
    }
    let after = syscalls(&daemon);
    let (reads, writes) = (after.0 - before.0, after.1 - before.1);
    // One of each is the design; two leaves room for a burst the kernel
    // delivers in two pieces. Frame at a time it was >= 33 and 16.
    assert!(reads <= 2 * BURSTS, "{reads} reads for {BURSTS} bursts");
    assert!(writes <= 2 * BURSTS, "{writes} writes for {BURSTS} bursts");
    drop(raw);
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_lone_call_costs_one_read_and_exactly_one_direct_write() {
    const CALLS: u64 = 256;
    let (daemon, path, mut raw) = lookup_fixture("guard1");
    raw.lookup_burst("burst-vm", 1); // warm
    let before = syscalls(&daemon);
    for _ in 0..CALLS {
        raw.lookup_burst("burst-vm", 1);
    }
    let after = syscalls(&daemon);
    let (reads, writes) = (after.0 - before.0, after.1 - before.1);
    // No probing read after the frame (it was 3 per call), and the reply
    // is never gathered: a single-frame burst does not cork.
    assert!(reads <= CALLS, "{reads} reads for {CALLS} calls");
    assert_eq!(writes, CALLS, "a lone call's reply is one direct write");
    drop(raw);
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}
