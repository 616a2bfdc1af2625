//! Pooled calls inside a burst, over a real Unix socket.
//!
//! A burst's pooled calls are queued during the connection's turn, and
//! workers are woken for them only when its frames are all handed up —
//! one for each call no woken worker is coming for. A lone call's turn
//! holds its pooled call back instead; with the turn over, the thread
//! runs it if another event thread still waits on the poller, and queues
//! it if not. That contract, end to end, with one event thread (nothing
//! is kept) and with two:
//!
//! 1. **Order.** With an idle pool, a pooled call starts only after the
//!    inline frames behind it in the same burst were handed up — the
//!    burst is not interrupted by a worker woken per call.
//! 2. **Hangs.** A pooled call that never returns strands nothing queued
//!    behind it while another worker is idle: every other call of its
//!    burst is answered before it is released. With a single wake per
//!    turn this fails by the read deadline, not by hanging.
//! 3. **The kept call.** A lone pooled call while a second event thread
//!    waits costs no worker wake: it runs on the thread that read it. With
//!    that thread hung in a kept call, the next pooled call goes to the
//!    pool, and inline calls and pings on both connections are answered.
//! 4. **Panics.** A dispatcher that panics on pooled calls, more times
//!    than there are workers and event threads, costs no thread: each
//!    caller gets an error reply naming the procedure and the panic, and
//!    pooled and inline calls are answered after them. So does one that
//!    panics on inline calls, more times than there are event threads:
//!    that connection and a second one are answered after them.
//!
//! `scripts/ci.sh` runs them in release beside `eventloop_burst.rs`.

use std::io::{Read, Write};
use std::ops::RangeInclusive;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use virt_metrics::{MetricValue, Registry};
use virt_rpc::keepalive::{is_pong, ping_packet};
use virt_rpc::message::{encode_frame, Header, MessageStatus, RpcError, REMOTE_PROGRAM};
use virt_rpc::transport::UnixSocketListener;
use virt_rpc::{Packet, PoolLimits};
use virtd::server::{ClientHandle, ProgramDispatcher};
use virtd::Server;

/// Answered inline on the loop thread.
const INLINE: u32 = 7;
/// Answered by a worker.
const POOLED: u32 = 1;
/// Answered by a worker once the test releases it.
const HANGS: u32 = 99;
/// The dispatcher panics on it.
const PANICS: u32 = 66;
/// Answered inline, and the dispatcher panics on it.
const PANICS_INLINE: u32 = 67;

/// How long a reply may take before the test fails instead of hanging.
const DEADLINE: Duration = Duration::from_secs(5);

/// Echoes every call, recording the order in which calls reach it.
#[derive(Default)]
struct Recorder {
    /// `(procedure, serial)` of every call, as its dispatch began.
    seen: Mutex<Vec<(u32, u32)>>,
    hang_until: Mutex<Option<Receiver<()>>>,
}

impl ProgramDispatcher for Recorder {
    fn program(&self) -> u32 {
        REMOTE_PROGRAM
    }

    fn is_high_priority(&self, procedure: u32) -> bool {
        procedure == INLINE || procedure == PANICS_INLINE
    }

    fn dispatch(&self, _client: &Arc<ClientHandle>, header: Header, payload: &[u8]) -> Packet {
        self.seen
            .lock()
            .unwrap()
            .push((header.procedure, header.serial));
        if header.procedure == HANGS {
            let release = self.hang_until.lock().unwrap().take();
            if let Some(release) = release {
                let _ = release.recv();
            }
        }
        if header.procedure == PANICS || header.procedure == PANICS_INLINE {
            panic!("boom at serial {}", header.serial);
        }
        Packet {
            header: header.reply_ok(),
            payload: payload.to_vec(),
        }
    }

    fn procedure_name(&self, procedure: u32) -> Option<&'static str> {
        match procedure {
            PANICS => Some("PANICS"),
            PANICS_INLINE => Some("PANICS_INLINE"),
            _ => None,
        }
    }

    fn on_disconnect(&self, _client_id: u64) {}
}

fn socket_path(tag: &str) -> String {
    static N: AtomicUsize = AtomicUsize::new(0);
    format!(
        "/tmp/virtd-pooled-{tag}-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

/// A server with two ordinary workers and `event_threads` event threads.
/// With one, the order of events on it is the order of the test's frames
/// and nothing is kept; with two, a lone call's pooled call is kept
/// while the other thread waits.
fn start(
    tag: &str,
    dispatcher: Arc<Recorder>,
    event_threads: usize,
) -> (Arc<Server>, String, UnixStream) {
    let server = Server::new(
        tag,
        PoolLimits {
            min_workers: 2,
            max_workers: 2,
            priority_workers: 1,
        },
        4,
        dispatcher,
        event_threads,
    )
    .unwrap();
    let path = socket_path(tag);
    // The server closes its listener at shutdown; the handle is not needed.
    let _service = server.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
    let sock = connect(&path);
    (server, path, sock)
}

fn connect(path: &str) -> UnixStream {
    let sock = UnixStream::connect(path).unwrap();
    sock.set_read_timeout(Some(DEADLINE)).unwrap();
    sock
}

fn wait_for_idle_pool(server: &Server) {
    let end = Instant::now() + DEADLINE;
    while server.pool_stats().free_workers != 2 {
        assert!(Instant::now() < end, "timed out waiting for an idle pool");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One framed call.
fn call(procedure: u32, serial: u32, wire: &mut Vec<u8>) {
    let mut frame = Vec::new();
    encode_frame(
        &Header::call(REMOTE_PROGRAM, procedure, serial),
        &serial,
        &mut frame,
    );
    wire.extend_from_slice(&frame);
}

/// Reads one packet; the socket's read timeout bounds the wait.
fn read_packet(sock: &mut UnixStream) -> std::io::Result<Packet> {
    let mut prefix = [0u8; 4];
    sock.read_exact(&mut prefix)?;
    let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
    sock.read_exact(&mut body)?;
    Ok(Packet::from_body(&body).expect("well-formed packet"))
}

/// Reads one successful reply.
fn read_reply(sock: &mut UnixStream) -> std::io::Result<Packet> {
    let reply = read_packet(sock)?;
    assert_eq!(reply.header.status, MessageStatus::Ok);
    Ok(reply)
}

/// One call, answered, on `sock`.
fn round_trip(sock: &mut UnixStream, procedure: u32, serial: u32) {
    let mut wire = Vec::new();
    call(procedure, serial, &mut wire);
    sock.write_all(&wire).unwrap();
    let reply = read_reply(sock)
        .unwrap_or_else(|e| panic!("no reply to procedure {procedure}, serial {serial}: {e}"));
    assert_eq!(reply.header.serial, serial);
}

/// A keepalive ping, answered with a pong, on `sock`.
fn ping(sock: &mut UnixStream) {
    sock.write_all(&ping_packet().to_frame()).unwrap();
    let pong = read_packet(sock).unwrap_or_else(|e| panic!("no pong: {e}"));
    assert!(is_pong(&pong));
}

/// One call to `procedure` per serial, each answered with the error reply
/// of the dispatcher's panic.
fn panics_answered(
    sock: &mut UnixStream,
    procedure: u32,
    name: &str,
    serials: RangeInclusive<u32>,
) {
    for serial in serials {
        let mut wire = Vec::new();
        call(procedure, serial, &mut wire);
        sock.write_all(&wire).unwrap();
        let reply = read_packet(sock)
            .unwrap_or_else(|e| panic!("no reply to panicking call {serial}: {e}"));
        assert_eq!(reply.header.serial, serial);
        assert_eq!(reply.header.status, MessageStatus::Error);
        let error: RpcError = reply.decode_payload().unwrap();
        assert_eq!(
            error.message,
            format!("{name} ({procedure}) panicked: boom at serial {serial}")
        );
    }
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
    let end = Instant::now() + DEADLINE;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Whether every event thread of server `tag` is blocked — in the
/// poller's wait, or in a kept call the test holds.
fn event_threads_blocked(tag: &str, threads: usize) -> bool {
    let prefix = format!("{tag}-evloop-");
    let mut blocked = 0;
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if !comm.starts_with(&prefix) {
            continue;
        }
        let stat = std::fs::read_to_string(task.path().join("stat")).unwrap_or_default();
        // The state follows the parenthesised name.
        if stat
            .rsplit_once(") ")
            .is_some_and(|(_, rest)| rest.starts_with('S'))
        {
            blocked += 1;
        }
    }
    blocked == threads
}

#[test]
fn a_pooled_call_starts_after_the_inline_frames_of_its_burst() {
    for event_threads in [1, 2] {
        pooled_call_starts_after_the_inline_frames_of_its_burst(event_threads);
    }
}

fn pooled_call_starts_after_the_inline_frames_of_its_burst(event_threads: usize) {
    const BURSTS: u32 = 16;
    const INLINE_FRAMES: u32 = 15;
    let dispatcher = Arc::new(Recorder::default());
    let (server, path, mut sock) = start("order", dispatcher.clone(), event_threads);
    let registry = Registry::new();
    server.publish_metrics(&registry);

    let mut out_of_order = Vec::new();
    for burst in 0..BURSTS {
        wait_for_idle_pool(&server);
        dispatcher.seen.lock().unwrap().clear();
        // One write: the pooled call first, fifteen inline calls behind it.
        let first = burst * (INLINE_FRAMES + 1) + 1;
        let mut wire = Vec::new();
        call(POOLED, first, &mut wire);
        for serial in first + 1..=first + INLINE_FRAMES {
            call(INLINE, serial, &mut wire);
        }
        sock.write_all(&wire).unwrap();
        for i in 0..=INLINE_FRAMES {
            read_reply(&mut sock).unwrap_or_else(|e| panic!("burst {burst}, reply {i}: {e}"));
        }
        let seen = dispatcher.seen.lock().unwrap().clone();
        let pooled = seen.iter().position(|&(p, _)| p == POOLED);
        let last_inline = seen
            .iter()
            .position(|&(_, serial)| serial == first + INLINE_FRAMES);
        assert!(pooled.is_some() && last_inline.is_some(), "{seen:?}");
        if pooled < last_inline {
            out_of_order.push(burst);
        }
    }
    assert!(
        out_of_order.is_empty(),
        "with {event_threads} event thread(s), in bursts {out_of_order:?} of {BURSTS}, the \
         pooled call started before the burst's last inline frame was handed up"
    );
    // A burst keeps no call: its client has more in flight.
    assert_eq!(
        metric(&registry, "server.order.event_loop.kept_calls"),
        0,
        "a burst's pooled call was kept"
    );

    drop(sock);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_hung_pooled_call_strands_nothing_queued_behind_it() {
    for event_threads in [1, 2] {
        hung_pooled_call_strands_nothing_queued_behind_it(event_threads);
    }
}

fn hung_pooled_call_strands_nothing_queued_behind_it(event_threads: usize) {
    let dispatcher = Arc::new(Recorder::default());
    let (release, hang_until): (Sender<()>, Receiver<()>) = channel();
    *dispatcher.hang_until.lock().unwrap() = Some(hang_until);
    let (server, path, mut sock) = start("hang", dispatcher.clone(), event_threads);
    wait_for_idle_pool(&server);

    // One write: the hanging call, then eight inline calls and seven
    // pooled ones, alternating.
    let mut wire = Vec::new();
    call(HANGS, 1, &mut wire);
    for serial in 2..=16 {
        let procedure = if serial % 2 == 0 { INLINE } else { POOLED };
        call(procedure, serial, &mut wire);
    }
    sock.write_all(&wire).unwrap();

    // One worker holds the hung call — a burst keeps none, whatever the
    // event threads — and the other must be woken too, for the seven
    // queued behind it.
    let mut answered: Vec<u32> = (0..15)
        .map(|i| {
            read_reply(&mut sock)
                .unwrap_or_else(|e| {
                    panic!(
                        "with {event_threads} event thread(s), reply {i} of 15 missing while \
                         the hung call is held: {e}"
                    )
                })
                .header
                .serial
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(answered, (2..=16).collect::<Vec<u32>>());

    release.send(()).unwrap();
    assert_eq!(read_reply(&mut sock).unwrap().header.serial, 1);

    drop(sock);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_lone_pooled_call_runs_on_the_thread_that_read_it() {
    let dispatcher = Arc::new(Recorder::default());
    let (release, hang_until): (Sender<()>, Receiver<()>) = channel();
    *dispatcher.hang_until.lock().unwrap() = Some(hang_until);
    let (server, path, mut a) = start("kept", dispatcher.clone(), 2);
    let registry = Registry::new();
    server.publish_metrics(&registry);
    let kept = || metric(&registry, "server.kept.event_loop.kept_calls");
    let wakeups = || metric(&registry, "pool.kept.wakeups");
    let mut b = connect(&path);
    ping(&mut a);
    ping(&mut b);

    // A lone pooled call while the other event thread waits: the thread
    // that read it runs it, and no worker is woken.
    wait_until("both event threads to wait", || {
        event_threads_blocked("kept", 2)
    });
    round_trip(&mut a, POOLED, 1);
    assert_eq!(kept(), 1, "the lone call was not kept");
    assert_eq!(wakeups(), 0, "a worker was woken for a kept call");

    // Hang one event thread in a kept call...
    wait_until("both event threads to wait", || {
        event_threads_blocked("kept", 2)
    });
    let mut wire = Vec::new();
    call(HANGS, 2, &mut wire);
    a.write_all(&wire).unwrap();
    wait_until("the hung call to be kept", || kept() == 2);
    wait_until("the other event thread to wait", || {
        event_threads_blocked("kept", 2)
    });
    // ... and the last thread watching the poller keeps nothing: the
    // next pooled call goes to the pool.
    round_trip(&mut b, POOLED, 3);
    assert_eq!(kept(), 2, "the last watcher kept a call");
    assert_eq!(wakeups(), 1, "the pooled call was not queued for a worker");
    // Inline calls and pings are answered on both connections.
    round_trip(&mut a, INLINE, 4);
    round_trip(&mut b, INLINE, 5);
    ping(&mut a);
    ping(&mut b);
    round_trip(&mut b, POOLED, 6);

    release.send(()).unwrap();
    assert_eq!(read_reply(&mut a).unwrap().header.serial, 2);
    drop((a, b));
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_panicking_dispatcher_costs_no_thread() {
    // Two workers and two event threads: five panics would kill them all
    // if a panic cost its thread.
    const PANIC_CALLS: u32 = 5;
    let dispatcher = Arc::new(Recorder::default());
    let (server, path, mut sock) = start("panic", dispatcher, 2);
    let registry = Registry::new();
    server.publish_metrics(&registry);

    panics_answered(&mut sock, PANICS, "PANICS", 1..=PANIC_CALLS);
    assert_eq!(
        metric(&registry, "server.panic.panics"),
        u64::from(PANIC_CALLS)
    );
    // Pooled and inline calls are answered after them.
    round_trip(&mut sock, POOLED, 10);
    round_trip(&mut sock, INLINE, 11);
    let mut wire = Vec::new();
    for serial in 12..=15 {
        call(POOLED, serial, &mut wire);
    }
    sock.write_all(&wire).unwrap();
    for _ in 12..=15 {
        read_reply(&mut sock).unwrap();
    }

    drop(sock);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_panicking_inline_call_costs_no_event_thread() {
    // Two event threads: three panics would kill both if a panic cost
    // its thread, and with them every connection they serve.
    const PANIC_CALLS: u32 = 3;
    let dispatcher = Arc::new(Recorder::default());
    let (server, path, mut sock) = start("ipanic", dispatcher, 2);
    let registry = Registry::new();
    server.publish_metrics(&registry);

    panics_answered(&mut sock, PANICS_INLINE, "PANICS_INLINE", 1..=PANIC_CALLS);
    assert_eq!(
        metric(&registry, "server.ipanic.panics"),
        u64::from(PANIC_CALLS)
    );
    // The same connection and a second one are answered after them,
    // inline and pooled, and so are pings.
    round_trip(&mut sock, INLINE, 10);
    round_trip(&mut sock, POOLED, 11);
    ping(&mut sock);
    let mut other = connect(&path);
    round_trip(&mut other, INLINE, 12);
    round_trip(&mut other, POOLED, 13);
    ping(&mut other);

    drop((sock, other));
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
