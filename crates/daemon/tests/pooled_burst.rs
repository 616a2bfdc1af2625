//! Pooled calls inside a burst, over a real Unix socket.
//!
//! The event loop queues a burst's pooled calls during the connection's
//! turn and wakes workers for them only when the turn ends — one for each
//! call no woken worker is coming for. Both halves of that contract, end
//! to end:
//!
//! 1. **Order.** With an idle pool, a pooled call starts only after the
//!    inline frames behind it in the same burst were handed up — the
//!    burst is not interrupted by a worker woken per call.
//! 2. **Hangs.** A pooled call that never returns strands nothing queued
//!    behind it while another worker is idle: every other call of its
//!    burst is answered before it is released. With a single wake per
//!    turn this fails by the read deadline, not by hanging.
//!
//! `scripts/ci.sh` runs both in release beside `eventloop_burst.rs`.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use virt_rpc::message::{encode_frame, Header, MessageStatus, REMOTE_PROGRAM};
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
        procedure == INLINE
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
        Packet {
            header: header.reply_ok(),
            payload: payload.to_vec(),
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

/// A server with two ordinary workers and one loop thread, so the order
/// of events on the loop is the order of the test's frames.
fn start(tag: &str, dispatcher: Arc<Recorder>) -> (Arc<Server>, String, UnixStream) {
    let server = Server::new(
        tag,
        PoolLimits {
            min_workers: 2,
            max_workers: 2,
            priority_workers: 1,
        },
        4,
        dispatcher,
        1,
    )
    .unwrap();
    let path = socket_path(tag);
    // The server closes its listener at shutdown; the handle is not needed.
    let _service = server.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
    let sock = UnixStream::connect(&path).unwrap();
    sock.set_read_timeout(Some(DEADLINE)).unwrap();
    (server, path, sock)
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

/// Reads one reply; the socket's read timeout bounds the wait.
fn read_reply(sock: &mut UnixStream) -> std::io::Result<Packet> {
    let mut prefix = [0u8; 4];
    sock.read_exact(&mut prefix)?;
    let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
    sock.read_exact(&mut body)?;
    let reply = Packet::from_body(&body).expect("well-formed reply");
    assert_eq!(reply.header.status, MessageStatus::Ok);
    Ok(reply)
}

#[test]
fn a_pooled_call_starts_after_the_inline_frames_of_its_burst() {
    const BURSTS: u32 = 16;
    const INLINE_FRAMES: u32 = 15;
    let dispatcher = Arc::new(Recorder::default());
    let (server, path, mut sock) = start("order", dispatcher.clone());

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
        "in bursts {out_of_order:?} of {BURSTS}, the pooled call started before the burst's \
         last inline frame was handed up"
    );

    drop(sock);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_hung_pooled_call_strands_nothing_queued_behind_it() {
    let dispatcher = Arc::new(Recorder::default());
    let (release, hang_until): (Sender<()>, Receiver<()>) = channel();
    *dispatcher.hang_until.lock().unwrap() = Some(hang_until);
    let (server, path, mut sock) = start("hang", dispatcher.clone());
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

    // One worker holds the hung call; the other must be woken too, for
    // the seven queued behind it.
    let mut answered: Vec<u32> = (0..15)
        .map(|i| {
            read_reply(&mut sock)
                .unwrap_or_else(|e| {
                    panic!("reply {i} of 15 missing while the hung call holds a worker: {e}")
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
