//! Hand-off stress: many callers sharing one connection, on one CPU.
//!
//! Eight threads push twenty thousand calls each through a single
//! [`CallClient`] while the whole process is pinned to one CPU, so every
//! hand-off between the thread that reads the socket and the threads
//! waiting for their replies goes through the scheduler. A lost wake-up
//! or a lost reply shows as a call hitting its 2 s timeout — seconds,
//! not the stub's default 30 s — and every reply must carry the payload
//! of the call it answers.
//!
//! Written to reproduce ROADMAP 0(ii) (one unexplained 30 s timeout of a
//! memory-transport call in ~330 soak runs of the reader-thread stub)
//! before the stub was rebuilt, and kept as the regression test of the
//! baton hand-off that replaced it.

use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use virt_rpc::message::REMOTE_PROGRAM;
use virt_rpc::transport::{memory_pair, Transport, UnixTransport};
use virt_rpc::CallClient;

#[path = "support/echo.rs"]
mod echo;

const CALLERS: usize = 8;
const CALLS_PER_CALLER: u32 = 20_000;

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread, and threads
    /// it spawns afterwards inherit the mask.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread (and every thread it goes on to spawn) to the
/// first CPU. Best effort: a sandbox that forbids it still runs the
/// stress, only with less scheduler pressure.
fn pin_to_one_cpu() -> bool {
    let mask = [1u64; 1];
    // SAFETY: `mask` is a live, initialised 8-byte CPU set and the size
    // passed is its size; the call reads it and touches nothing else.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn stress(client_side: impl Transport + 'static, server_side: impl Transport + 'static) {
    let pinned = pin_to_one_cpu();
    let echo = echo::spawn(server_side);
    let client = CallClient::new(client_side);
    client.set_call_timeout(Some(Duration::from_secs(2)));

    let start = Arc::new(Barrier::new(CALLERS));
    let callers: Vec<_> = (0..CALLERS as u32)
        .map(|caller| {
            let client = client.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for n in 0..CALLS_PER_CALLER {
                    let sent = u64::from(caller) << 32 | u64::from(n);
                    let got: u64 = client.call(REMOTE_PROGRAM, 1, &sent).unwrap_or_else(|e| {
                        panic!("caller {caller} call {n} (pinned: {pinned}): {e:?}")
                    });
                    assert_eq!(got, sent, "reply routed to the wrong caller");
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("caller thread");
    }
    client.close();
    echo.join().expect("echo thread");
}

#[test]
fn eight_callers_share_a_memory_connection_on_one_cpu() {
    let (client_side, server_side) = memory_pair();
    stress(client_side, server_side);
}

#[test]
fn eight_callers_share_a_unix_connection_on_one_cpu() {
    let (client_stream, server_stream) = UnixStream::pair().expect("socketpair");
    stress(
        UnixTransport::from_stream(client_stream, "client").expect("client transport"),
        UnixTransport::from_stream(server_stream, "server").expect("server transport"),
    );
}

/// ROADMAP 0(ii), reproduced: a call that starts while the peer is
/// closing must fail as a lost connection, promptly. The reader-thread
/// stub checked `closed` and registered its reply slot in two steps; a
/// reader that saw EOF in between failed an empty pending map and
/// exited, and the channel transport of the time accepted a send to a
/// closed peer, so the call sat out its whole timeout (the 30 s default,
/// in a soak run). Registration and close now happen under one lock.
#[test]
fn a_call_racing_the_peers_close_never_waits_for_its_timeout() {
    const ROUNDS: usize = 3_000;
    let mut lost = 0;
    for round in 0..ROUNDS {
        let (client_side, server_side) = memory_pair();
        let client = CallClient::new(client_side);
        client.set_call_timeout(Some(Duration::from_millis(300)));
        let start = Arc::new(Barrier::new(2));
        let closer = {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                server_side.shutdown().expect("shutdown");
            })
        };
        start.wait();
        // Vary where in the call the close lands.
        for _ in 0..(round % 64) * 16 {
            std::hint::spin_loop();
        }
        let err = client
            .call::<u64>(REMOTE_PROGRAM, 1, &7u64)
            .expect_err("nobody answers");
        if matches!(err, virt_rpc::client::CallError::TimedOut) {
            lost += 1;
        }
        closer.join().expect("closer thread");
        client.close();
    }
    assert_eq!(lost, 0, "{lost} of {ROUNDS} calls waited out their timeout");
}
