//! Client death must not leak a pooled buffer or the registered fd —
//! and a connection with nothing buffered must not hold one at all.
//!
//! This is the regression suite for the event-loop teardown path. An
//! event-loop connection checks its read buffer and its write buffer
//! out of the global [`virt_rpc::BufferPool`] only while it has bytes
//! in them, so the two ways to die holding one are mid-frame (a length
//! prefix and a partial body read) and with replies gathered but not
//! yet written (the peer stopped reading). Teardown must return the
//! buffer and drop the fd from the epoll set, every time; and a
//! connection that is merely idle after a burst must have returned both
//! already.
//!
//! Kept in its own test binary on purpose: the buffer pool is
//! process-global, and the deltas asserted here would be meaningless
//! with unrelated tests churning the pool concurrently. The tests in
//! this file take turns for the same reason.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use virt_metrics::MetricValue;
use virt_rpc::keepalive::ping_packet;
use virt_rpc::transport::{TcpSocketListener, UnixSocketListener};
use virt_rpc::BufferPool;
use virtd::Virtd;

/// One test at a time: they all measure the process-global pool.
static POOL: Mutex<()> = Mutex::new(());

fn metric(daemon: &Virtd, name: &str) -> u64 {
    daemon
        .metrics()
        .snapshot(name)
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
            MetricValue::Histogram(_) => panic!("{name} is a histogram"),
        })
        .unwrap_or_else(|| panic!("metric {name} not registered"))
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn mid_frame_death_releases_fd_and_pooled_buffer() {
    let _turn = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Virtd::builder(format!("teardown-{}", std::process::id()))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let listener = TcpSocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().to_string();
    daemon.serve(Box::new(listener));
    let fds = "server.virtd.event_loop.registered_fds";
    let reads = "server.virtd.event_loop.read_calls";

    // Warm the pool with one clean round trip so later acquisitions can
    // be freelist hits rather than fresh allocations.
    {
        let mut sock = TcpStream::connect(&addr).unwrap();
        sock.write_all(&ping_packet().to_frame()).unwrap();
        let mut reply = [0u8; 4];
        std::io::Read::read_exact(&mut sock, &mut reply).unwrap();
    }
    wait_until("warm client to drain", Duration::from_secs(5), || {
        metric(&daemon, fds) == 0
    });

    let pool = BufferPool::global();
    let (_, misses_before, _) = pool.stats();

    const CYCLES: usize = 32;
    const PROMISED_LEN: u32 = 4096;
    for _ in 0..CYCLES {
        let reads_before = metric(&daemon, reads);
        let mut sock = TcpStream::connect(&addr).unwrap();
        // A length prefix promising 4 KiB, then only 100 bytes: the loop
        // has checked a pooled buffer out and is mid-frame when the
        // socket dies.
        sock.write_all(&PROMISED_LEN.to_be_bytes()).unwrap();
        sock.write_all(&[0u8; 100]).unwrap();
        sock.flush().ok();
        wait_until("connection to register", Duration::from_secs(5), || {
            metric(&daemon, fds) == 1
        });
        // Wait for the loop to read the partial frame, then die.
        wait_until(
            "loop to read the partial frame",
            Duration::from_secs(5),
            || metric(&daemon, reads) > reads_before,
        );
        drop(sock);
        wait_until(
            "fd to deregister after death",
            Duration::from_secs(5),
            || metric(&daemon, fds) == 0,
        );
    }

    let (_, misses_after, resident) = pool.stats();
    assert!(
        resident >= u64::from(PROMISED_LEN),
        "no pooled capacity parked after teardown: {resident} bytes resident"
    );
    // Every cycle checked a buffer out of the pool; if teardown leaked
    // them, each cycle would allocate fresh and misses would grow by
    // one per death. A recycled pool stays nearly flat.
    let fresh = misses_after - misses_before;
    assert!(
        fresh <= CYCLES as u64 / 8,
        "pooled read buffers leaked: {fresh} fresh allocations across {CYCLES} mid-frame deaths"
    );
    assert_eq!(
        metric(&daemon, "server.virtd.clients_connected"),
        0,
        "client table entries leaked"
    );

    daemon.shutdown();
}

/// Sixteen pings, as one write.
fn ping_burst() -> Vec<u8> {
    ping_packet().to_frame().repeat(16)
}

#[test]
fn gathered_reply_death_and_idle_after_a_burst_hold_no_pooled_buffer() {
    let _turn = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Virtd::builder(format!("gathered-{}", std::process::id()))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let path = format!("/tmp/virtd-teardown-{}.sock", std::process::id());
    daemon.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
    let fds = "server.virtd.event_loop.registered_fds";
    let queued = "server.virtd.event_loop.write_queue_bytes";
    let pool = BufferPool::global();
    let burst = ping_burst();

    // One burst, answered in full; the connection stays open.
    let burst_answered = || {
        let mut sock = UnixStream::connect(&path).unwrap();
        sock.write_all(&burst).unwrap();
        let mut replies = vec![0u8; burst.len()];
        sock.read_exact(&mut replies).unwrap();
        sock
    };

    // Warm until the buffers a burst uses have reached their working
    // sizes (they swap roles from burst to burst).
    for _ in 0..8 {
        drop(burst_answered());
        wait_until("warm client to drain", Duration::from_secs(5), || {
            metric(&daemon, fds) == 0
        });
    }
    let resident_no_clients = pool.stats().2;
    assert!(resident_no_clients > 0, "a warm pool parks its buffers");

    // Idle after a burst — connected, nothing buffered either way — the
    // connection has handed back both buffers: the pool is as full as
    // with no client at all.
    let idle = burst_answered();
    wait_until(
        "the idle connection to hold no pooled buffer",
        Duration::from_secs(5),
        || pool.stats().2 >= resident_no_clients,
    );
    assert_eq!(metric(&daemon, fds), 1);
    drop(idle);
    wait_until("idle client to drain", Duration::from_secs(5), || {
        metric(&daemon, fds) == 0
    });

    // A client that stops reading, floods 16-request bursts and dies:
    // its replies are gathered, the socket will not take them, and
    // teardown is all that can release the buffer they sit in. Every
    // cycle floods until the backlog has outgrown the pool's per-buffer
    // cap (64 KiB, below the loop's 256 KiB soft cap, where the daemon
    // stops reading), so every death hands back an oversized buffer —
    // not only those whose flood happened to outlast a corked pass.
    const PARKED_BUFFER_CAP: u64 = 64 * 1024;
    let (_, misses_before, _) = pool.stats();
    const CYCLES: usize = 16;
    for _ in 0..CYCLES {
        let mut sock = UnixStream::connect(&path).unwrap();
        sock.set_nonblocking(true).unwrap();
        let end = Instant::now() + Duration::from_secs(10);
        while metric(&daemon, queued) <= PARKED_BUFFER_CAP {
            assert!(Instant::now() < end, "replies never backed up");
            match sock.write(&burst) {
                // A torn burst would leave a partial frame behind; the
                // send buffer empties as the daemon reads, so just retry.
                Ok(n) if n < burst.len() => panic!("short write of {n} bytes"),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("flood write: {e}"),
            }
        }
        drop(sock);
        wait_until(
            "fd to deregister after death",
            Duration::from_secs(5),
            || metric(&daemon, fds) == 0,
        );
        assert_eq!(metric(&daemon, queued), 0, "owed bytes outlived the client");
    }
    let (_, misses_after, _) = pool.stats();
    let fresh = misses_after - misses_before;
    assert!(
        fresh <= CYCLES as u64 / 8,
        "pooled buffers leaked: {fresh} fresh allocations across {CYCLES} deaths \
         with gathered replies"
    );
    assert_eq!(
        metric(&daemon, "server.virtd.clients_connected"),
        0,
        "client table entries leaked"
    );

    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}
