//! A connection dropped without `close()` leaves nothing behind.
//!
//! The remote client used to park a reader thread on every connection,
//! and that thread owned the transport: a `Connect` that was simply
//! dropped kept its thread, its socket and its slot in the daemon's
//! client table for the life of the process. Now the transport goes with
//! the last handle; a subscribed connection's listener holds it only
//! weakly and follows.
//!
//! One test, alone in its binary: it counts the threads and descriptors
//! of the whole process.

use std::time::{Duration, Instant};

use virt_core::Connect;
use virt_rpc::transport::UnixSocketListener;
use virtd::Virtd;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("Threads line");
    line.trim().parse().expect("thread count")
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

fn wait_until(what: &str, pred: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn dropped_connections_leave_no_thread_no_fd_and_no_client_slot() {
    let socket = format!("/tmp/virt-drop-{}.sock", std::process::id());
    let daemon = Virtd::builder("drop").with_quiet_hosts().build().unwrap();
    daemon.serve(Box::new(UnixSocketListener::bind(&socket).unwrap()));
    let uri = format!("qemu+unix:///system?socket={socket}");
    let open = |subscribed: bool| {
        let conn = Connect::builder(&uri).open().expect("open");
        if subscribed {
            conn.register_event_callback(|_| {}).expect("subscribe");
        }
        assert!(!conn.hostname().expect("a call").is_empty());
        conn
    };

    // One of each first, so lazily started machinery on either side is
    // part of the baseline.
    drop(open(false));
    drop(open(true));
    let server = daemon.main_server();
    wait_until("the warm-up connections to go", || {
        server.client_count() == 0
    });
    let (threads_before, fds_before) = (threads(), open_fds());

    for n in 0..200 {
        let conn = open(n % 2 == 1);
        assert_eq!(
            threads(),
            threads_before + n % 2,
            "a connection costs a thread exactly when it is subscribed"
        );
        drop(conn);
        wait_until("the listener to exit", || threads() == threads_before);
    }

    wait_until("every client slot to be released", || {
        server.client_count() == 0
    });
    wait_until("every descriptor to be closed", || open_fds() == fds_before);
    assert_eq!(threads(), threads_before);
    daemon.shutdown();
}
