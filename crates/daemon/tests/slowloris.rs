//! Slowloris-style abuse tests for the event-driven server core.
//!
//! Three hostile client shapes, all over real TCP sockets:
//!
//! 1. a client trickling framed requests a single byte per write, or
//!    cutting a run of them at arbitrary boundaries — the buffered frame
//!    splitter must reassemble every one, in order, and answer (and drop
//!    the client at a bad length prefix, answering nothing behind it);
//! 2. a client that floods requests but never reads replies — write
//!    backpressure must pause its reads and bound the queued memory
//!    while the server keeps serving well-behaved clients;
//! 3. one hundred idle connections sitting through several keepalive
//!    cycles — nothing may be dropped, and every connection must still
//!    answer a real call afterwards.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use virt_core::Connect;
use virt_metrics::MetricValue;
use virt_rpc::framebuf::READ_CHUNK;
use virt_rpc::keepalive::{is_pong, ping_packet};
use virt_rpc::message::{Header, MessageStatus, MAX_PACKET_LEN};
use virt_rpc::transport::{TcpSocketListener, UnixSocketListener};
use virt_rpc::xdr::XdrEncode;
use virt_rpc::Packet;
use virtd::Virtd;

fn unique(tag: &str) -> String {
    static N: AtomicUsize = AtomicUsize::new(0);
    format!(
        "{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

fn start_tcp_daemon(tag: &str) -> (Virtd, String) {
    let daemon = Virtd::builder(unique(tag))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let listener = TcpSocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().to_string();
    daemon.serve(Box::new(listener));
    (daemon, addr)
}

/// Reads one metric (counter or gauge) from the daemon registry.
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

fn read_frame(sock: &mut impl Read) -> std::io::Result<Packet> {
    let mut prefix = [0u8; 4];
    sock.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    let mut body = vec![0u8; len];
    sock.read_exact(&mut body)?;
    Ok(Packet::from_body(&body).unwrap())
}

#[test]
fn trickled_frames_are_reassembled_and_answered() {
    let (daemon, addr) = start_tcp_daemon("trickle");

    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.set_nodelay(true).ok();
    let frames = ping_packet().to_frame().repeat(3);
    // One byte per write: every segment arrives as its own readiness
    // event, so the connection's buffer must hold a partial frame across
    // dozens of epoll round trips without ever blocking an event thread
    // — and start the next frame in the bytes behind the last.
    for &byte in &frames {
        sock.write_all(&[byte]).unwrap();
        sock.flush().ok();
        std::thread::sleep(Duration::from_millis(1));
    }

    for _ in 0..3 {
        let reply = read_frame(&mut sock).unwrap();
        assert!(is_pong(&reply), "trickled ping got {:?}", reply.header);
    }

    drop(sock);
    daemon.shutdown();
}

/// One daemon for every case of the property below.
fn splitter_daemon() -> &'static str {
    static DAEMON: OnceLock<(Virtd, String)> = OnceLock::new();
    let (_, path) = DAEMON.get_or_init(|| {
        let daemon = Virtd::builder(unique("split"))
            .with_quiet_hosts()
            .build()
            .unwrap();
        let path = format!("/tmp/virtd-{}.sock", unique("split"));
        daemon.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
        (daemon, path)
    });
    path
}

/// Frame body lengths as in `crates/rpc/tests/framebuf_properties.rs`,
/// from a bare header up: small, around one read chunk, up to three.
fn body_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        40usize..104,
        40usize..104,
        Just(READ_CHUNK - 4),
        Just(READ_CHUNK - 3),
        Just(READ_CHUNK),
        40usize..3 * READ_CHUNK + 1,
    ]
}

proptest! {
    /// The event loop is held to the splitter's property: frames cut at
    /// arbitrary byte boundaries are answered one for one and in order,
    /// and a zero or over-limit prefix drops the client with nothing
    /// behind it answered. Each frame is a call to a program nobody
    /// serves — the one request of any size that earns an (error) reply
    /// carrying its serial.
    #[test]
    fn split_frames_are_answered_in_order_up_to_a_bad_prefix(
        lens in proptest::collection::vec(body_len(), 1..10),
        cuts in proptest::collection::vec(1usize..2 * READ_CHUNK, 1..12),
        bad in proptest::option::of((
            0usize..16,
            prop_oneof![Just(0u32), Just(MAX_PACKET_LEN + 1), Just(u32::MAX)],
        )),
    ) {
        let bad = bad.map(|(at, prefix)| (at % (lens.len() + 1), prefix));
        let mut wire = Vec::new();
        for index in 0..=lens.len() {
            if let Some((_, prefix)) = bad.filter(|&(at, _)| at == index) {
                wire.extend_from_slice(&prefix.to_be_bytes());
            }
            let Some(&len) = lens.get(index) else { break };
            wire.extend_from_slice(&(len as u32).to_be_bytes());
            Header::call(0xbad, 1, index as u32 + 1).encode(&mut wire);
            wire.resize(wire.len() + len - 40, 0xa5);
        }
        let answered = bad.map_or(lens.len(), |(at, _)| at);

        let mut sock = UnixStream::connect(splitter_daemon()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = sock.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            let mut rest = &wire[..];
            for cut in cuts.iter().cycle() {
                let (piece, tail) = rest.split_at((*cut).min(rest.len()));
                // The daemon hangs up at a bad prefix; the rest is moot.
                if piece.is_empty() || writer.write_all(piece).is_err() {
                    break;
                }
                rest = tail;
            }
        });
        for serial in 1..=answered {
            let reply = read_frame(&mut sock)
                .unwrap_or_else(|e| panic!("reply {serial} of {answered}: {e}"));
            prop_assert_eq!(reply.header.serial, serial as u32);
            prop_assert_eq!(reply.header.status, MessageStatus::Error);
        }
        sender.join().unwrap();
        if bad.is_some() {
            // Dropped, and nothing behind the bad prefix was answered.
            let mut byte = [0u8; 1];
            match sock.read(&mut byte) {
                Ok(0) => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
                other => panic!("expected the connection to be closed, got {other:?}"),
            }
        }
    }
}

#[test]
fn never_reading_client_is_paused_not_unbounded() {
    let (daemon, addr) = start_tcp_daemon("noread");
    let paused_metric = "server.virtd.event_loop.reads_paused";
    let queue_metric = "server.virtd.event_loop.write_queue_bytes";

    let mut sock = TcpStream::connect(&addr).unwrap();
    sock.set_nonblocking(true).unwrap();

    // ~1k pings per write; the server answers each with a pong that the
    // client never reads, so replies pile up behind its stalled socket.
    let ping = ping_packet().to_frame();
    let mut chunk = Vec::with_capacity(ping.len() * 1024);
    for _ in 0..1024 {
        chunk.extend_from_slice(&ping);
    }

    let end = Instant::now() + Duration::from_secs(30);
    let mut triggered = false;
    let mut wrote = 0u64;
    'flood: while Instant::now() < end {
        let mut off = 0;
        while off < chunk.len() {
            match sock.write(&chunk[off..]) {
                Ok(0) => break 'flood,
                Ok(n) => {
                    off += n;
                    wrote += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Our own send buffer is full — the server stopped
                    // reading. Confirm via the metric and stop flooding.
                    std::thread::sleep(Duration::from_millis(5));
                    if metric(&daemon, paused_metric) > 0 {
                        triggered = true;
                        break 'flood;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // A reset is the hard-cap close — also a bounded outcome.
                Err(_) => break 'flood,
            }
        }
        if metric(&daemon, paused_metric) > 0 {
            triggered = true;
            break;
        }
    }
    let hard_closes = metric(&daemon, "server.virtd.event_loop.backpressure_closes");
    assert!(
        triggered || hard_closes > 0,
        "wrote {wrote} bytes without triggering read-pause or hard-cap close"
    );

    // Queued replies stay bounded: soft cap (256 KiB) plus one frame of
    // slack, never the unbounded per-connection buffers of the old core.
    let queued = metric(&daemon, queue_metric);
    assert!(
        queued <= 512 * 1024,
        "write queue unbounded: {queued} bytes"
    );

    // The stalled client must not take the server down with it.
    let (host, port) = addr.rsplit_once(':').unwrap();
    let conn = Connect::builder(format!("qemu+tcp://{host}:{port}/system"))
        .open()
        .unwrap();
    assert!(conn.hostname().is_ok());
    conn.close();

    // Dropping the stalled client frees every queued reply buffer.
    drop(sock);
    wait_until(
        "queued reply bytes to drain",
        Duration::from_secs(5),
        || metric(&daemon, queue_metric) == 0,
    );
    daemon.shutdown();
}

#[test]
fn hundred_idle_connections_survive_keepalive_cycles() {
    let (daemon, addr) = start_tcp_daemon("idle100");
    let (host, port) = addr.rsplit_once(':').unwrap();
    let uri = format!("qemu+tcp://{host}:{port}/system?keepalive=100:3");

    let conns: Vec<_> = (0..100)
        .map(|_| Connect::builder(&uri).open().unwrap())
        .collect();
    wait_until("100 registered connections", Duration::from_secs(5), || {
        metric(&daemon, "server.virtd.event_loop.registered_fds") == 100
    });

    // Sit through several keepalive cycles: every idle client pings,
    // the event loops must answer each inline or the clients declare
    // the server dead and hang up.
    wait_until(
        "keepalive traffic from idle clients",
        Duration::from_secs(10),
        || metric(&daemon, "server.virtd.keepalive_pings") >= 300,
    );

    assert_eq!(
        metric(&daemon, "server.virtd.event_loop.registered_fds"),
        100,
        "idle connections were dropped during keepalive cycles"
    );
    for conn in &conns {
        assert!(conn.hostname().is_ok());
    }

    for conn in conns {
        conn.close();
    }
    wait_until("connections to drain", Duration::from_secs(5), || {
        metric(&daemon, "server.virtd.event_loop.registered_fds") == 0
    });
    daemon.shutdown();
}
