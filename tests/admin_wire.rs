//! The admin protocol, pinned procedure by procedure.
//!
//! `golden/admin_wire.txt` holds every frame of one scripted session
//! against a real in-process daemon — an `AdminClient` driven through a
//! recording proxy, then a raw connection for the error replies the typed
//! client cannot provoke. It was captured on the commit *before* the
//! reply records became their own wire form, so any later change that
//! moves a byte of a request, a reply or an error fails here and prints
//! the transcript the current code produces.
//!
//! Replies that carry a clock or a counter (`CLIENT_LIST`, `CLIENT_INFO`,
//! `METRICS_*`, `TRACE_DUMP`) are pinned by header only; their payload
//! *codec* is pinned by the hex literals of the second test, produced on
//! that same commit by the `Wire*` structs the records replaced.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use virt_core::log::LogLevel;
use virt_core::TypedParam;
use virt_rpc::message::{Header, MessageStatus, MessageType, Packet, ADMIN_PROGRAM};
use virt_rpc::transport::{memory_pair, Transport, UnixTransport};
use virt_rpc::xdr::{XdrDecode, XdrEncode};
use virt_rpc::PoolStats;
use virtd::adminproto::{self, proc};
use virtd::{AdminClient, ClientSnapshot, Virtd};

const GOLDEN: &str = include_str!("golden/admin_wire.txt");

/// Procedures whose successful reply carries a clock or a counter.
const VOLATILE_REPLIES: &[u32] = &[
    proc::CLIENT_LIST,
    proc::CLIENT_INFO,
    proc::METRICS_LIST,
    proc::METRICS_FETCH,
    proc::TRACE_DUMP,
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Frame bodies (no length prefix) in arrival order, tagged `>` for
/// client→daemon and `<` for daemon→client.
type Tap = Arc<Mutex<Vec<(char, Vec<u8>)>>>;

fn pump(from: Arc<dyn Transport>, to: Arc<dyn Transport>, dir: char, tap: Tap) {
    std::thread::spawn(move || {
        while let Ok(body) = from.recv_frame() {
            tap.lock().unwrap().push((dir, body.clone()));
            if to.send_frame(&body).is_err() {
                break;
            }
        }
        let _ = to.shutdown();
    });
}

/// One connection to the daemon's admin server through a recording proxy.
fn proxied_admin_connection(daemon: &Virtd) -> (UnixTransport, Tap) {
    let tap: Tap = Arc::default();
    let (client_side, proxy_side) = memory_pair();
    let proxy_side: Arc<dyn Transport> = Arc::new(proxy_side);
    let upstream: Arc<dyn Transport> = Arc::new(daemon.admin_memory_connector().connect().unwrap());
    pump(
        Arc::clone(&proxy_side),
        Arc::clone(&upstream),
        '>',
        Arc::clone(&tap),
    );
    pump(upstream, proxy_side, '<', Arc::clone(&tap));
    (client_side, tap)
}

/// Sends one call with the given payload and waits for its reply.
fn raw_call(conn: &dyn Transport, procedure: u32, serial: u32, payload: &[u8]) {
    let mut body = Header::call(ADMIN_PROGRAM, procedure, serial).to_xdr();
    body.extend_from_slice(payload);
    conn.send_frame(&body).unwrap();
    let reply = Packet::from_body(&conn.recv_frame().unwrap()).unwrap();
    assert_eq!(reply.header.mtype, MessageType::Reply);
    assert_eq!(reply.header.serial, serial);
}

fn wait_until(pred: impl Fn() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One line per frame, in arrival order (one caller, one call at a time:
/// the order is the script's).
fn transcript(label: &str, tap: &Tap) -> Vec<String> {
    let frames = tap.lock().unwrap().clone();
    frames
        .iter()
        .map(|(dir, body)| {
            let (header, payload) = Packet::split_body(body).unwrap();
            let kind = header.mtype.name();
            let name = proc::name(header.procedure)
                .map(str::to_string)
                .unwrap_or_else(|| header.procedure.to_string());
            let volatile = header.mtype == MessageType::Reply
                && header.status == MessageStatus::Ok
                && VOLATILE_REPLIES.contains(&header.procedure);
            let bytes = if volatile {
                format!("{}+", hex(&body[..body.len() - payload.len()]))
            } else {
                hex(body)
            };
            format!("{label} {dir} {kind} {name} {bytes}")
        })
        .collect()
}

#[test]
fn every_admin_procedure_matches_the_golden_session() {
    let daemon = Virtd::builder("admin-golden")
        .with_quiet_hosts()
        .build()
        .unwrap();
    let main = daemon.main_server();
    let parked = |stats: PoolStats| {
        stats.free_workers == stats.current_workers && stats.current_workers == stats.min_workers
    };
    wait_until(
        || parked(main.pool_stats()) && main.pool_stats().priority_workers == 5,
        "the main pool's workers parked",
    );
    // A client of the main server for CLIENT_DISCONNECT to remove.
    let victim = daemon
        .register_memory_endpoint("admin-golden")
        .unwrap()
        .connect()
        .unwrap();
    wait_until(|| main.client_count() == 1, "the victim registered");

    let (conn, typed_tap) = proxied_admin_connection(&daemon);
    let admin = AdminClient::new(conn);

    // Results of the error cases are deliberately ignored: an error reply
    // is as much a part of the transcript as a success.
    assert_eq!(admin.list_servers().unwrap(), vec!["admin", "virtd"]);
    let _ = admin.threadpool_info("virtd");
    let _ = admin.threadpool_info("admin");
    let _ = admin.threadpool_info("no-such-server");
    let _ = admin.threadpool_set(
        "virtd",
        vec![
            TypedParam::uint("minWorkers", 6),
            TypedParam::uint("maxWorkers", 32),
            TypedParam::uint("prioWorkers", 7),
        ],
    );
    wait_until(
        || {
            let stats = main.pool_stats();
            parked(stats) && stats.min_workers == 6 && stats.priority_workers == 7
        },
        "the resized pool settled",
    );
    let _ = admin.threadpool_info("virtd");
    let _ = admin.threadpool_set("virtd", vec![TypedParam::uint("warpWorkers", 1)]);
    let _ = admin.threadpool_set(
        "virtd",
        vec![
            TypedParam::uint("minWorkers", 9),
            TypedParam::uint("maxWorkers", 3),
        ],
    );
    let _ = admin.threadpool_set("no-such-server", vec![]);

    let _ = admin.client_limits("virtd");
    let _ = admin.set_max_clients("virtd", 77);
    let _ = admin.client_limits("virtd");
    let _ = admin.set_max_clients("virtd", 0);
    let _ = admin.client_limits("no-such-server");

    let clients = admin.client_list("virtd").unwrap();
    assert_eq!(clients.len(), 1);
    assert_eq!(clients[0].transport, "memory");
    assert_eq!(
        admin.client_info("virtd", clients[0].id).unwrap(),
        clients[0]
    );
    let _ = admin.client_list("no-such-server");
    let _ = admin.client_info("virtd", 9999);
    let _ = admin.client_disconnect("virtd", 9999);
    admin.client_disconnect("virtd", clients[0].id).unwrap();

    let _ = admin.log_info();
    let _ = admin.log_set_level(LogLevel::Debug);
    let _ = admin.log_set_filters("1:rpc 3:util.object");
    let _ = admin.log_set_outputs("2:buffer");
    let _ = admin.log_info();
    let _ = admin.log_set_filters("not a filter");
    let _ = admin.log_set_outputs("9:nowhere");
    let _ = admin.log_info();

    assert!(!admin.metrics_list().unwrap().is_empty());
    let fetched = admin.metrics("server.virtd.").unwrap();
    assert!(fetched.iter().all(|m| m.name.starts_with("server.virtd.")));
    assert!(!fetched.is_empty());

    // Tracing stays off: enabling it would make `recorded` a counter.
    let _ = admin.trace_config(None, None);
    let _ = admin.trace_config(Some(false), Some(250));
    let _ = admin.trace_config(None, None);
    let _ = admin.trace_dump(false);
    let _ = admin.trace_dump(true);
    admin.close();
    drop(victim);

    // What the typed client cannot send.
    let (raw, raw_tap) = proxied_admin_connection(&daemon);
    raw_call(&raw, proc::LOG_SET_LEVEL, 1, &9u32.to_xdr());
    raw_call(&raw, proc::LOG_SET_LEVEL, 2, &0u32.to_xdr());
    raw_call(&raw, 99, 3, &[]);
    raw_call(&raw, 0, 4, &[]);
    // Malformed arguments: short, trailing bytes, over-long lengths, a bad
    // bool.
    raw_call(&raw, proc::THREADPOOL_INFO, 5, &[]);
    let mut trailing = adminproto::ServerArgs {
        server: "virtd".to_string(),
    }
    .to_xdr();
    trailing.extend_from_slice(&[0, 0, 0, 0]);
    raw_call(&raw, proc::CLIENT_LIST, 6, &trailing);
    raw_call(&raw, proc::METRICS_FETCH, 7, &u32::MAX.to_xdr());
    raw_call(&raw, proc::TRACE_CONFIG, 8, &[0, 0, 0, 2]);
    let mut oversized = trailing[..trailing.len() - 4].to_vec();
    oversized.extend_from_slice(&u32::MAX.to_xdr());
    raw_call(&raw, proc::THREADPOOL_SET, 9, &oversized);
    let _ = raw.shutdown();

    let mut current = transcript("typed", &typed_tap);
    current.extend(transcript("raw", &raw_tap));
    daemon.shutdown();

    let golden: Vec<&str> = GOLDEN.lines().collect();
    if current != golden {
        let first = current
            .iter()
            .zip(&golden)
            .position(|(c, g)| c != g)
            .unwrap_or(current.len().min(golden.len()));
        println!("{}", current.join("\n"));
        panic!(
            "wire transcript differs from tests/golden/admin_wire.txt at line {} \
             ({} lines now, {} golden); the current transcript is printed above",
            first + 1,
            current.len(),
            golden.len()
        );
    }

    // The script leaves no procedure out.
    for (num, name) in proc::ALL {
        assert!(
            golden
                .iter()
                .any(|line| line.contains(&format!("> call {name} "))),
            "no golden request for {name} ({num})"
        );
    }
}

/// `value` encodes to exactly `golden`, and `golden` decodes back to it.
fn pin<T: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug>(value: T, golden: &str) {
    assert_eq!(hex(&value.to_xdr()), golden);
    let bytes: Vec<u8> = (0..golden.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(T::from_xdr(&bytes).unwrap(), value);
}

fn client(id: u64, peer: &str, username: &str, readonly: bool) -> ClientSnapshot {
    ClientSnapshot {
        id,
        transport: "tcp".to_string(),
        peer: peer.to_string(),
        connected_secs: 1_700_000_000 + id,
        session_secs: 40 + id,
        username: username.to_string(),
        readonly,
    }
}

#[test]
fn reply_records_and_lists_encode_as_the_wire_structs_they_replaced() {
    let stats = PoolStats {
        min_workers: 5,
        max_workers: 20,
        current_workers: 7,
        free_workers: 3,
        priority_workers: 4,
        job_queue_depth: 12,
    };
    pin(stats, "00000005000000140000000700000003000000040000000c");

    const CLIENT_A: &str = concat!(
        "000000000000000300000003746370000000000d31302e302e302e313a343434",
        "34000000000000006553f103000000000000002b0000000561646d696e000000",
        "00000001",
    );
    const CLIENT_B: &str = concat!(
        "000000000000000400000003746370000000000b5b3a3a315d3a353030303000",
        "000000006553f104000000000000002c0000000000000000",
    );
    let a = client(3, "10.0.0.1:4444", "admin", true);
    let b = client(4, "[::1]:50000", "", false);
    pin(a.clone(), CLIENT_A);
    pin(vec![a, b], &format!("00000002{CLIENT_A}{CLIENT_B}"));

    let counter = adminproto::WireMetric {
        name: "rpc.calls".into(),
        help: "Total RPC calls dispatched".into(),
        kind: adminproto::METRIC_KIND_COUNTER,
        value: 17,
        hist_count: 0,
        hist_sum_ns: 0,
        hist_buckets: Vec::new(),
    };
    let histogram = adminproto::WireMetric {
        name: "pool.virtd.wait_us".into(),
        help: "Job queue wait time".into(),
        kind: adminproto::METRIC_KIND_HISTOGRAM,
        value: 0,
        hist_count: 3,
        hist_sum_ns: 9_000,
        hist_buckets: vec![0, 1, 2, 0],
    };
    pin(
        vec![counter, histogram],
        concat!(
            "00000002000000097270632e63616c6c730000000000001a546f74616c205250",
            "432063616c6c7320646973706174636865640000000000000000000000000011",
            "000000000000000000000000000000000000000000000012706f6f6c2e766972",
            "74642e776169745f75730000000000134a6f6220717565756520776169742074",
            "696d650000000002000000000000000000000000000000030000000000002328",
            "0000000400000000000000000000000000000001000000000000000200000000",
            "00000000",
        ),
    );

    let begin = adminproto::WireTraceEvent {
        trace_id: 0xaa,
        span_id: 0xbb,
        parent_id: 0,
        stage: 4,
        phase: 0,
        t_ns: 123,
        dur_ns: 0,
        detail: 7,
    };
    let end = adminproto::WireTraceEvent {
        phase: 1,
        t_ns: 579,
        dur_ns: 456,
        ..begin.clone()
    };
    pin(
        vec![begin, end],
        concat!(
            "0000000200000000000000aa00000000000000bb000000000000000000000004",
            "00000000000000000000007b0000000000000000000000000000000700000000",
            "000000aa00000000000000bb0000000000000000000000040000000100000000",
            "0000024300000000000001c80000000000000007",
        ),
    );
    // The name lists of SRV_LIST and METRICS_LIST.
    pin(
        vec!["admin".to_string(), "virtd".to_string()],
        "000000020000000561646d696e000000000000057669727464000000",
    );
}
