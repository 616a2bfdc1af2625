//! The remote protocol, pinned procedure by procedure.
//!
//! `golden/remote_wire.txt` holds every frame of one scripted session —
//! each `HypervisorConnection` method of a `RemoteConnection` driven
//! through a recording proxy into real in-process daemons, replies and
//! pushed events included. It was captured on the commit *before* the
//! procedure table replaced the hand-written stubs and dispatch arms, so
//! any later change that moves a byte of a request, a reply or an error
//! fails here and prints the transcript the current code produces.
//!
//! The second half checks the table against the dispatcher: every
//! callable procedure number has an arm, and nothing else does.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hypersim::{PoolBackend, SimClock};
use virt_core::driver::{HypervisorConnection, HypervisorDriver, MigrationOptions, OpenOptions};
use virt_core::drivers::remote::RemoteDriver;
use virt_core::guard::GuardPolicy;
use virt_core::protocol::{self, proc};
use virt_core::testbed;
use virt_core::xmlfmt::{DomainConfig, NetworkConfig, PoolConfig, VolumeConfig};
use virt_rpc::message::{Header, MessageType, Packet, REMOTE_PROGRAM};
use virt_rpc::transport::{memory_listener, Listener, MemoryConnector, Transport};
use virt_rpc::xdr::XdrEncode;
use virtd::Virtd;

const GOLDEN: &str = include_str!("golden/remote_wire.txt");

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

/// Registers `endpoint` in the testbed as a recording proxy in front of
/// `upstream`; serves the one connection the remote driver dials.
fn recording_proxy(endpoint: &str, upstream: MemoryConnector) -> Tap {
    let tap: Tap = Arc::default();
    let (listener, connector) = memory_listener();
    testbed::register_daemon(endpoint, connector);
    let proxy_tap = Arc::clone(&tap);
    std::thread::spawn(move || {
        let client: Arc<dyn Transport> = Arc::from(listener.accept().expect("client dials"));
        let daemon: Arc<dyn Transport> = Arc::new(upstream.connect().expect("daemon accepts"));
        pump(
            Arc::clone(&client),
            Arc::clone(&daemon),
            '>',
            Arc::clone(&proxy_tap),
        );
        pump(daemon, client, '<', proxy_tap);
    });
    tap
}

fn daemon_behind_proxy(name: &str, clock: &SimClock) -> (Virtd, Tap) {
    let daemon = Virtd::builder(name)
        .clock(clock.clone())
        .with_quiet_hosts()
        .build()
        .unwrap();
    let upstream = daemon
        .register_memory_endpoint(&format!("{name}-direct"))
        .unwrap();
    let tap = recording_proxy(name, upstream);
    (daemon, tap)
}

fn open(uri: &str) -> Arc<dyn HypervisorConnection> {
    RemoteDriver::new()
        .open(&uri.parse().unwrap(), &OpenOptions::default())
        .unwrap()
}

fn domain_xml(name: &str) -> String {
    DomainConfig::new(name, 512, 2).to_xml_string()
}

/// One line per frame: calls and replies in serial order, then the
/// pushed events in arrival order.
fn transcript(label: &str, tap: &Tap, expected_events: usize) -> Vec<String> {
    // Replies are recorded before they are forwarded, so every reply is
    // already here; pushed events and the farewell `close` sends after
    // CLOSE (the keepalive program's one-way BYE) can still be in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    let frames = loop {
        let frames = tap.lock().unwrap().clone();
        let one_way = |dir: char| {
            frames
                .iter()
                .filter(|(d, body)| {
                    *d == dir && Packet::split_body(body).unwrap().0.mtype == MessageType::Event
                })
                .count()
        };
        if (one_way('<') >= expected_events && one_way('>') == 1) || Instant::now() > deadline {
            break frames;
        }
        std::thread::yield_now();
    };
    let mut lines: Vec<(u32, u32, String)> = frames
        .iter()
        .map(|(dir, body)| {
            let (header, _) = Packet::split_body(body).unwrap();
            let (rank, kind) = (header.mtype.as_u32(), header.mtype.name());
            // Calls and replies by name; one-way frames (pushed events,
            // the keepalive program's BYE) as program:number.
            let callable = proc::ALL.iter().find(|(num, _)| *num == header.procedure);
            let name = match callable {
                Some((_, name)) if header.program == REMOTE_PROGRAM => name.to_string(),
                _ => format!("{:x}:{}", header.program, header.procedure),
            };
            let serial = if rank == 2 { u32::MAX } else { header.serial };
            let line = format!("{label} {dir} {kind} {name} {}", hex(body));
            (serial, rank, line)
        })
        .collect();
    lines.sort_by_key(|(serial, rank, _)| (*serial, *rank));
    lines.into_iter().map(|(_, _, line)| line).collect()
}

#[test]
fn every_procedure_matches_the_golden_session() {
    let clock = SimClock::new();
    let (src_daemon, src_tap) = daemon_behind_proxy("golden-src", &clock);
    let (dst_daemon, dst_tap) = daemon_behind_proxy("golden-dst", &clock);
    // A user name in the URI makes the session start with AUTH.
    let c = open("qemu+memory://operator@golden-src/system?password=secret");
    let dst = open("qemu+memory://golden-dst/system");

    // Results are deliberately ignored: an error reply is as much a part
    // of the transcript as a success.
    let _ = c.hostname();
    let _ = c.node_info();
    let _ = c.capabilities();

    let _ = c.define_pool_xml(&PoolConfig::new("imgs", PoolBackend::Dir, 1000).to_xml_string());
    let _ = c.start_pool("imgs");
    let _ = c.list_pools();
    let _ = c.pool_info("imgs");
    let _ = c.create_volume_xml("imgs", &VolumeConfig::new("a.img", 100).to_xml_string());
    let _ = c.list_volumes("imgs");
    let _ = c.volume_info("imgs", "a.img");
    let _ = c.resize_volume("imgs", "a.img", 200);
    let _ = c.clone_volume("imgs", "a.img", "b.img");
    let _ = c.delete_volume("imgs", "b.img");
    let _ = c.stop_pool("imgs");
    let _ = c.undefine_pool("imgs");

    let net = NetworkConfig::new("lan", std::net::Ipv4Addr::new(10, 1, 2, 0));
    let _ = c.define_network_xml(&net.to_xml_string());
    let _ = c.start_network("lan");
    let _ = c.list_networks();
    let _ = c.network_info("lan");
    let _ = c.stop_network("lan");
    let _ = c.undefine_network("lan");

    let web = c.define_domain_xml(&domain_xml("web"));
    let _ = c.lookup_domain_by_name("web");
    let uuid = web.as_ref().map(|record| record.uuid).unwrap_or_default();
    let _ = c.lookup_domain_by_uuid(uuid);
    let _ = c.lookup_domain_by_name("no-such-domain");
    let _ = c.set_autostart("web", true);
    let _ = c.get_autostart("web");
    let _ = c.dump_domain_xml("web");
    let started = c.start_domain("web");
    let _ = c.lookup_domain_by_id(started.ok().and_then(|r| r.id).unwrap_or(1));
    let _ = c.list_domains();
    let _ = c.suspend_domain("web");
    let _ = c.resume_domain("web");
    let _ = c.set_domain_memory("web", 256);
    let _ = c.set_domain_vcpus("web", 1);
    let _ = c.attach_device(
        "web",
        "<disk><source file='/x.img'/><target dev='vdz'/></disk>",
    );
    let _ = c.detach_device("web", "vdz");
    let _ = c.snapshot_domain("web", "snap1");
    let _ = c.list_snapshots("web");
    let _ = c.revert_snapshot("web", "snap1");
    let _ = c.delete_snapshot("web", "snap1");
    let _ = c.guard_set("web", &GuardPolicy::AutoResume);
    let _ = c.guard_status("web");
    let _ = c.guard_list();
    let _ = c.guard_remove("web");
    let _ = c.domain_job_stats("web");
    let _ = c.abort_domain_job("web");
    let _ = c.get_all_domain_stats();
    let _ = c.reboot_domain("web");
    let _ = c.save_domain("web");
    let _ = c.restore_domain("web");
    let _ = c.shutdown_domain("web");
    let _ = c.start_domain("web");
    let _ = c.crash_domain("web");
    let _ = c.destroy_domain("web");
    let _ = c.undefine_domain("web");
    let _ = c.create_domain_xml(&domain_xml("transient"));
    let _ = c.destroy_domain("transient");
    assert!(web.is_ok(), "the script runs against a working daemon");

    // The five migration phases, source and destination each recorded.
    let _ = c.define_domain_xml(&domain_xml("traveler"));
    let _ = c.start_domain("traveler");
    let xml = c.migrate_begin("traveler").unwrap_or_default();
    let _ = dst.migrate_prepare(&xml);
    let _ = c.migrate_perform("traveler", &MigrationOptions::default());
    let _ = dst.migrate_finish(&xml);
    let _ = c.migrate_confirm("traveler");
    let _ = dst.migrate_abort("traveler");

    // Events last: the one frame that is not a reply to the caller.
    let id = c.register_event_callback(Arc::new(|_| {})).unwrap();
    let _ = c.define_domain_xml(&domain_xml("noisy"));
    let _ = c.unregister_event_callback(id);
    c.close();
    dst.close();

    let mut current = transcript("src", &src_tap, 1);
    current.extend(transcript("dst", &dst_tap, 0));
    src_daemon.shutdown();
    dst_daemon.shutdown();

    let golden: Vec<&str> = GOLDEN.lines().collect();
    if current != golden {
        let first = current
            .iter()
            .zip(&golden)
            .position(|(c, g)| c != g)
            .unwrap_or(current.len().min(golden.len()));
        println!("{}", current.join("\n"));
        panic!(
            "wire transcript differs from tests/golden/remote_wire.txt at line {} \
             ({} lines now, {} golden); the current transcript is printed above",
            first + 1,
            current.len(),
            golden.len()
        );
    }

    // The script leaves no callable procedure out.
    for (num, name) in proc::ALL {
        assert!(
            golden
                .iter()
                .any(|line| line.contains(&format!("> call {name} "))),
            "no golden request for {name} ({num})"
        );
    }
}

/// Sends one call with the given payload and returns the reply.
fn raw_call(conn: &dyn Transport, procedure: u32, serial: u32, payload: &[u8]) -> Packet {
    let mut body = Header::call(REMOTE_PROGRAM, procedure, serial).to_xdr();
    body.extend_from_slice(payload);
    conn.send_frame(&body).unwrap();
    loop {
        let reply = Packet::from_body(&conn.recv_frame().unwrap()).unwrap();
        if reply.header.mtype == MessageType::Reply {
            assert_eq!(reply.header.serial, serial);
            return reply;
        }
    }
}

fn error_message(reply: &Packet) -> String {
    String::from_utf8_lossy(&reply.payload).into_owned()
}

#[test]
fn every_table_row_has_a_dispatch_arm_and_nothing_else_does() {
    let daemon = Virtd::builder("rows").with_quiet_hosts().build().unwrap();
    let connector = daemon.register_memory_endpoint("rows").unwrap();
    let conn = connector.connect().unwrap();
    let open = protocol::OpenArgs {
        uri: "qemu:///system".to_string(),
        readonly: false,
    };
    raw_call(&conn, proc::OPEN, 1, &open.to_xdr());

    let mut serial = 1;
    // CLOSE ends the session and every later call would fail for that
    // reason instead; it goes last.
    let close_last = proc::ALL
        .iter()
        .filter(|(num, _)| *num != proc::CLOSE)
        .chain(proc::ALL.iter().filter(|(num, _)| *num == proc::CLOSE));
    for (num, name) in close_last {
        serial += 1;
        let reply = raw_call(&conn, *num, serial, &[]);
        assert!(
            !error_message(&reply).contains("unknown procedure"),
            "{name} ({num}) is in the table but the dispatcher has no arm for it"
        );
    }

    raw_call(&conn, proc::OPEN, serial + 1, &open.to_xdr());
    serial += 1;
    for num in 0..=255u32 {
        if proc::ALL.iter().any(|(known, _)| *known == num) {
            continue;
        }
        serial += 1;
        let reply = raw_call(&conn, num, serial, &[]);
        assert!(
            error_message(&reply).contains("unknown procedure"),
            "{num} is not a callable procedure yet the dispatcher answered it"
        );
    }
    daemon.shutdown();
}
