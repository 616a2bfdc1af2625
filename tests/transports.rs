//! Transport matrix: the daemon served over real Unix sockets, TCP, and
//! the TLS-sim layer, exercised by the remote driver end-to-end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, DomainState};
use virt_rpc::transport::{Listener, TcpSocketListener, TlsSimListener, UnixSocketListener};
use virtd::Virtd;

fn unique(name: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    format!(
        "{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

fn exercise(conn: &Connect) {
    assert!(conn.hostname().unwrap().ends_with("-qemu"));
    let domain = conn
        .define_domain(&DomainConfig::new("t-vm", 256, 1))
        .unwrap();
    domain.start().unwrap();
    assert_eq!(domain.state().unwrap(), DomainState::Running);
    let xml = domain.xml_desc().unwrap();
    assert!(xml.contains("t-vm"));
    domain.destroy().unwrap();
    domain.undefine().unwrap();
}

#[test]
fn unix_socket_transport_end_to_end() {
    let daemon = Virtd::builder(unique("ux"))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let path = format!("/tmp/{}.sock", unique("virtd"));
    daemon.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));

    let conn = Connect::builder(format!("qemu+unix:///system?socket={path}"))
        .open()
        .unwrap();
    exercise(&conn);
    conn.close();
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tcp_transport_end_to_end() {
    let daemon = Virtd::builder(unique("tcp"))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let listener = TcpSocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().to_string();
    daemon.serve(Box::new(listener));

    let (host, port) = addr.rsplit_once(':').unwrap();
    let conn = Connect::builder(format!("qemu+tcp://{host}:{port}/system"))
        .open()
        .unwrap();
    exercise(&conn);
    conn.close();
    daemon.shutdown();
}

#[test]
fn tls_sim_transport_end_to_end() {
    let daemon = Virtd::builder(unique("tls"))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let listener = TcpSocketListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().to_string();
    daemon.serve(Box::new(TlsSimListener(listener)));

    let (host, port) = addr.rsplit_once(':').unwrap();
    // `+tls` in the URI drives the client-side handshake.
    let conn = Connect::builder(format!("qemu+tls://{host}:{port}/system"))
        .open()
        .unwrap();
    exercise(&conn);
    conn.close();
    daemon.shutdown();
}

#[test]
fn default_remote_uri_uses_tls_port_and_fails_cleanly_when_absent() {
    // A remote URI without transport defaults to TLS on 16514; nothing
    // listens there in this environment, so the error must be NoConnect
    // (not a hang or panic).
    let err = Connect::builder("qemu://127.0.0.1/system")
        .open()
        .unwrap_err();
    assert_eq!(err.code(), virt_core::ErrorCode::NoConnect);
}

#[test]
fn two_transports_into_one_daemon_share_state() {
    let daemon = Virtd::builder(unique("multi"))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let path = format!("/tmp/{}.sock", unique("virtd-multi"));
    daemon.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
    let tcp = TcpSocketListener::bind("127.0.0.1:0").unwrap();
    let addr = tcp.local_addr().to_string();
    daemon.serve(Box::new(tcp));

    let via_unix = Connect::builder(format!("qemu+unix:///system?socket={path}"))
        .open()
        .unwrap();
    let (host, port) = addr.rsplit_once(':').unwrap();
    let via_tcp = Connect::builder(format!("qemu+tcp://{host}:{port}/system"))
        .open()
        .unwrap();

    via_unix
        .define_domain(&DomainConfig::new("shared", 128, 1))
        .unwrap();
    assert_eq!(
        via_tcp.domain_lookup_by_name("shared").unwrap().name(),
        "shared"
    );

    via_unix.close();
    via_tcp.close();
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// The daemon counts payload bytes where every connection passes, not
/// per transport: after OPEN, one fixed session — hostname, define,
/// start, dumpxml, destroy, undefine, close — moves the same
/// `server.virtd.bytes_in`/`bytes_out` over an in-process channel, a Unix
/// socket, TCP and TLS-sim (a reader-thread connection). The daemons'
/// names have equal length, so the hostname reply does too.
#[test]
fn every_transport_counts_the_same_payload_bytes() {
    let pid = std::process::id();
    let tcp_uri = |listener: &TcpSocketListener, scheme: &str| {
        format!("qemu+{scheme}://{}/system", listener.local_addr())
    };
    let wait_until = |done: &dyn Fn() -> bool, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let mut deltas = Vec::new();
    for kind in ["mem", "unx", "tcp", "tls"] {
        let name = format!("bytes-{kind}-{pid}");
        let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
        let path = format!("/tmp/{name}.sock");
        let (listener, uri): (Option<Box<dyn Listener>>, String) = match kind {
            "mem" => {
                daemon.register_memory_endpoint(&name).unwrap();
                (None, format!("qemu+memory://{name}/system"))
            }
            "unx" => (
                Some(Box::new(UnixSocketListener::bind(&path).unwrap())),
                format!("qemu+unix:///system?socket={path}"),
            ),
            "tcp" => {
                let listener = TcpSocketListener::bind("127.0.0.1:0").unwrap();
                let uri = tcp_uri(&listener, "tcp");
                (Some(Box::new(listener)), uri)
            }
            _ => {
                let listener = TcpSocketListener::bind("127.0.0.1:0").unwrap();
                let uri = tcp_uri(&listener, "tls");
                (Some(Box::new(TlsSimListener(listener))), uri)
            }
        };
        if let Some(listener) = listener {
            daemon.serve(listener);
        }
        let metrics = daemon.metrics();
        let counters = ["server.virtd.bytes_in", "server.virtd.bytes_out"]
            .map(|counter| metrics.counter(counter, ""));
        let connected = metrics.gauge("server.virtd.clients_connected", "");

        let conn = Connect::builder(uri).open().unwrap();
        // A fresh daemon has sent nothing but OPEN's reply. The readings
        // wait for a state, not for a count, so they hold wherever the
        // count happens relative to the write.
        wait_until(&|| counters[1].get() > 0, "OPEN's reply counted");
        let opened = counters.each_ref().map(|counter| counter.get());
        conn.hostname().unwrap();
        let domain = conn
            .define_domain(&DomainConfig::new("t-vm", 256, 1))
            .unwrap();
        domain.start().unwrap();
        domain.xml_desc().unwrap();
        domain.destroy().unwrap();
        domain.undefine().unwrap();
        conn.close();
        wait_until(&|| connected.get() == 0, "the client dropped");
        let delta = [0, 1].map(|i| counters[i].get() - opened[i]);
        assert!(delta[0] > 0 && delta[1] > 0, "{kind}: nothing counted");
        deltas.push((kind, delta));
        daemon.shutdown();
        let _ = std::fs::remove_file(&path);
    }
    let (_, first) = deltas[0];
    assert!(
        deltas.iter().all(|&(_, delta)| delta == first),
        "payload bytes [in, out] per transport: {deltas:?}"
    );
}
