//! Transport matrix: the daemon served over real Unix sockets, TCP, and
//! the TLS-sim layer, exercised by the remote driver end-to-end.

use std::sync::atomic::{AtomicU64, Ordering};

use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, DomainState};
use virt_rpc::transport::{TcpSocketListener, TlsSimListener, UnixSocketListener};
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
