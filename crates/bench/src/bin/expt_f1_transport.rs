//! **F1 — Remote-transport overhead.**
//!
//! Round-trip latency of management calls over each transport the remote
//! driver supports: in-memory (protocol floor), Unix socket, TCP
//! loopback, and TLS-sim over TCP. Reported for a no-payload call
//! (`hostname`) and for growing reply payloads (`dumpxml` of a domain
//! with many disks), showing fixed vs per-byte costs.
//!
//! Expected shape: memory < unix < tcp < tls, with TLS's gap growing
//! with payload size (per-byte cipher work).
//!
//! Run: `cargo run --release -p virt-bench --bin expt_f1_transport`

use std::time::Instant;

use virt_bench::unique;
use virt_core::xmlfmt::{DiskConfig, DomainConfig};
use virt_core::Connect;
use virt_rpc::transport::{TcpSocketListener, TlsSimListener, UnixSocketListener};
use virtd::Virtd;

const ITERS: u32 = 300;

fn domain_with_disks(name: &str, disks: usize) -> DomainConfig {
    let mut config = DomainConfig::new(name, 64, 1);
    for i in 0..disks {
        config.disks.push(DiskConfig {
            target: format!("vd{i}"),
            source: format!("/var/lib/virt/images/{name}-disk-{i}.qcow2"),
            capacity_mib: 1024,
            bus: "virtio".to_string(),
        });
    }
    config
}

fn measure(conn: &Connect, disks_per_size: &[usize]) -> (f64, Vec<(usize, f64, usize)>) {
    // Fixed-cost call.
    let start = Instant::now();
    for _ in 0..ITERS {
        conn.hostname().expect("hostname");
    }
    let noop_us = start.elapsed().as_secs_f64() * 1e6 / ITERS as f64;

    // Payload scaling: dumpxml of increasingly large descriptions.
    let mut series = Vec::new();
    for &disks in disks_per_size {
        let name = format!("payload-{disks}");
        conn.define_domain(&domain_with_disks(&name, disks))
            .expect("define");
        let domain = conn.domain_lookup_by_name(&name).expect("lookup");
        let xml_len = domain.xml_desc().expect("xml").len();
        let start = Instant::now();
        for _ in 0..ITERS {
            domain.xml_desc().expect("xml");
        }
        let per_call_us = start.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
        series.push((disks, per_call_us, xml_len));
        domain.undefine().expect("undefine");
    }
    (noop_us, series)
}

fn main() {
    let disk_counts = [0usize, 8, 32, 128];
    println!("F1: transport overhead ({} iterations per point)", ITERS);
    println!(
        "{:<8} {:>14} {}",
        "transport",
        "hostname (us)",
        disk_counts
            .iter()
            .map(|d| format!("{:>20}", format!("dumpxml {d} disks (us)")))
            .collect::<String>()
    );
    println!("{}", "-".repeat(8 + 14 + 20 * disk_counts.len() + 2));

    let mut csv = String::from("transport,noop_us,disks,dumpxml_us,xml_bytes\n");

    // memory
    {
        let endpoint = unique("f1-mem");
        let daemon = Virtd::builder(&endpoint)
            .with_quiet_hosts()
            .build()
            .unwrap();
        daemon.register_memory_endpoint(&endpoint).unwrap();
        let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
            .open()
            .unwrap();
        report("memory", &conn, &disk_counts, &mut csv);
        conn.close();
        daemon.shutdown();
    }
    // unix
    {
        let daemon = Virtd::builder(unique("f1-ux"))
            .with_quiet_hosts()
            .build()
            .unwrap();
        let path = format!("/tmp/{}.sock", unique("f1"));
        daemon.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
        let conn = Connect::builder(format!("qemu+unix:///system?socket={path}"))
            .open()
            .unwrap();
        report("unix", &conn, &disk_counts, &mut csv);
        conn.close();
        daemon.shutdown();
        let _ = std::fs::remove_file(&path);
    }
    // tcp
    {
        let daemon = Virtd::builder(unique("f1-tcp"))
            .with_quiet_hosts()
            .build()
            .unwrap();
        let listener = TcpSocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        daemon.serve(Box::new(listener));
        let conn = Connect::builder(format!("qemu+tcp://{addr}/system"))
            .open()
            .unwrap();
        report("tcp", &conn, &disk_counts, &mut csv);
        conn.close();
        daemon.shutdown();
    }
    // tls
    {
        let daemon = Virtd::builder(unique("f1-tls"))
            .with_quiet_hosts()
            .build()
            .unwrap();
        let listener = TcpSocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().to_string();
        daemon.serve(Box::new(TlsSimListener(listener)));
        let conn = Connect::builder(format!("qemu+tls://{addr}/system"))
            .open()
            .unwrap();
        report("tls", &conn, &disk_counts, &mut csv);
        conn.close();
        daemon.shutdown();
    }

    let csv_path = "target/expt_f1_transport.csv";
    let _ = std::fs::write(csv_path, &csv);
    println!("\nCSV written to {csv_path}");
}

fn report(name: &str, conn: &Connect, disk_counts: &[usize], csv: &mut String) {
    let (noop_us, series) = measure(conn, disk_counts);
    print!("{:<8} {:>14.2}", name, noop_us);
    for (disks, per_call, bytes) in &series {
        print!("{:>20.2}", per_call);
        csv.push_str(&format!(
            "{name},{noop_us:.2},{disks},{per_call:.2},{bytes}\n"
        ));
    }
    println!();
}
