//! **F9 — Connection capacity: the event loop under a c10k-style ladder.**
//!
//! PR 7 replaced the daemon's thread-per-connection reader model with a
//! small fixed set of epoll event loops. This experiment measures what
//! that buys on the axis the old model could not scale: connection
//! count.
//!
//! 1. *Idle-connection ladder.* Raw TCP connections (no client-side
//!    reader threads, nothing sent) parked against one daemon at
//!    100 → 5000. At each rung: process thread count (must stay flat —
//!    the old core added one reader thread per connection), RSS growth
//!    per connection, and the accept-latency distribution for the rung's
//!    batch (p99 bounded — the accept path must not collapse as the
//!    loop's fd table grows).
//!
//! 2. *Hot-path interference at 1000 idle clients.* With 1000 idle
//!    connections parked, the F8 mixed workload (8 clients, ~10%
//!    writes) runs over a memory endpoint on the same daemon. Its p99
//!    is directly comparable to F8b-mixed at 8 clients: parked
//!    connections must not tax the dispatch hot path.
//!
//! Run: `cargo run --release -p virt-bench --bin expt_f9_c10k`

use std::net::TcpStream;
use std::time::{Duration, Instant};

use virt_bench::{percentile, unique};
use virt_core::metrics::MetricValue;
use virt_core::xmlfmt::DomainConfig;
use virt_core::Connect;
use virt_rpc::poll::raise_nofile_limit;
use virt_rpc::transport::TcpSocketListener;
use virt_rpc::PoolLimits;
use virtd::{Virtd, VirtdConfig};

const RUNGS: [usize; 5] = [100, 500, 1000, 2000, 5000];
const DOMAINS: usize = 64;
const MIXED_CLIENTS: usize = 8;
const MEASURE: Duration = Duration::from_millis(400);
const WARMUP: Duration = Duration::from_millis(50);

fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim_start_matches(':')
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or_else(|| panic!("{field} not in /proc/self/status"))
}

fn registered_fds(daemon: &Virtd) -> u64 {
    let name = "server.virtd.event_loop.registered_fds";
    daemon
        .metrics()
        .snapshot(name)
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| match m.value {
            MetricValue::Gauge(v) => v,
            other => panic!("{name}: {other:?}"),
        })
        .expect("event loop metrics registered")
}

/// Part 1: park idle raw connections rung by rung.
fn ladder(daemon: &Virtd, addr: &str, csv: &mut String) -> Vec<TcpStream> {
    println!("\nF9a: idle-connection ladder (raw TCP, nothing sent)");
    println!(
        "{:>7} {:>8} {:>9} {:>13} {:>12} {:>12}",
        "conns", "threads", "rss MiB", "kiB/conn", "acc p99 us", "acc max us"
    );
    println!("{}", "-".repeat(66));

    let threads_base = proc_status("Threads");
    let rss_base_kb = proc_status("VmRSS");
    let mut socks: Vec<TcpStream> = Vec::with_capacity(*RUNGS.last().unwrap());

    for &rung in &RUNGS {
        let mut batch_lat = Vec::with_capacity(rung - socks.len());
        while socks.len() < rung {
            // Flow control: stay at most ~100 connects ahead of the
            // daemon's registration so the kernel accept queue (backlog
            // 128) never overflows — an overflow turns into 1 s SYN-ACK
            // retransmits that would measure the backlog, not the loop.
            while socks.len() as u64 >= registered_fds(daemon) + 100 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let t0 = Instant::now();
            let sock = TcpStream::connect(addr).expect("connect");
            batch_lat.push(t0.elapsed().as_micros() as u64);
            socks.push(sock);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while registered_fds(daemon) < rung as u64 {
            assert!(
                Instant::now() < deadline,
                "only {} of {rung} connections registered",
                registered_fds(daemon)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        batch_lat.sort_unstable();

        let threads = proc_status("Threads");
        let rss_kb = proc_status("VmRSS");
        let grown_kb = rss_kb.saturating_sub(rss_base_kb);
        let per_conn_kib = grown_kb as f64 / rung as f64;
        let p99 = percentile(&batch_lat, 0.99);
        let max = *batch_lat.last().unwrap();
        println!(
            "{:>7} {:>8} {:>9.1} {:>13.1} {:>12} {:>12}",
            rung,
            threads,
            rss_kb as f64 / 1024.0,
            per_conn_kib,
            p99,
            max
        );
        csv.push_str(&format!(
            "ladder,{rung},{threads},{rss_kb},{per_conn_kib:.2},{p99},{max}\n"
        ));
        assert!(
            threads <= threads_base + 4,
            "thread count grew with connection count: {threads_base} -> {threads}"
        );
    }
    socks
}

/// F8-style mixed workload (8 clients, ~10% writes) over a memory
/// endpoint on the same daemon — comparable to F8b-mixed at 8 clients.
fn mixed_under_load(daemon: &Virtd, endpoint: &str, parked: usize, csv: &mut String) {
    daemon.register_memory_endpoint(endpoint).expect("endpoint");
    let uri = format!("qemu+memory://{endpoint}/system");
    let setup = Connect::builder(&uri).open().expect("connect");
    for i in 0..DOMAINS {
        setup
            .define_domain(&DomainConfig::new(format!("vm-{i}"), 64, 1))
            .expect("define");
    }

    fn run_client(uri: &str, c: usize, deadline: Instant) -> Vec<u64> {
        let conn = Connect::builder(uri).open().expect("connect");
        let mut samples = Vec::with_capacity(1 << 16);
        let mut i = 0u64;
        while Instant::now() < deadline {
            let t = Instant::now();
            let name = format!("vm-{}", (c as u64 * 31 + i) % DOMAINS as u64);
            let domain = conn.domain_lookup_by_name(&name).expect("lookup");
            if i.is_multiple_of(10) {
                // ~10% writes: metadata touch takes the domain write lock.
                let _ = domain.set_autostart(i.is_multiple_of(20));
            }
            samples.push(t.elapsed().as_nanos() as u64);
            i += 1;
        }
        conn.close();
        samples
    }

    // Warm outside the measured window.
    run_client(&uri, 0, Instant::now() + WARMUP);

    let start = Instant::now();
    let deadline = start + MEASURE;
    let threads: Vec<_> = (0..MIXED_CLIENTS)
        .map(|c| {
            let uri = uri.clone();
            std::thread::spawn(move || run_client(&uri, c, deadline))
        })
        .collect();
    let mut all: Vec<u64> = Vec::new();
    for t in threads {
        all.extend(t.join().expect("client thread"));
    }
    let elapsed = start.elapsed();
    all.sort_unstable();

    let ops = all.len() as f64 / elapsed.as_secs_f64();
    let p50 = percentile(&all, 0.50) as f64 / 1e3;
    let p99 = percentile(&all, 0.99) as f64 / 1e3;
    println!("\nF9b: mixed workload ({MIXED_CLIENTS} clients, ~10% writes) with {parked} idle connections parked");
    println!("  ops/s {ops:.0}   p50 {p50:.2} us   p99 {p99:.2} us");
    println!("  (compare F8b-mixed at {MIXED_CLIENTS} clients with 0 parked connections)");
    csv.push_str(&format!("mixed,{parked},{ops:.0},{p50:.2},{p99:.2}\n"));
}

fn main() {
    // 5000 server fds + 5000 client fds + headroom.
    let limit = raise_nofile_limit(32 * 1024);
    println!("F9: event-loop connection capacity (nofile limit {limit})");

    let endpoint = unique("f9");
    let daemon = Virtd::builder(&endpoint)
        .config(
            VirtdConfig::new()
                .max_clients(12_000)
                .pool_limits(PoolLimits {
                    min_workers: 16,
                    max_workers: 32,
                    priority_workers: 4,
                }),
        )
        .with_quiet_hosts()
        .build()
        .expect("daemon");
    let listener = TcpSocketListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().to_string();
    daemon.serve(Box::new(listener));

    let mut csv = String::from(
        "part,conns,threads_or_ops,rss_kb_or_p50,per_conn_kib_or_p99,accept_p99_us,accept_max_us\n",
    );

    let mut socks = ladder(&daemon, &addr, &mut csv);

    // Drop back to 1000 parked connections for the interference run.
    socks.truncate(1000);
    let deadline = Instant::now() + Duration::from_secs(20);
    while registered_fds(&daemon) > 1000 {
        assert!(Instant::now() < deadline, "hangups not drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    mixed_under_load(&daemon, &endpoint, socks.len(), &mut csv);

    drop(socks);
    let csv_path = "target/expt_f9_c10k.csv";
    let _ = std::fs::write(csv_path, &csv);
    println!("\nCSV written to {csv_path}");
    println!("shape check: flat thread count across the ladder; per-conn RSS a few kiB; accept p99 in the low ms; F9b p99 comparable to F8b-mixed.");
    daemon.shutdown();
}
