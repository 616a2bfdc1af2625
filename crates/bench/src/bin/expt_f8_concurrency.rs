//! **F8 — Concurrency scaling: clients × domains.**
//!
//! Three measurements of the management layer's hot paths under
//! concurrent load:
//!
//! 1. *Read-proc scaling (direct driver).* N threads share one embedded
//!    connection and hammer read-only procedures (name lookups) over M
//!    domains on a zero-latency host. With per-domain locking behind a
//!    read-mostly index, aggregate throughput should scale with thread
//!    count; a global host mutex plateaus at ~1x.
//!
//! 2. *Read-proc and mixed scaling (remote path).* The same sweep over
//!    the full RPC stack — N `Connect` clients, each a framed transport
//!    into the daemon's worker pool. The mixed workload adds ~10%
//!    mutating calls, which take per-domain write locks.
//!
//! 3. *Migration interference.* While a migration job streams memory
//!    slices on one domain (wall-time-scaled so the transfer genuinely
//!    occupies a worker), reader threads measure p99 lookup latency on
//!    *other* domains. Per-domain locking should keep that p99 within
//!    2x of the unloaded baseline.
//!
//! Run: `cargo run --release -p virt-bench --bin expt_f8_concurrency`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypersim::latency::OpCost;
use hypersim::personality::QemuLike;
use hypersim::{DomainSpec, LatencyModel, OpKind, SimClock, SimHost};
use virt_bench::{percentile, unique};
use virt_core::driver::{HypervisorConnection, MigrationOptions};
use virt_core::drivers::embedded::EmbeddedConnection;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, JobState};
use virt_rpc::PoolLimits;
use virtd::{Virtd, VirtdConfig};

const CLIENTS: [usize; 5] = [1, 2, 4, 8, 16];
const DOMAINS: usize = 64;
const MEASURE: Duration = Duration::from_millis(400);
const WARMUP: Duration = Duration::from_millis(50);

/// Per-thread measurement: runs `op` in a closed loop until the shared
/// deadline, recording each call's wall latency in nanoseconds.
fn hammer(deadline: Instant, mut op: impl FnMut(u64)) -> Vec<u64> {
    let mut samples = Vec::with_capacity(1 << 18);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let t = Instant::now();
        op(i);
        samples.push(t.elapsed().as_nanos() as u64);
        i += 1;
    }
    samples
}

struct SweepPoint {
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Spawns `clients` threads, each running `make_op`'s closure against the
/// shared deadline, and merges their samples.
fn sweep<F, G>(clients: usize, make_op: F) -> SweepPoint
where
    F: Fn(usize) -> G,
    G: FnMut(u64) + Send + 'static,
{
    // Warm up caches and lazy state outside the measured window.
    let mut warm = make_op(0);
    let warm_deadline = Instant::now() + WARMUP;
    while Instant::now() < warm_deadline {
        warm(0);
    }
    drop(warm);

    let start = Instant::now();
    let deadline = start + MEASURE;
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let op = make_op(c);
            std::thread::spawn(move || hammer(deadline, op))
        })
        .collect();
    let mut all: Vec<u64> = Vec::new();
    for t in threads {
        all.extend(t.join().expect("hammer thread"));
    }
    let elapsed = start.elapsed();
    all.sort_unstable();
    SweepPoint {
        ops_per_sec: all.len() as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&all, 0.50) as f64 / 1e3,
        p99_us: percentile(&all, 0.99) as f64 / 1e3,
    }
}

fn print_header(title: &str) {
    println!("\n{title}");
    println!(
        "{:>8} {:>12} {:>9} {:>10} {:>10}",
        "clients", "ops/s", "speedup", "p50 (us)", "p99 (us)"
    );
    println!("{}", "-".repeat(54));
}

fn print_point(clients: usize, point: &SweepPoint, base: f64) {
    println!(
        "{:>8} {:>12.0} {:>8.2}x {:>10.2} {:>10.2}",
        clients,
        point.ops_per_sec,
        point.ops_per_sec / base,
        point.p50_us,
        point.p99_us
    );
}

/// Part 1: direct-driver read scaling — isolates the host lock
/// architecture with no RPC or worker pool in the way.
fn direct_sweep(csv: &mut String) {
    let host = SimHost::builder("f8-direct")
        .cpus(64)
        .memory_mib(256 * 1024)
        .latency(LatencyModel::zero())
        .build();
    for i in 0..DOMAINS {
        host.define_domain(DomainSpec::new(format!("vm-{i}")).memory_mib(64).vcpus(1))
            .expect("define");
    }
    let conn = EmbeddedConnection::new(host, "qemu:///f8");

    print_header(&format!(
        "F8a: read-heavy scaling, direct driver ({DOMAINS} domains, name lookups)"
    ));
    let mut base = 0.0;
    for &clients in &CLIENTS {
        let point = sweep(clients, |c| {
            let conn = Arc::clone(&conn);
            move |i| {
                let name = format!("vm-{}", (c as u64 * 31 + i) % DOMAINS as u64);
                conn.lookup_domain_by_name(&name).expect("lookup");
            }
        });
        if clients == 1 {
            base = point.ops_per_sec;
        }
        print_point(clients, &point, base);
        csv.push_str(&format!(
            "direct_read,{clients},{:.0},{:.2},{:.2}\n",
            point.ops_per_sec, point.p50_us, point.p99_us
        ));
    }
}

/// Parts 2a/2b: full-stack scaling through the remote protocol.
fn rpc_sweep(mixed: bool, csv: &mut String) {
    let endpoint = unique("f8-rpc");
    let daemon = Virtd::builder(&endpoint)
        .config(VirtdConfig::new().max_clients(64).pool_limits(PoolLimits {
            min_workers: 16,
            max_workers: 32,
            priority_workers: 4,
        }))
        .with_quiet_hosts()
        .build()
        .expect("daemon");
    daemon
        .register_memory_endpoint(&endpoint)
        .expect("endpoint");
    let uri = format!("qemu+memory://{endpoint}/system");

    let setup = Connect::builder(&uri).open().expect("connect");
    for i in 0..DOMAINS {
        setup
            .define_domain(&DomainConfig::new(format!("vm-{i}"), 64, 1))
            .expect("define");
    }

    let label = if mixed {
        "mixed (~10% writes)"
    } else {
        "read-heavy"
    };
    print_header(&format!(
        "F8b: {label} scaling, remote path ({DOMAINS} domains)"
    ));
    let key = if mixed { "rpc_mixed" } else { "rpc_read" };
    let mut base = 0.0;
    for &clients in &CLIENTS {
        let conns: Vec<Arc<Connect>> = (0..clients)
            .map(|_| Arc::new(Connect::builder(&uri).open().expect("connect")))
            .collect();
        let point = sweep(clients, |c| {
            let conn = Arc::clone(&conns[c]);
            move |i| {
                let n = (c as u64 * 31 + i) % DOMAINS as u64;
                let name = format!("vm-{n}");
                if mixed && i % 10 == 9 {
                    let domain = conn.domain_lookup_by_name(&name).expect("lookup");
                    domain.set_autostart(i % 20 == 9).expect("autostart");
                } else {
                    conn.domain_lookup_by_name(&name).expect("lookup");
                }
            }
        });
        for conn in conns {
            if let Ok(conn) = Arc::try_unwrap(conn) {
                conn.close();
            }
        }
        if clients == 1 {
            base = point.ops_per_sec;
        }
        print_point(clients, &point, base);
        csv.push_str(&format!(
            "{key},{clients},{:.0},{:.2},{:.2}\n",
            point.ops_per_sec, point.p50_us, point.p99_us
        ));
    }

    setup.close();
    daemon.shutdown();
}

/// Part 3: p99 lookup latency on idle domains while a migration streams
/// memory on another domain of the same host.
fn interference(csv: &mut String) {
    let readers = 4usize;
    let clock = SimClock::new();
    let a = unique("f8-src");
    let b = unique("f8-dst");
    // The only slow operation is the migration transfer: 0.1 ms virtual
    // per MiB, a quarter of it as wall time, so an 8 GiB guest occupies
    // its worker for ~200 ms of real time per pre-copy pass.
    let src_host = SimHost::builder(format!("{a}-qemu"))
        .cpus(64)
        .memory_mib(256 * 1024)
        .personality(QemuLike)
        .clock(clock.clone())
        .latency(LatencyModel::zero().set(OpKind::MigratePage, OpCost::scaled(0, 100_000)))
        .wall_time_scale(0.25)
        .build();
    let src_d = Virtd::builder(&a)
        .clock(clock.clone())
        .config(VirtdConfig::new().max_clients(64))
        .host(src_host)
        .build()
        .expect("src daemon");
    src_d.register_memory_endpoint(&a).expect("src endpoint");
    let dst_d = Virtd::builder(&b)
        .clock(clock)
        .with_quiet_hosts()
        .build()
        .expect("dst daemon");
    dst_d.register_memory_endpoint(&b).expect("dst endpoint");
    let src_uri = format!("qemu+memory://{a}/system");
    let src = Connect::builder(&src_uri).open().expect("src connect");
    let dst = Connect::builder(format!("qemu+memory://{b}/system"))
        .open()
        .expect("dst connect");

    for i in 0..32 {
        src.define_domain(&DomainConfig::new(format!("vm-{i}"), 64, 1))
            .expect("define");
    }
    let guest = src
        .define_domain(&DomainConfig::new("guest", 8192, 2))
        .expect("define guest");
    guest.start().expect("start guest");

    let measure = |label: &str| -> f64 {
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (0..readers)
            .map(|c| {
                let stop = Arc::clone(&stop);
                let conn = Connect::builder(&src_uri).open().expect("reader connect");
                std::thread::spawn(move || {
                    let mut samples = Vec::with_capacity(1 << 16);
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let name = format!("vm-{}", (c as u64 * 7 + i) % 32);
                        let t = Instant::now();
                        conn.domain_lookup_by_name(&name).expect("lookup");
                        samples.push(t.elapsed().as_nanos() as u64);
                        i += 1;
                    }
                    conn.close();
                    samples
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(250));
        stop.store(true, Ordering::Relaxed);
        let mut all: Vec<u64> = Vec::new();
        for t in threads {
            all.extend(t.join().expect("reader thread"));
        }
        all.sort_unstable();
        let p99_us = percentile(&all, 0.99) as f64 / 1e3;
        println!(
            "{label:<28} {:>10} {:>10.2} {:>10.2}",
            all.len(),
            percentile(&all, 0.50) as f64 / 1e3,
            p99_us
        );
        p99_us
    };

    println!("\nF8c: p99 lookup latency on other domains during a migration");
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "phase", "lookups", "p50 (us)", "p99 (us)"
    );
    println!("{}", "-".repeat(62));
    let idle_p99 = measure("idle");

    let handle = guest
        .migrate_start(&dst, &MigrationOptions::default())
        .expect("migrate start");
    while {
        let stats = handle.stats().expect("stats");
        !(stats.state == JobState::Running && stats.data_processed_mib > 0)
    } {
        std::thread::sleep(Duration::from_micros(500));
    }
    let busy_p99 = measure("migration in flight");
    let report = handle.wait();
    println!(
        "p99 ratio (in-flight / idle): {:.2}x  (migration {})",
        busy_p99 / idle_p99,
        if report.is_ok() {
            "completed"
        } else {
            "did not complete"
        }
    );
    csv.push_str(&format!(
        "interference,{readers},{idle_p99:.2},{busy_p99:.2},{:.3}\n",
        busy_p99 / idle_p99
    ));

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

fn main() {
    println!("F8: concurrency scaling of the management hot paths");
    let mut csv =
        String::from("part,clients,ops_per_sec_or_idle_p99,p50_us_or_busy_p99,p99_us_or_ratio\n");

    direct_sweep(&mut csv);
    rpc_sweep(false, &mut csv);
    rpc_sweep(true, &mut csv);
    interference(&mut csv);

    let csv_path = "target/expt_f8_concurrency.csv";
    let _ = std::fs::write(csv_path, &csv);
    println!("\nCSV written to {csv_path}");
    println!(
        "shape check: read throughput should scale with clients (>=3x at 8); p99 ratio <= 2x."
    );
}
