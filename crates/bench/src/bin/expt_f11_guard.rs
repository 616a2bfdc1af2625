//! **F11 — Guard engine: revive latency vs crash-storm size and
//! crash-loop containment.**
//!
//! PR 9 added the always-running HA supervisor: per-domain guard
//! policies evaluated in-daemon off the lifecycle event bus. This
//! experiment measures the two axes that subsystem is for:
//!
//! 1. *Revive ladder.* A storm-size sweep (up to 500 guarded domains)
//!    crashing every guarded guest at once. At each rung: per-domain
//!    revive latency p50/p99 (measured from the crash instant to the
//!    observed return to running), total convergence wall time, and the
//!    number of distinct first-rung backoff delays across the storm
//!    (the deterministic per-name jitter must spread restarts instead
//!    of releasing a thundering herd).
//!
//! 2. *Crash-loop containment.* A pack of guests on a host whose every
//!    start immediately crashes, each guarded with a bounded
//!    `keep-running` policy, while an *unrelated* healthy host on the
//!    same daemon serves a lookup probe. Every looper must climb its
//!    ladder to `gave_up` (no infinite restart loop), and the healthy
//!    tenant's p99 must stay flat — backoff waits live on the guard
//!    engine's timer thread, not on daemon worker-pool slots.
//!
//! Run: `cargo run --release -p virt-bench --bin expt_f11_guard`
//! Smoke: `... --bin expt_f11_guard -- --smoke` (small rung + loop pack,
//! asserting convergence and containment; used by ci.sh).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use hypersim::personality::{QemuLike, XenLike};
use hypersim::{FaultAction, FaultPlan, LatencyModel, OpKind, SimHost};
use virt_bench::{percentile, unique};
use virt_core::guard::GuardPolicy;
use virt_core::metrics::MetricValue;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{BackoffSchedule, Connect, DomainState};
use virtd::{Virtd, VirtdConfig};

/// Storm sizes for the revive ladder.
const RUNGS: [usize; 4] = [10, 50, 200, 500];
/// Crash-loopers in the containment pack.
const LOOPERS: usize = 20;
/// Short ladder so sweeps finish quickly while still exercising capped
/// exponential growth with jitter.
const FAST_BACKOFF: BackoffSchedule = BackoffSchedule {
    initial: Duration::from_millis(5),
    max: Duration::from_millis(40),
    multiplier: 2,
};

fn counter(daemon: &Virtd, name: &str) -> u64 {
    match daemon
        .metrics()
        .snapshot(name)
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
    {
        Some(MetricValue::Counter(v)) => v,
        _ => 0,
    }
}

/// Part 1: crash `storm` guarded domains at once; measure per-domain
/// revive latency and jitter spread. Returns the revive p99 in µs.
fn revive_rung(storm: usize, csv: &mut String) -> u64 {
    let endpoint = unique("f11");
    let qemu = SimHost::builder(format!("{endpoint}-qemu"))
        .cpus(64)
        .cpu_overcommit(16)
        .memory_mib(64 * 1024)
        .personality(QemuLike)
        .latency(LatencyModel::zero())
        .build();
    let daemon = Virtd::builder(&endpoint)
        .host(qemu)
        .config(VirtdConfig::new().guard_backoff(FAST_BACKOFF))
        .build()
        .expect("daemon");
    daemon
        .register_memory_endpoint(&endpoint)
        .expect("endpoint");
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .expect("conn");

    let names: Vec<String> = (0..storm).map(|i| format!("vm-{i}")).collect();
    for name in &names {
        let domain = conn
            .define_domain(&DomainConfig::new(name, 64, 1))
            .expect("define");
        domain.start().expect("start");
        domain
            .guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
            .expect("guard");
    }

    for name in &names {
        conn.domain_lookup_by_name(name)
            .expect("lookup")
            .crash()
            .expect("crash");
    }
    let crashed_at = Instant::now();

    // Poll every not-yet-revived domain; record the instant each one is
    // seen running again. Polling granularity (~a few ms per sweep)
    // bounds the measurement error, fine for a ladder whose rungs are
    // tens of milliseconds.
    let mut pending: Vec<&String> = names.iter().collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(storm);
    let deadline = crashed_at + Duration::from_secs(60);
    while !pending.is_empty() {
        assert!(
            Instant::now() < deadline,
            "storm of {storm} did not converge: {} still down",
            pending.len()
        );
        pending.retain(|name| {
            let running = conn
                .domain_lookup_by_name(name)
                .map(|d| d.state().unwrap_or(DomainState::Crashed) == DomainState::Running)
                .unwrap_or(false);
            if running {
                latencies.push(crashed_at.elapsed().as_micros() as u64);
            }
            !running
        });
        std::thread::sleep(Duration::from_millis(1));
    }
    let converged = crashed_at.elapsed();

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.5);
    let p99 = percentile(&latencies, 0.99);
    let revived = counter(&daemon, "guard.revived");
    let distinct: HashSet<Duration> = names
        .iter()
        .map(|name| FAST_BACKOFF.delay(1, BackoffSchedule::seed_for(name)))
        .collect();

    println!(
        "{:>6} {:>10.0} {:>10} {:>10} {:>9} {:>8}",
        storm,
        converged.as_secs_f64() * 1_000.0,
        p50,
        p99,
        revived,
        distinct.len()
    );
    csv.push_str(&format!(
        "revive,{storm},{:.0},{p50},{p99},{revived},{}\n",
        converged.as_secs_f64() * 1_000.0,
        distinct.len()
    ));

    assert!(revived >= storm as u64, "guard.revived={revived} < {storm}");
    assert_eq!(counter(&daemon, "guard.gave_up"), 0);
    assert!(
        distinct.len() >= storm / 2,
        "jitter spread too narrow: {} distinct delays over {storm} names",
        distinct.len()
    );

    conn.close();
    daemon.shutdown();
    p99
}

/// Part 2: `loopers` guests that crash on every start, guarded with a
/// bounded ladder, plus a healthy-tenant probe. Returns `(gave_up,
/// base_p99_us, loop_p99_us)`.
fn containment(loopers: usize, csv: &mut String) -> (u64, u64, u64) {
    let endpoint = unique("f11-loop");
    let faulty = SimHost::builder(format!("{endpoint}-qemu"))
        .personality(QemuLike)
        .latency(LatencyModel::zero())
        .faults(FaultPlan::new().always(OpKind::Start, FaultAction::CrashAfter))
        .build();
    let healthy = SimHost::builder(format!("{endpoint}-xen"))
        .personality(XenLike)
        .latency(LatencyModel::zero())
        .build();
    let daemon = Virtd::builder(&endpoint)
        .host(faulty)
        .host(healthy)
        .config(VirtdConfig::new().guard_backoff(FAST_BACKOFF))
        .build()
        .expect("daemon");
    daemon
        .register_memory_endpoint(&endpoint)
        .expect("endpoint");

    let xen = Connect::builder(format!("xen+memory://{endpoint}/system"))
        .open()
        .expect("xen conn");
    for i in 0..32 {
        xen.define_domain(&DomainConfig::new(format!("bystander-{i}"), 64, 1))
            .expect("define");
    }
    let probe = |deadline: Instant| -> Vec<u64> {
        let mut samples = Vec::with_capacity(1 << 12);
        let mut i = 0u64;
        while Instant::now() < deadline {
            let t = Instant::now();
            xen.domain_lookup_by_name(&format!("bystander-{}", i % 32))
                .expect("lookup");
            samples.push(t.elapsed().as_micros() as u64);
            i += 1;
        }
        samples
    };
    let mut baseline = probe(Instant::now() + Duration::from_millis(200));
    baseline.sort_unstable();
    let base_p99 = percentile(&baseline, 0.99);

    // Release the pack: every start "succeeds" and immediately crashes,
    // so each guard climbs its full ladder and gives up at the cap.
    let qemu = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .expect("qemu conn");
    for i in 0..loopers {
        let looper = qemu
            .define_domain(&DomainConfig::new(format!("looper-{i}"), 64, 1))
            .expect("define");
        looper
            .guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
            .expect("guard");
        looper.start().expect("start");
    }

    // Probe the healthy tenant while the loops climb.
    let started = Instant::now();
    let mut loop_samples = Vec::new();
    let deadline = started + Duration::from_secs(60);
    while counter(&daemon, "guard.gave_up") < loopers as u64 {
        assert!(
            Instant::now() < deadline,
            "crash-loopers never gave up: {}/{loopers}",
            counter(&daemon, "guard.gave_up")
        );
        loop_samples.extend(probe(Instant::now() + Duration::from_millis(20)));
    }
    let contained = started.elapsed();
    loop_samples.sort_unstable();
    let loop_p99 = percentile(&loop_samples, 0.99);
    let gave_up = counter(&daemon, "guard.gave_up");

    println!("\nF11b: crash-loop containment ({loopers} loopers, max_restarts 5, 5..40 ms ladder)");
    println!(
        "  all gave up in {:.2} s   guard.gave_up {gave_up}   guard.revived {} (must be 0)",
        contained.as_secs_f64(),
        counter(&daemon, "guard.revived")
    );
    println!(
        "  healthy tenant p99: {base_p99} us before, {loop_p99} us during ({} samples)",
        loop_samples.len()
    );
    csv.push_str(&format!(
        "containment,{loopers},{gave_up},{:.0},{base_p99},{loop_p99},\n",
        contained.as_secs_f64() * 1_000.0
    ));

    assert_eq!(gave_up, loopers as u64, "every looper must hit the cap");
    assert_eq!(counter(&daemon, "guard.revived"), 0);

    qemu.close();
    xen.close();
    daemon.shutdown();
    (gave_up, base_p99, loop_p99)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut csv = String::from("part,a,b,c,d,e,f\n");

    println!("F11: guard revive ladder (keep-running, 5..40 ms backoff, crash storms)");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "storm", "total ms", "p50 us", "p99 us", "revived", "spread"
    );
    println!("{}", "-".repeat(60));

    let mut last_p99 = 0;
    if smoke {
        last_p99 = revive_rung(25, &mut csv);
    } else {
        for storm in RUNGS {
            last_p99 = revive_rung(storm, &mut csv);
        }
    }

    let (_, base_p99, loop_p99) = containment(if smoke { 8 } else { LOOPERS }, &mut csv);

    if smoke {
        assert!(
            last_p99 < 5_000_000,
            "smoke: revive p99 {last_p99} us over 5 s budget"
        );
        assert!(
            loop_p99 <= base_p99.saturating_mul(10).max(2_000),
            "smoke: healthy tenant p99 not flat: {base_p99} -> {loop_p99} us"
        );
        println!("\nF11 smoke OK (revive p99 {last_p99} us, healthy-tenant p99 {loop_p99} us)");
        return;
    }

    let csv_path = "target/expt_f11_guard.csv";
    let _ = std::fs::write(csv_path, &csv);
    println!("\nCSV written to {csv_path}");
    println!("shape check: revive p99 grows sub-linearly with storm size (jitter spreads the herd); crash-loopers all give up at the cap with zero revives and a flat healthy-tenant p99.");
}
