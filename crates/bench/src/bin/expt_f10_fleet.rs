//! **F10 — Fleet layer: placement at scale and a cross-host migration
//! storm.**
//!
//! PR 8 added the `virt-fleet` federation layer: N `virtd` members
//! behind one `FleetManager` with capacity-aware placement and
//! orchestrated cross-host live migration. This experiment measures the
//! two axes that layer is for:
//!
//! 1. *Placement ladder.* A hosts×domains sweep (up to 16 members,
//!    10 000 domains fleet-wide) creating every domain through
//!    `FleetManager::create` under the spread policy, with 8 concurrent
//!    creator threads. At each rung: placement p50/p99 (from
//!    `fleet.placement.latency_us`, so dirty-host refreshes are
//!    included), creates/s, admission rejections (must be 0), and the
//!    final active-domain imbalance across members (spread must keep
//!    max−min small).
//!
//! 2. *Migration storm.* 24 concurrent cross-host live migrations from
//!    a member whose transfer takes real wall time (~25 ms per 256 MiB
//!    slice), while an *unrelated* third member serves a lookup probe.
//!    Every migration must succeed, every migrated guest must be
//!    running exactly once fleet-wide (checked live, not from cache),
//!    and the unrelated member's p99 must stay flat relative to its
//!    pre-storm baseline.
//!
//! Run: `cargo run --release -p virt-bench --bin expt_f10_fleet`
//! Smoke: `... --bin expt_f10_fleet -- --smoke` (small rung + storm,
//! asserting placement p99 and zero failed migrations; used by ci.sh).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypersim::latency::{OpCost, OpKind};
use hypersim::personality::QemuLike;
use hypersim::{LatencyModel, SimHost};
use virt_bench::{percentile, unique};
use virt_core::driver::MigrationOptions;
use virt_core::metrics::MetricValue;
use virt_core::xmlfmt::DomainConfig;
use virt_core::Connect;
use virt_fleet::{FleetManager, PlacementRequest};
use virtd::Virtd;

/// `(members, domains)` rungs for the placement ladder.
const RUNGS: [(usize, usize); 3] = [(4, 1_000), (8, 4_000), (16, 10_000)];
const CREATORS: usize = 8;
const STORM: usize = 24;
const STORM_MIB: u64 = 256;
const DOMAIN_MIB: u64 = 48;

/// One quiet in-process member with `memory_gib` of capacity.
fn member(tag: &str, memory_gib: u64) -> (Virtd, String) {
    let endpoint = unique(tag);
    let qemu = SimHost::builder(format!("{endpoint}-qemu"))
        .cpus(64)
        // 10k domains over 16 members is 625 vcpus per host; the
        // default 8x overcommit ledger (512) would refuse the tail.
        .cpu_overcommit(16)
        .memory_mib(memory_gib * 1024)
        .personality(QemuLike)
        .latency(LatencyModel::zero())
        .build();
    let daemon = Virtd::builder(&endpoint)
        .host(qemu)
        .build()
        .expect("daemon");
    daemon
        .register_memory_endpoint(&endpoint)
        .expect("endpoint");
    (daemon, format!("qemu+memory://{endpoint}/system"))
}

/// A member whose migration transfer runs at ~25 ms of wall time per
/// 256 MiB slice — the storm's source, so 24 migrations genuinely
/// overlap.
fn slow_member(tag: &str) -> (Virtd, String) {
    let endpoint = unique(tag);
    let qemu = SimHost::builder(format!("{endpoint}-qemu"))
        .cpus(64)
        .memory_mib(64 * 1024)
        .personality(QemuLike)
        .latency(LatencyModel::zero().set(OpKind::MigratePage, OpCost::scaled(0, 100_000)))
        .wall_time_scale(1.0)
        .build();
    let daemon = Virtd::builder(&endpoint)
        .host(qemu)
        .build()
        .expect("daemon");
    daemon
        .register_memory_endpoint(&endpoint)
        .expect("endpoint");
    (daemon, format!("qemu+memory://{endpoint}/system"))
}

fn counter(fleet: &FleetManager, name: &str) -> u64 {
    match fleet
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

fn histogram(fleet: &FleetManager, name: &str) -> (f64, f64) {
    match fleet
        .metrics()
        .snapshot(name)
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
    {
        Some(MetricValue::Histogram(h)) => (h.p50_us().unwrap_or(0.0), h.p99_us().unwrap_or(0.0)),
        other => panic!("{name}: {other:?}"),
    }
}

/// Part 1: create `domains` guests through fleet placement over
/// `members` hosts. Returns the placement p99 in µs.
fn placement_rung(members: usize, domains: usize, csv: &mut String) -> f64 {
    let fleet_members: Vec<(Virtd, String)> = (0..members).map(|_| member("f10", 64)).collect();
    let mut builder = FleetManager::builder();
    for (i, (_, uri)) in fleet_members.iter().enumerate() {
        builder = builder.host(format!("m{i}"), uri.clone());
    }
    let fleet = Arc::new(builder.build().expect("fleet"));
    fleet.refresh();

    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CREATORS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= domains {
                    break;
                }
                fleet
                    .create(&PlacementRequest::new(format!("vm-{i}"), DOMAIN_MIB, 1))
                    .expect("create");
            });
        }
    });
    let elapsed = started.elapsed();

    fleet.refresh();
    let hosts = fleet.hosts();
    let placed: usize = hosts.iter().map(|h| h.active).sum();
    let max = hosts.iter().map(|h| h.active).max().unwrap_or(0);
    let min = hosts.iter().map(|h| h.active).min().unwrap_or(0);
    let rejected = counter(&fleet, "fleet.placement.rejected");
    let (p50, p99) = histogram(&fleet, "fleet.placement.latency_us");
    let rate = domains as f64 / elapsed.as_secs_f64();

    println!(
        "{:>6} {:>8} {:>10.0} {:>10.0} {:>10.0} {:>9} {:>9}",
        members,
        domains,
        rate,
        p50,
        p99,
        max - min,
        rejected
    );
    csv.push_str(&format!(
        "placement,{members},{domains},{rate:.0},{p50:.0},{p99:.0},{},{rejected}\n",
        max - min
    ));

    assert_eq!(placed, domains, "every domain must be running");
    assert_eq!(rejected, 0, "no admission rejections below capacity");
    assert!(
        max - min <= members,
        "spread placement too unbalanced: max {max} min {min}"
    );

    for (daemon, _) in &fleet_members {
        daemon.shutdown();
    }
    p99
}

/// Part 2: `storm` concurrent live migrations off a slow-transfer
/// source, with an unrelated member probed throughout. Returns the
/// number of failed migrations (asserted 0 in smoke mode).
fn migration_storm(storm: usize, csv: &mut String) -> u64 {
    let (src_daemon, src_uri) = slow_member("f10-src");
    let (dst_daemon, dst_uri) = member("f10-dst", 64);
    let (probe_daemon, probe_uri) = member("f10-probe", 64);

    let fleet = Arc::new(
        FleetManager::builder()
            .host("src", src_uri.clone())
            .host("dst", dst_uri)
            .host("probe", probe_uri.clone())
            .build()
            .expect("fleet"),
    );

    // Seed the storm guests on the source and the probe's targets on
    // the unrelated member.
    let conn = Connect::builder(&src_uri).open().expect("src");
    for i in 0..storm {
        conn.define_domain(&DomainConfig::new(format!("storm-{i}"), STORM_MIB, 1))
            .expect("define")
            .start()
            .expect("start");
    }
    conn.close();
    let conn = Connect::builder(&probe_uri).open().expect("probe");
    for i in 0..32 {
        conn.define_domain(&DomainConfig::new(format!("bystander-{i}"), 64, 1))
            .expect("define");
    }
    conn.close();
    fleet.refresh();

    // Lookup probe against the unrelated member: returns latency
    // samples collected until `deadline`.
    let probe = |deadline: Instant| -> Vec<u64> {
        let conn = Connect::builder(&probe_uri).open().expect("probe");
        let mut samples = Vec::with_capacity(1 << 14);
        let mut i = 0u64;
        while Instant::now() < deadline {
            let t = Instant::now();
            conn.domain_lookup_by_name(&format!("bystander-{}", i % 32))
                .expect("lookup");
            samples.push(t.elapsed().as_micros() as u64);
            i += 1;
        }
        conn.close();
        samples
    };

    let mut baseline = probe(Instant::now() + Duration::from_millis(300));
    baseline.sort_unstable();
    let base_p99 = percentile(&baseline, 0.99);

    // Fire every migration on its own thread; the probe runs alongside
    // until the storm drains.
    let failed = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let mut storm_samples = std::thread::scope(|scope| {
        for i in 0..storm {
            let fleet = fleet.clone();
            let (failed, done) = (&failed, &done);
            scope.spawn(move || {
                let outcome = fleet.migrate(
                    "src",
                    &format!("storm-{i}"),
                    "dst",
                    &MigrationOptions::default(),
                );
                if outcome.is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        let done = &done;
        let sampler = scope.spawn(|| {
            let mut all = Vec::new();
            // Sample in short slices so the probe stops soon after the
            // last migration lands.
            while Instant::now() < started + Duration::from_secs(60) {
                all.extend(probe(Instant::now() + Duration::from_millis(50)));
                if done.load(Ordering::Relaxed) >= storm {
                    break;
                }
            }
            all
        });
        sampler.join().expect("sampler")
    });
    let storm_elapsed = started.elapsed();
    storm_samples.sort_unstable();
    let storm_p99 = percentile(&storm_samples, 0.99);

    // The counter and the per-thread flag see the same failures; take
    // the max rather than summing them twice.
    let failed_total =
        counter(&fleet, "fleet.migration.failed").max(failed.load(Ordering::Relaxed) as u64);
    let completed = counter(&fleet, "fleet.migration.completed");
    let (mig_p50, mig_p99) = histogram(&fleet, "fleet.migration.latency_us");

    // Exactly-once, checked live against every member.
    let mut multi = 0;
    let mut missing = 0;
    for i in 0..storm {
        let owners = fleet.residency(&format!("storm-{i}"));
        match owners.len() {
            1 => {}
            0 => missing += 1,
            _ => multi += 1,
        }
    }

    println!(
        "\nF10b: migration storm ({storm} concurrent, {STORM_MIB} MiB each, slow source transfer)"
    );
    println!(
        "  completed {completed}/{storm} in {:.2} s   failed {failed_total}   migration p50 {mig_p50:.0} us  p99 {mig_p99:.0} us",
        storm_elapsed.as_secs_f64()
    );
    println!(
        "  unrelated member p99: {base_p99} us before, {storm_p99} us during ({} samples)",
        storm_samples.len()
    );
    println!("  residency: {multi} multi-owner, {missing} missing (must both be 0)");
    csv.push_str(&format!(
        "storm,{storm},{completed},{failed_total},{mig_p50:.0},{mig_p99:.0},{base_p99},{storm_p99}\n"
    ));

    assert_eq!(completed as usize, storm, "every migration must complete");
    assert_eq!(multi, 0, "a guest ran on more than one member");
    assert_eq!(missing, 0, "a guest vanished during the storm");
    // Flatness: generous bound — the unrelated member shares nothing
    // with the storm but the client process, so its p99 must not blow
    // up by an order of magnitude.
    assert!(
        storm_p99 <= base_p99.saturating_mul(10).max(2_000),
        "unrelated member p99 not flat: {base_p99} -> {storm_p99} us"
    );

    src_daemon.shutdown();
    dst_daemon.shutdown();
    probe_daemon.shutdown();
    failed_total
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut csv = String::from("part,a,b,c,d,e,f,g\n");

    println!("F10: fleet placement ladder (spread policy, {CREATORS} creator threads)");
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "hosts", "domains", "creates/s", "p50 us", "p99 us", "imbal", "rejects"
    );
    println!("{}", "-".repeat(68));

    let mut last_p99 = 0.0;
    if smoke {
        last_p99 = placement_rung(3, 150, &mut csv);
    } else {
        for (members, domains) in RUNGS {
            last_p99 = placement_rung(members, domains, &mut csv);
        }
    }

    let failed = migration_storm(if smoke { 20 } else { STORM }, &mut csv);

    if smoke {
        assert!(
            last_p99 < 50_000.0,
            "smoke: placement p99 {last_p99:.0} us over 50 ms budget"
        );
        assert_eq!(failed, 0, "smoke: migrations failed");
        println!("\nF10 smoke OK (placement p99 {last_p99:.0} us, 0 failed migrations)");
        return;
    }

    let csv_path = "target/expt_f10_fleet.csv";
    let _ = std::fs::write(csv_path, &csv);
    println!("\nCSV written to {csv_path}");
    println!("shape check: placement p99 grows with per-member inventory size but stays in the low ms; imbalance bounded; storm completes with zero failures, single residency, and a flat unrelated-member p99.");
}
