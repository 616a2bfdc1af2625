//! Fleet federation end-to-end over in-process daemons: inventory
//! refresh via bulk stats, event-driven cache patching, capacity-aware
//! placement with admission rejection, cross-host live migration with
//! cache movement, evacuation, health transitions across a member
//! restart, and a 20-guest concurrent migration storm off a slow-transfer
//! source with the single-residency invariant checked live.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hypersim::latency::OpCost;
use hypersim::personality::QemuLike;
use hypersim::{LatencyModel, OpKind, SimHost};
use virt_core::driver::MigrationOptions;
use virt_core::metrics::MetricValue;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, ErrorCode};
use virt_fleet::{FleetManager, Pack, PlacementRequest};
use virtd::Virtd;

fn unique(name: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    format!(
        "{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

fn wait_for(mut pred: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A quiet single-host daemon with a memory endpoint; returns it with
/// its remote URI.
fn member(tag: &str) -> (Virtd, String, String) {
    let endpoint = unique(tag);
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let uri = format!("qemu+memory://{endpoint}/system");
    (daemon, endpoint, uri)
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
        Some(MetricValue::Gauge(v)) => v,
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn refresh_builds_capacity_view_without_counting_discovery() {
    let members: Vec<_> = (0..3).map(|_| member("fed-view")).collect();
    let mut builder = FleetManager::builder();
    for (i, (_, _, uri)) in members.iter().enumerate() {
        builder = builder.host(format!("h{i}"), uri);
    }
    let fleet = builder.build().unwrap();

    for (host, result) in fleet.refresh() {
        result.unwrap_or_else(|e| panic!("refresh of {host}: {e}"));
    }
    let hosts = fleet.hosts();
    assert_eq!(hosts.len(), 3);
    for status in &hosts {
        assert!(status.up, "{status:?}");
        assert!(status.memory_mib > 0);
        assert_eq!(status.domains, 0);
    }
    assert_eq!(counter(&fleet, "fleet.hosts.up"), 3);
    // Discovery is not a health transition.
    assert_eq!(counter(&fleet, "fleet.host_up"), 0);
    assert_eq!(counter(&fleet, "fleet.host_down"), 0);

    for (daemon, _, _) in members {
        daemon.shutdown();
    }
}

#[test]
fn spread_placement_balances_and_pack_consolidates() {
    let members: Vec<_> = (0..3).map(|_| member("fed-place")).collect();
    let mut builder = FleetManager::builder();
    for (i, (_, _, uri)) in members.iter().enumerate() {
        builder = builder.host(format!("h{i}"), uri);
    }
    let fleet = builder.build().unwrap();
    fleet.refresh();

    for i in 0..12 {
        fleet
            .create(&PlacementRequest::new(format!("spread-{i}"), 64, 1))
            .unwrap();
    }
    let hosts = fleet.hosts();
    let counts: Vec<usize> = hosts.iter().map(|h| h.domains).collect();
    assert_eq!(counts.iter().sum::<usize>(), 12);
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(max - min <= 1, "spread unbalanced: {counts:?}");

    // Pack piles everything onto one host.
    fleet.set_policy(Box::new(Pack));
    let mut packed = Vec::new();
    for i in 0..4 {
        packed.push(
            fleet
                .create(&PlacementRequest::new(format!("pack-{i}"), 64, 1))
                .unwrap(),
        );
    }
    assert!(
        packed.windows(2).all(|w| w[0] == w[1]),
        "pack scattered: {packed:?}"
    );
    assert_eq!(counter(&fleet, "fleet.placement.total"), 16);

    for (daemon, _, _) in members {
        daemon.shutdown();
    }
}

#[test]
fn admission_rejection_when_no_host_fits() {
    let (daemon, _, uri) = member("fed-admit");
    let fleet = FleetManager::builder().host("only", &uri).build().unwrap();
    fleet.refresh();

    let total = fleet.hosts()[0].memory_mib;
    let err = fleet
        .create(&PlacementRequest::new("too-big", total + 1, 1))
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::InsufficientResources);
    assert_eq!(counter(&fleet, "fleet.placement.rejected"), 1);
    // Nothing was defined anywhere.
    assert!(fleet.list().is_empty());

    daemon.shutdown();
}

#[test]
fn cross_host_migration_moves_domain_and_cache() {
    let (da, _, ua) = member("fed-mig");
    let (db, _, ub) = member("fed-mig");
    let fleet = FleetManager::builder()
        .host("a", &ua)
        .host("b", &ub)
        .build()
        .unwrap();
    fleet.refresh();

    // Pin the guest to a by creating it while b is the only other
    // choice — spread places on the emptier host, so create directly.
    let conn = Connect::builder(&ua).open().unwrap();
    let guest = conn
        .define_domain(&DomainConfig::new("traveler", 256, 2))
        .unwrap();
    guest.start().unwrap();
    conn.close();
    fleet.refresh();
    assert_eq!(fleet.locate("traveler").unwrap(), "a");

    let report = fleet
        .migrate("a", "traveler", "b", &MigrationOptions::default())
        .unwrap();
    assert!(report.converged);
    assert_eq!(fleet.residency("traveler"), vec!["b".to_string()]);
    // The cache moved with the guest — no refresh in between.
    let listed: Vec<_> = fleet
        .list()
        .into_iter()
        .filter(|(_, d)| d.name == "traveler")
        .collect();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].0, "b");
    assert_eq!(counter(&fleet, "fleet.migration.completed"), 1);
    assert_eq!(counter(&fleet, "fleet.migration.failed"), 0);

    da.shutdown();
    db.shutdown();
}

#[test]
fn evacuation_drains_running_domains() {
    let (da, _, ua) = member("fed-evac");
    let (db, _, ub) = member("fed-evac");
    let (dc, _, uc) = member("fed-evac");
    let fleet = FleetManager::builder()
        .host("a", &ua)
        .host("b", &ub)
        .host("c", &uc)
        .build()
        .unwrap();
    fleet.refresh();

    let conn = Connect::builder(&ua).open().unwrap();
    for i in 0..4 {
        let guest = conn
            .define_domain(&DomainConfig::new(format!("evac-{i}"), 128, 1))
            .unwrap();
        guest.start().unwrap();
    }
    conn.close();

    let report = fleet.evacuate("a", &MigrationOptions::default()).unwrap();
    assert_eq!(report.migrated.len(), 4, "failed: {:?}", report.failed);
    assert!(report.failed.is_empty());
    for i in 0..4 {
        let name = format!("evac-{i}");
        let residency = fleet.residency(&name);
        assert_eq!(residency.len(), 1, "{name} lives on {residency:?}");
        assert_ne!(residency[0], "a");
    }
    fleet.refresh();
    assert_eq!(fleet.hosts()[0].active, 0);

    da.shutdown();
    db.shutdown();
    dc.shutdown();
}

#[test]
fn lifecycle_events_patch_the_cache() {
    let (daemon, _, uri) = member("fed-events");
    let fleet = FleetManager::builder().host("solo", &uri).build().unwrap();
    fleet.refresh();
    assert!(fleet.list().is_empty());

    // An out-of-band client changes the host behind the fleet's back;
    // the event subscription must surface it without an explicit
    // fleet-wide refresh call.
    let conn = Connect::builder(&uri).open().unwrap();
    let guest = conn
        .define_domain(&DomainConfig::new("surprise", 64, 1))
        .unwrap();
    wait_for(
        || fleet.list().iter().any(|(_, d)| d.name == "surprise"),
        "defined domain to appear via events",
    );

    guest.start().unwrap();
    wait_for(
        || {
            fleet
                .list()
                .iter()
                .any(|(_, d)| d.name == "surprise" && d.state.is_active())
        },
        "start event to patch the cache",
    );

    guest.destroy().unwrap();
    guest.undefine().unwrap();
    wait_for(
        || fleet.list().iter().all(|(_, d)| d.name != "surprise"),
        "undefine event to drop the cache entry",
    );
    conn.close();
    daemon.shutdown();
}

#[test]
fn health_transitions_are_counted_logged_and_respected() {
    let (da, _, ua) = member("fed-health");
    let (db, endpoint_b, ub) = member("fed-health");
    let fleet = FleetManager::builder()
        .host("a", &ua)
        .host("b", &ub)
        .build()
        .unwrap();
    fleet.refresh();
    assert_eq!(counter(&fleet, "fleet.hosts.up"), 2);

    // Keep the hypervisor so the restarted daemon serves the same host.
    let qemu = db.host("qemu").unwrap().clone();
    db.shutdown();
    wait_for(
        || fleet.refresh().iter().any(|(h, r)| h == "b" && r.is_err()),
        "refresh to notice the dead member",
    );
    assert_eq!(counter(&fleet, "fleet.host_down"), 1);
    assert_eq!(counter(&fleet, "fleet.hosts.up"), 1);
    assert!(!fleet.hosts().iter().find(|h| h.name == "b").unwrap().up);
    assert!(
        fleet
            .logger()
            .journal()
            .iter()
            .any(|r| r.message.contains("event=host_down host=b")),
        "structured host_down line missing"
    );

    // Placement routes around the hole instead of failing.
    let placed = fleet
        .create(&PlacementRequest::new("survivor", 64, 1))
        .unwrap();
    assert_eq!(placed, "a");

    // Bring b back around the same hypervisor and endpoint.
    let db2 = Virtd::builder(&endpoint_b).host(qemu).build().unwrap();
    db2.register_memory_endpoint(&endpoint_b).unwrap();
    wait_for(
        || fleet.refresh().iter().all(|(_, r)| r.is_ok()),
        "refresh to reach the restarted member",
    );
    assert_eq!(counter(&fleet, "fleet.host_up"), 1);
    assert_eq!(counter(&fleet, "fleet.hosts.up"), 2);
    assert!(
        fleet
            .logger()
            .journal()
            .iter()
            .any(|r| r.message.contains("event=host_up host=b")),
        "structured host_up line missing"
    );

    da.shutdown();
    db2.shutdown();
}

/// A member whose migration transfer takes real time: 0.1 ms per MiB,
/// spent 1:1 as wall time, so a 64 MiB guest occupies a source worker
/// for ~6 ms and a storm's migrations overlap.
fn slow_member(tag: &str) -> (Virtd, String) {
    let endpoint = unique(tag);
    let qemu = SimHost::builder(format!("{endpoint}-qemu"))
        .personality(QemuLike)
        .latency(LatencyModel::zero().set(OpKind::MigratePage, OpCost::scaled(0, 100_000)))
        .wall_time_scale(1.0)
        .build();
    let daemon = Virtd::builder(&endpoint).host(qemu).build().unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    (daemon, format!("qemu+memory://{endpoint}/system"))
}

#[test]
fn concurrent_migration_storm_keeps_single_residency() {
    let (da, ua) = slow_member("fed-storm");
    let (db, _, ub) = member("fed-storm");
    let fleet = std::sync::Arc::new(
        FleetManager::builder()
            .host("a", &ua)
            .host("b", &ub)
            .build()
            .unwrap(),
    );
    fleet.refresh();

    let conn = Connect::builder(&ua).open().unwrap();
    const STORM: usize = 20;
    for i in 0..STORM {
        let guest = conn
            .define_domain(&DomainConfig::new(format!("storm-{i}"), 64, 1))
            .unwrap();
        guest.start().unwrap();
    }
    conn.close();
    fleet.refresh();

    let threads: Vec<_> = (0..STORM)
        .map(|i| {
            let fleet = fleet.clone();
            std::thread::spawn(move || {
                fleet.migrate(
                    "a",
                    &format!("storm-{i}"),
                    "b",
                    &MigrationOptions::default(),
                )
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap().unwrap();
    }

    for i in 0..STORM {
        let name = format!("storm-{i}");
        assert_eq!(
            fleet.residency(&name),
            vec!["b".to_string()],
            "residency of {name}"
        );
    }
    assert_eq!(counter(&fleet, "fleet.migration.completed"), STORM as u64);
    assert_eq!(counter(&fleet, "fleet.migration.failed"), 0);

    da.shutdown();
    db.shutdown();
}
