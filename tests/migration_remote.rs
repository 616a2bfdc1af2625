//! Live migration across two daemons, driven entirely over the remote
//! protocol — the full distributed path: client ↔ virtd(src) and
//! client ↔ virtd(dst), five phases, with rollback checks.

use std::sync::atomic::{AtomicU64, Ordering};

use hypersim::SimClock;
use virt_core::driver::MigrationOptions;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, DomainState, ErrorCode};
use virtd::Virtd;

fn unique(name: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    format!(
        "{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

fn two_daemons() -> (Virtd, Virtd, Connect, Connect) {
    let clock = SimClock::new();
    let a = unique("mig-a");
    let b = unique("mig-b");
    let src = Virtd::builder(&a)
        .clock(clock.clone())
        .with_quiet_hosts()
        .build()
        .unwrap();
    src.register_memory_endpoint(&a).unwrap();
    let dst = Virtd::builder(&b)
        .clock(clock)
        .with_quiet_hosts()
        .build()
        .unwrap();
    dst.register_memory_endpoint(&b).unwrap();
    let src_conn = Connect::builder(format!("qemu+memory://{a}/system"))
        .open()
        .unwrap();
    let dst_conn = Connect::builder(format!("qemu+memory://{b}/system"))
        .open()
        .unwrap();
    (src, dst, src_conn, dst_conn)
}

#[test]
fn migration_between_daemons_over_rpc() {
    let (src_d, dst_d, src, dst) = two_daemons();
    let domain = src
        .define_domain(&DomainConfig::new("traveler", 1024, 2))
        .unwrap();
    domain.start().unwrap();

    let report = domain
        .migrate_to(&dst, &MigrationOptions::default())
        .unwrap();
    assert!(report.converged);
    assert!(report.transferred_mib >= 1024);
    assert!(report.downtime_ms <= 300);

    assert!(src.list_domain_names().unwrap().is_empty());
    let moved = dst.domain_lookup_by_name("traveler").unwrap();
    assert_eq!(moved.state().unwrap(), DomainState::Running);
    assert_eq!(moved.info().unwrap().vcpus, 2);

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

#[test]
fn migration_preserves_device_configuration() {
    let (src_d, dst_d, src, dst) = two_daemons();
    let mut config = DomainConfig::new("rich", 512, 1);
    config.disks.push(virt_core::xmlfmt::DiskConfig {
        target: "vda".into(),
        source: "/imgs/rich.img".into(),
        capacity_mib: 4096,
        bus: "virtio".into(),
    });
    config.interfaces.push(virt_core::xmlfmt::InterfaceConfig {
        mac: "52:54:00:09:08:07".into(),
        network: "default".into(),
        model: "virtio".into(),
    });
    let domain = src.define_domain(&config).unwrap();
    domain.start().unwrap();
    domain
        .migrate_to(&dst, &MigrationOptions::default())
        .unwrap();

    let xml = dst
        .domain_lookup_by_name("rich")
        .unwrap()
        .xml_desc()
        .unwrap();
    let parsed = DomainConfig::from_xml_str(&xml).unwrap();
    assert_eq!(parsed.disks.len(), 1);
    assert_eq!(parsed.disks[0].target, "vda");
    assert_eq!(parsed.interfaces[0].mac, "52:54:00:09:08:07");

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

#[test]
fn failed_prepare_leaves_source_untouched_across_rpc() {
    let (src_d, dst_d, src, dst) = two_daemons();
    // Occupy the destination with a same-named domain.
    dst.define_domain(&DomainConfig::new("clash", 128, 1))
        .unwrap();

    let domain = src
        .define_domain(&DomainConfig::new("clash", 128, 1))
        .unwrap();
    domain.start().unwrap();
    let err = domain
        .migrate_to(&dst, &MigrationOptions::default())
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::DomainExists);
    assert_eq!(domain.state().unwrap(), DomainState::Running);

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

#[test]
fn migrating_to_an_overcommitted_daemon_fails_with_capacity_error() {
    let (src_d, dst_d, src, dst) = two_daemons();
    // Fill the destination's memory with active guests.
    for i in 0..3 {
        let d = dst
            .define_domain(&DomainConfig::new(format!("filler-{i}"), 5000, 1))
            .unwrap();
        d.start().unwrap();
    }
    let domain = src
        .define_domain(&DomainConfig::new("vm", 4096, 1))
        .unwrap();
    domain.start().unwrap();
    let err = domain
        .migrate_to(&dst, &MigrationOptions::default())
        .unwrap_err();
    assert_eq!(err.code(), ErrorCode::InsufficientResources);
    assert_eq!(domain.state().unwrap(), DomainState::Running);

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

#[test]
fn round_trip_migration_returns_home() {
    let (src_d, dst_d, src, dst) = two_daemons();
    let domain = src
        .define_domain(&DomainConfig::new("boomerang", 256, 1))
        .unwrap();
    domain.start().unwrap();

    domain
        .migrate_to(&dst, &MigrationOptions::default())
        .unwrap();
    let away = dst.domain_lookup_by_name("boomerang").unwrap();
    away.migrate_to(&src, &MigrationOptions::default()).unwrap();

    let home = src.domain_lookup_by_name("boomerang").unwrap();
    assert_eq!(home.state().unwrap(), DomainState::Running);
    assert!(dst.list_domain_names().unwrap().is_empty());

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

#[test]
fn bandwidth_shapes_total_time() {
    let (src_d, dst_d, src, dst) = two_daemons();
    let fast_domain = src
        .define_domain(&DomainConfig::new("fast", 2048, 1))
        .unwrap();
    fast_domain.start().unwrap();
    let fast = fast_domain
        .migrate_to(
            &dst,
            &MigrationOptions {
                bandwidth_mib_s: 4000,
                ..MigrationOptions::default()
            },
        )
        .unwrap();

    let slow_domain = src
        .define_domain(&DomainConfig::new("slow", 2048, 1))
        .unwrap();
    slow_domain.start().unwrap();
    let slow = slow_domain
        .migrate_to(
            &dst,
            &MigrationOptions {
                bandwidth_mib_s: 500,
                ..MigrationOptions::default()
            },
        )
        .unwrap();

    assert!(
        slow.total_ms > fast.total_ms * 4,
        "slow {} ms vs fast {} ms",
        slow.total_ms,
        fast.total_ms
    );

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

/// F4 (EXPERIMENTS.md) on the virtual clock: the pre-copy shape over the
/// full five-phase path at the default 1024 MiB/s link and 300 ms
/// downtime budget. Each row pins the report this tree produces: total
/// ms, downtime ms, pre-copy iterations, converged.
#[test]
fn precopy_total_grows_with_memory_and_stops_converging_past_the_link() {
    let options = MigrationOptions::default();
    let migrate = |memory_mib: u64, dirty_mib_s: u64| {
        let (src_d, dst_d, src, dst) = two_daemons();
        let mut config = DomainConfig::new("sweep", memory_mib, 2);
        config.dirty_rate_mib_s = dirty_mib_s;
        let domain = src.define_domain(&config).unwrap();
        domain.start().unwrap();
        let report = domain.migrate_to(&dst, &options).unwrap();
        src.close();
        dst.close();
        src_d.shutdown();
        dst_d.shutdown();
        (
            report.total_ms,
            report.downtime_ms,
            report.iterations,
            report.converged,
        )
    };

    // Memory sweep at 100 MiB/s dirty: total rises with memory, and
    // every row converges within the budget.
    let mut last_total = 0;
    for (memory_mib, pinned) in [
        (256, (250, 250, 0, true)),
        (2048, (2195, 195, 1, true)),
        (8192, (8857, 76, 2, true)),
    ] {
        let row = migrate(memory_mib, 100);
        assert_eq!(row, pinned, "{memory_mib} MiB guest");
        let (total, downtime, _, converged) = row;
        assert!(total > last_total && converged && downtime <= options.max_downtime_ms);
        last_total = total;
    }

    // Dirty sweep on a 4096 MiB guest: iterations rise with the dirty
    // rate; past the link's 1024 MiB/s pre-copy hits the iteration cap
    // without converging and the forced stop-and-copy blows the budget.
    let mut last_iterations = 0;
    for (dirty_mib_s, pinned) in [
        (0, (4000, 0, 1, true)),
        (600, (9269, 276, 5, true)),
        (1500, (124_000, 4000, 30, false)),
    ] {
        let row = migrate(4096, dirty_mib_s);
        assert_eq!(row, pinned, "dirty {dirty_mib_s} MiB/s");
        let (_, downtime, iterations, converged) = row;
        assert!(iterations > last_iterations);
        assert_eq!(converged, downtime <= options.max_downtime_ms);
        last_iterations = iterations;
    }
}

#[test]
fn migration_preserves_domain_uuid() {
    let (src_d, dst_d, src, dst) = two_daemons();
    let domain = src
        .define_domain(&DomainConfig::new("identity", 256, 1))
        .unwrap();
    domain.start().unwrap();
    let original_uuid = domain.uuid();

    domain
        .migrate_to(&dst, &MigrationOptions::default())
        .unwrap();
    let moved = dst.domain_lookup_by_name("identity").unwrap();
    assert_eq!(
        moved.uuid(),
        original_uuid,
        "identity must survive migration"
    );
    // And it is findable by UUID on the destination.
    assert_eq!(
        dst.domain_lookup_by_uuid(original_uuid).unwrap().name(),
        "identity"
    );

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}
