//! Domain-job engine end-to-end: cancellable migrations with live
//! progress, polled and aborted over the remote protocol while the
//! transfer is genuinely in flight; recovery of orphaned jobs across a
//! daemon restart; abort riding the priority workers when every normal
//! worker is pinned; and the bulk-stats call doing its work in a single
//! round trip.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hypersim::latency::OpCost;
use hypersim::personality::QemuLike;
use hypersim::{LatencyModel, OpKind, SimClock, SimHost};
use virt_core::driver::{DomainStatsRecord, MigrationOptions};
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, DomainState, ErrorCode, JobKind, JobState};
use virt_rpc::PoolLimits;
use virtd::{AdminClient, Virtd, VirtdConfig};

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
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// A qemu host whose migration transfer is the *only* slow operation:
/// 0.1 ms of virtual time per MiB moved, scaled 1:1 into wall time. A
/// 256 MiB migration slice then occupies its daemon worker for ~25 ms
/// of real time, so other threads can observe, race and abort the job
/// mid-flight — while defines, starts and queries stay instant.
fn slow_migration_host(name: &str, clock: SimClock) -> SimHost {
    SimHost::builder(name)
        .personality(QemuLike)
        .clock(clock)
        .latency(LatencyModel::zero().set(OpKind::MigratePage, OpCost::scaled(0, 100_000)))
        .wall_time_scale(1.0)
        .build()
}

/// Two daemons sharing a clock: a source whose qemu host migrates
/// slowly (see [`slow_migration_host`]) and a quiet destination.
/// Returns the daemons plus the two client URIs.
fn slow_pair(tag: &str, config: Option<VirtdConfig>) -> (Virtd, Virtd, String, String) {
    let clock = SimClock::new();
    let a = unique(&format!("{tag}-src"));
    let b = unique(&format!("{tag}-dst"));
    let mut builder = Virtd::builder(&a)
        .clock(clock.clone())
        .host(slow_migration_host(&format!("{a}-qemu"), clock.clone()));
    if let Some(config) = config {
        builder = builder.config(config);
    }
    let src_d = builder.build().unwrap();
    src_d.register_memory_endpoint(&a).unwrap();
    let dst_d = Virtd::builder(&b)
        .clock(clock)
        .with_quiet_hosts()
        .build()
        .unwrap();
    dst_d.register_memory_endpoint(&b).unwrap();
    (
        src_d,
        dst_d,
        format!("qemu+memory://{a}/system"),
        format!("qemu+memory://{b}/system"),
    )
}

// ---------------------------------------------------------------------
// Progress: a migration job reports monotonically increasing progress
// while in flight, observable over the same connection that carries the
// blocking MIGRATE_PERFORM (stats calls multiplex by serial and ride
// the priority workers).
// ---------------------------------------------------------------------

#[test]
fn migration_job_reports_monotonic_progress() {
    let (src_d, dst_d, src_uri, dst_uri) = slow_pair("progress", None);
    let src = Connect::builder(&src_uri).open().unwrap();
    let dst = Connect::builder(&dst_uri).open().unwrap();

    let domain = src
        .define_domain(&DomainConfig::new("wanderer", 2048, 2))
        .unwrap();
    domain.start().unwrap();

    let handle = domain
        .migrate_start(&dst, &MigrationOptions::default())
        .unwrap();

    let mut samples: Vec<u64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "migration never finished");
        let stats = handle.stats().unwrap();
        if stats.state == JobState::Running {
            assert_eq!(stats.kind, JobKind::Migration);
            if stats.data_processed_mib > 0 {
                assert!(stats.data_total_mib >= 2048, "total covers guest memory");
                if let Some(&prev) = samples.last() {
                    assert!(
                        stats.data_processed_mib >= prev,
                        "progress went backwards: {} after {prev}",
                        stats.data_processed_mib
                    );
                }
                if samples.last() != Some(&stats.data_processed_mib) {
                    samples.push(stats.data_processed_mib);
                }
            }
        }
        if matches!(
            stats.state,
            JobState::Completed | JobState::Failed | JobState::Aborted
        ) {
            break;
        }
        std::thread::sleep(Duration::from_millis(3));
    }
    assert!(
        samples.len() >= 3,
        "want >= 3 distinct increasing progress samples, got {samples:?}"
    );

    let report = handle.wait().unwrap();
    assert!(report.converged);
    assert!(report.transferred_mib >= 2048);

    assert!(src.list_domain_names().unwrap().is_empty());
    let moved = dst.domain_lookup_by_name("wanderer").unwrap();
    assert_eq!(moved.state().unwrap(), DomainState::Running);

    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

// ---------------------------------------------------------------------
// Abort: cancelling mid-migration leaves the guest running on the
// source and nothing on the destination; a second modify job is
// rejected as busy while the migration holds the domain's job slot.
// The abort costs at most the slice in flight plus one that may finish
// between the last progress read and the request — flat in guest size
// (F6a in EXPERIMENTS.md).
// ---------------------------------------------------------------------

#[test]
fn abort_mid_migration_leaves_source_running_and_destination_clean() {
    for memory_mib in [1024, 8192] {
        let (src_d, dst_d, src_uri, dst_uri) = slow_pair("abort", None);
        let src = Connect::builder(&src_uri).open().unwrap();
        let dst = Connect::builder(&dst_uri).open().unwrap();

        let domain = src
            .define_domain(&DomainConfig::new("fugitive", memory_mib, 1))
            .unwrap();
        domain.start().unwrap();

        let handle = domain
            .migrate_start(&dst, &MigrationOptions::default())
            .unwrap();
        wait_for(
            || {
                let stats = handle.stats().unwrap();
                stats.state == JobState::Running && stats.data_processed_mib > 0
            },
            "migration to show progress",
        );

        // One modify job per domain: a save against the migrating domain
        // is turned away as busy without touching the guest.
        let busy = domain.managed_save().unwrap_err();
        assert_eq!(busy.code(), ErrorCode::OperationInvalid);
        assert!(
            busy.message().contains("already has an active"),
            "unexpected busy error: {busy}"
        );

        let before_abort = handle.stats().unwrap().data_processed_mib;
        handle.abort().unwrap();
        let err = handle.wait().unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationAborted);
        assert!(
            err.message().contains("aborted by request"),
            "unexpected abort error: {err}"
        );

        // Exactly one side owns the guest: the source, still running.
        assert_eq!(domain.state().unwrap(), DomainState::Running);
        assert_eq!(src.list_domain_names().unwrap(), vec!["fugitive"]);
        assert!(dst.list_domain_names().unwrap().is_empty());

        let stats = domain.job_stats().unwrap();
        assert_eq!(stats.kind, JobKind::Migration);
        assert_eq!(stats.state, JobState::Aborted);
        let after_abort = stats.data_processed_mib - before_abort;
        assert!(
            after_abort <= 512,
            "{memory_mib} MiB guest moved {after_abort} MiB after the abort request"
        );

        src.close();
        dst.close();
        src_d.shutdown();
        dst_d.shutdown();
    }
}

// ---------------------------------------------------------------------
// Restart: a daemon that comes back around the same hypervisor marks
// the orphaned in-flight job failed, and the guest is still consistent
// (running on the source, absent from the destination).
// ---------------------------------------------------------------------

#[test]
fn daemon_restart_fails_in_flight_job_and_keeps_domain_consistent() {
    let clock = SimClock::new();
    let a = unique("restart-src");
    let b = unique("restart-dst");
    let src_host = slow_migration_host(&format!("{a}-qemu"), clock.clone());
    let src_d = Virtd::builder(&a)
        .clock(clock.clone())
        .host(src_host.clone())
        .build()
        .unwrap();
    src_d.register_memory_endpoint(&a).unwrap();
    let dst_d = Virtd::builder(&b)
        .clock(clock.clone())
        .with_quiet_hosts()
        .build()
        .unwrap();
    dst_d.register_memory_endpoint(&b).unwrap();
    let src = Connect::builder(format!("qemu+memory://{a}/system"))
        .open()
        .unwrap();
    let dst = Connect::builder(format!("qemu+memory://{b}/system"))
        .open()
        .unwrap();

    let domain = src
        .define_domain(&DomainConfig::new("stranded", 4096, 1))
        .unwrap();
    domain.start().unwrap();
    let handle = domain
        .migrate_start(&dst, &MigrationOptions::default())
        .unwrap();
    wait_for(
        || {
            let stats = handle.stats().unwrap();
            stats.state == JobState::Running && stats.data_processed_mib > 0
        },
        "migration to show progress",
    );

    // The daemon goes down under the job and a replacement comes up
    // around the same hypervisor state — the libvirtd restart-under-load
    // scenario. A graceful in-process shutdown would wait for the wedged
    // worker, so run it in the background: it stops accepting clients
    // immediately, then blocks joining the worker, while the new daemon
    // builds and its startup recovery marks the orphan failed.
    let old = std::thread::spawn(move || src_d.shutdown());
    wait_for(
        || virt_core::testbed::lookup_daemon(&a).is_err(),
        "old daemon to release its endpoint",
    );
    let src_d2 = Virtd::builder(&a)
        .clock(clock)
        .host(src_host)
        .build()
        .unwrap();
    src_d2.register_memory_endpoint(&a).unwrap();

    // The in-flight MIGRATE_PERFORM is a mutating call: it fails rather
    // than being blindly retried against the replacement.
    handle.wait().unwrap_err();
    // Recovery also signalled the orphaned worker to stop, so the old
    // daemon's shutdown completes promptly.
    old.join().unwrap();

    let src2 = Connect::builder(format!("qemu+memory://{a}/system"))
        .open()
        .unwrap();
    let survivor = src2.domain_lookup_by_name("stranded").unwrap();
    let stats = survivor.job_stats().unwrap();
    assert_eq!(stats.kind, JobKind::Migration);
    assert_eq!(stats.state, JobState::Failed);
    assert!(
        stats.error.contains("daemon restarted"),
        "unexpected recovery error: {}",
        stats.error
    );

    // Guest consistency: still running on the source, never appeared on
    // the destination.
    assert_eq!(survivor.state().unwrap(), DomainState::Running);
    assert!(dst.list_domain_names().unwrap().is_empty());

    // The domain is not wedged: a fresh job can begin.
    survivor.managed_save().unwrap();
    assert_eq!(survivor.job_stats().unwrap().state, JobState::Completed);

    src.close();
    src2.close();
    dst.close();
    src_d2.shutdown();
    dst_d.shutdown();
}

// ---------------------------------------------------------------------
// Priority workers: with every normal worker pinned by the blocking
// perform, an independent client's abort still lands within a deadline
// because DOMAIN_ABORT_JOB rides the priority workers.
// ---------------------------------------------------------------------

#[test]
fn abort_lands_while_all_normal_workers_are_pinned() {
    let config = VirtdConfig::new().pool_limits(PoolLimits {
        min_workers: 1,
        max_workers: 1,
        priority_workers: 2,
    });
    let (src_d, dst_d, src_uri, dst_uri) = slow_pair("pinned", Some(config));
    let src = Connect::builder(&src_uri).open().unwrap();
    let dst = Connect::builder(&dst_uri).open().unwrap();

    let domain = src
        .define_domain(&DomainConfig::new("pinned", 4096, 1))
        .unwrap();
    domain.start().unwrap();

    // Independent control client; its domain handle is resolved while
    // the lone normal worker is still free.
    let control = Connect::builder(&src_uri).open().unwrap();
    let control_domain = control.domain_lookup_by_name("pinned").unwrap();

    // The perform now occupies the only normal worker for the whole
    // transfer (~25 ms of wall time per 256 MiB slice, >= 16 slices).
    let handle = domain
        .migrate_start(&dst, &MigrationOptions::default())
        .unwrap();
    wait_for(
        || {
            let stats = control_domain.job_stats().unwrap();
            stats.state == JobState::Running && stats.data_processed_mib > 0
        },
        "migration to show progress",
    );

    let started = Instant::now();
    control_domain.abort_job().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "abort took {:?} with the normal worker pinned",
        started.elapsed()
    );

    let err = handle.wait().unwrap_err();
    assert_eq!(err.code(), ErrorCode::OperationAborted);
    assert_eq!(control_domain.state().unwrap(), DomainState::Running);
    assert!(dst.list_domain_names().unwrap().is_empty());

    control.close();
    src.close();
    dst.close();
    src_d.shutdown();
    dst_d.shutdown();
}

// ---------------------------------------------------------------------
// Bulk stats: one CONNECT_GET_ALL_DOMAIN_STATS call covers the whole
// fleet — exactly one RPC round trip for 100 domains, verified against
// the daemon's own rpc.calls counter.
// ---------------------------------------------------------------------

#[test]
fn bulk_stats_for_a_hundred_domains_is_one_round_trip() {
    let endpoint = unique("bulk");
    let daemon = Virtd::builder(&endpoint)
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&endpoint).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{endpoint}/system"))
        .open()
        .unwrap();

    for i in 0..100 {
        let d = conn
            .define_domain(&DomainConfig::new(format!("fleet-{i:03}"), 64, 1))
            .unwrap();
        if i % 2 == 0 {
            d.start().unwrap();
        }
    }
    // Give one domain a job history so job.* params appear in the bulk
    // view.
    conn.domain_lookup_by_name("fleet-000")
        .unwrap()
        .managed_save()
        .unwrap();

    let admin = AdminClient::new(daemon.admin_memory_connector().connect().unwrap());
    let rpc_calls = |admin: &AdminClient| {
        let metrics = admin.metrics("rpc.calls").unwrap();
        assert_eq!(metrics.len(), 1, "rpc.calls missing: {metrics:?}");
        metrics[0].value
    };

    let before = rpc_calls(&admin);
    let records = conn.get_all_domain_stats().unwrap();
    let after = rpc_calls(&admin);
    assert_eq!(
        after - before,
        1,
        "bulk stats for the whole fleet must be exactly one RPC round trip"
    );

    assert_eq!(records.len(), 100);
    let param = |record: &DomainStatsRecord, field: &str| {
        record
            .params
            .iter()
            .find(|p| p.field == field)
            .map(|p| p.value.to_string())
    };
    for record in &records {
        assert!(
            param(record, "state.state").is_some(),
            "record for '{}' lacks state.state",
            record.name
        );
    }
    let saved = records.iter().find(|r| r.name == "fleet-000").unwrap();
    assert_eq!(param(saved, "job.kind").as_deref(), Some("save"));
    assert_eq!(param(saved, "job.state").as_deref(), Some("completed"));
    // A domain that never ran a job carries no job params.
    let idle = records.iter().find(|r| r.name == "fleet-001").unwrap();
    assert!(param(idle, "job.kind").is_none());

    admin.close();
    conn.close();
    daemon.shutdown();
}
