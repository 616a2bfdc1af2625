//! Guard (HA supervisor) chaos tests.
//!
//! Four invariants are under test:
//!
//! 1. **Storm convergence** — crashing 50 keep-running-guarded domains
//!    at once converges to 100% running with bounded latency, and the
//!    per-domain jitter seeds spread the restart delays (no thundering
//!    herd of synchronized restarts).
//! 2. **Crash-loop containment** — each of a pack of domains that crash
//!    on *every* start climbs the backoff ladder to the cap and gives up,
//!    without making the daemon's worker pool unavailable for other
//!    tenants.
//! 3. **Crash-safe guards** — guard policies survive a daemon rebuild
//!    through the state directory, and recovery immediately revives
//!    guarded domains that died with the previous daemon.
//! 4. **Fleet failover** — SIGKILLing the member that hosts a guarded
//!    domain re-places it on a survivor, and the home host's revived
//!    copy is reconciled away once it returns (single residency).

use std::collections::HashSet;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hypersim::fault::{FaultAction, FaultPlan};
use hypersim::personality::{QemuLike, XenLike};
use hypersim::{LatencyModel, OpKind, SimHost};
use virt_core::guard::GuardPolicy;
use virt_core::metrics::MetricValue;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{BackoffSchedule, Connect, DomainState, ErrorCode};
use virt_fleet::FleetManager;
use virtd::{AdminClient, Virtd, VirtdConfig};

fn unique(name: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    format!(
        "{name}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    )
}

fn daemon_counter(daemon: &Virtd, name: &str) -> u64 {
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

fn wait_for(mut pred: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn crash_storm_of_50_guarded_domains_converges_without_a_herd() {
    let name = unique("guard-storm");
    let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let uri = format!("qemu+memory://{name}/system");
    let conn = Connect::builder(&uri).open().unwrap();

    const STORM: usize = 50;
    let names: Vec<String> = (0..STORM).map(|i| format!("storm-{i}")).collect();
    for guest in &names {
        let domain = conn
            .define_domain(&DomainConfig::new(guest, 64, 1))
            .unwrap();
        domain.start().unwrap();
        domain
            .guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
            .unwrap();
    }
    assert_eq!(conn.guard_list().unwrap().len(), STORM);

    // SIGKILL-the-guest analog: every guarded domain crashes at once.
    for guest in &names {
        conn.domain_lookup_by_name(guest).unwrap().crash().unwrap();
    }

    // 100% must converge back to running, with bounded latency: the
    // first rung of the ladder is tens of milliseconds, so even 50
    // serialized restarts on quiet hosts land well under the bound.
    let started = Instant::now();
    wait_for(
        || {
            names.iter().all(|guest| {
                conn.domain_lookup_by_name(guest)
                    .map(|d| d.state().unwrap_or(DomainState::Crashed) == DomainState::Running)
                    .unwrap_or(false)
            })
        },
        "all 50 guarded domains back to running",
    );
    let revive_latency = started.elapsed();
    assert!(
        revive_latency < Duration::from_secs(15),
        "storm revival took {revive_latency:?}"
    );

    // The engine counts a revival once the start call has returned, which
    // can be after the domain is seen running.
    wait_for(
        || daemon_counter(&daemon, "guard.revived") >= STORM as u64,
        "guard.revived to count the storm",
    );
    assert!(
        daemon_counter(&daemon, "guard.revived") >= STORM as u64,
        "guard.revived={}",
        daemon_counter(&daemon, "guard.revived")
    );
    assert_eq!(daemon_counter(&daemon, "guard.gave_up"), 0);

    // Every restart came off a healthy guard whose counter was reset by
    // the Started event — nobody is stuck mid-ladder.
    for status in conn.guard_list().unwrap() {
        assert!(!status.gave_up, "{status:?}");
    }

    // No thundering herd: the deterministic per-domain jitter must
    // spread the first-rung delays across many distinct values.
    let schedule = BackoffSchedule {
        initial: Duration::from_millis(50),
        max: Duration::from_secs(2),
        multiplier: 2,
    };
    let distinct: HashSet<Duration> = names
        .iter()
        .map(|guest| schedule.delay(1, BackoffSchedule::seed_for(guest)))
        .collect();
    assert!(
        distinct.len() >= STORM / 2,
        "only {} distinct first-rung delays across {STORM} domains",
        distinct.len()
    );

    conn.close();
    daemon.shutdown();
}

/// A daemon runs one guard engine per driver, and all of them publish
/// into one `guard.*` set: a revival on qemu plus one on xen reads as two
/// through the admin interface.
#[test]
fn revivals_on_two_drivers_count_in_one_guard_set() {
    let name = unique("guard-aggregate");
    let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let admin = AdminClient::new(daemon.admin_memory_connector().connect().unwrap());
    let revived = || {
        admin
            .metrics("guard.")
            .unwrap()
            .into_iter()
            .find(|m| m.name == "guard.revived")
            .expect("guard.revived is published")
            .value
    };

    for (scheme, expected) in [("qemu", 1), ("xen", 2)] {
        let conn = Connect::builder(format!("{scheme}+memory://{name}/system"))
            .open()
            .unwrap();
        let domain = conn
            .define_domain(&DomainConfig::new(format!("{scheme}-guest"), 64, 1))
            .unwrap();
        domain.start().unwrap();
        domain
            .guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
            .unwrap();
        domain.crash().unwrap();
        wait_for(
            || revived() >= expected,
            &format!("the {scheme} guest revived"),
        );
        assert_eq!(domain.state().unwrap(), DomainState::Running);
        conn.close();
    }
    assert_eq!(revived(), 2);

    admin.close();
    daemon.shutdown();
}

#[test]
fn crash_looper_hits_the_backoff_cap_without_starving_other_tenants() {
    let name = unique("guard-loop");
    // The qemu host crashes *every* start; the xen host is healthy and
    // stands in for the other tenants sharing the daemon's worker pool.
    let qemu = SimHost::builder(format!("{name}-qemu"))
        .personality(QemuLike)
        .latency(LatencyModel::zero())
        .faults(FaultPlan::new().always(OpKind::Start, FaultAction::CrashAfter))
        .build();
    let xen = SimHost::builder(format!("{name}-xen"))
        .personality(XenLike)
        .latency(LatencyModel::zero())
        .build();
    let daemon = Virtd::builder(&name).host(qemu).host(xen).build().unwrap();
    daemon.register_memory_endpoint(&name).unwrap();

    let qemu_conn = Connect::builder(format!("qemu+memory://{name}/system"))
        .open()
        .unwrap();
    const LOOPERS: usize = 8;
    let loopers: Vec<_> = (0..LOOPERS)
        .map(|i| {
            let looper = qemu_conn
                .define_domain(&DomainConfig::new(format!("looper-{i}"), 128, 1))
                .unwrap();
            looper
                .guard_set(&GuardPolicy::KeepRunning { max_restarts: 3 })
                .unwrap();
            // The start "succeeds" but the guest is immediately crashed —
            // every revival attempt repeats that, so the restart counter
            // only climbs.
            looper.start().unwrap();
            assert_eq!(looper.state().unwrap(), DomainState::Crashed);
            looper
        })
        .collect();

    // While the loopers climb their ladders, other tenants must be served
    // promptly: the backoff waits live on the guard engine's own timer
    // thread, not on daemon worker-pool slots.
    let xen_conn = Connect::builder(format!("xen+memory://{name}/system"))
        .open()
        .unwrap();
    let busy = Instant::now();
    for i in 0..5 {
        xen_conn
            .define_domain(&DomainConfig::new(format!("tenant-{i}"), 64, 1))
            .unwrap()
            .start()
            .unwrap();
    }
    assert!(
        busy.elapsed() < Duration::from_secs(5),
        "healthy tenants stalled for {:?} behind a crash-looper",
        busy.elapsed()
    );

    wait_for(
        || {
            loopers
                .iter()
                .all(|looper| looper.guard_status().map(|s| s.gave_up).unwrap_or(false))
        },
        "every crash-looper guard to give up at the cap",
    );
    for looper in &loopers {
        let status = looper.guard_status().unwrap();
        assert!(status.restarts > 3, "{status:?}");
        assert!(status.next_retry.is_none(), "{status:?}");
    }
    assert_eq!(daemon_counter(&daemon, "guard.gave_up"), LOOPERS as u64);
    assert_eq!(daemon_counter(&daemon, "guard.revived"), 0);

    qemu_conn.close();
    xen_conn.close();
    daemon.shutdown();
}

#[test]
fn auto_resume_and_graceful_stop_policies() {
    let name = unique("guard-pol");
    let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{name}/system"))
        .open()
        .unwrap();

    // auto-resume: an unexpected pause is undone by the engine.
    let pausy = conn
        .define_domain(&DomainConfig::new("pausy", 64, 1))
        .unwrap();
    pausy.start().unwrap();
    pausy.guard_set(&GuardPolicy::AutoResume).unwrap();
    pausy.suspend().unwrap();
    wait_for(
        || pausy.state().unwrap() == DomainState::Running,
        "auto-resume to unpause the domain",
    );
    // Counted once the resume call has returned, maybe after the state flip.
    wait_for(
        || daemon_counter(&daemon, "guard.resumed") >= 1,
        "guard.resumed to count the resume",
    );
    assert!(daemon_counter(&daemon, "guard.resumed") >= 1);

    // graceful-stop: shutdown now, destroy after the budget; the guard
    // retires itself once the domain is down.
    let leaver = conn
        .define_domain(&DomainConfig::new("leaver", 64, 1))
        .unwrap();
    leaver.start().unwrap();
    leaver
        .guard_set(&GuardPolicy::GracefulStop { timeout_ms: 2_000 })
        .unwrap();
    wait_for(
        || !leaver.state().unwrap().is_active(),
        "graceful-stop to bring the domain down",
    );
    wait_for(
        || leaver.guard_status().is_err(),
        "graceful-stop guard to retire",
    );
    assert_eq!(daemon_counter(&daemon, "guard.stopped"), 1);

    conn.close();
    daemon.shutdown();
}

#[test]
fn guards_survive_daemon_rebuild_and_revive_their_domains() {
    let name = unique("guard-statedir");
    let dir = std::env::temp_dir().join(unique("guard-state"));

    // First daemon: a guarded running domain, then the daemon goes away
    // with the domain still recorded running (the crash case).
    {
        let daemon = Virtd::builder(format!("{name}-1"))
            .config(VirtdConfig::new().statedir(&dir))
            .with_quiet_hosts()
            .build()
            .unwrap();
        daemon.register_memory_endpoint(&name).unwrap();
        let conn = Connect::builder(format!("qemu+memory://{name}/system"))
            .open()
            .unwrap();
        let web = conn
            .define_domain(&DomainConfig::new("web", 128, 1))
            .unwrap();
        web.start().unwrap();
        web.guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
            .unwrap();
        conn.close();
        daemon.shutdown();
    }

    // Second daemon, fresh hosts, same statedir: recovery re-arms the
    // guard and — because the recorded-running guest died with the old
    // daemon — revives it immediately, not on the first crash after.
    let daemon = Virtd::builder(format!("{name}-2"))
        .config(VirtdConfig::new().statedir(&dir))
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{name}/system"))
        .open()
        .unwrap();
    let web = conn.domain_lookup_by_name("web").unwrap();
    assert_eq!(web.state().unwrap(), DomainState::Running);
    let status = web.guard_status().unwrap();
    assert!(!status.gave_up, "{status:?}");
    assert_eq!(daemon_counter(&daemon, "recovery.guards"), 1);
    assert_eq!(daemon_counter(&daemon, "recovery.revived"), 1);

    conn.close();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `graceful-stop` is one-shot and never persisted, and it replaces the
/// standing guard before it: once it has retired, a daemon rebuilt on the
/// same statedir brings no guard back for the domain stopped on purpose.
#[test]
fn a_retired_graceful_stop_leaves_no_guard_to_recover() {
    let name = unique("guard-stop-disk");
    let dir = std::env::temp_dir().join(unique("guard-stop-state"));
    {
        let daemon = Virtd::builder(format!("{name}-1"))
            .config(VirtdConfig::new().statedir(&dir))
            .with_quiet_hosts()
            .build()
            .unwrap();
        daemon.register_memory_endpoint(&name).unwrap();
        let conn = Connect::builder(format!("qemu+memory://{name}/system"))
            .open()
            .unwrap();
        let web = conn
            .define_domain(&DomainConfig::new("web", 128, 1))
            .unwrap();
        web.start().unwrap();
        web.guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
            .unwrap();
        web.guard_set(&GuardPolicy::GracefulStop { timeout_ms: 2_000 })
            .unwrap();
        wait_for(
            || web.guard_status().is_err(),
            "graceful-stop guard to retire",
        );
        assert!(!web.state().unwrap().is_active());
        conn.close();
        daemon.shutdown();
    }

    let daemon = Virtd::builder(format!("{name}-2"))
        .config(VirtdConfig::new().statedir(&dir))
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{name}/system"))
        .open()
        .unwrap();
    let web = conn.domain_lookup_by_name("web").unwrap();
    assert_eq!(daemon_counter(&daemon, "recovery.guards"), 0);
    let err = web.guard_status().unwrap_err();
    assert_eq!(err.code(), ErrorCode::NoDomain, "{err}");
    assert_eq!(web.state().unwrap(), DomainState::Shutoff);

    conn.close();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A start that leaves the domain crashed revives nothing, whether the
/// worker or recovery ran it: recovery's start of a guarded domain that
/// died with the previous daemon crashes again on a host whose every
/// start crashes, so neither counter moves and the guard climbs the
/// ladder's first rung as it would for any crash. (A budget of none
/// holds the guard on that rung instead of racing the next restart.)
#[test]
fn recovery_counts_no_revival_for_a_start_that_crashes() {
    let name = unique("guard-crash-start");
    let dir = std::env::temp_dir().join(unique("guard-crash-start-state"));
    {
        let daemon = Virtd::builder(format!("{name}-1"))
            .config(VirtdConfig::new().statedir(&dir))
            .with_quiet_hosts()
            .build()
            .unwrap();
        daemon.register_memory_endpoint(&name).unwrap();
        let conn = Connect::builder(format!("qemu+memory://{name}/system"))
            .open()
            .unwrap();
        let web = conn
            .define_domain(&DomainConfig::new("web", 128, 1))
            .unwrap();
        web.start().unwrap();
        web.guard_set(&GuardPolicy::KeepRunning { max_restarts: 0 })
            .unwrap();
        conn.close();
        daemon.shutdown();
    }

    let qemu = SimHost::builder(format!("{name}-qemu"))
        .personality(QemuLike)
        .latency(LatencyModel::zero())
        .faults(FaultPlan::new().always(OpKind::Start, FaultAction::CrashAfter))
        .build();
    let daemon = Virtd::builder(format!("{name}-2"))
        .config(VirtdConfig::new().statedir(&dir))
        .host(qemu)
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{name}/system"))
        .open()
        .unwrap();
    let web = conn.domain_lookup_by_name("web").unwrap();
    assert_eq!(web.state().unwrap(), DomainState::Crashed);
    assert_eq!(daemon_counter(&daemon, "recovery.guards"), 1);
    assert_eq!(daemon_counter(&daemon, "recovery.revived"), 0);
    assert_eq!(daemon_counter(&daemon, "guard.revived"), 0);
    let status = web.guard_status().unwrap();
    assert_eq!(status.restarts, 1, "{status:?}");

    conn.close();
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- fleet failover (process-level members, SIGKILL) -------------------

fn binary(name: &str) -> std::path::PathBuf {
    let mut profile_dir = std::env::current_exe().expect("test binary path");
    profile_dir.pop();
    profile_dir.pop();
    let target_dir = profile_dir.parent().expect("target dir").to_path_buf();
    let candidates = [
        profile_dir.join(name),
        target_dir.join("release").join(name),
        target_dir.join("debug").join(name),
    ];
    for candidate in &candidates {
        if candidate.exists() {
            return candidate.clone();
        }
    }
    panic!("binary {name} not found; run `cargo build` first (looked in {candidates:?})");
}

/// One fleet member as a real OS process (mirrors tests/fleet.rs).
struct Member {
    child: Option<Child>,
    name: String,
    socket: String,
    statedir: Option<String>,
}

impl Member {
    fn spawn(tag: &str, statedir: bool) -> Member {
        let id = format!("{tag}-{}-{:x}", std::process::id(), rand::random::<u32>());
        let socket = format!("/tmp/guard-{id}.sock");
        let statedir = statedir.then(|| format!("/tmp/guard-{id}-state"));
        let mut member = Member {
            child: None,
            name: id,
            socket,
            statedir,
        };
        member.start();
        member
    }

    fn start(&mut self) {
        let admin = format!("{}.admin", self.socket);
        let mut args = vec![
            "--name".to_string(),
            self.name.clone(),
            "--unix".to_string(),
            self.socket.clone(),
            "--admin-unix".to_string(),
            admin,
            "--quiet-hosts".to_string(),
        ];
        if let Some(dir) = &self.statedir {
            args.push("--statedir".to_string());
            args.push(dir.clone());
        }
        let child = Command::new(binary("virtd"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("virtd binary spawns");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !std::path::Path::new(&self.socket).exists() {
            assert!(Instant::now() < deadline, "daemon socket never appeared");
            std::thread::sleep(Duration::from_millis(20));
        }
        self.child = Some(child);
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn restart(&mut self) {
        self.kill();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(format!("{}.admin", self.socket));
        self.start();
    }

    fn uri(&self) -> String {
        format!("qemu+unix:///system?socket={}", self.socket)
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(format!("{}.admin", self.socket));
        if let Some(dir) = &self.statedir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn fleet_counter(fleet: &FleetManager, name: &str) -> u64 {
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

fn journal_contains(fleet: &FleetManager, needle: &str) -> bool {
    fleet
        .logger()
        .journal()
        .iter()
        .any(|r| r.message.contains(needle))
}

#[test]
fn sigkilled_member_fails_over_its_guarded_domain_and_reconciles() {
    // The home member keeps crash-safe state so its restart revives the
    // guarded guest — the double-residency case reconciliation resolves.
    let mut home = Member::spawn("guard-fo-home", true);
    let refuge = Member::spawn("guard-fo-refuge", false);
    let fleet = FleetManager::builder()
        .host("home", home.uri())
        .host("refuge", refuge.uri())
        .call_deadline(Some(Duration::from_secs(5)))
        .build()
        .unwrap();

    // A guarded guest on the home member; the refresh snapshots it (and
    // its XML) into the fleet's failover cache.
    let conn = Connect::builder(home.uri()).open().unwrap();
    let payroll = conn
        .define_domain(&DomainConfig::new("payroll", 256, 1))
        .unwrap();
    payroll.start().unwrap();
    payroll
        .guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
        .unwrap();
    conn.close();
    fleet.refresh();
    assert_eq!(fleet.locate("payroll").unwrap(), "home");

    // SIGKILL the home member: the next refresh marks it down and the
    // failover pass re-places the guest on the survivor.
    home.kill();
    wait_for(
        || {
            fleet.refresh();
            !fleet.guard_failovers().is_empty()
        },
        "guard failover onto the surviving member",
    );
    assert_eq!(
        fleet.guard_failovers(),
        vec![(
            "payroll".to_string(),
            "home".to_string(),
            "refuge".to_string()
        )]
    );
    assert_eq!(fleet_counter(&fleet, "fleet.guard.failover"), 1);
    assert!(
        journal_contains(
            &fleet,
            "event=guard_failover domain=payroll from=home to=refuge"
        ),
        "structured guard_failover line missing"
    );
    // Live check: the guest really runs on the survivor, still guarded.
    let refuge_conn = Connect::builder(refuge.uri()).open().unwrap();
    let adopted = refuge_conn.domain_lookup_by_name("payroll").unwrap();
    assert_eq!(adopted.state().unwrap(), DomainState::Running);
    assert!(adopted.guard_status().is_ok(), "failover copy is unguarded");
    refuge_conn.close();

    // Home returns and revives its own copy from the crash-safe store —
    // two residents until the reconcile pass removes the stale home copy.
    home.restart();
    wait_for(
        || {
            fleet.refresh();
            fleet.residency("payroll").len() == 1
        },
        "single residency after the home member returned",
    );
    assert_eq!(fleet.residency("payroll"), vec!["refuge".to_string()]);
    assert!(fleet.guard_failovers().is_empty(), "failover entry retired");
    assert_eq!(fleet_counter(&fleet, "fleet.guard.reconciled"), 1);
    assert!(
        journal_contains(
            &fleet,
            "event=guard_reconciled domain=payroll home=home owner=refuge"
        ),
        "structured guard_reconciled line missing"
    );
}

#[test]
fn arming_a_guard_reconciles_preexisting_state() {
    let name = unique("guard-arm");
    let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{name}/system"))
        .open()
        .unwrap();

    // keep-running armed against an *already-crashed* domain revives it
    // now — the crash predates the guard, so no further event arrives.
    let wreck = conn
        .define_domain(&DomainConfig::new("wreck", 64, 1))
        .unwrap();
    wreck.start().unwrap();
    wreck.crash().unwrap();
    assert_eq!(wreck.state().unwrap(), DomainState::Crashed);
    wreck
        .guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
        .unwrap();
    wait_for(
        || wreck.state().unwrap() == DomainState::Running,
        "arm-time restart of a pre-crashed domain",
    );

    // auto-resume armed against an *already-paused* domain resumes it.
    let dozer = conn
        .define_domain(&DomainConfig::new("dozer", 64, 1))
        .unwrap();
    dozer.start().unwrap();
    dozer.suspend().unwrap();
    dozer.guard_set(&GuardPolicy::AutoResume).unwrap();
    wait_for(
        || dozer.state().unwrap() == DomainState::Running,
        "arm-time resume of a pre-paused domain",
    );

    // A shutoff domain is deliberately left alone: define-guard-start
    // stays a legal workflow. Arming decides at once, so when guard_set
    // returns nothing is scheduled and nothing was restarted.
    let later = conn
        .define_domain(&DomainConfig::new("later", 64, 1))
        .unwrap();
    later
        .guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
        .unwrap();
    let status = later.guard_status().unwrap();
    assert_eq!(status.next_retry, None, "{status:?}");
    assert_eq!(status.restarts, 0, "{status:?}");
    assert_eq!(later.state().unwrap(), DomainState::Shutoff);

    conn.close();
    daemon.shutdown();
}

/// A guarded crash storm against a statedir-backed daemon: every crash
/// and revival flips domain status, and all of that churn rides the
/// statestore's write-behind path. The coalescing queue must absorb it
/// — far fewer fsync cycles than status writes — while the guard
/// records themselves (durable, group-committed) survive a rebuild.
#[test]
fn guarded_crash_storm_status_churn_coalesces_in_the_statestore() {
    let name = unique("guard-coalesce");
    let dir = std::env::temp_dir().join(unique("guard-coalesce-state"));
    let daemon = Virtd::builder(&name)
        .config(VirtdConfig::new().statedir(&dir))
        .with_quiet_hosts()
        .build()
        .unwrap();
    daemon.register_memory_endpoint(&name).unwrap();
    let conn = Connect::builder(format!("qemu+memory://{name}/system"))
        .open()
        .unwrap();

    const STORM: usize = 20;
    let names: Vec<String> = (0..STORM).map(|i| format!("churn-{i}")).collect();
    for guest in &names {
        let domain = conn
            .define_domain(&DomainConfig::new(guest, 64, 1))
            .unwrap();
        domain.start().unwrap();
        domain
            .guard_set(&GuardPolicy::KeepRunning { max_restarts: 5 })
            .unwrap();
    }
    for guest in &names {
        conn.domain_lookup_by_name(guest).unwrap().crash().unwrap();
    }
    wait_for(
        || {
            names.iter().all(|guest| {
                conn.domain_lookup_by_name(guest)
                    .map(|d| d.state().unwrap_or(DomainState::Crashed) == DomainState::Running)
                    .unwrap_or(false)
            })
        },
        "all guarded domains back to running",
    );

    // Every lifecycle flip (start, crash, revive) enqueues a
    // (definition, status) record pair on the write-behind path, the
    // define commits one durably, and guard-set adds another: ≥ 7
    // records per domain. Per-record fsync would pay a cycle each; the
    // pipeline must show real sharing, and the unchanged definition
    // frames must be dropped by content dedup rather than rewritten.
    let cycles = daemon_counter(&daemon, "statestore.group_commits");
    let deduped = daemon_counter(&daemon, "statestore.deduped");
    let records = (STORM * 7) as u64;
    assert!(
        cycles > 0 && cycles <= records / 2,
        "{records}+ records took {cycles} fsync cycles — nothing batched"
    );
    assert!(
        deduped > 0,
        "unchanged definition frames were rewritten instead of deduped"
    );

    daemon.shutdown();

    // Same statedir, fresh daemon: the durable guard records committed
    // through the barrier path are all still there.
    let daemon2 = Virtd::builder(&name)
        .config(VirtdConfig::new().statedir(&dir))
        .with_quiet_hosts()
        .build()
        .unwrap();
    let endpoint2 = unique("guard-coalesce-2");
    daemon2.register_memory_endpoint(&endpoint2).unwrap();
    let conn2 = Connect::builder(format!("qemu+memory://{endpoint2}/system"))
        .open()
        .unwrap();
    assert_eq!(conn2.guard_list().unwrap().len(), STORM);

    conn.close();
    conn2.close();
    daemon2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
