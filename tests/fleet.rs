//! Fleet chaos tests: process-level `virtd` members killed with SIGKILL
//! under a live [`virt_fleet::FleetManager`].
//!
//! Two invariants are under test:
//!
//! 1. **Health accounting** — killing a member produces exactly one
//!    `fleet.host_down` transition (with its structured log line) and
//!    restarting it exactly one `fleet.host_up`; placement routes
//!    around the dead member in between.
//! 2. **Single residency** — a cross-host migration whose *source
//!    daemon* is SIGKILLed mid-transfer reconciles back to exactly one
//!    owner fleet-wide once the member returns, driven by the
//!    destination-first reconciliation protocol and the source's
//!    crash-safe state directory.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use virt_core::driver::MigrationOptions;
use virt_core::metrics::MetricValue;
use virt_core::xmlfmt::DomainConfig;
use virt_core::{Connect, JobState};
use virt_fleet::{FleetManager, PlacementRequest};

fn binary(name: &str) -> std::path::PathBuf {
    // Integration tests live in target/<profile>/deps; `cargo build` puts
    // binaries one level up. The tier-1 gate builds binaries in release but
    // runs tests in debug, so also probe the sibling profile directories.
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
    panic!("binary {name} not found; run `cargo build` or `cargo build --release` first (looked in {candidates:?})");
}

/// One fleet member as a real OS process.
struct Member {
    child: Option<Child>,
    name: String,
    socket: String,
    statedir: Option<String>,
    slow_migration: bool,
}

impl Member {
    fn spawn(tag: &str, statedir: bool, slow_migration: bool) -> Member {
        let id = format!("{tag}-{}-{:x}", std::process::id(), rand::random::<u32>());
        let socket = format!("/tmp/fleet-{id}.sock");
        let statedir = statedir.then(|| format!("/tmp/fleet-{id}-state"));
        let mut member = Member {
            child: None,
            name: id,
            socket,
            statedir,
            slow_migration,
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
        if self.slow_migration {
            args.push("--slow-migration".to_string());
        }
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

    /// SIGKILL — no shutdown handshake, sockets left stale.
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

fn journal_contains(fleet: &FleetManager, needle: &str) -> bool {
    fleet
        .logger()
        .journal()
        .iter()
        .any(|r| r.message.contains(needle))
}

fn wait_for(mut pred: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn sigkilled_member_is_counted_logged_and_routed_around() {
    let mut a = Member::spawn("chaos-a", false, false);
    let b = Member::spawn("chaos-b", false, false);
    let fleet = FleetManager::builder()
        .host("a", a.uri())
        .host("b", b.uri())
        .call_deadline(Some(Duration::from_secs(5)))
        .build()
        .unwrap();

    fleet.refresh();
    assert_eq!(counter(&fleet, "fleet.host_down"), 0);
    assert_eq!(counter(&fleet, "fleet.host_up"), 0);
    assert!(fleet.hosts().iter().all(|h| h.up), "both members up");

    // SIGKILL one member: exactly one down transition, with the
    // structured line, and placement routes everything to the survivor.
    a.kill();
    fleet.refresh();
    assert_eq!(counter(&fleet, "fleet.host_down"), 1);
    assert!(
        journal_contains(&fleet, "event=host_down host=a"),
        "structured host_down line missing"
    );
    for i in 0..3 {
        let placed = fleet
            .create(&PlacementRequest::new(format!("survivor-{i}"), 128, 1))
            .unwrap();
        assert_eq!(placed, "b", "placement must avoid the dead member");
    }

    // A refresh while the member is still dead must not double-count.
    fleet.refresh();
    assert_eq!(counter(&fleet, "fleet.host_down"), 1);

    // Restart on the same socket: exactly one up transition, logged.
    a.restart();
    fleet.refresh();
    assert_eq!(counter(&fleet, "fleet.host_up"), 1);
    assert!(
        journal_contains(&fleet, "event=host_up host=a"),
        "structured host_up line missing"
    );
    assert!(fleet.hosts().iter().all(|h| h.up), "member recovered");
}

#[test]
fn mid_migration_source_kill_reconciles_to_single_owner() {
    // The source's migration transfer takes real wall time (~25 ms per
    // 256 MiB slice) so the SIGKILL lands mid-Perform; its state
    // directory brings the guest back after the crash.
    let mut source = Member::spawn("chaos-src", true, true);
    let dest = Member::spawn("chaos-dst", true, false);
    let fleet = FleetManager::builder()
        .host("src", source.uri())
        .host("dst", dest.uri())
        .call_deadline(Some(Duration::from_secs(10)))
        .build()
        .unwrap();

    // Seed a big guest on the source (2 GiB -> ~200 ms of transfer).
    let conn = Connect::builder(source.uri()).open().unwrap();
    conn.define_domain(&DomainConfig::new("wanderer", 2048, 2))
        .unwrap()
        .start()
        .unwrap();
    conn.close();
    fleet.refresh();
    assert_eq!(fleet.locate("wanderer").unwrap(), "src");

    // Fire the migration on a helper thread and kill the source while
    // the transfer is in flight.
    let migrate = std::thread::spawn({
        let uri_src = source.uri();
        let uri_dst = dest.uri();
        move || {
            let fleet = FleetManager::builder()
                .host("src", uri_src)
                .host("dst", uri_dst)
                .call_deadline(Some(Duration::from_secs(10)))
                .build()
                .unwrap();
            fleet.refresh();
            fleet.migrate("src", "wanderer", "dst", &MigrationOptions::default())
        }
    });
    // Kill only once the transfer has moved data, so the kill lands
    // mid-Perform rather than before Begin.
    let probe = Connect::builder(source.uri()).open().unwrap();
    wait_for(
        || {
            probe
                .domain_lookup_by_name("wanderer")
                .and_then(|d| d.job_stats())
                .is_ok_and(|stats| stats.state == JobState::Running && stats.data_processed_mib > 0)
        },
        "the migration to move data",
    );
    probe.close();
    source.kill();
    let outcome = migrate.join().unwrap();
    assert!(
        outcome.is_err(),
        "migration against a SIGKILLed source must fail"
    );

    // Bring the member back; its crash-safe store returns the guest.
    source.restart();

    // Reconciliation (run by the migrating manager on failure, retried
    // here via refresh for any deferred leg) must converge on exactly
    // one owner fleet-wide.
    wait_for(
        || {
            fleet.refresh();
            let _ = fleet.reconcile("wanderer", "src", "dst");
            fleet.residency("wanderer").len() == 1
        },
        "single-owner reconciliation",
    );
    let owners = fleet.residency("wanderer");
    assert_eq!(owners.len(), 1, "guest must live exactly once: {owners:?}");
    assert_eq!(
        owners[0], "src",
        "aborted migration leaves the source as owner"
    );
}
