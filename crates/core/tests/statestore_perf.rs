//! Release perf guard for the group-commit statestore pipeline.
//!
//! Asserts the coalescing contract F12 depends on: a burst of K
//! back-to-back status writes to one domain must collapse into at most
//! two fsync cycles (one may already be in flight when the burst
//! starts), with essentially every record coalesced away. This is a
//! counter-based structural check, not a timing measurement, so it is
//! stable on shared CI hardware — `virt_bench`'s `core.statestore.*`
//! ledger rows carry the timings.
//!
//! Debug builds time the window differently enough to flake, so the
//! guard only arms under `--release` (like the other perf guards wired
//! into scripts/ci.sh).

use std::io::Write;

use virt_core::statestore::{ObjectKind, StateStore};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!(
        "statestore-perf-{tag}-{}-{nanos}",
        std::process::id()
    ))
}

#[test]
fn status_write_burst_collapses_into_at_most_two_fsync_cycles() {
    if cfg!(debug_assertions) {
        eprintln!("skipping: perf guard is release-only");
        return;
    }
    const BURST: usize = 200;
    let dir = temp_dir("burst");
    // The whole burst is queued well inside the 2 ms coalesce window, so
    // any extra cycles would come from the pipeline itself.
    let store = StateStore::open(&dir).expect("store opens");

    for i in 0..BURST {
        store.put_behind(
            ObjectKind::DomainStatus,
            "qemu",
            "burst-target",
            &format!("<domstatus frame='{i}'/>"),
        );
    }
    store.flush().expect("drain succeeds");

    let cycles = store.group_commits_total();
    let coalesced = store.coalesced_total();
    assert!(
        cycles <= 2,
        "{BURST} back-to-back status writes took {cycles} fsync cycles (want <= 2)"
    );
    assert!(
        coalesced >= (BURST - 2) as u64,
        "only {coalesced} of {BURST} records coalesced"
    );

    // Last-writer-wins: the surviving frame is the final one.
    let frame = store
        .get(ObjectKind::DomainStatus, "qemu", "burst-target")
        .expect("read back")
        .expect("record present");
    assert!(frame.contains(&format!("frame='{}'", BURST - 1)), "{frame}");

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_durable_writers_share_fsync_cycles() {
    if cfg!(debug_assertions) {
        eprintln!("skipping: perf guard is release-only");
        return;
    }
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 20;
    let dir = temp_dir("shared");
    let store = StateStore::open(&dir).expect("store opens");

    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    store
                        .put(
                            ObjectKind::Domain,
                            "qemu",
                            &format!("dom-{t}-{i}"),
                            "<domain/>",
                        )
                        .expect("durable put");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("writer thread");
    }

    let total_ops = (WRITERS * PER_WRITER) as u64;
    let cycles = store.group_commits_total();
    // The gather stall's ablation row (EXPERIMENTS.md F12) is re-read
    // from this line in CI output; written to the stream itself because
    // the test harness captures `println!`.
    let _ = writeln!(
        std::io::stderr(),
        "statestore_perf: {total_ops} durable puts from {WRITERS} writers took {cycles} flush cycles"
    );
    // Perfect batching would be PER_WRITER cycles; per-op fsync would be
    // total_ops. Require at least 2x sharing with headroom for scheduler
    // jitter on loaded CI machines.
    assert!(
        cycles <= total_ops / 2,
        "{total_ops} durable puts from {WRITERS} writers took {cycles} fsync cycles \
         (want <= {})",
        total_ops / 2
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
