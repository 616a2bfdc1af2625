//! Crash-safe on-disk state store for persistent object definitions and
//! live-status records.
//!
//! Reproduces libvirt's `/etc/libvirt` + `/run/libvirt` split: object
//! *definitions* (domain, network, pool XML) live under `etc/`, while
//! volatile *status* records — which domains are running, autostart
//! markers, managed-save flags — live under `run/`. The daemon can be
//! SIGKILLed at any instant and still reconstruct its world at the next
//! boot from these files alone; that is the paper's "non-intrusive"
//! property (the management layer can die without taking guests with it).
//!
//! ## Layout
//!
//! ```text
//! <root>/etc/domains/<driver>/<name>.xml     persistent definitions
//! <root>/etc/networks/<driver>/<name>.xml
//! <root>/etc/pools/<driver>/<name>.xml
//! <root>/run/domains/<driver>/<name>.xml     live-status records
//! <root>/quarantine/                         corrupt files, moved aside
//! ```
//!
//! ## The group-commit pipeline
//!
//! Writers never touch the disk themselves, and there is no other mode:
//! every mutation is a *dirty-object record* pushed onto a coalescing
//! queue drained by one persister thread, whose `flush_batch` is the
//! only code that writes, syncs or renames a state file:
//!
//! - [`StateStore::put`] / [`StateStore::remove`] enqueue and then block
//!   on the **group-commit barrier**: the caller returns once a flush
//!   cycle containing (or superseding) its record has committed. All
//!   barrier waiters that arrive while a cycle is in flight share the
//!   next one — N concurrent writers cost one batched fsync cycle, not N.
//! - [`StateStore::put_behind`] / [`StateStore::remove_behind`] are
//!   **write-behind**: they enqueue and return. Volatile `run/` status
//!   records use this path; durability lags by at most the coalesce
//!   window plus one flush cycle, and [`StateStore::flush`] or store
//!   drop drains whatever is pending. `flush` is one more barrier
//!   waiter: it returns once the queue has drained, with the first error
//!   of any cycle completed since it was called.
//! - Records queued for the same object are **coalesced last-writer-wins**
//!   (a crash storm rewriting one status 50 times costs one write), and
//!   a record whose payload matches the last frame a cycle committed
//!   `Ok` is skipped entirely (lifecycle ops rewrite unchanged
//!   definition files; those cost nothing now).
//!
//! Every one of those decisions — what a cycle holds, when it starts,
//! whom it releases — is made by the pure queue machine in
//! `statestore/queue.rs`; the persister thread feeds it the time and
//! each cycle's per-record outcome. A SIGKILL can only cost write-behind
//! records that had not yet reached their flush cycle — never a
//! committed one.
//!
//! ## Durability discipline
//!
//! Every write is *atomic*: the payload goes to a unique temp file in
//! the target directory, the file is synced, renamed over the
//! destination, and the directory is synced (once per cycle, batched
//! with the others) so the rename itself survives a power cut. A reader
//! therefore sees either the previous committed version or the new one —
//! never a torn mixture.
//!
//! Every read is *validated*: files carry a header line with the payload
//! length and an FNV-1a checksum (corruption *detection*, not an
//! integrity MAC). A file that fails validation (torn
//! write from a crashed kernel, bit rot, truncation) is moved to
//! `quarantine/` and counted — never parsed, never a panic — under a
//! name no earlier quarantined file holds, so evidence accumulates
//! across daemon lives instead of being overwritten.
//!
//! A daemon killed between staging a temp file and renaming it leaves
//! the temp file behind; opening the store removes those, before the
//! persister thread of the new life exists.
//!
//! ## Fault injection
//!
//! [`StateStore::inject_fault`] arms a deterministic fault at the Nth
//! subsequent write: either a clean I/O error before any data moves
//! ([`StoreFault::FailWrite`], the previous version stays committed) or a
//! torn write renamed into place ([`StoreFault::TornWrite`], simulating
//! the pathological crash the checksum exists to catch). Faults fire
//! inside the persister thread, per attempted file write, and surface
//! through the barrier result exactly as a real I/O error would.

mod queue;

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::error::{ErrorCode, VirtError, VirtResult};
use crate::log::Logger;
use crate::metrics::{Counter, Registry};
use crate::uuid::Uuid;
use hypersim::DomainState;
use queue::{Queue, Step};
use virt_rpc::fnv1a;
use virt_xml::{Document, Element};

/// Magic prefix of the header line; bump the version on format changes.
const HEADER_MAGIC: &str = "#virtstate v1";

/// Makes every staged frame of a batch durable with one filesystem-wide
/// sync: one device flush, where per-file fsync pays one per file.
/// Returns `false` when unsupported (non-Linux) or failed; the caller
/// then falls back to per-file fsync.
#[cfg(target_os = "linux")]
fn sync_filesystem(root: &Path) -> bool {
    use std::os::fd::AsRawFd;
    // The one libc entry point the batch flush uses (same
    // no-external-crates approach as `virt_rpc::poll`).
    extern "C" {
        fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    File::open(root).is_ok_and(|f| unsafe { syncfs(f.as_raw_fd()) == 0 })
}

#[cfg(not(target_os = "linux"))]
fn sync_filesystem(_root: &Path) -> bool {
    false
}

/// The kinds of object a store holds, each with its own directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Persistent domain definition (`etc/domains`).
    Domain,
    /// Persistent network definition (`etc/networks`).
    Network,
    /// Persistent pool definition (`etc/pools`).
    Pool,
    /// Volatile domain status record (`run/domains`).
    DomainStatus,
    /// Persistent guard policy record (`etc/guards`).
    Guard,
}

impl ObjectKind {
    fn rel_dir(self) -> &'static str {
        match self {
            ObjectKind::Domain => "etc/domains",
            ObjectKind::Network => "etc/networks",
            ObjectKind::Pool => "etc/pools",
            ObjectKind::DomainStatus => "run/domains",
            ObjectKind::Guard => "etc/guards",
        }
    }
}

/// A deterministic injected fault, armed via [`StateStore::inject_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// The write fails cleanly before any byte reaches the destination:
    /// the previous committed version stays in place.
    FailWrite,
    /// Half the payload is written and renamed into place — the torn
    /// file a crashed kernel or lying disk can leave behind. The next
    /// validated read must quarantine it.
    TornWrite,
}

struct ArmedFault {
    kind: StoreFault,
    /// Fires when the write counter reaches this sequence number.
    at_write: u64,
}

/// One object's identity inside the store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ObjKey {
    kind: ObjectKind,
    driver: String,
    name: String,
}

impl ObjKey {
    fn new(kind: ObjectKind, driver: &str, name: &str) -> ObjKey {
        ObjKey {
            kind,
            driver: driver.to_string(),
            name: name.to_string(),
        }
    }
}

/// One record of a multi-object [`StateStore::commit`].
#[derive(Debug, Clone)]
pub enum StoreOp {
    /// Commit `payload` for the named object.
    Put {
        /// Object kind.
        kind: ObjectKind,
        /// Driver partition.
        driver: String,
        /// Object name.
        name: String,
        /// Frame content.
        payload: String,
    },
    /// Remove the named object's committed file (idempotent).
    Remove {
        /// Object kind.
        kind: ObjectKind,
        /// Driver partition.
        driver: String,
        /// Object name.
        name: String,
    },
}

impl StoreOp {
    fn into_parts(self) -> (ObjKey, QueuedOp) {
        match self {
            StoreOp::Put {
                kind,
                driver,
                name,
                payload,
            } => (ObjKey { kind, driver, name }, QueuedOp::Put(payload)),
            StoreOp::Remove { kind, driver, name } => {
                (ObjKey { kind, driver, name }, QueuedOp::Remove)
            }
        }
    }
}

/// A queued mutation: the newest requested content for one object.
#[cfg_attr(test, derive(Debug, Clone, PartialEq, Eq, Hash))]
enum QueuedOp {
    Put(String),
    Remove,
}

/// A barrier waiter: the persister sends its record's result.
type Waiter = mpsc::Sender<VirtResult<()>>;

virt_metrics::metric_set! {
    /// Pipeline + integrity metrics. Allocated with the store and
    /// optionally published into a daemon [`Registry`].
    struct StoreMetrics {
        group_commits: Counter = "group_commits",
            "Batched flush cycles committed by the persister thread";
        coalesced: Counter = "coalesced",
            "Queued records absorbed by a newer write to the same object";
        deduped: Counter = "deduped",
            "Queued records skipped because the committed frame was already identical";
        queue_depth: Gauge = "queue_depth",
            "Dirty objects currently waiting for a flush cycle";
        sync_us: Histogram = "sync_us",
            "Wall-clock latency of one batched flush cycle (writes + fsyncs + dirsyncs)";
        write_error: Counter = "write_error",
            "Failed state writes: I/O errors, injected faults, and directory-fsync failures";
        quarantined: Counter = "quarantined",
            "Corrupt state files moved aside by validated reads";
    }
}

/// State shared between the store handle and the persister thread.
struct Shared {
    root: PathBuf,
    queue: Mutex<Queue<Waiter>>,
    /// Wakes the persister (work arrived, urgency changed, shutdown).
    work_cv: Condvar,
    /// Monotone write counter driving deterministic fault injection.
    writes: Counter,
    fault: Mutex<Option<ArmedFault>>,
    logger: Mutex<Option<Arc<Logger>>>,
    /// Directory-fsync failures are counted per occurrence but logged
    /// once — a sick filesystem would otherwise flood the journal.
    dirsync_logged: AtomicBool,
    metrics: StoreMetrics,
}

/// Crash-safe store rooted at one directory. Cheap to share via `Arc`.
pub struct StateStore {
    shared: Arc<Shared>,
    /// The persister thread; joined when the last store handle drops.
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for StateStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateStore")
            .field("root", &self.shared.root)
            .field("writes", &self.shared.writes.get())
            .field("quarantined", &self.shared.metrics.quarantined.get())
            .finish()
    }
}

fn io_err(context: &str, err: std::io::Error) -> VirtError {
    VirtError::new(
        ErrorCode::OperationFailed,
        format!("state store: {context}: {err}"),
    )
}

impl StateStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationFailed`] when the directories cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> VirtResult<Arc<StateStore>> {
        let root = root.into();
        for kind in [
            ObjectKind::Domain,
            ObjectKind::Network,
            ObjectKind::Pool,
            ObjectKind::DomainStatus,
            ObjectKind::Guard,
        ] {
            let kind_dir = root.join(kind.rel_dir());
            fs::create_dir_all(&kind_dir).map_err(|e| io_err("create layout", e))?;
            sweep_stale_temps(&kind_dir);
        }
        fs::create_dir_all(root.join("quarantine")).map_err(|e| io_err("create layout", e))?;
        let shared = Arc::new(Shared {
            root,
            queue: Mutex::new(Queue::new()),
            work_cv: Condvar::new(),
            writes: Counter::new(),
            fault: Mutex::new(None),
            logger: Mutex::new(None),
            dirsync_logged: AtomicBool::new(false),
            metrics: StoreMetrics::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("statestore-persist".to_string())
            .spawn(move || persister_loop(&thread_shared))
            .map_err(|e| io_err("spawn persister", e))?;
        Ok(Arc::new(StateStore {
            shared,
            worker: Some(worker),
        }))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// Routes the pipeline's rare structured messages (directory-fsync
    /// failures, drop-time drain errors) into a daemon logger instead of
    /// stderr.
    pub fn set_logger(&self, logger: Arc<Logger>) {
        *self.shared.logger.lock() = Some(logger);
    }

    /// Publishes the store's metrics into `registry` as `statestore.*`.
    /// The registry shares the store's own instances, so activity before
    /// and after publication all appears in snapshots.
    pub fn publish_metrics(&self, registry: &Registry) {
        self.shared.metrics.attach(registry, "statestore.");
    }

    /// Arms a deterministic fault: the `nth` write counted from now
    /// (1-based — `1` means the very next write) experiences `kind`.
    /// Arm only while the pipeline is drained (between barriers) —
    /// records already queued would otherwise shift the count.
    pub fn inject_fault(&self, kind: StoreFault, nth: u64) {
        let at_write = self.shared.writes.get() + nth;
        *self.shared.fault.lock() = Some(ArmedFault { kind, at_write });
    }

    /// Logs a warning through the store's logger (stderr until
    /// [`StateStore::set_logger`]) — for a caller explaining a
    /// [`StateStore::quarantine`].
    pub(crate) fn warn(&self, message: &str) {
        self.shared.log_warning(message);
    }

    /// Files moved to quarantine since the store opened.
    pub(crate) fn quarantined_total(&self) -> u64 {
        self.shared.metrics.quarantined.get()
    }

    /// Flush cycles the persister has committed.
    pub fn group_commits_total(&self) -> u64 {
        self.shared.metrics.group_commits.get()
    }

    /// Queued records absorbed by newer writes to the same object.
    pub fn coalesced_total(&self) -> u64 {
        self.shared.metrics.coalesced.get()
    }

    /// Queues `records`, each with a barrier waiter, and blocks until
    /// every one is released — not only up to the first failure.
    fn barrier(&self, records: impl IntoIterator<Item = (ObjKey, QueuedOp)>) -> VirtResult<()> {
        let (tx, rx) = mpsc::channel();
        let mut count = 0;
        for (key, op) in records {
            enqueue(&self.shared, key, op, Some(tx.clone()));
            count += 1;
        }
        rx.iter().take(count).fold(Ok(()), VirtResult::and)
    }

    /// Commits `payload` for `name`, atomically and durably: the record
    /// is queued and the call blocks on the group-commit barrier until a
    /// flush cycle containing (or superseding) it has committed.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationFailed`] on I/O failure (including injected
    /// faults and directory-fsync failures). After an error the
    /// previously committed version — if any — is still served, except
    /// for an injected [`StoreFault::TornWrite`] which deliberately
    /// leaves a corrupt file for validation to catch.
    pub fn put(&self, kind: ObjectKind, driver: &str, name: &str, payload: &str) -> VirtResult<()> {
        let op = QueuedOp::Put(payload.to_string());
        self.barrier([(ObjKey::new(kind, driver, name), op)])
    }

    /// Queues `payload` for `name` **write-behind** and returns
    /// immediately. Durability lags by at most the coalesce window plus
    /// one flush cycle; repeated writes to one object before its cycle
    /// coalesce last-writer-wins. Errors are counted in
    /// `statestore.write_error` and reported by the next [`flush`]
    /// barrier rather than here.
    ///
    /// [`flush`]: StateStore::flush
    pub fn put_behind(&self, kind: ObjectKind, driver: &str, name: &str, payload: &str) {
        let op = QueuedOp::Put(payload.to_string());
        enqueue(&self.shared, ObjKey::new(kind, driver, name), op, None);
    }

    /// Removes `name`'s committed file, blocking on the group-commit
    /// barrier. Missing files are fine — removal is idempotent.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationFailed`] on I/O failure other than absence.
    pub fn remove(&self, kind: ObjectKind, driver: &str, name: &str) -> VirtResult<()> {
        self.barrier([(ObjKey::new(kind, driver, name), QueuedOp::Remove)])
    }

    /// Commits several records through **one** group-commit barrier: all
    /// of them are enqueued first, then the call blocks once. A mutating
    /// op that persists multiple objects (a domain definition plus its
    /// status record, or a multi-file sweep) pays one flush cycle
    /// instead of one per record.
    ///
    /// # Errors
    ///
    /// The first failing record's error; the others still committed or
    /// failed independently (per-record semantics identical to
    /// [`StateStore::put`] / [`StateStore::remove`]).
    pub fn commit(&self, ops: Vec<StoreOp>) -> VirtResult<()> {
        self.barrier(ops.into_iter().map(StoreOp::into_parts))
    }

    /// Queues a removal write-behind (see [`StateStore::put_behind`]).
    pub(crate) fn remove_behind(&self, kind: ObjectKind, driver: &str, name: &str) {
        let key = ObjKey::new(kind, driver, name);
        enqueue(&self.shared, key, QueuedOp::Remove, None);
    }

    /// Drains the pipeline: blocks until every record queued so far has
    /// been committed (or failed). Used at recovery start, daemon
    /// shutdown, and by tests that need write-behind records on disk.
    ///
    /// # Errors
    ///
    /// The first error of any flush cycle completed during the drain —
    /// this is how write-behind failures surface to a caller.
    pub fn flush(&self) -> VirtResult<()> {
        let (tx, rx) = mpsc::channel();
        if !self.shared.queue.lock().flush(tx) {
            return Ok(());
        }
        self.shared.work_cv.notify_one();
        rx.recv().expect("the persister releases every waiter")
    }

    fn file(&self, kind: ObjectKind, driver: &str, name: &str) -> PathBuf {
        self.shared.dir(kind, driver).join(format!("{name}.xml"))
    }

    /// Reads and validates one committed payload. `Ok(None)` when the
    /// file does not exist; a file failing validation is quarantined and
    /// reported as absent. Reads see *committed* frames only — drain
    /// with [`StateStore::flush`] first if write-behind records for this
    /// object may still be queued.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationFailed`] on I/O failure other than absence.
    pub fn get(&self, kind: ObjectKind, driver: &str, name: &str) -> VirtResult<Option<String>> {
        let path = self.file(kind, driver, name);
        match fs::read(&path) {
            Ok(bytes) => match validate(&bytes) {
                Some(payload) => Ok(Some(payload)),
                None => {
                    self.quarantine(kind, driver, name);
                    Ok(None)
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(&format!("read {name}"), e)),
        }
    }

    /// Loads every committed object of `kind` for `driver`, sorted by
    /// name. Corrupt files are quarantined (and counted), not returned —
    /// a torn write can cost at most the object it was updating, never
    /// the daemon's boot.
    pub fn load_all(&self, kind: ObjectKind, driver: &str) -> Vec<(String, String)> {
        let dir = self.shared.dir(kind, driver);
        let Ok(entries) = fs::read_dir(&dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Some(ext) = path.extension().and_then(|s| s.to_str()) else {
                continue;
            };
            if ext != "xml" || stem.starts_with('.') {
                continue; // temp files and strays
            }
            match fs::read(&path).ok().and_then(|bytes| validate(&bytes)) {
                Some(payload) => out.push((stem.to_string(), payload)),
                None => self.quarantine(kind, driver, stem),
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Moves a file that failed validation out of the store, preserving
    /// it for inspection under `quarantine/`.
    pub fn quarantine(&self, kind: ObjectKind, driver: &str, name: &str) {
        let key = ObjKey::new(kind, driver, name);
        self.shared.queue.lock().forget(&key);
        self.shared.quarantine_path(&self.file(kind, driver, name));
    }
}

impl Drop for StateStore {
    fn drop(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.work_cv.notify_one();
        // The persister drains every pending record before exiting —
        // this is the drain-on-shutdown half of the write-behind
        // contract. Errors were already counted and logged by the loop.
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Shared {
    fn dir(&self, kind: ObjectKind, driver: &str) -> PathBuf {
        self.root.join(kind.rel_dir()).join(driver)
    }

    /// Checks the armed fault against this write's sequence number.
    fn take_fault(&self, seq: u64) -> Option<StoreFault> {
        let mut slot = self.fault.lock();
        match &*slot {
            Some(armed) if seq >= armed.at_write => slot.take().map(|a| a.kind),
            _ => None,
        }
    }

    fn quarantine_path(&self, path: &Path) {
        self.metrics.quarantined.inc();
        let base = path
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("corrupt");
        let quarantine = self.root.join("quarantine");
        // `hard_link` refuses an existing destination, so the first free
        // `{n}-{base}` is claimed atomically: evidence kept by an earlier
        // daemon life or a racing thread is never replaced.
        let mut n = 0u64;
        while matches!(
            fs::hard_link(path, quarantine.join(format!("{n}-{base}"))),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists
        ) {
            n += 1;
        }
        // Linked or not (source gone, no hard links here): removal is
        // what protects boot.
        let _ = fs::remove_file(path);
    }

    fn log_warning(&self, message: &str) {
        match &*self.logger.lock() {
            Some(logger) => logger.warning("statestore", message),
            None => eprintln!("statestore: warning: {message}"),
        }
    }

    /// Directory-fsync failure: counted every time, logged once.
    fn note_dirsync_failure(&self, dir: &Path, err: &std::io::Error) {
        self.metrics.write_error.inc();
        if !self.dirsync_logged.swap(true, Ordering::Relaxed) {
            self.log_warning(&format!(
                "directory fsync failed for {} ({err}); renames in this batch may not \
                 survive a power cut — reporting the batch as failed (logged once)",
                dir.display()
            ));
        }
    }
}

/// Removes the `.<name>.tmp<seq>` files ([`stage_one`]) a killed daemon
/// staged but never renamed, in every driver directory under
/// `kind_dir`. Called before the persister thread exists, so it cannot
/// take a temp file a running flush cycle owns.
fn sweep_stale_temps(kind_dir: &Path) {
    let entries = |dir: &Path| fs::read_dir(dir).into_iter().flatten().flatten();
    for driver_dir in entries(kind_dir) {
        for entry in entries(&driver_dir.path()) {
            let name = entry.file_name();
            let is_temp = name.to_str().is_some_and(|name| {
                let seq = name.rsplit_once(".tmp").map(|(_, seq)| seq);
                name.starts_with('.') && seq.is_some_and(|seq| seq.parse::<u64>().is_ok())
            });
            if is_temp {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// Enqueues one record. Cannot meet a shut-down pipeline: shutdown is
/// set only by `Drop`, whose `&mut self` rules out a concurrent caller.
fn enqueue(shared: &Shared, key: ObjKey, op: QueuedOp, waiter: Option<Waiter>) {
    let now = Instant::now();
    let mut q = shared.queue.lock();
    if q.push(key, op, waiter, now) {
        shared.metrics.coalesced.inc();
    }
    shared.metrics.queue_depth.set(q.depth() as u64);
    shared.work_cv.notify_one();
}

/// The persister thread: each turn reads the time once and does what the
/// queue machine says — sleep, exit, or run one flush cycle with no lock
/// held and report its per-record outcome.
fn persister_loop(shared: &Shared) {
    let mut q = shared.queue.lock();
    loop {
        let now = Instant::now();
        let plan = match q.next(now) {
            Step::Flush(plan) => plan,
            Step::Sleep(Some(deadline)) => {
                shared.work_cv.wait_until(&mut q, deadline);
                continue;
            }
            Step::Sleep(None) => {
                shared.work_cv.wait(&mut q);
                continue;
            }
            Step::Exit => return,
        };
        shared.metrics.queue_depth.set(0);
        shared.metrics.deduped.add(plan.deduped);
        drop(q);
        for waiter in plan.released {
            let _ = waiter.send(Ok(()));
        }
        let results = flush_batch(shared, &plan.writes);
        shared.metrics.sync_us.record(now.elapsed());
        shared.metrics.group_commits.inc();
        let released = shared.queue.lock().outcome(results);
        for (waiter, result) in released {
            let _ = waiter.send(result);
        }
        q = shared.queue.lock();
    }
}

/// A put staged across the batch's phases.
struct StagedPut {
    index: usize,
    tmp: PathBuf,
    dest: PathBuf,
    dir: PathBuf,
    file: File,
    torn: bool,
}

/// Commits one batch in phases, so the whole cycle costs about one device
/// flush instead of one per file:
///
/// 1. write every record's frame to a temp file (no fsync yet);
/// 2. make the staged frames durable: one `syncfs` for two or more,
///    else (or when it fails) per-file fsync;
/// 3. rename each temp over its destination — only after its bytes are
///    durable, so the per-file old-frame / new-frame contract is exactly
///    the single-write discipline;
/// 4. sync the touched directories: one `syncfs` for two or more.
///
/// Returns one result per record, in batch order.
fn flush_batch(shared: &Shared, batch: &[(ObjKey, QueuedOp)]) -> Vec<VirtResult<()>> {
    let mut results: Vec<VirtResult<()>> = vec![Ok(()); batch.len()];
    // Directories whose entries changed this cycle, with the indices of
    // the records that depend on each one's fsync.
    let mut touched: BTreeMap<PathBuf, Vec<usize>> = BTreeMap::new();
    let mut staged: Vec<StagedPut> = Vec::with_capacity(batch.len());

    // Phase 1: removals execute, puts stage their temp files.
    for (index, (key, op)) in batch.iter().enumerate() {
        let dir = shared.dir(key.kind, &key.driver);
        let dest = dir.join(format!("{}.xml", key.name));
        match op {
            QueuedOp::Remove => match fs::remove_file(&dest) {
                Ok(()) => touched.entry(dir).or_default().push(index),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    shared.metrics.write_error.inc();
                    results[index] = Err(io_err(&format!("remove {}", key.name), e));
                }
            },
            QueuedOp::Put(payload) => {
                let seq = shared.writes.get() + 1;
                shared.writes.inc();
                let fault = shared.take_fault(seq);
                match stage_one(key, &dir, payload, seq, fault) {
                    Ok((tmp, file, torn)) => staged.push(StagedPut {
                        index,
                        tmp,
                        dest,
                        dir,
                        file,
                        torn,
                    }),
                    Err(e) => {
                        shared.metrics.write_error.inc();
                        results[index] = Err(io_err(&format!("write {}", key.name), e));
                    }
                }
            }
        }
    }

    // Phase 2 + 3: make each staged frame durable, then rename it.
    let batch_synced = staged.len() >= 2 && sync_filesystem(&shared.root);
    for put in staged {
        let key = &batch[put.index].0;
        let synced = if batch_synced {
            Ok(())
        } else {
            put.file.sync_all()
        };
        drop(put.file);
        match synced.and_then(|()| fs::rename(&put.tmp, &put.dest)) {
            Ok(()) => {
                touched.entry(put.dir).or_default().push(put.index);
                if put.torn {
                    // The torn bytes are in place; surface the "crash".
                    shared.metrics.write_error.inc();
                    results[put.index] = Err(VirtError::new(
                        ErrorCode::OperationFailed,
                        "state store: injected torn write",
                    ));
                }
            }
            Err(e) => {
                let _ = fs::remove_file(&put.tmp);
                shared.metrics.write_error.inc();
                results[put.index] = Err(io_err(&format!("write {}", key.name), e));
            }
        }
    }

    // Phase 4: make the renames durable — they only count once their
    // directory entries are. A failure fails every record that depended
    // on the directory (unless it already failed for its own reason).
    if touched.len() >= 2 && sync_filesystem(&shared.root) {
        return results;
    }
    for (dir, indices) in touched {
        if let Err(e) = File::open(&dir).and_then(|d| d.sync_all()) {
            shared.note_dirsync_failure(&dir, &e);
            let err = io_err(&format!("sync directory {}", dir.display()), e);
            for index in indices {
                if results[index].is_ok() {
                    results[index] = Err(err.clone());
                }
            }
        }
    }
    results
}

/// Stages one frame: builds header + payload and writes it to a unique
/// temp file in the target directory, *without* fsyncing — the batch
/// fsyncs in its own phase. Fault injection hooks in before any byte
/// moves (`FailWrite`) or by truncating the frame (`TornWrite`; the
/// returned flag tells the caller to report the write as failed after
/// renaming the torn bytes into place).
fn stage_one(
    key: &ObjKey,
    dir: &Path,
    payload: &str,
    seq: u64,
    fault: Option<StoreFault>,
) -> std::io::Result<(PathBuf, File, bool)> {
    let body = payload.as_bytes();
    let header = format!(
        "{HEADER_MAGIC} fnv={:016x} len={}\n",
        fnv1a(body),
        body.len()
    );
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(body);
    let torn = matches!(fault, Some(StoreFault::TornWrite));
    if torn {
        // Simulate the crash the format defends against: a prefix of
        // the record lands in the final location.
        bytes.truncate(bytes.len() / 2);
    }
    fs::create_dir_all(dir)?;
    if let Some(StoreFault::FailWrite) = fault {
        return Err(std::io::Error::other("injected write failure"));
    }
    let tmp = dir.join(format!(".{}.tmp{seq}", key.name));
    let mut f = File::create(&tmp)?;
    if let Err(e) = f.write_all(&bytes) {
        drop(f);
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok((tmp, f, torn))
}

/// Validates a raw file: header magic, length, checksum. Returns the
/// payload on success.
fn validate(bytes: &[u8]) -> Option<String> {
    let newline = bytes.iter().position(|b| *b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let rest = header.strip_prefix(HEADER_MAGIC)?.trim();
    let mut fnv = None;
    let mut len = None;
    for field in rest.split_whitespace() {
        if let Some(v) = field.strip_prefix("fnv=") {
            fnv = u64::from_str_radix(v, 16).ok();
        } else if let Some(v) = field.strip_prefix("len=") {
            len = v.parse::<usize>().ok();
        }
    }
    let (expected_fnv, expected_len) = (fnv?, len?);
    let body = &bytes[newline + 1..];
    if body.len() != expected_len || fnv1a(body) != expected_fnv {
        return None;
    }
    String::from_utf8(body.to_vec()).ok()
}

/// Volatile per-domain status record — what `run/` remembers about a
/// domain between daemon lives: whether it was running, its identity, and
/// the autostart marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainStatus {
    /// Domain name (matches the definition file's name).
    pub name: String,
    /// Stable identity, preserved across daemon restarts.
    pub uuid: Uuid,
    /// Lifecycle state at the last committed update.
    pub state: DomainState,
    /// Start-at-daemon-boot marker.
    pub autostart: bool,
    /// Whether a managed-save image exists.
    pub has_managed_save: bool,
}

fn state_str(state: DomainState) -> &'static str {
    match state {
        DomainState::Shutoff => "shutoff",
        DomainState::Running => "running",
        DomainState::Paused => "paused",
        DomainState::Saved => "saved",
        DomainState::Crashed => "crashed",
    }
}

fn state_from_str(s: &str) -> Option<DomainState> {
    Some(match s {
        "shutoff" => DomainState::Shutoff,
        "running" => DomainState::Running,
        "paused" => DomainState::Paused,
        "saved" => DomainState::Saved,
        "crashed" => DomainState::Crashed,
        _ => return None,
    })
}

impl DomainStatus {
    /// Serializes to the status-record XML document.
    pub fn to_xml_string(&self) -> String {
        let mut el = Element::new("domstatus");
        el.set_attr("state", state_str(self.state));
        let bit = |on: bool| if on { "1" } else { "0" };
        el.set_attr("autostart", bit(self.autostart));
        el.set_attr("managed_save", bit(self.has_managed_save));
        el.push_child(Element::with_text("name", self.name.clone()));
        el.push_child(Element::with_text("uuid", self.uuid.to_string()));
        el.to_pretty_string()
    }

    /// Parses a status-record document (schema validation: unknown or
    /// missing fields are errors, so a corrupt-but-checksummed file still
    /// cannot smuggle garbage into recovery).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::XmlError`] on any malformed document.
    pub fn from_xml_str(xml: &str) -> VirtResult<DomainStatus> {
        let bad =
            |what: &str| VirtError::new(ErrorCode::XmlError, format!("domstatus: invalid {what}"));
        let doc = Document::parse(xml)
            .map_err(|e| VirtError::new(ErrorCode::XmlError, format!("domstatus: {e}")))?;
        let el = doc.root();
        if el.name() != "domstatus" {
            return Err(bad("root element"));
        }
        let name = el
            .child_text("name")
            .ok_or_else(|| bad("name"))?
            .to_string();
        let uuid: Uuid = el
            .child_text("uuid")
            .ok_or_else(|| bad("uuid"))?
            .parse()
            .map_err(|_| bad("uuid"))?;
        let state = el
            .attr("state")
            .and_then(state_from_str)
            .ok_or_else(|| bad("state"))?;
        let flag = |attr: &str| match el.attr(attr) {
            Some("1") => Ok(true),
            Some("0") => Ok(false),
            _ => Err(bad(attr)),
        };
        Ok(DomainStatus {
            name,
            uuid,
            state,
            autostart: flag("autostart")?,
            has_managed_save: flag("managed_save")?,
        })
    }
}

/// Test-only: the unit tests below build their fixtures with it.
#[cfg(test)]
impl StateStore {
    /// Queued records skipped because the committed frame was identical.
    fn deduped_total(&self) -> u64 {
        self.shared.metrics.deduped.get()
    }

    /// Writes that failed (real I/O errors, injected faults, and
    /// directory-fsync failures).
    fn write_error_total(&self) -> u64 {
        self.shared.metrics.write_error.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "virt-statestore-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn temp_store(tag: &str) -> Arc<StateStore> {
        StateStore::open(temp_dir(tag)).unwrap()
    }

    #[test]
    fn put_get_roundtrip_and_replace() {
        let store = temp_store("rt");
        store
            .put(ObjectKind::Domain, "qemu", "web", "<domain>v1</domain>")
            .unwrap();
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "web").unwrap(),
            Some("<domain>v1</domain>".to_string())
        );
        store
            .put(ObjectKind::Domain, "qemu", "web", "<domain>v2</domain>")
            .unwrap();
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "web").unwrap(),
            Some("<domain>v2</domain>".to_string())
        );
        let all = store.load_all(ObjectKind::Domain, "qemu");
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, "web");
    }

    #[test]
    fn kinds_and_drivers_are_isolated() {
        let store = temp_store("iso");
        store
            .put(ObjectKind::Domain, "qemu", "a", "qemu-a")
            .unwrap();
        store.put(ObjectKind::Domain, "xen", "a", "xen-a").unwrap();
        store
            .put(ObjectKind::Network, "qemu", "a", "net-a")
            .unwrap();
        assert_eq!(store.load_all(ObjectKind::Domain, "qemu").len(), 1);
        assert_eq!(
            store.get(ObjectKind::Domain, "xen", "a").unwrap().unwrap(),
            "xen-a"
        );
        assert_eq!(
            store
                .get(ObjectKind::Network, "qemu", "a")
                .unwrap()
                .unwrap(),
            "net-a"
        );
        assert_eq!(store.get(ObjectKind::Pool, "qemu", "a").unwrap(), None);
    }

    #[test]
    fn remove_is_idempotent() {
        let store = temp_store("rm");
        store.put(ObjectKind::Domain, "qemu", "web", "x").unwrap();
        store.remove(ObjectKind::Domain, "qemu", "web").unwrap();
        store.remove(ObjectKind::Domain, "qemu", "web").unwrap();
        assert_eq!(store.get(ObjectKind::Domain, "qemu", "web").unwrap(), None);
    }

    #[test]
    fn injected_write_failure_preserves_previous_version() {
        let store = temp_store("fail");
        store.put(ObjectKind::Domain, "qemu", "web", "v1").unwrap();
        store.inject_fault(StoreFault::FailWrite, 1);
        let err = store
            .put(ObjectKind::Domain, "qemu", "web", "v2")
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationFailed);
        assert_eq!(store.write_error_total(), 1);
        // The previous committed version is fully intact.
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "web").unwrap(),
            Some("v1".to_string())
        );
        // The fault is one-shot: the next write succeeds.
        store.put(ObjectKind::Domain, "qemu", "web", "v3").unwrap();
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "web").unwrap(),
            Some("v3".to_string())
        );
    }

    #[test]
    fn injected_torn_write_is_quarantined_on_read() {
        let store = temp_store("torn");
        store.put(ObjectKind::Domain, "qemu", "web", "v1").unwrap();
        store.inject_fault(StoreFault::TornWrite, 1);
        store
            .put(ObjectKind::Domain, "qemu", "web", "v2-longer-payload")
            .unwrap_err();
        // The torn file is on disk; a validated read refuses to serve it
        // and moves it aside instead of crashing.
        assert_eq!(store.get(ObjectKind::Domain, "qemu", "web").unwrap(), None);
        assert_eq!(store.quarantined_total(), 1);
        assert!(store.load_all(ObjectKind::Domain, "qemu").is_empty());
        // The quarantined copy is preserved for inspection.
        let quarantine = store.root().join("quarantine");
        assert_eq!(fs::read_dir(quarantine).unwrap().count(), 1);
    }

    #[test]
    fn quarantine_never_overwrites_an_earlier_lifes_evidence() {
        let dir = temp_dir("quarantine-lives");
        let victim = dir.join("etc/domains/qemu/web.xml");
        for life in ["torn in life one", "torn in life two"] {
            let store = StateStore::open(&dir).unwrap();
            fs::create_dir_all(victim.parent().unwrap()).unwrap();
            fs::write(&victim, life).unwrap();
            assert_eq!(store.get(ObjectKind::Domain, "qemu", "web").unwrap(), None);
            assert_eq!(store.quarantined_total(), 1);
        }
        let mut kept: Vec<String> = fs::read_dir(dir.join("quarantine"))
            .unwrap()
            .map(|e| fs::read_to_string(e.unwrap().path()).unwrap())
            .collect();
        kept.sort();
        assert_eq!(kept, ["torn in life one", "torn in life two"]);
    }

    #[test]
    fn concurrent_quarantines_of_one_base_name_lose_none() {
        let store = temp_store("quarantine-race");
        let targets = [
            (ObjectKind::Domain, "qemu"),
            (ObjectKind::Domain, "xen"),
            (ObjectKind::DomainStatus, "qemu"),
            (ObjectKind::DomainStatus, "xen"),
            (ObjectKind::Network, "qemu"),
            (ObjectKind::Pool, "qemu"),
            (ObjectKind::Guard, "qemu"),
            (ObjectKind::Guard, "xen"),
        ];
        let rounds = 25;
        // Lines the threads up so each round's quarantines really race.
        let start = Arc::new(std::sync::Barrier::new(targets.len()));
        let threads: Vec<_> = targets
            .into_iter()
            .map(|(kind, driver)| {
                let (store, start) = (Arc::clone(&store), Arc::clone(&start));
                std::thread::spawn(move || {
                    let dir = store.shared.dir(kind, driver);
                    fs::create_dir_all(&dir).unwrap();
                    for round in 0..rounds {
                        fs::write(dir.join("web.xml"), format!("{kind:?} {driver} {round}"))
                            .unwrap();
                        start.wait();
                        store.quarantine(kind, driver, "web");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let kept: std::collections::HashSet<String> = fs::read_dir(store.root().join("quarantine"))
            .unwrap()
            .map(|e| fs::read_to_string(e.unwrap().path()).unwrap())
            .collect();
        assert_eq!(kept.len(), targets.len() * rounds);
        assert_eq!(store.quarantined_total(), (targets.len() * rounds) as u64);
    }

    #[test]
    fn reopen_sweeps_staged_temp_files_and_nothing_else() {
        let dir = temp_dir("sweep");
        {
            let store = StateStore::open(&dir).unwrap();
            store.put(ObjectKind::Domain, "qemu", "web", "v1").unwrap();
        }
        let qemu = dir.join("etc/domains/qemu");
        // What a SIGKILL between staging and rename leaves behind.
        fs::write(qemu.join(".web.tmp7"), "#virtstate v1 fnv=00").unwrap();
        fs::write(qemu.join(".db.tmp12"), "").unwrap();
        fs::write(qemu.join(".tmpfile"), "not ours: no sequence number").unwrap();
        let store = StateStore::open(&dir).unwrap();
        let mut left: Vec<String> = fs::read_dir(&qemu)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, [".tmpfile", "web.xml"]);
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "web").unwrap(),
            Some("v1".to_string())
        );
    }

    #[test]
    fn frame_written_before_the_shared_fnv1a_still_validates() {
        // etc/domains/qemu/web.xml as the pre-PR 19 tree wrote it, when
        // the store carried its own copy of the checksum.
        let frame = b"#virtstate v1 fnv=416425a3e6a16ff0 len=19\n<domain>v2</domain>";
        let store = temp_store("old-frame");
        let path = store.file(ObjectKind::Domain, "qemu", "web");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, frame).unwrap();
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "web").unwrap(),
            Some("<domain>v2</domain>".to_string())
        );
        assert_eq!(store.quarantined_total(), 0);
    }

    #[test]
    fn nth_write_fault_is_deterministic() {
        let store = temp_store("nth");
        store.inject_fault(StoreFault::FailWrite, 3);
        store.put(ObjectKind::Domain, "qemu", "a", "1").unwrap();
        store.put(ObjectKind::Domain, "qemu", "b", "2").unwrap();
        store.put(ObjectKind::Domain, "qemu", "c", "3").unwrap_err();
        store.put(ObjectKind::Domain, "qemu", "d", "4").unwrap();
        assert_eq!(store.load_all(ObjectKind::Domain, "qemu").len(), 3);
    }

    #[test]
    fn hand_truncated_file_quarantines_not_panics() {
        let store = temp_store("trunc");
        store
            .put(
                ObjectKind::Domain,
                "qemu",
                "web",
                "a payload long enough to truncate",
            )
            .unwrap();
        let path = store.root().join("etc/domains/qemu/web.xml");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.get(ObjectKind::Domain, "qemu", "web").unwrap(), None);
        assert_eq!(store.quarantined_total(), 1);
    }

    #[test]
    fn garbage_file_without_header_quarantines() {
        let store = temp_store("garbage");
        let dir = store.root().join("etc/domains/qemu");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("evil.xml"), b"<domain>no header</domain>").unwrap();
        assert!(store.load_all(ObjectKind::Domain, "qemu").is_empty());
        assert_eq!(store.quarantined_total(), 1);
    }

    #[test]
    fn guard_records_roundtrip_through_store() {
        use crate::guard::{GuardPolicy, GuardRecord};
        let store = temp_store("guard");
        let record = GuardRecord {
            domain: "web".to_string(),
            policy: GuardPolicy::KeepRunning { max_restarts: 4 },
        };
        store
            .put(ObjectKind::Guard, "qemu", "web", &record.to_xml_string())
            .unwrap();
        let loaded = store.load_all(ObjectKind::Guard, "qemu");
        assert_eq!(loaded.len(), 1);
        assert_eq!(GuardRecord::from_xml_str(&loaded[0].1).unwrap(), record);
        // Guard records live in their own directory, invisible to the
        // other kinds.
        assert!(store.load_all(ObjectKind::Domain, "qemu").is_empty());
        store.remove(ObjectKind::Guard, "qemu", "web").unwrap();
        assert!(store.load_all(ObjectKind::Guard, "qemu").is_empty());
    }

    #[test]
    fn torn_guard_record_is_quarantined_not_recovered() {
        use crate::guard::{GuardPolicy, GuardRecord};
        let store = temp_store("guard-torn");
        let keep = GuardRecord {
            domain: "web".to_string(),
            policy: GuardPolicy::KeepRunning { max_restarts: 3 },
        };
        let stop = GuardRecord {
            domain: "db".to_string(),
            policy: GuardPolicy::GracefulStop { timeout_ms: 500 },
        };
        store
            .put(ObjectKind::Guard, "qemu", "web", &keep.to_xml_string())
            .unwrap();
        store.inject_fault(StoreFault::TornWrite, 1);
        store
            .put(ObjectKind::Guard, "qemu", "db", &stop.to_xml_string())
            .unwrap_err();
        // The torn record is moved aside; the intact one survives.
        let loaded = store.load_all(ObjectKind::Guard, "qemu");
        assert_eq!(loaded.len(), 1);
        assert_eq!(GuardRecord::from_xml_str(&loaded[0].1).unwrap(), keep);
        assert_eq!(store.quarantined_total(), 1);
        // A checksummed-but-invalid document is also refused: the
        // schema check quarantines what the checksum cannot.
        store
            .put(
                ObjectKind::Guard,
                "qemu",
                "evil",
                "<guard policy=\"bogus\"/>",
            )
            .unwrap();
        let loaded = store.load_all(ObjectKind::Guard, "qemu");
        let parsed: Vec<GuardRecord> = loaded
            .iter()
            .filter_map(|(_, xml)| GuardRecord::from_xml_str(xml).ok())
            .collect();
        assert_eq!(parsed, vec![keep]);
    }

    #[test]
    fn domain_status_roundtrip() {
        let status = DomainStatus {
            name: "web".to_string(),
            uuid: Uuid::generate(),
            state: DomainState::Running,
            autostart: true,
            has_managed_save: false,
        };
        let xml = status.to_xml_string();
        assert_eq!(DomainStatus::from_xml_str(&xml).unwrap(), status);
        assert!(DomainStatus::from_xml_str("<domstatus/>").is_err());
        assert!(DomainStatus::from_xml_str("<wat/>").is_err());
        assert!(DomainStatus::from_xml_str(
            "<domstatus state='sideways' autostart='1' managed_save='0'>\
             <name>x</name><uuid>6ba7b810-9dad-41d1-80b4-00c04fd430c8</uuid></domstatus>"
        )
        .is_err());
    }

    // ---- pipeline behavior ------------------------------------------------

    #[test]
    fn write_behind_burst_to_one_object_coalesces_to_last_frame() {
        let store = temp_store("coalesce");
        for i in 0..50 {
            store.put_behind(
                ObjectKind::DomainStatus,
                "qemu",
                "web",
                &format!("frame-{i}"),
            );
        }
        store.flush().unwrap();
        assert_eq!(
            store.get(ObjectKind::DomainStatus, "qemu", "web").unwrap(),
            Some("frame-49".to_string())
        );
        // The storm cost at most a couple of flush cycles, not 50.
        assert!(
            store.group_commits_total() <= 2,
            "50-write burst took {} cycles",
            store.group_commits_total()
        );
        assert!(store.coalesced_total() >= 48, "{}", store.coalesced_total());
    }

    #[test]
    fn identical_payload_rewrite_is_skipped() {
        let store = temp_store("dedup");
        store
            .put(ObjectKind::Domain, "qemu", "web", "same")
            .unwrap();
        let writes_after_first = store.shared.writes.get();
        store
            .put(ObjectKind::Domain, "qemu", "web", "same")
            .unwrap();
        assert_eq!(store.deduped_total(), 1);
        assert_eq!(
            store.shared.writes.get(),
            writes_after_first,
            "the identical put wrote a file"
        );
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "web").unwrap(),
            Some("same".to_string())
        );
        // A genuinely new frame still writes.
        store.put(ObjectKind::Domain, "qemu", "web", "new").unwrap();
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "web").unwrap(),
            Some("new".to_string())
        );
        assert_eq!(store.shared.writes.get(), writes_after_first + 1);
    }

    #[test]
    fn concurrent_durable_writers_share_flush_cycles() {
        let store = temp_store("group");
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        store
                            .put(
                                ObjectKind::Domain,
                                "qemu",
                                &format!("dom-{t}-{i}"),
                                &format!("payload {t} {i}"),
                            )
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.load_all(ObjectKind::Domain, "qemu").len(), 80);
        // Group commit: 80 durable writes from 8 writers must not cost
        // 80 cycles. (The exact count depends on scheduling; the bound
        // proves batching happened.)
        assert!(
            store.group_commits_total() < 80,
            "no batching: {} cycles for 80 writes",
            store.group_commits_total()
        );
    }

    #[test]
    fn flush_surfaces_write_behind_errors() {
        let store = temp_store("behind-err");
        store.inject_fault(StoreFault::FailWrite, 1);
        store.put_behind(ObjectKind::DomainStatus, "qemu", "web", "doomed");
        let err = store.flush().unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationFailed);
        assert_eq!(store.write_error_total(), 1);
        // The pipeline recovers: later writes succeed and flush is clean.
        store.put_behind(ObjectKind::DomainStatus, "qemu", "web", "fine");
        store.flush().unwrap();
        assert_eq!(
            store.get(ObjectKind::DomainStatus, "qemu", "web").unwrap(),
            Some("fine".to_string())
        );
    }

    #[test]
    fn drop_drains_pending_write_behind_records() {
        let dir = temp_dir("drop-drain");
        {
            let store = StateStore::open(&dir).unwrap();
            for i in 0..20 {
                store.put_behind(
                    ObjectKind::DomainStatus,
                    "qemu",
                    &format!("dom{i}"),
                    &format!("status {i}"),
                );
            }
            // No flush: Drop must drain.
        }
        let store = StateStore::open(&dir).unwrap();
        assert_eq!(store.load_all(ObjectKind::DomainStatus, "qemu").len(), 20);
    }

    #[test]
    fn interleaved_put_and_remove_coalesce_to_final_state() {
        let store = temp_store("final-state");
        store.put_behind(ObjectKind::Domain, "qemu", "a", "a1");
        store.remove_behind(ObjectKind::Domain, "qemu", "a");
        store.put_behind(ObjectKind::Domain, "qemu", "a", "a2");
        store.put_behind(ObjectKind::Domain, "qemu", "b", "b1");
        store.remove_behind(ObjectKind::Domain, "qemu", "b");
        store.flush().unwrap();
        assert_eq!(
            store.get(ObjectKind::Domain, "qemu", "a").unwrap(),
            Some("a2".to_string())
        );
        assert_eq!(store.get(ObjectKind::Domain, "qemu", "b").unwrap(), None);
    }

    proptest::proptest! {
        /// Coalescing is last-writer-wins per object: any interleaving
        /// of puts and removes to one object, through any mix of the
        /// durable and write-behind paths, leaves exactly the final
        /// operation's frame on disk.
        #[test]
        fn coalesced_writes_always_land_the_last_frame(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, proptest::bool::ANY, 0u32..1000), 1..40
            )
        ) {
            let store = temp_store("prop");
            let mut expected: Option<String> = None;
            for (durable, is_put, tag) in &ops {
                if *is_put {
                    let payload = format!("frame-{tag}");
                    if *durable {
                        store.put(ObjectKind::DomainStatus, "qemu", "obj", &payload).unwrap();
                    } else {
                        store.put_behind(ObjectKind::DomainStatus, "qemu", "obj", &payload);
                    }
                    expected = Some(payload);
                } else {
                    if *durable {
                        store.remove(ObjectKind::DomainStatus, "qemu", "obj").unwrap();
                    } else {
                        store.remove_behind(ObjectKind::DomainStatus, "qemu", "obj");
                    }
                    expected = None;
                }
            }
            store.flush().unwrap();
            let on_disk = store.get(ObjectKind::DomainStatus, "qemu", "obj").unwrap();
            proptest::prop_assert_eq!(on_disk, expected);
            proptest::prop_assert_eq!(store.quarantined_total(), 0);
        }
    }
}
