//! The domain-job engine: cancellable long-running operations with
//! progress reporting.
//!
//! Mirrors libvirt's domain-job subsystem (`virDomainGetJobStats`,
//! `virDomainAbortJob`): long-running operations — live migration,
//! save/restore, managed-save — run as *jobs* that publish progress while
//! they execute and can be aborted mid-flight. The daemon-side
//! [`JobManager`] enforces libvirt's one-modify-job-per-domain exclusion
//! and keeps the stats of the most recent job per domain queryable after
//! completion; the client-side [`JobHandle`] pairs a started operation
//! with the polling/abort calls.
//!
//! Query and abort are **high-priority** procedures, answered inline by
//! the RPC server, so both succeed even when every worker is occupied by
//! running jobs — the same reason libvirt has priority workers at all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use virt_metrics::wire_enum;
use virt_rpc::xdr_as_u32;

use crate::error::{ErrorCode, VirtError, VirtResult};

wire_enum! {
    /// What kind of operation a job is running.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    #[non_exhaustive]
    pub enum JobKind {
        /// No job (the idle placeholder in [`JobStats`]).
        #[default]
        None = 0 => "none",
        /// Live migration of the domain to another host.
        Migration = 1 => "migration",
        /// Saving domain memory to storage (also managed-save).
        Save = 2 => "save",
        /// Restoring domain memory from a save image.
        Restore = 3 => "restore",
    }
}

wire_enum! {
    /// Lifecycle state of a job.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    #[non_exhaustive]
    pub enum JobState {
        /// No job has run on this domain.
        #[default]
        None = 0 => "none",
        /// The job is executing.
        Running = 1 => "running",
        /// The job finished successfully.
        Completed = 2 => "completed",
        /// The job failed; [`JobStats::error`] carries the reason.
        Failed = 3 => "failed",
        /// The job was cancelled by an abort request.
        Aborted = 4 => "aborted",
    }
}

impl JobState {
    /// `true` while the job is still executing.
    pub fn is_active(self) -> bool {
        self == JobState::Running
    }
}

// A number this build does not know decodes as `None`, never as an error:
// a newer daemon's job kinds must not break `domjobinfo`.
impl From<u32> for JobKind {
    fn from(number: u32) -> Self {
        Self::from_u32(number).unwrap_or_default()
    }
}

impl From<u32> for JobState {
    fn from(number: u32) -> Self {
        Self::from_u32(number).unwrap_or_default()
    }
}

xdr_as_u32!(JobKind, JobState);

/// A point-in-time snapshot of a domain's (most recent) job.
///
/// Data volumes are in MiB; times are in milliseconds of the hosts'
/// virtual clock, so repeated polls of a simulated migration show the
/// same numbers a real one would.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobStats {
    /// What the job is doing.
    pub kind: JobKind,
    /// Where the job is in its lifecycle.
    pub state: JobState,
    /// Time spent so far (virtual-clock ms).
    pub elapsed_ms: u64,
    /// Total data the job expects to move.
    pub data_total_mib: u64,
    /// Data moved so far.
    pub data_processed_mib: u64,
    /// Data still to move (for migration this is the current dirty set,
    /// so it can grow between polls even as processed increases).
    pub data_remaining_mib: u64,
    /// Pre-copy iterations completed (migration only).
    pub memory_iterations: u32,
    /// Failure reason when `state` is [`JobState::Failed`].
    pub error: String,
    /// The request trace the job was started under, 0 when untraced.
    /// Lets `domjobinfo` and job events point back into the flight
    /// recorder for the full stage breakdown.
    pub trace_id: u64,
}

impl JobStats {
    /// Completion estimate in percent, derived from processed vs
    /// processed+remaining. 0 when nothing has happened yet.
    pub fn progress_percent(&self) -> u32 {
        let done = self.data_processed_mib;
        let span = done + self.data_remaining_mib;
        match (done * 100).checked_div(span) {
            Some(pct) => pct.min(100) as u32,
            None if self.state == JobState::Completed => 100,
            None => 0,
        }
    }

    /// Estimated milliseconds to completion, extrapolated from the rate
    /// so far. `None` until any data has been processed.
    pub fn eta_ms(&self) -> Option<u64> {
        if self.data_processed_mib == 0 || !self.state.is_active() {
            return None;
        }
        Some(self.elapsed_ms * self.data_remaining_mib / self.data_processed_mib)
    }
}

virt_metrics::metric_set! {
    /// Shared `jobs.*` metrics: one global set covering every
    /// [`JobManager`] in the process, attached to each daemon's registry.
    pub struct JobMetrics {
        active: Gauge = "active", "Domain jobs currently running";
        completed: Counter = "completed", "Domain jobs that completed successfully";
        aborted: Counter = "aborted", "Domain jobs cancelled by abort";
        failed: Counter = "failed", "Domain jobs that failed";
        duration_us: Histogram = "duration_us", "Wall-clock duration of finished domain jobs";
    }
}

/// The process-wide job metrics (see [`JobMetrics`]).
pub fn job_metrics() -> &'static JobMetrics {
    static METRICS: OnceLock<JobMetrics> = OnceLock::new();
    METRICS.get_or_init(JobMetrics::new)
}

struct JobEntry {
    stats: JobStats,
    abort: Arc<AtomicBool>,
    started: Instant,
    /// Distinguishes a restarted job from a stale ticket of an earlier
    /// one: finish calls only apply when the epoch still matches.
    epoch: u64,
}

/// Tracks the jobs of one host's domains and enforces the
/// one-modify-job-per-domain exclusion.
///
/// Completed/failed/aborted entries are retained so the most recent
/// job's outcome stays queryable (as libvirt's completed-job stats do).
///
/// One lock over every domain's job: each operation takes it once and
/// holds it for a lookup and a few field writes. A job publishes progress
/// once per slice of simulated work, and a bulk-stats pass takes the lock
/// once per call.
#[derive(Default)]
pub struct JobManager {
    jobs: Mutex<Jobs>,
}

#[derive(Default)]
struct Jobs {
    entries: HashMap<String, JobEntry>,
    /// The epoch of the latest job begun.
    epoch: u64,
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("domains", &self.jobs.lock().entries.len())
            .finish()
    }
}

impl JobManager {
    /// An empty manager.
    pub fn new() -> Self {
        JobManager::default()
    }

    /// The shared manager for the host named `host`.
    ///
    /// Keyed globally so an in-process daemon restart — which rebuilds
    /// its driver connections around the same `SimHost` — sees the jobs
    /// that were in flight before the restart and can fail them
    /// ([`JobManager::fail_running`]), like libvirt's job recovery on
    /// daemon startup.
    pub(crate) fn for_host(host: &str) -> Arc<JobManager> {
        static MANAGERS: OnceLock<Mutex<HashMap<String, Arc<JobManager>>>> = OnceLock::new();
        let managers = MANAGERS.get_or_init(|| Mutex::new(HashMap::new()));
        Arc::clone(
            managers
                .lock()
                .entry(host.to_string())
                .or_insert_with(|| Arc::new(JobManager::new())),
        )
    }

    /// Starts a job on `domain`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationInvalid`] when the domain already has a
    /// running job — libvirt's "another job is active" busy error.
    pub fn begin(self: &Arc<Self>, domain: &str, kind: JobKind) -> VirtResult<JobTicket> {
        // The busy-check and the slot replacement are one step under the
        // lock, or two racing begins could both pass the check.
        let mut jobs = self.jobs.lock();
        if let Some(entry) = jobs.entries.get(domain) {
            if entry.stats.state.is_active() {
                return Err(VirtError::new(
                    ErrorCode::OperationInvalid,
                    format!(
                        "domain '{domain}' already has an active {} job",
                        entry.stats.kind
                    ),
                ));
            }
        }
        jobs.epoch += 1;
        let epoch = jobs.epoch;
        let abort = Arc::new(AtomicBool::new(false));
        jobs.entries.insert(
            domain.to_string(),
            JobEntry {
                stats: JobStats {
                    kind,
                    state: JobState::Running,
                    // Inherit the trace of the request that started the
                    // job so later polls can find its spans.
                    trace_id: crate::metrics::span::current_trace_id(),
                    ..JobStats::default()
                },
                abort: Arc::clone(&abort),
                started: Instant::now(),
                epoch,
            },
        );
        job_metrics().active.inc();
        Ok(JobTicket {
            manager: Arc::clone(self),
            domain: domain.to_string(),
            abort,
            epoch,
            finished: false,
        })
    }

    /// The current (or most recent) job stats for `domain`. A domain
    /// that never ran a job reports the [`JobKind::None`] default.
    pub fn stats(&self, domain: &str) -> JobStats {
        self.jobs
            .lock()
            .entries
            .get(domain)
            .map(|e| e.stats.clone())
            .unwrap_or_default()
    }

    /// The [`JobManager::stats`] of every domain with job history, under
    /// one lock — for a bulk pass over many domains, where history is rare
    /// and a lookup per domain is mostly misses.
    pub fn snapshot(&self) -> HashMap<String, JobStats> {
        self.jobs
            .lock()
            .entries
            .iter()
            .map(|(domain, entry)| (domain.clone(), entry.stats.clone()))
            .collect()
    }

    /// Requests cancellation of the running job on `domain`. The job
    /// observes the flag at its next progress slice and finishes as
    /// [`JobState::Aborted`].
    ///
    /// # Errors
    ///
    /// [`ErrorCode::OperationInvalid`] when no job is running.
    pub fn abort(&self, domain: &str) -> VirtResult<()> {
        if let Some(entry) = self.jobs.lock().entries.get(domain) {
            if entry.stats.state.is_active() {
                entry.abort.store(true, Ordering::SeqCst);
                return Ok(());
            }
        }
        Err(VirtError::new(
            ErrorCode::OperationInvalid,
            format!("domain '{domain}' has no active job"),
        ))
    }

    /// Marks every running job failed with `reason` and signals its
    /// abort flag (so a worker thread still in the operation loop stops
    /// at its next slice). Called on daemon startup to recover jobs
    /// orphaned by a crash/restart; returns the affected domain names.
    pub fn fail_running(&self, reason: &str) -> Vec<String> {
        let mut failed = Vec::new();
        for (domain, entry) in self.jobs.lock().entries.iter_mut() {
            if entry.stats.state.is_active() {
                entry.stats.state = JobState::Failed;
                entry.stats.error = reason.to_string();
                entry.abort.store(true, Ordering::SeqCst);
                job_metrics().active.dec();
                job_metrics().failed.inc();
                failed.push(domain.clone());
            }
        }
        failed
    }

    fn finish(&self, domain: &str, epoch: u64, outcome: JobState, error: Option<&str>) {
        let mut jobs = self.jobs.lock();
        let Some(entry) = jobs.entries.get_mut(domain) else {
            return;
        };
        // A restart may already have failed this job (and a newer job
        // may even occupy the slot); a stale ticket must not touch it.
        if entry.epoch != epoch || !entry.stats.state.is_active() {
            return;
        }
        entry.stats.state = outcome;
        if let Some(error) = error {
            entry.stats.error = error.to_string();
        }
        let metrics = job_metrics();
        metrics.active.dec();
        metrics.duration_us.record(entry.started.elapsed());
        match outcome {
            JobState::Completed => metrics.completed.inc(),
            JobState::Aborted => metrics.aborted.inc(),
            _ => metrics.failed.inc(),
        }
    }

    fn update(&self, domain: &str, epoch: u64, progress: JobProgress) {
        let mut jobs = self.jobs.lock();
        let Some(entry) = jobs.entries.get_mut(domain) else {
            return;
        };
        if entry.epoch == epoch && entry.stats.state.is_active() {
            entry.stats.elapsed_ms = progress.elapsed_ms;
            entry.stats.data_total_mib = progress.total_mib;
            entry.stats.data_processed_mib = progress.processed_mib;
            entry.stats.data_remaining_mib = progress.remaining_mib;
            entry.stats.memory_iterations = progress.iterations;
        }
    }
}

/// One progress report from a running job.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobProgress {
    /// Virtual-clock ms since the job started.
    pub elapsed_ms: u64,
    /// Total data the job expects to move.
    pub total_mib: u64,
    /// Data moved so far.
    pub processed_mib: u64,
    /// Data still to move.
    pub remaining_mib: u64,
    /// Pre-copy iterations completed.
    pub iterations: u32,
}

/// The running side of a job: held by the worker executing the
/// operation, used to publish progress and observe abort requests.
///
/// Dropping a ticket without finishing it marks the job failed — a
/// panicking worker must not leave a permanently "running" job blocking
/// the domain.
pub struct JobTicket {
    manager: Arc<JobManager>,
    domain: String,
    abort: Arc<AtomicBool>,
    epoch: u64,
    finished: bool,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("domain", &self.domain)
            .field("epoch", &self.epoch)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl JobTicket {
    /// Publishes a progress snapshot.
    pub fn update(&self, progress: JobProgress) {
        self.manager.update(&self.domain, self.epoch, progress);
    }

    /// `true` once an abort has been requested.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Finishes the job as completed.
    pub fn complete(mut self) {
        self.finished = true;
        self.manager
            .finish(&self.domain, self.epoch, JobState::Completed, None);
    }

    /// Finishes the job as aborted (the worker honored the request).
    pub(crate) fn abort_finish(mut self) {
        self.finished = true;
        self.manager
            .finish(&self.domain, self.epoch, JobState::Aborted, None);
    }

    /// Finishes the job as failed with a reason.
    pub fn fail(mut self, reason: &str) {
        self.finished = true;
        self.manager
            .finish(&self.domain, self.epoch, JobState::Failed, Some(reason));
    }
}

impl Drop for JobTicket {
    fn drop(&mut self) {
        if !self.finished {
            self.manager.finish(
                &self.domain,
                self.epoch,
                JobState::Failed,
                Some("job abandoned by its worker"),
            );
        }
    }
}

/// A client-side handle to a started long-running operation.
///
/// The operation itself runs as a blocking call on a background thread
/// (over RPC it occupies a normal daemon worker — that is the job
/// "running on the worker pool"); the handle polls progress and requests
/// aborts through the separate high-priority query procedures, and
/// [`JobHandle::wait`] joins the result. The synchronous APIs
/// ([`crate::domain::Domain::migrate_to`] etc.) are start-and-wait
/// wrappers over this.
pub struct JobHandle<T> {
    domain: crate::domain::Domain,
    thread: Option<std::thread::JoinHandle<VirtResult<T>>>,
}

impl<T: Send + 'static> JobHandle<T> {
    pub(crate) fn spawn(
        domain: crate::domain::Domain,
        operation: impl FnOnce() -> VirtResult<T> + Send + 'static,
    ) -> Self {
        JobHandle {
            domain,
            thread: Some(std::thread::spawn(operation)),
        }
    }
}

impl<T> JobHandle<T> {
    /// Polls the job's current stats (one high-priority round-trip).
    pub fn stats(&self) -> VirtResult<JobStats> {
        self.domain.job_stats()
    }

    /// Requests cancellation of the job.
    pub fn abort(&self) -> VirtResult<()> {
        self.domain.abort_job()
    }

    /// `true` once the operation has finished (successfully or not).
    pub fn done(&self) -> bool {
        self.thread.as_ref().is_none_or(|t| t.is_finished())
    }

    /// Blocks until the operation finishes and returns its result.
    pub fn wait(mut self) -> VirtResult<T> {
        let thread = self.thread.take().expect("wait consumes the handle");
        thread
            .join()
            .map_err(|_| VirtError::new(ErrorCode::Internal, "job worker thread panicked"))?
    }
}

impl<T> Drop for JobHandle<T> {
    fn drop(&mut self) {
        // Detach: an undisturbed drop leaves the operation running to
        // completion, like closing virsh while a migration continues.
        let _ = self.thread.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_states_round_trip_the_wire() {
        for kind in [
            JobKind::None,
            JobKind::Migration,
            JobKind::Save,
            JobKind::Restore,
        ] {
            assert_eq!(JobKind::from_u32(kind.as_u32()), Some(kind));
            assert_eq!(JobKind::from(kind.as_u32()), kind);
        }
        for state in [
            JobState::None,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Aborted,
        ] {
            assert_eq!(JobState::from_u32(state.as_u32()), Some(state));
            assert_eq!(JobState::from(state.as_u32()), state);
        }
        assert_eq!(JobKind::from_u32(99), None);
        assert_eq!(JobState::from_u32(99), None);
        assert_eq!(JobKind::from(99), JobKind::None);
        assert_eq!(JobState::from(99), JobState::None);
    }

    #[test]
    fn progress_and_eta_derive_from_stats() {
        let stats = JobStats {
            kind: JobKind::Migration,
            state: JobState::Running,
            elapsed_ms: 1_000,
            data_total_mib: 1_024,
            data_processed_mib: 750,
            data_remaining_mib: 250,
            ..JobStats::default()
        };
        assert_eq!(stats.progress_percent(), 75);
        assert_eq!(stats.eta_ms(), Some(333));

        let idle = JobStats::default();
        assert_eq!(idle.progress_percent(), 0);
        assert_eq!(idle.eta_ms(), None);

        let done = JobStats {
            state: JobState::Completed,
            ..JobStats::default()
        };
        assert_eq!(done.progress_percent(), 100);
    }

    #[test]
    fn begin_excludes_concurrent_jobs_per_domain() {
        let manager = Arc::new(JobManager::new());
        let ticket = manager.begin("vm", JobKind::Migration).unwrap();
        let err = manager.begin("vm", JobKind::Save).unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationInvalid);
        assert!(err.message().contains("active"), "{err}");
        // A different domain is unaffected.
        let other = manager.begin("other", JobKind::Save).unwrap();
        other.complete();
        ticket.complete();
        // After completion the domain accepts a new job.
        manager.begin("vm", JobKind::Save).unwrap().complete();
    }

    #[test]
    fn ticket_updates_are_visible_in_stats() {
        let manager = Arc::new(JobManager::new());
        let ticket = manager.begin("vm", JobKind::Migration).unwrap();
        ticket.update(JobProgress {
            elapsed_ms: 10,
            total_mib: 512,
            processed_mib: 128,
            remaining_mib: 384,
            iterations: 1,
        });
        let stats = manager.stats("vm");
        assert_eq!(stats.state, JobState::Running);
        assert_eq!(stats.data_processed_mib, 128);
        assert_eq!(stats.memory_iterations, 1);
        ticket.complete();
        assert_eq!(manager.stats("vm").state, JobState::Completed);
        // Data of the finished job stays queryable.
        assert_eq!(manager.stats("vm").data_processed_mib, 128);
    }

    #[test]
    fn abort_flags_the_running_ticket() {
        let manager = Arc::new(JobManager::new());
        let ticket = manager.begin("vm", JobKind::Migration).unwrap();
        assert!(!ticket.aborted());
        manager.abort("vm").unwrap();
        assert!(ticket.aborted());
        ticket.abort_finish();
        assert_eq!(manager.stats("vm").state, JobState::Aborted);
        // No running job any more: abort is invalid.
        let err = manager.abort("vm").unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationInvalid);
    }

    #[test]
    fn abort_without_any_job_is_invalid() {
        let manager = JobManager::new();
        let err = manager.abort("ghost").unwrap_err();
        assert_eq!(err.code(), ErrorCode::OperationInvalid);
    }

    #[test]
    fn dropped_ticket_fails_the_job() {
        let manager = Arc::new(JobManager::new());
        drop(manager.begin("vm", JobKind::Save).unwrap());
        let stats = manager.stats("vm");
        assert_eq!(stats.state, JobState::Failed);
        assert!(stats.error.contains("abandoned"));
    }

    #[test]
    fn fail_running_recovers_orphans_and_blocks_stale_tickets() {
        let manager = Arc::new(JobManager::new());
        let ticket = manager.begin("vm", JobKind::Migration).unwrap();
        let failed = manager.fail_running("daemon restarted");
        assert_eq!(failed, vec!["vm".to_string()]);
        assert!(ticket.aborted(), "stale worker sees the abort flag");
        let stats = manager.stats("vm");
        assert_eq!(stats.state, JobState::Failed);
        assert_eq!(stats.error, "daemon restarted");
        // The stale ticket's completion must not resurrect the job...
        ticket.complete();
        assert_eq!(manager.stats("vm").state, JobState::Failed);
        // ...nor clobber a newer job occupying the slot.
        let fresh = Arc::clone(&manager);
        let new_ticket = fresh.begin("vm", JobKind::Save).unwrap();
        assert_eq!(manager.stats("vm").state, JobState::Running);
        new_ticket.complete();
        assert_eq!(manager.stats("vm").state, JobState::Completed);
    }

    #[test]
    fn for_host_is_keyed_and_stable() {
        let a1 = JobManager::for_host("job-test-host-a");
        let a2 = JobManager::for_host("job-test-host-a");
        let b = JobManager::for_host("job-test-host-b");
        assert!(Arc::ptr_eq(&a1, &a2));
        assert!(!Arc::ptr_eq(&a1, &b));
    }

    #[test]
    fn metrics_track_outcomes() {
        let metrics = job_metrics();
        let base_completed = metrics.completed.get();
        let base_aborted = metrics.aborted.get();
        let base_failed = metrics.failed.get();

        let manager = Arc::new(JobManager::new());
        manager.begin("m1", JobKind::Save).unwrap().complete();
        manager.begin("m2", JobKind::Save).unwrap().abort_finish();
        manager.begin("m3", JobKind::Save).unwrap().fail("boom");

        assert_eq!(metrics.completed.get(), base_completed + 1);
        assert_eq!(metrics.aborted.get(), base_aborted + 1);
        assert_eq!(metrics.failed.get(), base_failed + 1);

        let registry = virt_metrics::Registry::new();
        metrics.attach(&registry, "jobs.");
        let names = registry.names();
        for name in [
            "jobs.active",
            "jobs.completed",
            "jobs.aborted",
            "jobs.failed",
            "jobs.duration_us",
        ] {
            assert!(names.contains(&name.to_string()), "missing {name}");
        }
    }
}
