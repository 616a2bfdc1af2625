//! The request worker pool.
//!
//! Reproduces libvirt's threadpool semantics:
//!
//! - the pool starts `min_workers` ordinary workers and grows on demand up
//!   to `max_workers` when a job arrives and nobody is free;
//! - a fixed set of **priority workers** only executes jobs marked
//!   high-priority. High-priority procedures are those guaranteed to
//!   finish without talking to a hypervisor, so even when every ordinary
//!   worker is stuck on a hung guest, control operations still run;
//! - limits are adjustable at runtime: lowering `max_workers` makes excess
//!   workers exit at their next idle check (libvirt's
//!   `virThreadPoolWorkerQuitHelper` approach — no thread is ever
//!   cancelled mid-job);
//! - ordinary workers may execute high-priority jobs, but not vice versa;
//! - a burst's wakes go out when the burst ends, where libvirt signals a
//!   worker as each job is queued: a producer queues a turn's ordinary
//!   jobs through a [`PoolBatch`], and dropping it wakes one idle worker
//!   per job no woken worker is coming for, after unlocking — so the
//!   producer is not preempted mid-turn, and a queued job never waits
//!   behind a running (possibly hung) job while a worker sits idle. Only
//!   idle workers nobody has woken are woken (the rule, and its
//!   exhaustive check, are in `handoff.rs`);
//! - a producer may run an ordinary job it held back on its own thread
//!   ([`WorkerPool::run_kept`]) instead of queueing it — the daemon's
//!   event threads do, for a lone pooled call, when another
//!   event thread still watches the poller. It is a pool job all the
//!   same: timed and counted with the workers' jobs, waited for by
//!   [`WorkerPool::shutdown`] and [`WorkerPool::quiesce`].

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use virt_metrics::Registry;

use crate::handoff::Handoff;

/// A unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued job plus the moment it was enqueued, so workers can record
/// how long it sat waiting for a free thread.
type QueuedJob = (Job, Instant);

virt_metrics::metric_set! {
    /// Pool instrumentation: all atomics, so the submit and worker paths
    /// never take an extra lock to record. The instances live on the pool
    /// itself and can additionally be published into a [`Registry`] with
    /// [`WorkerPool::publish_metrics`].
    struct PoolMetrics {
        wait_us: Histogram = "wait_us", "Time jobs spent queued before a worker picked them up";
        run_us: Histogram = "run_us", "Time jobs spent executing on a worker";
        queue_depth: Gauge = "queue_depth", "Jobs currently waiting in the pool queues";
        completed: Counter = "completed", "Total jobs completed since the pool started";
        wakeups: Counter = "wakeups", "Idle workers woken to take queued jobs";
        empty_wakeups: Counter = "empty_wakeups",
            "Woken workers that found the queue already drained";
    }
}

/// Configurable pool limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolLimits {
    /// Workers kept alive even when idle.
    pub min_workers: u32,
    /// Ceiling for dynamically spawned workers.
    pub max_workers: u32,
    /// Dedicated priority workers (fixed count).
    pub priority_workers: u32,
}

impl PoolLimits {
    /// libvirt's defaults: 5 min, 20 max, 5 priority.
    pub fn new() -> Self {
        PoolLimits {
            min_workers: 5,
            max_workers: 20,
            priority_workers: 5,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when `min > max` or `max == 0`.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_workers == 0 {
            return Err("max_workers must be > 0".to_string());
        }
        if self.min_workers > self.max_workers {
            return Err(format!(
                "min_workers ({}) exceeds max_workers ({})",
                self.min_workers, self.max_workers
            ));
        }
        Ok(())
    }
}

impl Default for PoolLimits {
    fn default() -> Self {
        PoolLimits::new()
    }
}

/// A snapshot of pool state, as reported by the admin interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured minimum.
    pub min_workers: u32,
    /// Configured maximum.
    pub max_workers: u32,
    /// Ordinary workers currently alive.
    pub current_workers: u32,
    /// Ordinary workers waiting for work that nobody has woken yet — a
    /// worker already woken for a queued job is not free.
    pub free_workers: u32,
    /// Priority workers (fixed).
    pub priority_workers: u32,
    /// Jobs waiting in the ordinary queue.
    pub job_queue_depth: u32,
}

// The admin program's `THREADPOOL_INFO` reply, fields in wire order. Stated
// here and not beside the admin table because the impl must live in the
// crate that owns the type.
crate::xdr_fields!(PoolStats {
    min_workers,
    max_workers,
    current_workers,
    free_workers,
    priority_workers,
    job_queue_depth,
});

struct PoolState {
    limits: PoolLimits,
    /// The ordinary queue and the ordinary workers parked on `work_cv`.
    handoff: Handoff<QueuedJob>,
    priority_queue: VecDeque<QueuedJob>,
    current_workers: u32,
    /// Jobs running on their producers' threads ([`WorkerPool::run_kept`]).
    kept_running: u32,
    priority_workers_alive: u32,
    free_priority_workers: u32,
    quitting: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    prio_cv: Condvar,
    idle_cv: Condvar,
    metrics: PoolMetrics,
}

/// The worker pool. Cloning yields another handle to the same pool.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
/// use virt_rpc::{PoolLimits, WorkerPool};
///
/// let pool = WorkerPool::start(PoolLimits { min_workers: 2, max_workers: 4, priority_workers: 1 }).unwrap();
/// let counter = Arc::new(AtomicU32::new(0));
/// for _ in 0..16 {
///     let c = counter.clone();
///     pool.submit(false, move || { c.fetch_add(1, Ordering::SeqCst); });
/// }
/// pool.quiesce();
/// assert_eq!(counter.load(Ordering::SeqCst), 16);
/// pool.shutdown();
/// ```
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WorkerPool")
            .field("current", &stats.current_workers)
            .field("free", &stats.free_workers)
            .field("queue", &stats.job_queue_depth)
            .finish()
    }
}

impl WorkerPool {
    /// Starts a pool with the given limits: `min_workers` ordinary workers
    /// plus all priority workers are spawned immediately.
    ///
    /// # Errors
    ///
    /// Propagates [`PoolLimits::validate`] failures.
    pub fn start(limits: PoolLimits) -> Result<Self, String> {
        limits.validate()?;
        let pool = WorkerPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    limits,
                    handoff: Handoff::new(),
                    priority_queue: VecDeque::new(),
                    current_workers: 0,
                    kept_running: 0,
                    priority_workers_alive: 0,
                    free_priority_workers: 0,
                    quitting: false,
                }),
                work_cv: Condvar::new(),
                prio_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                metrics: PoolMetrics::new(),
            }),
        };
        {
            let mut state = pool.inner.state.lock();
            for _ in 0..limits.min_workers {
                pool.inner.spawn_ordinary(&mut state);
            }
            for _ in 0..limits.priority_workers {
                pool.inner.spawn_priority(&mut state);
            }
        }
        Ok(pool)
    }

    /// Submits a job. `high_priority` jobs may run on priority workers.
    ///
    /// An ordinary job is a one-job [`PoolBatch`]: a worker is woken for
    /// it before `submit` returns.
    pub fn submit(&self, high_priority: bool, job: impl FnOnce() + Send + 'static) {
        if !high_priority {
            self.batch().push(job);
            return;
        }
        let enqueued = Instant::now();
        let mut state = self.inner.state.lock();
        if state.quitting {
            return;
        }
        self.inner.metrics.queue_depth.inc();
        state.priority_queue.push_back((Box::new(job), enqueued));
        self.inner.grow(&mut state);
        drop(state);
        self.inner.prio_cv.notify_one();
        // Ordinary workers also service the priority queue. This wake is
        // not counted in `wakeups`: the worker it reaches arrives like a
        // spurious wakeup and may take the place of one the ordinary
        // queue woke, which then arrives uncounted.
        self.inner.work_cv.notify_one();
    }

    /// Opens a batch of ordinary jobs: they are queued as they are pushed,
    /// and idle workers are woken for them when the batch is dropped.
    pub fn batch(&self) -> PoolBatch {
        PoolBatch {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Runs an ordinary job its producer held back, on the calling
    /// thread, as a pool job: its wait since `held_since`, its run time
    /// and its completion are recorded with the workers' jobs, and
    /// [`WorkerPool::shutdown`] and [`WorkerPool::quiesce`] wait for it.
    /// Once the pool is shutting down the job is dropped unrun, as a
    /// queued job is.
    pub fn run_kept(&self, held_since: Instant, job: impl FnOnce()) {
        let mut state = self.inner.state.lock();
        if state.quitting {
            return;
        }
        state.kept_running += 1;
        drop(state);
        run_job(&self.inner.metrics, job, held_since);
        self.inner.state.lock().kept_running -= 1;
        self.inner.idle_cv.notify_all();
    }

    /// Adjusts the limits at runtime.
    ///
    /// Raising `min_workers` spawns workers immediately; lowering
    /// `max_workers` makes excess workers exit at their next idle check.
    /// `priority_workers` adjusts the dedicated set up or down.
    ///
    /// # Errors
    ///
    /// Propagates [`PoolLimits::validate`] failures; the old limits stay.
    pub fn set_limits(&self, limits: PoolLimits) -> Result<(), String> {
        limits.validate()?;
        let mut state = self.inner.state.lock();
        state.limits = limits;
        while state.current_workers < limits.min_workers {
            self.inner.spawn_ordinary(&mut state);
        }
        while state.priority_workers_alive < limits.priority_workers {
            self.inner.spawn_priority(&mut state);
        }
        drop(state);
        // Wake idle workers so they can notice a lowered ceiling and exit.
        self.inner.work_cv.notify_all();
        self.inner.prio_cv.notify_all();
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        stats_of(&self.inner.state.lock())
    }

    /// Total jobs completed since start.
    pub fn completed(&self) -> u64 {
        self.inner.metrics.completed.get()
    }

    /// Publishes the pool's metric instances into `registry` under
    /// `pool.{name}.`: wait/run-time histograms, queue-depth gauge, the
    /// completed-job counter and the two wake-up counters. The registry
    /// shares the pool's own atomics, so snapshots observe live values
    /// without extra work on the submit/execute paths.
    pub fn publish_metrics(&self, registry: &Registry, name: &str) {
        self.inner
            .metrics
            .attach(registry, &format!("pool.{name}."));
    }

    /// Blocks until both queues are empty, all workers are idle and no
    /// kept job runs.
    ///
    /// Useful in tests and benchmarks; production code uses completion
    /// callbacks instead. Does not prevent concurrent submitters from
    /// racing new work in afterwards.
    pub fn quiesce(&self) {
        let mut state = self.inner.state.lock();
        while !(state.handoff.queued() == 0
            && state.priority_queue.is_empty()
            && state.handoff.idle() == state.current_workers
            && state.free_priority_workers == state.priority_workers_alive
            && state.kept_running == 0)
        {
            self.inner.idle_cv.wait(&mut state);
        }
    }

    /// Stops the pool: queued jobs are dropped, workers exit after their
    /// current job. Blocks until all workers have exited and every kept
    /// job ([`WorkerPool::run_kept`]) has returned.
    pub fn shutdown(&self) {
        let mut state = self.inner.state.lock();
        state.quitting = true;
        state.handoff.clear();
        state.priority_queue.clear();
        // Dropped jobs are no longer queued; running jobs were already
        // deducted when a worker picked them up.
        self.inner.metrics.queue_depth.set(0);
        self.inner.work_cv.notify_all();
        self.inner.prio_cv.notify_all();
        while state.current_workers > 0
            || state.priority_workers_alive > 0
            || state.kept_running > 0
        {
            self.inner.idle_cv.wait(&mut state);
        }
    }
}

/// Ordinary jobs queued during one turn of a producer — for the daemon,
/// one connection's turn on its event loop — and the wakes they owe.
///
/// [`PoolBatch::push`] queues a job (growing the pool if no worker is
/// idle for it) but wakes nobody; dropping the batch wakes one idle
/// worker per queued job that no woken worker is coming for, after
/// unlocking. The producer thus finishes its turn instead of being
/// preempted by the worker it woke for the first call, and when the turn
/// ends every queued job has a worker on its way or no worker is idle.
#[must_use = "dropping the batch is what wakes workers for its jobs"]
pub struct PoolBatch {
    inner: Arc<PoolInner>,
}

impl PoolBatch {
    /// Queues an ordinary job; a worker is woken for it when the batch is
    /// dropped, unless one is already on its way. A no-op once the pool
    /// is shutting down.
    pub fn push(&mut self, job: impl FnOnce() + Send + 'static) {
        let enqueued = Instant::now();
        let mut state = self.inner.state.lock();
        if state.quitting {
            return;
        }
        self.inner.metrics.queue_depth.inc();
        state.handoff.push((Box::new(job), enqueued));
        self.inner.grow(&mut state);
    }
}

impl Drop for PoolBatch {
    fn drop(&mut self) {
        let wakes = self.inner.state.lock().handoff.wakes();
        self.inner.wake(wakes);
    }
}

impl PoolInner {
    /// Notifies `n` parked ordinary workers, after the caller unlocked —
    /// a thread woken under the lock would only block on it.
    fn wake(&self, n: u32) {
        for _ in 0..n {
            self.metrics.wakeups.inc();
            self.work_cv.notify_one();
        }
    }

    /// Grow on demand: more ordinary jobs queued than workers idle.
    fn grow(self: &Arc<Self>, state: &mut PoolState) {
        if state.handoff.queued() > state.handoff.idle() as usize
            && state.current_workers < state.limits.max_workers
        {
            self.spawn_ordinary(state);
        }
    }

    fn spawn_ordinary(self: &Arc<Self>, state: &mut PoolState) {
        state.current_workers += 1;
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name("virt-worker".to_string())
            .spawn(move || ordinary_worker(inner))
            .expect("spawning a worker thread");
    }

    fn spawn_priority(self: &Arc<Self>, state: &mut PoolState) {
        state.priority_workers_alive += 1;
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name("virt-prio-worker".to_string())
            .spawn(move || priority_worker(inner))
            .expect("spawning a priority worker thread");
    }
}

/// The admin interface's view of the pool, read under its lock.
fn stats_of(state: &PoolState) -> PoolStats {
    PoolStats {
        min_workers: state.limits.min_workers,
        max_workers: state.limits.max_workers,
        current_workers: state.current_workers,
        free_workers: state.handoff.free(),
        priority_workers: state.priority_workers_alive,
        job_queue_depth: (state.handoff.queued() + state.priority_queue.len()) as u32,
    }
}

/// Executes one job, recording its wait and run time. Called with the
/// pool lock released; every record is a handful of relaxed atomic ops.
fn run_job(metrics: &PoolMetrics, job: impl FnOnce(), enqueued: Instant) {
    metrics.wait_us.record(enqueued.elapsed());
    let started = Instant::now();
    job();
    metrics.run_us.record(started.elapsed());
    metrics.completed.inc();
}

/// The quit check libvirt performs after waking and after each job:
/// ordinary workers exit when the pool shrank below their headcount.
fn should_quit_ordinary(state: &PoolState) -> bool {
    state.quitting || state.current_workers > state.limits.max_workers
}

fn should_quit_priority(state: &PoolState) -> bool {
    state.quitting || state.priority_workers_alive > state.limits.priority_workers
}

fn ordinary_worker(inner: Arc<PoolInner>) {
    let mut state = inner.state.lock();
    let mut woken = false;
    loop {
        if should_quit_ordinary(&state) {
            break;
        }
        // Ordinary workers may take priority jobs too (libvirt allows
        // ordinary workers to run high-priority tasks, not the reverse).
        let taken = state
            .handoff
            .take()
            .or_else(|| state.priority_queue.pop_front());
        let Some((job, enqueued)) = taken else {
            if woken {
                inner.metrics.empty_wakeups.inc();
            }
            state.handoff.park();
            inner.idle_cv.notify_all();
            inner.work_cv.wait(&mut state);
            woken = state.handoff.unpark();
            continue;
        };
        woken = false;
        drop(state);
        inner.metrics.queue_depth.dec();
        run_job(&inner.metrics, job, enqueued);
        state = inner.state.lock();
    }
    // Leaving with work queued (the pool shrank): a wake this worker
    // took without taking a job goes to another idle one.
    let wakes = state.handoff.wakes();
    state.current_workers -= 1;
    drop(state);
    inner.wake(wakes);
    inner.idle_cv.notify_all();
}

fn priority_worker(inner: Arc<PoolInner>) {
    let mut state = inner.state.lock();
    loop {
        if should_quit_priority(&state) {
            break;
        }
        match state.priority_queue.pop_front() {
            Some((job, enqueued)) => {
                drop(state);
                inner.metrics.queue_depth.dec();
                run_job(&inner.metrics, job, enqueued);
                state = inner.state.lock();
            }
            None => {
                state.free_priority_workers += 1;
                inner.idle_cv.notify_all();
                inner.prio_cv.wait(&mut state);
                state.free_priority_workers -= 1;
            }
        }
    }
    state.priority_workers_alive -= 1;
    inner.idle_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::mpsc;

    fn limits(min: u32, max: u32, prio: u32) -> PoolLimits {
        PoolLimits {
            min_workers: min,
            max_workers: max,
            priority_workers: prio,
        }
    }

    fn wait_until(pred: impl Fn() -> bool, what: &str) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn starts_min_and_priority_workers() {
        let pool = WorkerPool::start(limits(3, 10, 2)).unwrap();
        wait_until(
            || {
                let s = pool.stats();
                s.current_workers == 3 && s.priority_workers == 2 && s.free_workers == 3
            },
            "initial workers idle",
        );
        pool.shutdown();
    }

    #[test]
    fn invalid_limits_rejected() {
        assert!(WorkerPool::start(limits(5, 0, 0)).is_err());
        assert!(WorkerPool::start(limits(10, 5, 0)).is_err());
        let pool = WorkerPool::start(limits(1, 2, 0)).unwrap();
        assert!(pool.set_limits(limits(9, 3, 0)).is_err());
        // Old limits still in force.
        assert_eq!(pool.stats().max_workers, 2);
        pool.shutdown();
    }

    #[test]
    fn executes_all_jobs() {
        let pool = WorkerPool::start(limits(2, 4, 1)).unwrap();
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..200 {
            let c = counter.clone();
            pool.submit(false, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.quiesce();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(pool.completed(), 200);
        pool.shutdown();
    }

    #[test]
    fn grows_on_demand_up_to_max() {
        let pool = WorkerPool::start(limits(1, 4, 0)).unwrap();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        // Block 4 workers.
        for _ in 0..4 {
            let rx = release_rx.clone();
            pool.submit(false, move || {
                rx.lock().recv().unwrap();
            });
        }
        wait_until(|| pool.stats().current_workers == 4, "grow to max");
        // A fifth job queues instead of spawning a fifth worker.
        pool.submit(false, || {});
        std::thread::sleep(Duration::from_millis(50));
        let stats = pool.stats();
        assert_eq!(stats.current_workers, 4);
        assert_eq!(stats.job_queue_depth, 1);
        for _ in 0..4 {
            release_tx.send(()).unwrap();
        }
        pool.quiesce();
        assert_eq!(pool.completed(), 5);
        pool.shutdown();
    }

    #[test]
    fn priority_jobs_run_while_all_ordinary_workers_hang() {
        let pool = WorkerPool::start(limits(2, 2, 2)).unwrap();
        let (hang_tx, hang_rx) = mpsc::channel::<()>();
        let hang_rx = Arc::new(Mutex::new(hang_rx));
        // Occupy every ordinary worker with a "hung hypervisor call".
        for _ in 0..2 {
            let rx = hang_rx.clone();
            pool.submit(false, move || {
                rx.lock().recv().unwrap();
            });
        }
        wait_until(|| pool.stats().free_workers == 0, "ordinary workers busy");
        // A high-priority control operation must still complete.
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(true, move || {
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("priority job completed despite hung ordinary workers");
        hang_tx.send(()).unwrap();
        hang_tx.send(()).unwrap();
        pool.quiesce();
        pool.shutdown();
    }

    #[test]
    fn priority_workers_never_take_ordinary_jobs() {
        // Pool with zero ordinary capacity beyond min=0 is invalid (max>0
        // required), so use max=1 and keep that one worker hung.
        let pool = WorkerPool::start(limits(1, 1, 2)).unwrap();
        let (hang_tx, hang_rx) = mpsc::channel::<()>();
        let hang_rx = Arc::new(Mutex::new(hang_rx));
        let rx = hang_rx.clone();
        pool.submit(false, move || {
            rx.lock().recv().unwrap();
        });
        wait_until(
            || pool.stats().free_workers == 0,
            "the ordinary worker is busy",
        );
        // An ordinary job now queues; priority workers must not touch it.
        let flag = Arc::new(AtomicU32::new(0));
        let f = flag.clone();
        pool.submit(false, move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            flag.load(Ordering::SeqCst),
            0,
            "ordinary job ran on a priority worker"
        );
        assert_eq!(pool.stats().job_queue_depth, 1);
        hang_tx.send(()).unwrap();
        pool.quiesce();
        assert_eq!(flag.load(Ordering::SeqCst), 1);
        pool.shutdown();
    }

    #[test]
    fn lowering_max_workers_shrinks_the_pool() {
        let pool = WorkerPool::start(limits(4, 8, 0)).unwrap();
        wait_until(|| pool.stats().current_workers == 4, "initial workers");
        pool.set_limits(limits(1, 2, 0)).unwrap();
        wait_until(|| pool.stats().current_workers <= 2, "pool shrank");
        pool.shutdown();
    }

    #[test]
    fn raising_min_workers_grows_immediately() {
        let pool = WorkerPool::start(limits(1, 10, 0)).unwrap();
        pool.set_limits(limits(6, 10, 0)).unwrap();
        wait_until(|| pool.stats().current_workers >= 6, "grown to new min");
        pool.shutdown();
    }

    #[test]
    fn priority_worker_count_is_adjustable() {
        let pool = WorkerPool::start(limits(1, 2, 1)).unwrap();
        pool.set_limits(limits(1, 2, 4)).unwrap();
        wait_until(|| pool.stats().priority_workers == 4, "priority grew");
        pool.set_limits(limits(1, 2, 2)).unwrap();
        wait_until(|| pool.stats().priority_workers == 2, "priority shrank");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drops_queued_jobs_but_finishes_running_ones() {
        let pool = WorkerPool::start(limits(1, 1, 0)).unwrap();
        let (hang_tx, hang_rx) = mpsc::channel::<()>();
        let hang_rx = Arc::new(Mutex::new(hang_rx));
        let started = Arc::new(AtomicU32::new(0));
        let s = started.clone();
        let rx = hang_rx.clone();
        pool.submit(false, move || {
            s.fetch_add(1, Ordering::SeqCst);
            rx.lock().recv().unwrap();
        });
        wait_until(|| started.load(Ordering::SeqCst) == 1, "first job running");
        let never = Arc::new(AtomicU32::new(0));
        let n = never.clone();
        pool.submit(false, move || {
            n.fetch_add(1, Ordering::SeqCst);
        });
        // Release the hung job from another thread, then shut down.
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            hang_tx.send(()).unwrap();
        });
        pool.shutdown();
        releaser.join().unwrap();
        assert_eq!(
            never.load(Ordering::SeqCst),
            0,
            "queued job must be dropped"
        );
        assert_eq!(pool.stats().current_workers, 0);
    }

    #[test]
    fn submit_after_shutdown_is_a_no_op() {
        let pool = WorkerPool::start(limits(1, 1, 0)).unwrap();
        pool.shutdown();
        let flag = Arc::new(AtomicU32::new(0));
        let f = flag.clone();
        pool.submit(false, move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(flag.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stats_report_queue_depth() {
        let pool = WorkerPool::start(limits(1, 1, 0)).unwrap();
        let (hang_tx, hang_rx) = mpsc::channel::<()>();
        let hang_rx = Arc::new(Mutex::new(hang_rx));
        let rx = hang_rx.clone();
        pool.submit(false, move || {
            rx.lock().recv().unwrap();
        });
        wait_until(|| pool.stats().free_workers == 0, "worker busy");
        for _ in 0..3 {
            pool.submit(false, || {});
        }
        wait_until(|| pool.stats().job_queue_depth == 3, "queue depth 3");
        hang_tx.send(()).unwrap();
        pool.quiesce();
        assert_eq!(pool.stats().job_queue_depth, 0);
        pool.shutdown();
    }

    #[test]
    fn a_woken_worker_is_not_free_until_it_takes_its_job() {
        let pool = WorkerPool::start(limits(1, 1, 0)).unwrap();
        wait_until(|| pool.stats().free_workers == 1, "the worker parked");
        let ran = Arc::new(AtomicU32::new(0));
        let r = ran.clone();
        let mut batch = pool.batch();
        batch.push(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        // The batch's wake, with the lock held across it: the worker is
        // notified but cannot get back under the lock to take the job.
        let mut state = pool.inner.state.lock();
        assert_eq!(state.handoff.wakes(), 1);
        pool.inner.wake(1);
        let held = stats_of(&state);
        drop(state);
        assert_eq!(
            held.free_workers, 0,
            "a woken worker is on its way, not free"
        );
        assert_eq!(held.job_queue_depth, 1);
        // Its work is covered: dropping the batch wakes nobody else.
        drop(batch);
        pool.quiesce();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().free_workers, 1);
        assert_eq!(pool.inner.metrics.wakeups.get(), 1);
        pool.shutdown();
    }

    #[test]
    fn a_batch_wakes_a_worker_for_each_job_when_it_drops() {
        let pool = WorkerPool::start(limits(3, 3, 0)).unwrap();
        wait_until(|| pool.stats().free_workers == 3, "workers parked");
        // Three jobs that hold their workers until released: all three
        // run at once, each on a worker the batch's drop woke.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let mut batch = pool.batch();
        for _ in 0..3 {
            let started = started_tx.clone();
            let release = release_rx.clone();
            batch.push(move || {
                started.send(()).unwrap();
                let _ = release.lock().recv();
            });
        }
        assert_eq!(pool.inner.metrics.wakeups.get(), 0, "pushing wakes nobody");
        drop(batch);
        for i in 0..3 {
            started_rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("only {i} of 3 jobs started"));
        }
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        pool.quiesce();
        assert_eq!(pool.completed(), 3);
        assert_eq!(pool.inner.metrics.wakeups.get(), 3);
        assert_eq!(pool.inner.metrics.empty_wakeups.get(), 0);
        pool.shutdown();
    }

    #[test]
    fn a_kept_job_counts_as_a_pool_job_and_holds_up_shutdown() {
        let pool = WorkerPool::start(limits(1, 1, 0)).unwrap();
        let ran = Arc::new(AtomicU32::new(0));
        let r = ran.clone();
        pool.run_kept(Instant::now(), move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.completed(), 1);
        assert_eq!(pool.inner.metrics.wakeups.get(), 0, "nobody was woken");
        assert_eq!(pool.inner.metrics.queue_depth.get(), 0);

        // Shutdown waits for a kept job that is still running.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let keeper = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                pool.run_kept(Instant::now(), move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            })
        };
        started_rx.recv().unwrap();
        let stopper = {
            let pool = pool.clone();
            std::thread::spawn(move || pool.shutdown())
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!stopper.is_finished(), "shutdown returned under a kept job");
        release_tx.send(()).unwrap();
        stopper.join().unwrap();
        keeper.join().unwrap();
        assert_eq!(pool.completed(), 2);

        // After shutdown a kept job is dropped unrun.
        pool.run_kept(Instant::now(), || panic!("ran after shutdown"));
    }

    use std::time::Duration;
}
