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
//! - ordinary workers may execute high-priority jobs, but not vice versa.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use virt_metrics::Registry;

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
    /// Ordinary workers waiting for work.
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
    queue: VecDeque<QueuedJob>,
    priority_queue: VecDeque<QueuedJob>,
    current_workers: u32,
    free_workers: u32,
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
                    queue: VecDeque::new(),
                    priority_queue: VecDeque::new(),
                    current_workers: 0,
                    free_workers: 0,
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
                pool.spawn_ordinary(&mut state);
            }
            for _ in 0..limits.priority_workers {
                pool.spawn_priority(&mut state);
            }
        }
        Ok(pool)
    }

    /// Submits a job. `high_priority` jobs may run on priority workers.
    ///
    /// Spawns a new ordinary worker when none is free and the maximum has
    /// not been reached.
    pub fn submit(&self, high_priority: bool, job: impl FnOnce() + Send + 'static) {
        let enqueued = Instant::now();
        let mut state = self.inner.state.lock();
        if state.quitting {
            return;
        }
        self.inner.metrics.queue_depth.inc();
        if high_priority {
            state.priority_queue.push_back((Box::new(job), enqueued));
            self.inner.prio_cv.notify_one();
            // Ordinary workers also service the priority queue.
            self.inner.work_cv.notify_one();
        } else {
            state.queue.push_back((Box::new(job), enqueued));
            self.inner.work_cv.notify_one();
        }
        // Grow on demand: pending ordinary work with no free worker.
        let pending = state.queue.len() as u32;
        if pending > state.free_workers && state.current_workers < state.limits.max_workers {
            self.spawn_ordinary(&mut state);
        }
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
            self.spawn_ordinary(&mut state);
        }
        while state.priority_workers_alive < limits.priority_workers {
            self.spawn_priority(&mut state);
        }
        drop(state);
        // Wake idle workers so they can notice a lowered ceiling and exit.
        self.inner.work_cv.notify_all();
        self.inner.prio_cv.notify_all();
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        let state = self.inner.state.lock();
        PoolStats {
            min_workers: state.limits.min_workers,
            max_workers: state.limits.max_workers,
            current_workers: state.current_workers,
            free_workers: state.free_workers,
            priority_workers: state.priority_workers_alive,
            job_queue_depth: (state.queue.len() + state.priority_queue.len()) as u32,
        }
    }

    /// Total jobs completed since start.
    pub fn completed(&self) -> u64 {
        self.inner.metrics.completed.get()
    }

    /// Publishes the pool's metric instances into `registry` under
    /// `pool.{name}.`: wait/run-time histograms, queue-depth gauge and
    /// the completed-job counter. The registry shares the pool's own
    /// atomics, so snapshots observe live values without extra work on
    /// the submit/execute paths.
    pub fn publish_metrics(&self, registry: &Registry, name: &str) {
        self.inner
            .metrics
            .attach(registry, &format!("pool.{name}."));
    }

    /// Blocks until both queues are empty and all workers are idle.
    ///
    /// Useful in tests and benchmarks; production code uses completion
    /// callbacks instead. Does not prevent concurrent submitters from
    /// racing new work in afterwards.
    pub fn quiesce(&self) {
        let mut state = self.inner.state.lock();
        while !(state.queue.is_empty()
            && state.priority_queue.is_empty()
            && state.free_workers == state.current_workers
            && state.free_priority_workers == state.priority_workers_alive)
        {
            self.inner.idle_cv.wait(&mut state);
        }
    }

    /// Stops the pool: queued jobs are dropped, workers exit after their
    /// current job. Blocks until all workers have exited.
    pub fn shutdown(&self) {
        let mut state = self.inner.state.lock();
        state.quitting = true;
        state.queue.clear();
        state.priority_queue.clear();
        // Dropped jobs are no longer queued; running jobs were already
        // deducted when a worker picked them up.
        self.inner.metrics.queue_depth.set(0);
        self.inner.work_cv.notify_all();
        self.inner.prio_cv.notify_all();
        while state.current_workers > 0 || state.priority_workers_alive > 0 {
            self.inner.idle_cv.wait(&mut state);
        }
    }

    fn spawn_ordinary(&self, state: &mut PoolState) {
        state.current_workers += 1;
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name("virt-worker".to_string())
            .spawn(move || ordinary_worker(inner))
            .expect("spawning a worker thread");
        let _ = state;
    }

    fn spawn_priority(&self, state: &mut PoolState) {
        state.priority_workers_alive += 1;
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name("virt-prio-worker".to_string())
            .spawn(move || priority_worker(inner))
            .expect("spawning a priority worker thread");
        let _ = state;
    }
}

/// Executes one dequeued job, recording its queue wait and run time.
/// Called with the pool lock released; every record is a handful of
/// relaxed atomic ops.
fn run_job(metrics: &PoolMetrics, job: Job, enqueued: Instant) {
    metrics.queue_depth.dec();
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
    loop {
        if should_quit_ordinary(&state) {
            break;
        }
        // Ordinary workers may take priority jobs too (libvirt allows
        // ordinary workers to run high-priority tasks, not the reverse).
        let job = state
            .queue
            .pop_front()
            .or_else(|| state.priority_queue.pop_front());
        match job {
            Some((job, enqueued)) => {
                drop(state);
                run_job(&inner.metrics, job, enqueued);
                state = inner.state.lock();
            }
            None => {
                state.free_workers += 1;
                inner.idle_cv.notify_all();
                inner.work_cv.wait(&mut state);
                state.free_workers -= 1;
            }
        }
    }
    state.current_workers -= 1;
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

    use std::time::Duration;
}
