//! Who takes queued work: the worker pool's wake rules, as a pure state
//! machine.
//!
//! Ordinary jobs wait in one FIFO queue and idle workers park until they
//! are woken. A producer queues a whole turn's jobs first and wakes
//! workers for them only when the turn ends ([`Handoff::wakes`]): the
//! producer is not preempted mid-burst by the
//! worker it woke for the first call. A wake goes out only for work no
//! woken worker is already coming for, and only to an idle worker nobody
//! has woken — `waking` counts workers notified and not yet back under
//! the lock. So when a turn ends every queued job has a worker on its way
//! or no worker is idle, and a queued job never waits behind a running —
//! possibly hung — job while a worker sits idle.
//!
//! Nothing here blocks or touches a thread: every method is one step taken
//! under the pool's lock, and whether to wake is *returned* — the caller
//! notifies the condition variable after unlocking. That keeps the rules
//! small enough to enumerate: the tests at the bottom walk every
//! interleaving of up to three workers, four jobs split into batches in
//! every way, one job that never finishes, and spurious wakeups.

use std::collections::VecDeque;

/// The ordinary queue and the idle workers of one pool. `J` is a job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Handoff<J> {
    queue: VecDeque<J>,
    /// Workers parked waiting for work, woken or not.
    idle: u32,
    /// Of those, notified and not yet back under the lock.
    waking: u32,
}

impl<J> Handoff<J> {
    pub(crate) fn new() -> Self {
        Handoff {
            queue: VecDeque::new(),
            idle: 0,
            waking: 0,
        }
    }

    /// Jobs waiting.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Parked workers, including those woken and still on their way.
    pub(crate) fn idle(&self) -> u32 {
        self.idle
    }

    /// Parked workers nobody has woken: free to take a job.
    pub(crate) fn free(&self) -> u32 {
        self.idle - self.waking
    }

    /// Queues a job without waking anyone: the producer owes
    /// [`Handoff::wakes`] when its turn ends.
    pub(crate) fn push(&mut self, job: J) {
        self.queue.push_back(job);
    }

    /// How many idle workers to wake: one per queued job no woken worker
    /// is coming for, while idle workers nobody has woken last. They
    /// count as on their way from here; the caller notifies that many.
    pub(crate) fn wakes(&mut self) -> u32 {
        let uncovered = self.queue.len().saturating_sub(self.waking as usize);
        let wakes = uncovered.min(self.free() as usize) as u32;
        self.waking += wakes;
        wakes
    }

    /// A worker's step at the queue — on arrival, and after each job it
    /// runs: takes the oldest job.
    pub(crate) fn take(&mut self) -> Option<J> {
        self.queue.pop_front()
    }

    /// A worker found nothing to take and parks.
    pub(crate) fn park(&mut self) {
        self.idle += 1;
    }

    /// A parked worker is back under the lock. Returns whether it counts
    /// as one of the woken; a thread back without a notification (a
    /// spurious or broadcast wakeup) takes a woken one's place if any is
    /// still on its way, and whoever of them arrives second finds its
    /// work taken.
    pub(crate) fn unpark(&mut self) -> bool {
        self.idle -= 1;
        if self.waking > 0 {
            self.waking -= 1;
            return true;
        }
        false
    }

    /// Drops every queued job (shutdown).
    pub(crate) fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    //! Every interleaving, not a sample of them.
    //!
    //! The model runs the real [`Handoff`] under a scheduler that may pick
    //! any enabled step next: a producer that opens a batch, pushes jobs
    //! into it and closes it (a one-job batch is `submit`), and workers
    //! that arrive at the queue, run jobs and park. One job may never
    //! finish (a hung hypervisor call). A notification is a token, as with
    //! a condition variable: `notify_one` hands it to one parked worker
    //! that has none (parked workers without one are interchangeable, so
    //! the first is as good as any), and it is spent when that worker
    //! runs. With spurious wakeups on, a parked worker may also arrive
    //! without one. The search visits every reachable state once and
    //! checks the rules in each.

    use super::*;
    use std::collections::HashSet;

    const JOBS: usize = 4;
    const MAX_WORKERS: usize = 3;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Worker {
        /// Waiting on the condition variable; `true` once notified.
        Parked(bool),
        /// Running job number `n`.
        Running(usize),
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Open,
        Push,
        Close,
        Arrive(usize),
        Finish(usize),
    }

    #[derive(Clone, Copy, Debug)]
    struct Scenario {
        workers: usize,
        hung: Option<usize>,
        spurious: bool,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        handoff: Handoff<usize>,
        workers: Vec<Worker>,
        /// Jobs pushed so far; job `n` is the `n`th pushed.
        pushed: usize,
        open: bool,
        /// Of the pushed jobs, how many went into the open batch.
        in_batch: usize,
        started: [bool; JOBS],
        wakes: usize,
    }

    impl World {
        fn new(scenario: Scenario) -> World {
            let mut handoff = Handoff::new();
            for _ in 0..scenario.workers {
                handoff.park();
            }
            World {
                handoff,
                workers: vec![Worker::Parked(false); scenario.workers],
                pushed: 0,
                open: false,
                in_batch: 0,
                started: [false; JOBS],
                wakes: 0,
            }
        }

        /// `work_cv.notify_one()` after the step that asked for it.
        fn notify(&mut self) {
            self.wakes += 1;
            if let Some(w) = self
                .workers
                .iter_mut()
                .find(|w| **w == Worker::Parked(false))
            {
                *w = Worker::Parked(true);
            }
        }

        /// The worker loop after arriving or finishing: take a job, or
        /// park.
        fn next_job(&mut self, worker: usize) {
            match self.handoff.take() {
                Some(job) => {
                    assert!(!self.started[job], "job {job} taken twice");
                    self.started[job] = true;
                    self.workers[worker] = Worker::Running(job);
                }
                None => {
                    self.handoff.park();
                    self.workers[worker] = Worker::Parked(false);
                }
            }
        }

        fn steps(&self, scenario: Scenario) -> Vec<Step> {
            let mut steps = Vec::new();
            if !self.open && self.pushed < JOBS {
                steps.push(Step::Open);
            }
            if self.open {
                if self.pushed < JOBS {
                    steps.push(Step::Push);
                }
                steps.push(Step::Close);
            }
            for (i, worker) in self.workers.iter().enumerate() {
                match *worker {
                    Worker::Parked(notified) if notified || scenario.spurious => {
                        steps.push(Step::Arrive(i));
                    }
                    Worker::Running(job) if scenario.hung != Some(job) => {
                        steps.push(Step::Finish(i));
                    }
                    _ => {}
                }
            }
            steps
        }

        fn apply(&mut self, step: Step) {
            match step {
                Step::Open => self.open = true,
                Step::Push => {
                    self.handoff.push(self.pushed);
                    self.pushed += 1;
                    self.in_batch += 1;
                }
                // The batch guard's drop.
                Step::Close => {
                    self.open = false;
                    self.in_batch = 0;
                    for _ in 0..self.handoff.wakes() {
                        self.notify();
                    }
                }
                Step::Arrive(i) => {
                    self.handoff.unpark();
                    self.next_job(i);
                }
                Step::Finish(i) => self.next_job(i),
            }
        }

        /// The rules, checked in every reachable state.
        fn check(&self, scenario: Scenario) {
            let parked = |notified: bool| {
                self.workers
                    .iter()
                    .filter(|w| **w == Worker::Parked(notified))
                    .count()
            };
            let (on_the_way, idle_unwoken) = (parked(true), parked(false));
            assert_eq!(
                self.handoff.idle() as usize,
                on_the_way + idle_unwoken,
                "the count of idle workers disagrees with who is parked"
            );
            if !scenario.spurious {
                assert_eq!(
                    self.handoff.waking as usize, on_the_way,
                    "the count of woken workers disagrees with who was notified"
                );
            }

            // The hang guarantee. Jobs of the batch still open are owed
            // its closing wakes; every older job must have a worker
            // coming, or no worker free to come.
            let older = self.handoff.queued().saturating_sub(self.in_batch);
            assert!(
                older == 0 || idle_unwoken == 0 || on_the_way > 0,
                "{older} queued job(s) wait, {idle_unwoken} worker(s) sit idle and none was woken"
            );

            // Never more wakes than jobs: a wake goes out only for work
            // no woken worker is coming for.
            assert!(
                self.wakes <= self.pushed,
                "{} wakes for {} jobs",
                self.wakes,
                self.pushed
            );

            // Nothing may depend on a spurious wakeup to make progress:
            // once only those are left, the queue is empty — or every
            // worker is stuck on the hung job.
            let stuck = self.steps(scenario).iter().all(
                |step| matches!(step, Step::Arrive(i) if self.workers[*i] == Worker::Parked(false)),
            );
            if stuck {
                assert!(
                    self.handoff.queued() == 0 || self.handoff.idle() == 0,
                    "the queue holds work while a worker sits idle for good"
                );
            }
        }
    }

    /// Visits every state reachable under `scenario`; returns how many.
    fn explore(scenario: Scenario) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![(World::new(scenario), Vec::<Step>::new())];
        while let Some((world, path)) = stack.pop() {
            if !seen.insert(world.clone()) {
                continue;
            }
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                world.check(scenario);
            }));
            if let Err(violation) = checked {
                eprintln!("violated in {scenario:?} after {path:?}");
                std::panic::resume_unwind(violation);
            }
            for step in world.steps(scenario) {
                let mut next = world.clone();
                let mut path = path.clone();
                path.push(step);
                next.apply(step);
                stack.push((next, path));
            }
        }
        seen.len()
    }

    fn every_scenario(spurious: bool) -> usize {
        let mut states = 0;
        for workers in 1..=MAX_WORKERS {
            for hung in std::iter::once(None).chain((0..JOBS).map(Some)) {
                states += explore(Scenario {
                    workers,
                    hung,
                    spurious,
                });
            }
        }
        states
    }

    #[test]
    fn a_queued_job_never_waits_while_a_worker_sits_idle_in_any_interleaving() {
        let states = every_scenario(false);
        assert!(
            states > 5_000,
            "only {states} states: the model lost its steps"
        );
    }

    #[test]
    fn spurious_wakeups_break_no_rule() {
        let states = every_scenario(true);
        assert!(
            states > 5_000,
            "only {states} states: the model lost its steps"
        );
    }

    #[test]
    fn a_batch_wakes_one_worker_per_job_and_no_more() {
        let mut handoff = Handoff::new();
        for _ in 0..3 {
            handoff.park();
        }
        for job in 0..2 {
            handoff.push(job);
        }
        assert_eq!(handoff.wakes(), 2, "one wake per job");
        assert_eq!(handoff.wakes(), 0, "both jobs have a worker coming");
        assert_eq!(handoff.free(), 1);
        assert!(handoff.unpark(), "a woken worker arrives");
        assert_eq!(handoff.take(), Some(0));
        assert_eq!(handoff.wakes(), 0, "job 1 still has a worker coming");
        handoff.push(2);
        handoff.push(3);
        assert_eq!(handoff.wakes(), 1, "the last idle worker, for two jobs");
        assert_eq!(handoff.free(), 0);
        assert!(handoff.unpark() && handoff.unpark());
        assert_eq!(handoff.take(), Some(1));
        assert_eq!(handoff.take(), Some(2));
        assert_eq!(handoff.take(), Some(3));
        assert_eq!(handoff.take(), None);
    }
}
