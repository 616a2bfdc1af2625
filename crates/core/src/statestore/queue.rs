//! Every decision of the group-commit pipeline, made in one pure machine.
//!
//! [`Queue`] holds the dirty-object records waiting for the disk and the
//! hash of each object's last committed frame. It turns one input at a
//! time — a record with or without a waiter, a `flush` barrier, a
//! `forget`, shutdown, the clock, a cycle's per-record outcome — into the
//! persister's next [`Step`]: a flush plan, a deadline to sleep until, or
//! exit. It reads no clock, never sleeps, takes no lock and touches no
//! file: the persister (`statestore.rs`) passes `now` in, runs a plan
//! through `flush_batch` with no lock held and feeds the results back, so
//! the tests below drive the queue through every short sequence of inputs
//! on synthetic instants. It is generic over the waiter token `W`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use virt_rpc::fnv1a;

use super::{ObjKey, QueuedOp};
use crate::error::VirtResult;

/// How long a batch holding only write-behind records may wait for more
/// work to coalesce before it is flushed. A waiter (durable `put`/`remove`,
/// `flush`) makes the batch urgent: it never waits out the window.
const COALESCE_WINDOW: Duration = Duration::from_millis(2);

/// The longest an urgent batch is held for the writers the previous cycle
/// released, who typically re-enqueue at once and can share its fsync.
const GATHER_STALL: Duration = Duration::from_micros(400);

/// One dirty object: its newest op and every waiter whose record it
/// absorbed (a superseded record is made durable *by* its successor).
#[cfg_attr(test, derive(Clone))]
struct Slot<W> {
    op: QueuedOp,
    waiters: Vec<W>,
}

/// A record of the cycle in flight: its key, the content hash an `Ok`
/// outcome caches (`None` for a removal, or once the key was forgotten
/// mid-cycle) and its waiters.
type Sent<W> = (ObjKey, Option<u64>, Vec<W>);

/// What the persister does next.
pub(super) enum Step<W> {
    /// Run this flush cycle, then report each record's outcome.
    Flush(Plan<W>),
    /// Sleep until the instant, or until woken (`None`).
    Sleep(Option<Instant>),
    /// Shut down and drained: the persister exits.
    Exit,
}

/// One flush cycle.
pub(super) struct Plan<W> {
    /// The records to write, one per object, in arrival order.
    pub(super) writes: Vec<(ObjKey, QueuedOp)>,
    /// Records skipped because the committed frame already matches.
    pub(super) deduped: u64,
    /// Their waiters, released at once with `Ok`.
    pub(super) released: Vec<W>,
}

/// The persister's queue and every rule that drains it.
#[cfg_attr(test, derive(Clone))]
pub(super) struct Queue<W> {
    /// Distinct dirty objects in arrival order.
    order: Vec<ObjKey>,
    slots: HashMap<ObjKey, Slot<W>>,
    /// When the oldest queued record arrived (the coalesce deadline).
    oldest: Option<Instant>,
    /// Records ever queued, coalesced or not.
    arrivals: u64,
    /// Waiters the previous cycle released: the gather stall's goal.
    released_last: usize,
    /// The running gather stall: its deadline and `arrivals` at its start.
    gather: Option<(Instant, u64)>,
    in_flight: Option<Vec<Sent<W>>>,
    /// `flush` barriers, each with the first error of any cycle completed
    /// since it arrived.
    flushers: Vec<(W, VirtResult<()>)>,
    /// FNV-1a of each object's last frame whose cycle came back `Ok`.
    committed: HashMap<ObjKey, u64>,
    /// Set when the store drops: queued records flush at once, and the
    /// persister exits once the queue has drained.
    pub(super) shutdown: bool,
}

impl<W> Queue<W> {
    pub(super) fn new() -> Queue<W> {
        Queue {
            order: Vec::new(),
            slots: HashMap::new(),
            oldest: None,
            arrivals: 0,
            released_last: 0,
            gather: None,
            in_flight: None,
            flushers: Vec::new(),
            committed: HashMap::new(),
            shutdown: false,
        }
    }

    /// Dirty objects waiting for a cycle.
    pub(super) fn depth(&self) -> usize {
        self.order.len()
    }

    /// Queues one record, last writer wins per object; `true` when it
    /// absorbed a queued record.
    pub(super) fn push(
        &mut self,
        key: ObjKey,
        op: QueuedOp,
        waiter: Option<W>,
        now: Instant,
    ) -> bool {
        self.arrivals += 1;
        if let Some(slot) = self.slots.get_mut(&key) {
            slot.op = op;
            slot.waiters.extend(waiter);
            return true;
        }
        self.oldest.get_or_insert(now);
        let waiters = waiter.into_iter().collect();
        self.slots.insert(key.clone(), Slot { op, waiters });
        self.order.push(key);
        false
    }

    /// Adds a `flush` barrier: `false` when the queue is already drained
    /// and there is nothing to wait for.
    pub(super) fn flush(&mut self, waiter: W) -> bool {
        if self.order.is_empty() && self.in_flight.is_none() {
            return false;
        }
        self.flushers.push((waiter, Ok(())));
        true
    }

    /// Drops `key`'s committed hash (its file was quarantined), also
    /// against the outcome of a cycle in flight.
    pub(super) fn forget(&mut self, key: &ObjKey) {
        self.committed.remove(key);
        for (sent, hash, _) in self.in_flight.iter_mut().flatten() {
            if sent == key {
                *hash = None;
            }
        }
    }

    /// The persister's next step at `now`.
    pub(super) fn next(&mut self, now: Instant) -> Step<W> {
        if self.in_flight.is_some() {
            return Step::Sleep(None);
        }
        if self.order.is_empty() {
            return if self.shutdown {
                Step::Exit
            } else {
                Step::Sleep(None)
            };
        }
        let window_end = self.oldest.expect("queued records have an arrival") + COALESCE_WINDOW;
        // A waiter, `flush` included, never waits out the window.
        let urgent =
            !self.flushers.is_empty() || self.slots.values().any(|s| !s.waiters.is_empty());
        if !self.shutdown && !urgent && now < window_end {
            return Step::Sleep(Some(window_end));
        }
        if !self.shutdown && urgent && self.released_last > 1 {
            let (deadline, base) = *self
                .gather
                .get_or_insert((now + GATHER_STALL, self.arrivals));
            if self.arrivals - base < self.released_last as u64 - 1 && now < deadline {
                return Step::Sleep(Some(deadline));
            }
        }
        let mut plan = Plan {
            writes: Vec::new(),
            deduped: 0,
            released: Vec::new(),
        };
        let mut sent = Vec::new();
        for key in std::mem::take(&mut self.order) {
            let slot = self.slots.remove(&key).expect("an ordered key has a slot");
            let hash = match &slot.op {
                QueuedOp::Put(payload) => Some(fnv1a(payload.as_bytes())),
                QueuedOp::Remove => None,
            };
            if hash.is_some() && self.committed.get(&key) == hash.as_ref() {
                // Durable by construction: the committed frame matches.
                plan.deduped += 1;
                plan.released.extend(slot.waiters);
                continue;
            }
            plan.writes.push((key.clone(), slot.op));
            sent.push((key, hash, slot.waiters));
        }
        self.released_last = plan.released.len() + sent.iter().map(|s| s.2.len()).sum::<usize>();
        self.oldest = None;
        self.gather = None;
        self.in_flight = Some(sent);
        Step::Flush(plan)
    }

    /// The outcome of the cycle in flight, one result per written record
    /// in plan order. Returns the waiters it releases: each record's with
    /// that record's result, and, once the queue has drained, the `flush`
    /// barriers.
    pub(super) fn outcome(&mut self, results: Vec<VirtResult<()>>) -> Vec<(W, VirtResult<()>)> {
        let sent = self
            .in_flight
            .take()
            .expect("an outcome answers a cycle in flight");
        assert_eq!(sent.len(), results.len(), "one result per written record");
        let mut released = Vec::new();
        for ((key, hash, waiters), result) in sent.into_iter().zip(results) {
            // Only an `Ok` frame is known committed; any other outcome
            // leaves the file unknown, so the hash goes.
            match (&result, hash) {
                (Ok(()), Some(hash)) => self.committed.insert(key, hash),
                _ => self.committed.remove(&key),
            };
            for (_, first) in self.flushers.iter_mut().filter(|(_, r)| r.is_ok()) {
                *first = result.clone();
            }
            released.extend(waiters.into_iter().map(|w| (w, result.clone())));
        }
        if self.order.is_empty() {
            released.append(&mut self.flushers);
        }
        released
    }
}

#[cfg(test)]
mod tests {
    //! Every order of inputs, not a sample of them.
    //!
    //! The explorer runs the real [`Queue`] against a model of its callers.
    //! In any order the scenario allows, an idle writer puts or removes one
    //! of two objects durably (and blocks on its waiter) or write-behind,
    //! or calls `flush`; a reader forgets an object (quarantine); the
    //! store shuts down once no writer is blocked. The persister asks for
    //! its next step at any time (a condvar may wake it early), the clock
    //! jumps to the deadline it sleeps until, and the cycle in flight ends
    //! with each record written, failing to write or failing its directory
    //! sync. The search visits every reachable state once and checks the
    //! rules on every step.

    use super::*;
    use crate::error::{ErrorCode, VirtError};
    use crate::statestore::ObjectKind;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};

    /// A waiter token: the writer blocked on it (a writer blocks on one
    /// waiter at a time).
    type Id = usize;

    const OBJECTS: [&str; 2] = ["x", "y"];
    const PAYLOADS: [&str; 2] = ["p", "q"];

    fn key(object: usize) -> ObjKey {
        ObjKey::new(ObjectKind::DomainStatus, "qemu", OBJECTS[object])
    }

    fn queued(op: Op) -> QueuedOp {
        match op {
            Some(payload) => QueuedOp::Put(PAYLOADS[payload].to_string()),
            None => QueuedOp::Remove,
        }
    }

    /// A record's content: `Some(payload)` for a put, `None` for a removal.
    type Op = Option<usize>;

    impl Hash for Queue<Id> {
        fn hash<H: Hasher>(&self, state: &mut H) {
            for key in &self.order {
                let slot = &self.slots[key];
                (key, &slot.op, &slot.waiters).hash(state);
            }
            let clock = (self.oldest, self.arrivals, self.released_last, self.gather);
            (clock, &self.in_flight, self.shutdown).hash(state);
            for (id, result) in &self.flushers {
                (id, result.as_ref().err().map(VirtError::message)).hash(state);
            }
            let mut committed: Vec<_> = self.committed.iter().map(|(k, h)| (&k.name, h)).collect();
            committed.sort();
            committed.hash(state);
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Outcome {
        Written,
        WriteFails,
        DirsyncFails,
    }

    fn result(outcome: Outcome) -> VirtResult<()> {
        let fail = |what| Err(VirtError::new(ErrorCode::OperationFailed, what));
        match outcome {
            Outcome::Written => Ok(()),
            Outcome::WriteFails => fail("write failed"),
            Outcome::DirsyncFails => fail("directory sync failed"),
        }
    }

    /// Moves of each kind a scenario allows.
    #[derive(Debug, Clone, Copy, Hash)]
    struct Budget {
        durable: u32,
        behind: u32,
        flushes: u32,
        forgets: u32,
        shutdowns: u32,
        /// Records whose cycle fails them.
        faults: u32,
    }

    #[derive(Debug, Clone, Copy)]
    struct Scenario {
        writers: usize,
        budget: Budget,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Writer {
        Idle,
        /// Blocked on a durable record for this object.
        Durable(usize),
        /// Blocked on `flush`, with the first error of any cycle completed
        /// since the call.
        Flush(Option<String>),
    }

    /// One queued object as the model expects it: the newest op and the
    /// writers blocked on it.
    #[derive(Debug, Clone, Hash)]
    struct Record {
        object: usize,
        op: Op,
        waiters: Vec<Id>,
    }

    #[derive(Debug, Clone)]
    enum Move {
        Durable(Id, usize, Op),
        Behind(usize, Op),
        Flush(Id),
        Forget(usize),
        Shutdown,
        Step,
        Tick,
        End(Vec<Outcome>),
    }

    #[derive(Clone, Hash)]
    struct World {
        queue: Queue<Id>,
        now: Instant,
        left: Budget,
        writers: Vec<Writer>,
        /// Records queued and not yet in a plan, in arrival order.
        queued: Vec<Record>,
        /// The records of the cycle in flight.
        in_flight: Option<Vec<Record>>,
        /// Per object, the payload of its last outcome if that was `Ok`
        /// and it has not been forgotten since.
        clean: [Option<usize>; 2],
        /// Objects forgotten while their cycle is in flight.
        forgotten: [bool; 2],
        /// The deadline the persister last slept until.
        sleeping: Option<Instant>,
        shut: bool,
        exited: bool,
    }

    impl World {
        fn new(scenario: &Scenario, t0: Instant) -> World {
            World {
                queue: Queue::new(),
                now: t0,
                left: scenario.budget,
                writers: vec![Writer::Idle; scenario.writers],
                queued: Vec::new(),
                in_flight: None,
                clean: [None; 2],
                forgotten: [false; 2],
                sleeping: None,
                shut: false,
                exited: false,
            }
        }

        fn drained(&self) -> bool {
            self.queued.is_empty() && self.in_flight.is_none()
        }

        fn moves(&self) -> Vec<Move> {
            let mut moves = Vec::new();
            if self.exited {
                return moves;
            }
            let ops = [Some(0), Some(1), None];
            let idle: Vec<Id> = (0..self.writers.len())
                .filter(|&id| self.writers[id] == Writer::Idle)
                .collect();
            if !self.shut {
                for &id in &idle {
                    for object in 0..OBJECTS.len() {
                        if self.left.durable > 0 {
                            moves.extend(ops.map(|op| Move::Durable(id, object, op)));
                        }
                    }
                    if self.left.flushes > 0 {
                        moves.push(Move::Flush(id));
                    }
                }
                if self.left.behind > 0 && !idle.is_empty() {
                    for object in 0..OBJECTS.len() {
                        moves.extend(ops.map(|op| Move::Behind(object, op)));
                    }
                }
                if self.left.forgets > 0 {
                    moves.extend((0..OBJECTS.len()).map(Move::Forget));
                }
                if self.left.shutdowns > 0 && idle.len() == self.writers.len() {
                    moves.push(Move::Shutdown);
                }
            }
            moves.push(Move::Step);
            if self.sleeping.is_some_and(|due| due > self.now) {
                moves.push(Move::Tick);
            }
            if let Some(records) = &self.in_flight {
                let mut endings = vec![Vec::new()];
                for _ in records {
                    endings = endings
                        .into_iter()
                        .flat_map(|ending: Vec<Outcome>| {
                            [Outcome::Written, Outcome::WriteFails, Outcome::DirsyncFails].map(
                                |outcome| {
                                    let mut next = ending.clone();
                                    next.push(outcome);
                                    next
                                },
                            )
                        })
                        .collect();
                }
                moves.extend(
                    endings
                        .into_iter()
                        .filter(|ending| {
                            let faults = ending.iter().filter(|&&o| o != Outcome::Written);
                            faults.count() as u32 <= self.left.faults
                        })
                        .map(Move::End),
                );
            }
            moves
        }

        fn apply(&mut self, mv: Move) {
            match mv {
                Move::Durable(id, object, op) => {
                    self.left.durable -= 1;
                    self.writers[id] = Writer::Durable(object);
                    self.push(object, op, Some(id));
                }
                Move::Behind(object, op) => {
                    self.left.behind -= 1;
                    self.push(object, op, None);
                }
                Move::Flush(id) => {
                    self.left.flushes -= 1;
                    let registered = self.queue.flush(id);
                    assert_eq!(
                        registered,
                        !self.drained(),
                        "a flush waited on a drained queue, or not on a busy one"
                    );
                    if registered {
                        self.writers[id] = Writer::Flush(None);
                    }
                }
                Move::Forget(object) => {
                    self.left.forgets -= 1;
                    self.queue.forget(&key(object));
                    self.clean[object] = None;
                    let in_flight = self.in_flight.iter().flatten();
                    if in_flight.clone().any(|record| record.object == object) {
                        self.forgotten[object] = true;
                    }
                }
                Move::Shutdown => {
                    self.left.shutdowns -= 1;
                    self.queue.shutdown = true;
                    self.shut = true;
                }
                Move::Step => self.step(),
                Move::Tick => {
                    self.now = self.sleeping.take().expect("sleeping until a deadline");
                }
                Move::End(outcomes) => self.end(&outcomes),
            }
        }

        fn push(&mut self, object: usize, op: Op, waiter: Option<Id>) {
            let coalesced = self.queue.push(key(object), queued(op), waiter, self.now);
            match self
                .queued
                .iter_mut()
                .find(|record| record.object == object)
            {
                Some(record) => {
                    assert!(coalesced, "a second record queued for one object");
                    record.op = op;
                    record.waiters.extend(waiter);
                }
                None => {
                    assert!(!coalesced, "coalesced into nothing");
                    let waiters = waiter.into_iter().collect();
                    self.queued.push(Record {
                        object,
                        op,
                        waiters,
                    });
                }
            }
        }

        /// The persister asks for its next step.
        fn step(&mut self) {
            match self.queue.next(self.now) {
                Step::Exit => {
                    assert!(self.shut, "the persister exited before shutdown");
                    assert!(self.drained(), "the persister exited with records queued");
                    assert!(
                        self.writers.iter().all(|w| *w == Writer::Idle),
                        "a waiter lost at shutdown: {:?}",
                        self.writers
                    );
                    self.exited = true;
                }
                Step::Sleep(until) => {
                    self.sleeping = until;
                    if self.in_flight.is_some() {
                        return;
                    }
                    assert!(
                        self.queued.is_empty() || until.is_some(),
                        "the persister sleeps for good with records queued"
                    );
                    assert!(
                        !self.shut || self.queued.is_empty(),
                        "shutdown waits to drain the queue"
                    );
                    assert!(!self.shut, "shut down and drained, but the persister stays");
                    let waiting = self.queued.iter().any(|r| !r.waiters.is_empty())
                        || (!self.queued.is_empty()
                            && self.writers.iter().any(|w| matches!(w, Writer::Flush(_))));
                    if let (true, Some(until)) = (waiting, until) {
                        assert!(
                            until <= self.now + GATHER_STALL,
                            "a waiter waits out the coalesce window"
                        );
                    }
                }
                Step::Flush(plan) => self.planned(plan),
            }
        }

        /// Checks a plan against the queued records and takes them in flight.
        fn planned(&mut self, plan: Plan<Id>) {
            assert!(
                self.in_flight.is_none(),
                "a second cycle while one is in flight"
            );
            self.sleeping = None;
            let mut written = Vec::new();
            let mut deduped = Vec::new();
            for record in std::mem::take(&mut self.queued) {
                let is_written = plan.writes.iter().any(|(k, _)| *k == key(record.object));
                if is_written {
                    written.push(record);
                } else {
                    deduped.push(record);
                }
            }
            let expected: Vec<_> = written
                .iter()
                .map(|r| (key(r.object), queued(r.op)))
                .collect();
            assert_eq!(
                plan.writes, expected,
                "the plan is not the last record of each object in arrival order"
            );
            assert_eq!(
                plan.deduped,
                deduped.len() as u64,
                "a record dropped from the plan"
            );
            let mut released = plan.released;
            released.sort();
            let mut owed: Vec<Id> = deduped.iter().flat_map(|r| r.waiters.clone()).collect();
            owed.sort();
            assert_eq!(released, owed, "deduped records released other waiters");
            for record in &deduped {
                assert!(
                    record.op.is_some() && self.clean[record.object] == record.op,
                    "released as deduped without a clean committed frame"
                );
                for &id in &record.waiters {
                    self.writers[id] = Writer::Idle;
                }
            }
            self.in_flight = Some(written);
        }

        /// The cycle in flight ends with `outcomes`, one per record.
        fn end(&mut self, outcomes: &[Outcome]) {
            let records = self.in_flight.take().expect("a cycle in flight");
            let faults = outcomes.iter().filter(|&&o| o != Outcome::Written).count();
            self.left.faults -= faults as u32;
            let results: Vec<_> = outcomes.iter().map(|&o| result(o)).collect();
            let first_error = results.iter().find_map(|r| r.clone().err());
            for writer in &mut self.writers {
                if let (Writer::Flush(first @ None), Some(err)) = (writer, &first_error) {
                    *first = Some(err.message().to_string());
                }
            }
            for (record, &outcome) in records.iter().zip(outcomes) {
                let ok = outcome == Outcome::Written && !self.forgotten[record.object];
                self.clean[record.object] = if ok { record.op } else { None };
                self.forgotten[record.object] = false;
            }
            let released = self.queue.outcome(results.clone());
            let mut seen = HashSet::new();
            for (id, got) in released {
                assert!(seen.insert(id), "a waiter released twice");
                match &self.writers[id] {
                    Writer::Idle => panic!("released a writer that is not waiting"),
                    Writer::Durable(object) => {
                        let index = records
                            .iter()
                            .position(|r| r.object == *object && r.waiters.contains(&id))
                            .expect("a durable waiter released by a cycle without its record");
                        assert_eq!(got, results[index], "a waiter got another record's result");
                    }
                    Writer::Flush(first) => {
                        assert!(
                            self.queued.is_empty(),
                            "a flush released before the queue drained"
                        );
                        let want = first.as_ref().map_or(Ok(()), |m| {
                            Err(VirtError::new(ErrorCode::OperationFailed, m.as_str()))
                        });
                        assert_eq!(got, want, "a flush got other than its first error");
                    }
                }
                self.writers[id] = Writer::Idle;
            }
            for record in &records {
                assert!(
                    record
                        .waiters
                        .iter()
                        .all(|&id| self.writers[id] == Writer::Idle),
                    "a waiter of a written record was not released"
                );
            }
            if self.queued.is_empty() {
                assert!(
                    self.writers.iter().all(|w| !matches!(w, Writer::Flush(_))),
                    "a flush still waits on a drained queue"
                );
            }
        }

        /// The rules that hold in every state, given its moves.
        fn check(&self, moves: &[Move]) {
            for (id, writer) in self.writers.iter().enumerate() {
                if let Writer::Durable(object) = writer {
                    let holds = |r: &Record| r.object == *object && r.waiters.contains(&id);
                    assert!(
                        self.queued
                            .iter()
                            .chain(self.in_flight.iter().flatten())
                            .any(holds),
                        "a durable waiter is in no record"
                    );
                }
            }
            if moves.is_empty() {
                assert!(self.drained(), "stuck with records queued");
            }
        }
    }

    /// Walks every state `scenario` reaches and returns how many. A state
    /// is remembered by its 64-bit hash, which keeps the walk's memory
    /// small.
    fn explore(scenario: &Scenario) -> usize {
        let t0 = Instant::now();
        let mut seen = HashSet::new();
        let mut stack = vec![World::new(scenario, t0)];
        while let Some(world) = stack.pop() {
            let mut hasher = DefaultHasher::new();
            world.hash(&mut hasher);
            if !seen.insert(hasher.finish()) {
                continue;
            }
            let moves = world.moves();
            world.check(&moves);
            for mv in moves {
                let mut next = world.clone();
                next.apply(mv);
                stack.push(next);
            }
        }
        seen.len()
    }

    #[test]
    fn every_order_of_inputs_keeps_the_rules() {
        let scenarios = [
            // One writer: every mix of durable and write-behind records,
            // `flush`, `forget` and failures, then shutdown.
            Scenario {
                writers: 1,
                budget: Budget {
                    durable: 3,
                    behind: 1,
                    flushes: 1,
                    forgets: 1,
                    shutdowns: 1,
                    faults: 2,
                },
            },
            // Two writers sharing cycles, with a write-behind record and
            // a flush racing them across two failing cycles.
            Scenario {
                writers: 2,
                budget: Budget {
                    durable: 3,
                    behind: 1,
                    flushes: 1,
                    forgets: 0,
                    shutdowns: 1,
                    faults: 2,
                },
            },
            // Three writers: a cycle that releases several waiters starts
            // the gather stall.
            Scenario {
                writers: 3,
                budget: Budget {
                    durable: 4,
                    behind: 0,
                    flushes: 0,
                    forgets: 0,
                    shutdowns: 1,
                    faults: 1,
                },
            },
        ];
        let states: Vec<usize> = scenarios.iter().map(explore).collect();
        // The walk reached the corners it is meant to: a run that stops
        // early explores far fewer.
        assert!(states.iter().all(|&n| n > 20_000), "{states:?}");
        assert!(states.iter().sum::<usize>() > 200_000, "{states:?}");
    }
}
