//! Fault injection.
//!
//! A [`FaultPlan`] attaches failure behaviour to specific operations so
//! tests and benchmarks can exercise the management layer's error paths:
//! hypervisors that reject an operation, monitors that hang, and domains
//! that crash right after starting — the situations libvirt's priority
//! workers and rollback logic exist for.

use std::collections::HashMap;
use std::time::Duration;

use parking_lot::Mutex;

use crate::latency::OpKind;

/// What an injected fault does to the matched operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation fails with [`crate::SimErrorKind::InjectedFault`].
    Fail,
    /// The operation charges this extra latency before succeeding,
    /// modeling a hung hypervisor call that eventually completes.
    Hang(Duration),
    /// The operation appears to succeed but the domain immediately crashes.
    CrashAfter,
}

/// A per-operation schedule of injected faults.
///
/// For each [`OpKind`], the plan holds a list of `(occurrence, action)`
/// pairs: the *n*-th invocation (1-based) of that operation triggers the
/// action. Occurrence counting is internal and thread-safe.
///
/// # Examples
///
/// ```
/// use hypersim::{FaultAction, FaultPlan};
/// use hypersim::latency::OpKind;
///
/// let plan = FaultPlan::new().fail_on(OpKind::Start, 2);
/// assert_eq!(plan.check(OpKind::Start), None);              // 1st start is fine
/// assert_eq!(plan.check(OpKind::Start), Some(FaultAction::Fail)); // 2nd fails
/// assert_eq!(plan.check(OpKind::Start), None);              // 3rd is fine again
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    scheduled: HashMap<OpKind, Vec<(u64, FaultAction)>>,
    /// Faults applied to *every* occurrence of an operation.
    always: HashMap<OpKind, FaultAction>,
    counters: Mutex<HashMap<OpKind, u64>>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fails the `occurrence`-th (1-based) invocation of `op`.
    pub fn fail_on(mut self, op: OpKind, occurrence: u64) -> Self {
        self.scheduled
            .entry(op)
            .or_default()
            .push((occurrence, FaultAction::Fail));
        self
    }

    /// Applies `action` on the `occurrence`-th (1-based) invocation of `op`.
    pub fn inject(mut self, op: OpKind, occurrence: u64, action: FaultAction) -> Self {
        self.scheduled
            .entry(op)
            .or_default()
            .push((occurrence, action));
        self
    }

    /// Applies `action` on **every** invocation of `op`.
    pub fn always(mut self, op: OpKind, action: FaultAction) -> Self {
        self.always.insert(op, action);
        self
    }

    /// Records one invocation of `op` and returns the fault to apply, if any.
    ///
    /// Scheduled (per-occurrence) faults take precedence over `always`
    /// faults on the occurrence they match.
    pub fn check(&self, op: OpKind) -> Option<FaultAction> {
        let mut counters = self.counters.lock();
        let count = counters.entry(op).or_insert(0);
        *count += 1;
        let n = *count;
        drop(counters);

        if let Some(entries) = self.scheduled.get(&op) {
            if let Some((_, action)) = entries.iter().find(|(at, _)| *at == n) {
                return Some(*action);
            }
        }
        self.always.get(&op).copied()
    }

    /// Records `n` invocations of `op` in one step and returns the extra
    /// latency their [`FaultAction::Hang`]s add up to: what `n` calls to
    /// [`FaultPlan::check`] would have hung for, with the same precedence
    /// (an occurrence's first scheduled entry, else `always`). Their
    /// other actions are counted but not reported — the one caller
    /// ignores them, as it would ignore a failed single query.
    pub(crate) fn check_hangs(&self, op: OpKind, n: u64) -> Duration {
        let mut counters = self.counters.lock();
        let count = counters.entry(op).or_insert(0);
        let occurrences = *count + 1..=*count + n;
        *count += n;
        drop(counters);

        let hang = |action: Option<&FaultAction>| match action {
            Some(FaultAction::Hang(extra)) => *extra,
            _ => Duration::ZERO,
        };
        let mut extra = Duration::ZERO;
        let mut scheduled_hits = 0;
        if let Some(entries) = self.scheduled.get(&op) {
            for (i, (at, action)) in entries.iter().enumerate() {
                let first_for_occurrence = !entries[..i].iter().any(|(earlier, _)| earlier == at);
                if occurrences.contains(at) && first_for_occurrence {
                    scheduled_hits += 1;
                    extra += hang(Some(action));
                }
            }
        }
        let always = hang(self.always.get(&op));
        extra + always.saturating_mul(u32::try_from(n - scheduled_hits).unwrap_or(u32::MAX))
    }

    /// Number of times `op` has been invoked so far.
    pub fn occurrences(&self, op: OpKind) -> u64 {
        *self.counters.lock().get(&op).unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::new();
        for _ in 0..10 {
            assert_eq!(plan.check(OpKind::Start), None);
        }
        assert_eq!(plan.occurrences(OpKind::Start), 10);
    }

    #[test]
    fn fail_on_matches_exactly_one_occurrence() {
        let plan = FaultPlan::new().fail_on(OpKind::Destroy, 3);
        assert_eq!(plan.check(OpKind::Destroy), None);
        assert_eq!(plan.check(OpKind::Destroy), None);
        assert_eq!(plan.check(OpKind::Destroy), Some(FaultAction::Fail));
        assert_eq!(plan.check(OpKind::Destroy), None);
    }

    #[test]
    fn counters_are_per_operation() {
        let plan = FaultPlan::new().fail_on(OpKind::Start, 1);
        assert_eq!(plan.check(OpKind::Shutdown), None);
        assert_eq!(plan.check(OpKind::Start), Some(FaultAction::Fail));
    }

    #[test]
    fn always_applies_to_every_occurrence() {
        let plan = FaultPlan::new().always(OpKind::Save, FaultAction::Fail);
        for _ in 0..3 {
            assert_eq!(plan.check(OpKind::Save), Some(FaultAction::Fail));
        }
    }

    #[test]
    fn scheduled_overrides_always_on_its_occurrence() {
        let hang = FaultAction::Hang(Duration::from_secs(30));
        let plan = FaultPlan::new()
            .always(OpKind::Start, FaultAction::Fail)
            .inject(OpKind::Start, 2, hang);
        assert_eq!(plan.check(OpKind::Start), Some(FaultAction::Fail));
        assert_eq!(plan.check(OpKind::Start), Some(hang));
        assert_eq!(plan.check(OpKind::Start), Some(FaultAction::Fail));
    }

    #[test]
    fn multiple_scheduled_faults_on_one_op() {
        let plan = FaultPlan::new().fail_on(OpKind::Start, 1).inject(
            OpKind::Start,
            2,
            FaultAction::CrashAfter,
        );
        assert_eq!(plan.check(OpKind::Start), Some(FaultAction::Fail));
        assert_eq!(plan.check(OpKind::Start), Some(FaultAction::CrashAfter));
        assert_eq!(plan.check(OpKind::Start), None);
    }

    #[test]
    fn check_hangs_adds_up_what_single_checks_return() {
        let hang = |ms| FaultAction::Hang(Duration::from_millis(ms));
        let plan = || {
            FaultPlan::new()
                .always(OpKind::QueryDomain, hang(1))
                .inject(OpKind::QueryDomain, 2, hang(30))
                .fail_on(OpKind::QueryDomain, 3)
                .inject(OpKind::QueryDomain, 3, hang(500))
                .inject(OpKind::QueryDomain, 9, hang(200))
        };
        for (before, n) in [
            (0, 0),
            (0, 1),
            (0, 5),
            (1, 2),
            (2, 1),
            (3, 10),
            (8, 1),
            (9, 4),
        ] {
            let single = plan();
            let batched = plan();
            for _ in 0..before {
                single.check(OpKind::QueryDomain);
                batched.check(OpKind::QueryDomain);
            }
            let expected: Duration = (0..n)
                .filter_map(|_| match single.check(OpKind::QueryDomain) {
                    Some(FaultAction::Hang(extra)) => Some(extra),
                    _ => None,
                })
                .sum();
            assert_eq!(
                batched.check_hangs(OpKind::QueryDomain, n),
                expected,
                "{before}+{n}"
            );
            assert_eq!(batched.occurrences(OpKind::QueryDomain), before + n);
        }
    }

    #[test]
    fn concurrent_checks_count_every_invocation() {
        let plan = std::sync::Arc::new(FaultPlan::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let p = plan.clone();
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        p.check(OpKind::QueryDomain);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("joined");
        }
        assert_eq!(plan.occurrences(OpKind::QueryDomain), 1000);
    }
}
