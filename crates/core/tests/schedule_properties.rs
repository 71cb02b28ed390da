//! Property-based tests for the ECF tentative schedule (§3.4): ordering and
//! dependency invariants hold under arbitrary insertion sequences.

use lfrt_core::schedule::{Entry, TentativeSchedule};
use lfrt_core::OpsCounter;
use lfrt_sim::JobId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Insert a fresh job with this critical time, unconstrained.
    Insert(u64),
    /// Insert a fresh job constrained to precede the entry at (index modulo
    /// current length), with this critical time.
    InsertBefore(u64, usize),
    /// Remove the entry at (index modulo current length).
    Remove(usize),
}

fn entry(job: JobId, critical: u64) -> Entry {
    Entry {
        job,
        effective_critical_time: critical,
        remaining: 1 + critical % 7,
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..100_000).prop_map(Op::Insert),
            ((1u64..100_000), any::<usize>()).prop_map(|(c, i)| Op::InsertBefore(c, i)),
            any::<usize>().prop_map(Op::Remove),
        ],
        0..120,
    )
}

proptest! {
    /// The schedule stays sorted by effective critical time, every
    /// constrained insertion lands before its successor, and effective
    /// critical times never exceed the nominal ones.
    #[test]
    fn ecf_and_dependency_invariants(ops_list in ops()) {
        let mut schedule = TentativeSchedule::new();
        let mut counter = OpsCounter::new();
        let mut next_id = 0usize;
        for op in ops_list {
            match op {
                Op::Insert(critical) => {
                    let job = JobId::new(next_id);
                    next_id += 1;
                    let pos = schedule.insert_before(entry(job, critical), None, &mut counter);
                    let inserted = schedule.entries()[pos];
                    prop_assert_eq!(inserted.job, job);
                    prop_assert!(inserted.effective_critical_time <= critical);
                    prop_assert_eq!(inserted.remaining, entry(job, critical).remaining);
                }
                Op::InsertBefore(critical, raw) => {
                    if schedule.is_empty() {
                        continue;
                    }
                    let limit = raw % schedule.len();
                    let successor = schedule.entries()[limit];
                    let job = JobId::new(next_id);
                    next_id += 1;
                    let pos = schedule.insert_before(entry(job, critical), Some(limit), &mut counter);
                    // Dependency respected: inserted at or before the
                    // successor's (shifted) position.
                    let successor_pos = schedule
                        .position(successor.job, &mut counter)
                        .expect("successor still present");
                    prop_assert!(pos < successor_pos + 1);
                    prop_assert!(pos <= limit);
                    let inserted = schedule.entries()[pos];
                    prop_assert!(inserted.effective_critical_time <= critical);
                    prop_assert!(
                        inserted.effective_critical_time
                            <= successor.effective_critical_time.max(critical)
                    );
                }
                Op::Remove(raw) => {
                    if schedule.is_empty() {
                        continue;
                    }
                    let pos = raw % schedule.len();
                    let before = schedule.len();
                    let removed = schedule.remove(pos, &mut counter);
                    prop_assert_eq!(schedule.len(), before - 1);
                    prop_assert!(schedule.position(removed.job, &mut counter).is_none());
                }
            }
            // Global invariant: non-decreasing effective critical times.
            let entries = schedule.entries();
            for w in entries.windows(2) {
                prop_assert!(
                    w[0].effective_critical_time <= w[1].effective_critical_time,
                    "ECF order broken: {:?}",
                    entries
                );
            }
            // No duplicate jobs.
            let mut jobs = schedule.jobs();
            jobs.sort_unstable();
            let len_before = jobs.len();
            jobs.dedup();
            prop_assert_eq!(jobs.len(), len_before);
        }
        // Ops were charged for the work done.
        if next_id > 0 {
            prop_assert!(counter.total() > 0);
        }
    }
}
