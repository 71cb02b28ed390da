use lfrt_sim::{Decision, SchedulerContext, UaScheduler};

use crate::construct::{Candidate, Construction};
use crate::ops::OpsCounter;

/// Lock-free RUA: the paper's primary contribution (§5).
///
/// With lock-free object sharing, jobs never block, so dependency chains
/// collapse to the job itself. Of lock-based RUA's five steps, chain
/// computation and deadlock detection vanish, PUD computation drops to
/// `O(n)`, and schedule construction — one ECF insertion plus one
/// feasibility walk per job — drops to `O(n²)`, which dominates. The
/// scheduler also fires on fewer events: only arrivals and departures, never
/// lock/unlock requests.
///
/// The reported operation count grows as `O(n²)`, an asymptotic factor
/// `log n` below lock-based RUA — and with a much smaller constant, which is
/// what the paper's Figure 9 CML separation measures. The host does less
/// than it is charged for: each job is tried where it lands, not on a copy,
/// and only the entries behind it are checked.
///
/// # Examples
///
/// ```
/// use lfrt_core::RuaLockFree;
/// use lfrt_sim::UaScheduler;
///
/// let rua = RuaLockFree::new();
/// assert_eq!(rua.name(), "rua-lock-free");
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuaLockFree {
    construction: Construction,
}

impl RuaLockFree {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UaScheduler for RuaLockFree {
    fn name(&self) -> &str {
        "rua-lock-free"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut ops = OpsCounter::new();
        // Every chain is the job alone: dependencies cannot arise.
        self.construction.rank_singletons(ctx, &mut ops);
        self.construction.sort_by_pud(&mut ops);
        let order = self
            .construction
            .admit_in_place(ctx, &mut ops, admits_exactly);
        Decision {
            order,
            ops: ops.total(),
            aborts: Vec::new(),
        }
    }
}

/// Exact feasibility: the new entry and every entry behind it must still
/// complete by their critical times (the entries ahead are not delayed).
///
/// Charges what §3.4's copy-based procedure is charged for the same job: a
/// lookup of the job, the copy of the schedule, a lookup on the copy, the
/// insertion, and one operation per entry its head-first feasibility walk
/// reaches, up to and including the first miss.
fn admits_exactly(candidate: &Candidate<'_>, ops: &mut OpsCounter) -> bool {
    let len = candidate.entries.len();
    for _ in 0..3 {
        ops.charge_log(len);
    }
    ops.add(len as u64);
    let (walked, admitted) = if !candidate.fits() {
        (candidate.pos + 1, false)
    } else {
        match candidate.first_miss_behind() {
            // On the copy, the missing entry sits one place further back.
            Some(miss) => (miss + 2, false),
            None => (len + 1, true),
        }
    };
    ops.add(walked as u64);
    admitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_sim::{JobId, JobView, TaskId};
    use lfrt_tuf::Tuf;
    use proptest::prelude::*;

    /// One generated job: `(absolute critical time, remaining, TUF height)`.
    type Job = (u64, u64, u32);

    /// The jobs' step TUFs; every completion the tests reach is inside the
    /// window, so a job's PUD is its height over its remaining time.
    fn tufs(jobs: &[Job]) -> Vec<Tuf> {
        jobs.iter()
            .map(|&(_, _, height)| Tuf::step(f64::from(height), 1_000_000).expect("valid"))
            .collect()
    }

    fn context<'a>(now: u64, jobs: &[Job], tufs: &'a [Tuf]) -> SchedulerContext<'a> {
        SchedulerContext {
            now,
            jobs: jobs
                .iter()
                .zip(tufs)
                .enumerate()
                .map(|(i, (&(critical, remaining, _), tuf))| JobView {
                    id: JobId::new(i),
                    task: TaskId::new(i),
                    arrival: 0,
                    absolute_critical_time: critical,
                    window: tuf.critical_time(),
                    tuf,
                    remaining,
                    blocked_on: None,
                    holds: Vec::new(),
                })
                .collect(),
        }
    }

    /// What one construction decided: the order, the whole invocation's
    /// `ops`, and per examined chain whether it was admitted.
    type Outcome = (Vec<JobId>, u64, Vec<bool>);

    /// §3.4's copy-based procedure, the reference.
    fn copy_based(construction: &mut Construction, ctx: &SchedulerContext<'_>) -> Outcome {
        let mut ops = OpsCounter::new();
        construction.rank_singletons(ctx, &mut ops);
        construction.sort_by_pud(&mut ops);
        let order = construction.build_schedule(ctx, &mut ops);
        // A singleton is never moved or removed once in: it was admitted
        // exactly if it is in the final schedule.
        let admitted = construction
            .chains
            .iter()
            .map(|chain| order.contains(&chain.job))
            .collect();
        (order, ops.total(), admitted)
    }

    /// Exact lock-free RUA's in-place admission.
    fn in_place(construction: &mut Construction, ctx: &SchedulerContext<'_>) -> Outcome {
        let mut ops = OpsCounter::new();
        construction.rank_singletons(ctx, &mut ops);
        construction.sort_by_pud(&mut ops);
        let mut admitted = Vec::new();
        let order = construction.admit_in_place(ctx, &mut ops, |candidate, ops| {
            let admits = admits_exactly(candidate, ops);
            admitted.push(admits);
            admits
        });
        (order, ops.total(), admitted)
    }

    fn assert_same_as_copy_based(now: u64, jobs: &[Job]) -> Outcome {
        let tufs = tufs(jobs);
        let ctx = context(now, jobs, &tufs);
        let reference = copy_based(&mut Construction::default(), &ctx);
        let actual = in_place(&mut Construction::default(), &ctx);
        assert_eq!(actual, reference, "now {now}, jobs {jobs:?}");
        assert_eq!(RuaLockFree::new().schedule(&ctx).ops, reference.1);
        actual
    }

    fn jobs() -> impl Strategy<Value = Vec<Job>> {
        let critical = prop_oneof![
            // A few shared critical times: ties in ECF order.
            (1u64..4).prop_map(|k| k * 1_000),
            // Tight: overload, and critical times `now` may be past.
            0u64..3_000,
            0u64..200_000,
        ];
        let remaining = prop_oneof![Just(0u64), 1u64..800];
        collection::vec((critical, remaining, 1u32..10), 0..48)
    }

    proptest! {
        /// In-place admission decides and charges exactly as trying each
        /// job on a copy does, on schedulers whose buffers are reused from
        /// one context to the next.
        #[test]
        fn in_place_admission_matches_the_copy_based_procedure(
            now in prop_oneof![Just(0u64), 0u64..4_000],
            contexts in collection::vec(jobs(), 1..4),
        ) {
            let mut reference = Construction::default();
            let mut actual = Construction::default();
            for jobs in &contexts {
                let tufs = tufs(jobs);
                let ctx = context(now, jobs, &tufs);
                prop_assert_eq!(in_place(&mut actual, &ctx), copy_based(&mut reference, &ctx));
            }
        }
    }

    #[test]
    fn a_job_appended_at_the_tail_that_misses_itself_is_rejected() {
        // The head-first walk reaches every entry of the copy here, exactly
        // as it does when the job is admitted.
        let (order, _, admitted) =
            assert_same_as_copy_based(0, &[(1_000, 100, 9), (2_000, 5_000, 1)]);
        assert_eq!(order, [JobId::new(0)]);
        assert_eq!(admitted, [true, false]);
    }

    #[test]
    fn a_miss_on_the_last_entry_behind_the_insertion_rejects_the_job() {
        // Job 2 lands at the head and fits; of the two entries it delays,
        // only the last misses.
        let (order, _, admitted) =
            assert_same_as_copy_based(0, &[(1_500, 500, 9), (1_600, 1_000, 9), (600, 550, 1)]);
        assert_eq!(order, [JobId::new(0), JobId::new(1)]);
        assert_eq!(admitted, [true, true, false]);
    }
}
