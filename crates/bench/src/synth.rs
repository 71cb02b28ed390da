//! Synthetic scheduler contexts for the scheduling-cost ablations (§3.6 /
//! §5 of the paper): job populations of controllable size and dependency
//! structure, independent of any simulation run.

use lfrt_sim::{JobId, JobView, ObjectId, SchedulerContext, TaskId};
use lfrt_tuf::Tuf;

/// Owns the TUF storage that a [`SchedulerContext`] borrows from.
#[derive(Debug)]
pub struct SyntheticWorkload {
    tufs: Vec<Tuf>,
}

impl SyntheticWorkload {
    /// Creates storage for populations up to `max_jobs` jobs, with utilities
    /// and critical times varied deterministically.
    pub fn new(max_jobs: usize) -> Self {
        let tufs = (0..max_jobs)
            .map(|i| {
                Tuf::step(1.0 + (i % 10) as f64, 10_000 + 997 * i as u64)
                    .expect("positive critical time")
            })
            .collect();
        Self { tufs }
    }

    /// A context of `n` independent jobs (no blocking) — the lock-free RUA
    /// population.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the capacity given at construction.
    pub fn independent(&self, n: usize) -> SchedulerContext<'_> {
        SchedulerContext {
            now: 0,
            jobs: (0..n).map(|i| self.view(i, None, None)).collect(),
        }
    }

    /// A context of `n` jobs forming blocking chains of length
    /// `chain_length`: within each chain, job `k` holds object `k` and is
    /// blocked on object `k+1` (held by job `k+1`); the last job of the
    /// chain runs free. This is the worst-case dependency structure that
    /// drives lock-based RUA's `O(n² log n)` cost.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds capacity or `chain_length` is zero.
    pub fn chained(&self, n: usize, chain_length: usize) -> SchedulerContext<'_> {
        assert!(chain_length > 0, "chains need at least one job");
        let jobs = (0..n)
            .map(|i| {
                let pos_in_chain = i % chain_length;
                let is_chain_tail = pos_in_chain == chain_length - 1 || i == n - 1;
                let holds = if pos_in_chain > 0 { Some(i) } else { None };
                let blocked_on = if is_chain_tail { None } else { Some(i + 1) };
                self.view(i, blocked_on, holds)
            })
            .collect();
        SchedulerContext { now: 0, jobs }
    }

    /// Like [`SyntheticWorkload::chained`], but with critical times so tight
    /// that most insertions fail the feasibility test. Rejected jobs are
    /// re-examined with their own chains instead of being skipped as
    /// already-scheduled dependents, which drives lock-based RUA toward its
    /// §3.6 worst case.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds capacity or `chain_length` is zero.
    pub fn tight_chained(&self, n: usize, chain_length: usize) -> SchedulerContext<'_> {
        let mut ctx = self.chained(n, chain_length);
        for (rank, job) in ctx.jobs.iter_mut().enumerate() {
            // Only a couple of jobs fit; everyone else is infeasible where
            // inserted and gets rejected.
            job.absolute_critical_time = 150 + (rank as u64 % 7) * 40;
        }
        ctx
    }

    fn view(&self, i: usize, blocked_on: Option<usize>, holds: Option<usize>) -> JobView<'_> {
        let tuf = &self.tufs[i];
        JobView {
            id: JobId::new(i),
            task: TaskId::new(i % 10),
            arrival: (i as u64) * 13 % 1_000,
            absolute_critical_time: tuf.critical_time() + (i as u64) * 13 % 1_000,
            window: tuf.critical_time(),
            tuf,
            remaining: 100 + (i as u64 * 37) % 400,
            blocked_on: blocked_on.map(ObjectId::new),
            holds: holds.map(ObjectId::new).into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_population_has_no_dependencies() {
        let w = SyntheticWorkload::new(32);
        let ctx = w.independent(16);
        assert_eq!(ctx.jobs.len(), 16);
        assert!(ctx
            .jobs
            .iter()
            .all(|j| j.blocked_on.is_none() && j.holds.is_empty()));
    }

    #[test]
    fn chains_link_holders_and_blockers() {
        let w = SyntheticWorkload::new(16);
        let ctx = w.chained(8, 4);
        // Job 0 blocked on object 1, held by job 1.
        let j0 = ctx.job(JobId::new(0)).expect("exists");
        let blocked_on = j0.blocked_on.expect("job 0 is blocked");
        assert_eq!(ctx.holder_of(blocked_on), Some(JobId::new(1)));
        // Chain tails run free.
        let j3 = ctx.job(JobId::new(3)).expect("exists");
        assert!(j3.blocked_on.is_none());
    }

    #[test]
    fn tight_population_mostly_rejects() {
        use lfrt_core::{RuaLockBased, RuaLockFree};
        use lfrt_sim::UaScheduler;
        let w = SyntheticWorkload::new(64);
        let relaxed = RuaLockBased::new().schedule(&w.chained(64, 8));
        let tight = RuaLockBased::new().schedule(&w.tight_chained(64, 8));
        assert!(
            tight.order.len() < relaxed.order.len(),
            "tight deadlines reject jobs"
        );
        // Rejections disable the skip rule, so the tight population charges
        // more work per admitted job.
        let lf = RuaLockFree::new().schedule(&w.tight_chained(64, 8));
        assert!(tight.ops > lf.ops, "lock-based pays for re-examined chains");
    }

    #[test]
    fn chained_context_is_acyclic() {
        use lfrt_core::dependency::Dependencies;
        use lfrt_core::OpsCounter;
        let w = SyntheticWorkload::new(64);
        let ctx = w.chained(64, 8);
        let mut dependencies = Dependencies::new();
        dependencies.resolve(&ctx);
        let mut chain = Vec::new();
        for job in 0..ctx.jobs.len() {
            let kind = dependencies.chain(job, &mut chain, &mut OpsCounter::new());
            assert!(!kind.is_cycle(), "synthetic chains must not deadlock");
        }
    }
}
