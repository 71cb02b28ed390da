//! The scheduler interface: what a utility-accrual scheduler sees at each
//! scheduling event, and what it must decide.

use lfrt_tuf::Tuf;

use crate::ids::{JobId, ObjectId, TaskId};
use crate::{SimTime, Ticks};

/// A scheduler's read-only view of one live job.
#[derive(Debug, Clone)]
pub struct JobView<'a> {
    /// The job's identity.
    pub id: JobId,
    /// The releasing task.
    pub task: TaskId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Absolute critical time (`arrival + C_i`).
    pub absolute_critical_time: SimTime,
    /// The releasing task's UAM window `W_i` (static-priority baselines
    /// such as rate-monotonic order by it).
    pub window: Ticks,
    /// The job's time/utility function.
    pub tuf: &'a Tuf,
    /// Nominal remaining execution time (the scheduler's estimate).
    pub remaining: Ticks,
    /// The object this job is blocked on, if any (lock-based only).
    pub blocked_on: Option<ObjectId>,
    /// The objects this job holds locks on (lock-based only; more than one
    /// only with explicit nested critical sections).
    pub holds: Vec<ObjectId>,
}

/// Everything a scheduler sees when invoked.
///
/// Dependencies are derivable: a job with `blocked_on = Some(o)` depends on
/// the job whose `holds == Some(o)` — see [`SchedulerContext::holder_of`].
#[derive(Debug, Clone)]
pub struct SchedulerContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// All live jobs (ready and blocked), in job-id order.
    pub jobs: Vec<JobView<'a>>,
}

impl<'a> SchedulerContext<'a> {
    /// Looks up a job view by id: the first listed job with that id.
    ///
    /// `O(n)` — a scan of [`SchedulerContext::jobs`], meant for one-off
    /// callers (tests, reports). A scheduler that needs a job inside a loop
    /// should name jobs by their position in `jobs` instead, resolving ids
    /// and lock holders once per invocation as `lfrt-core`'s schedulers do;
    /// a lookup per comparison or per schedule entry turns an `O(n²)`
    /// algorithm into an `O(n³)` one.
    pub fn job(&self, id: JobId) -> Option<&JobView<'a>> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// The job currently holding the lock on `object`, if any: the first
    /// listed job whose `holds` contains it.
    ///
    /// `O(n)` like [`SchedulerContext::job`], and for one-off callers like
    /// it: following a dependency chain with one call per hop is `O(n)` per
    /// hop. `lfrt_core::dependency::Dependencies` resolves every holder once
    /// per invocation.
    pub fn holder_of(&self, object: ObjectId) -> Option<JobId> {
        self.jobs
            .iter()
            .find(|j| j.holds.contains(&object))
            .map(|j| j.id)
    }
}

/// A scheduler's decision: the constructed schedule plus a cost receipt.
#[derive(Debug, Clone, Default)]
pub struct Decision {
    /// The schedule, head first. The engine dispatches the first *runnable*
    /// job in this order; jobs omitted here simply do not run now (RUA's
    /// "rejected" jobs — they may still run after a later event).
    pub order: Vec<JobId>,
    /// Abstract operation count of this invocation, charged as processor
    /// time by the [`OverheadModel`](crate::OverheadModel).
    pub ops: u64,
    /// Jobs the scheduler asks the engine to abort immediately — RUA's
    /// deadlock resolution (§3.3 of the paper): the abort-exception handler
    /// runs, rolls the victim back, and releases its locks.
    pub aborts: Vec<JobId>,
}

/// A utility-accrual (or baseline) scheduler.
///
/// The engine invokes [`UaScheduler::schedule`] at every scheduling event:
/// job arrivals, job departures (completion or abort), and — when the
/// sharing mode is lock-based — lock and unlock requests.
pub trait UaScheduler {
    /// A short name for reports (e.g. `"rua-lockfree"`).
    fn name(&self) -> &str;

    /// Constructs a schedule for the current situation.
    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_tuf::Tuf;

    #[test]
    fn holder_lookup() {
        let tuf = Tuf::step(1.0, 100).expect("valid");
        let mk = |id: usize, holds: Option<usize>, blocked: Option<usize>| JobView {
            id: JobId::new(id),
            task: TaskId::new(0),
            arrival: 0,
            absolute_critical_time: 100,
            window: 100,
            tuf: &tuf,
            remaining: 10,
            blocked_on: blocked.map(ObjectId::new),
            holds: holds.map(ObjectId::new).into_iter().collect(),
        };
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![mk(0, Some(5), None), mk(1, None, Some(5))],
        };
        assert_eq!(ctx.holder_of(ObjectId::new(5)), Some(JobId::new(0)));
        assert_eq!(ctx.holder_of(ObjectId::new(6)), None);
        assert!(ctx.job(JobId::new(1)).is_some());
        assert!(ctx.job(JobId::new(9)).is_none());
    }
}
