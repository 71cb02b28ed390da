use lfrt_sim::{Decision, SchedulerContext, UaScheduler};

use crate::ops::OpsCounter;

/// Least-laxity-first: the classic *fully-dynamic priority* baseline
/// (§4.1's third scheduler class).
///
/// A job's laxity is `critical time − now − remaining work`; it shrinks for
/// whichever job is *not* running, so two jobs with similar laxities keep
/// overtaking each other — the mutual-preemption behaviour of the paper's
/// Figure 6 that static and job-level-dynamic schedulers cannot exhibit.
/// UA schedulers such as RUA share this class, which is why Lemma 1 bounds
/// their preemptions by scheduling events rather than by releases.
///
/// Cost: one sort, `O(n log n)` reported operations.
///
/// # Examples
///
/// ```
/// use lfrt_core::Llf;
/// use lfrt_sim::UaScheduler;
///
/// assert_eq!(Llf::new().name(), "llf");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Llf {
    /// The order being sorted, as positions in the context's `jobs`.
    order: Vec<usize>,
}

impl Llf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UaScheduler for Llf {
    fn name(&self) -> &str {
        "llf"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut ops = OpsCounter::new();
        let laxity = |job: usize| {
            let j = &ctx.jobs[job];
            let slack = i128::from(j.absolute_critical_time)
                - i128::from(ctx.now)
                - i128::from(j.remaining);
            (slack, j.id)
        };
        self.order.clear();
        self.order.extend(0..ctx.jobs.len());
        self.order.sort_by(|&a, &b| {
            ops.tick();
            laxity(a).cmp(&laxity(b))
        });
        Decision {
            order: self.order.iter().map(|&job| ctx.jobs[job].id).collect(),
            ops: ops.total(),
            aborts: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_sim::{JobId, JobView, TaskId};
    use lfrt_tuf::Tuf;

    #[test]
    fn least_laxity_goes_first() {
        let tuf = Tuf::step(1.0, 10_000).expect("valid");
        let mk = |id: usize, crit: u64, remaining: u64| JobView {
            id: JobId::new(id),
            task: TaskId::new(id),
            arrival: 0,
            absolute_critical_time: crit,
            window: 10_000,
            tuf: &tuf,
            remaining,
            blocked_on: None,
            holds: Vec::new(),
        };
        // Job 1 has the later deadline but so much remaining work that its
        // laxity (5000-0-4900=100) undercuts job 0's (1000-0-10=990).
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![mk(0, 1_000, 10), mk(1, 5_000, 4_900)],
        };
        let decision = Llf::new().schedule(&ctx);
        assert_eq!(decision.order[0], JobId::new(1));
    }

    #[test]
    fn negative_laxity_sorts_first() {
        let tuf = Tuf::step(1.0, 10_000).expect("valid");
        let mk = |id: usize, crit: u64, remaining: u64| JobView {
            id: JobId::new(id),
            task: TaskId::new(id),
            arrival: 0,
            absolute_critical_time: crit,
            window: 10_000,
            tuf: &tuf,
            remaining,
            blocked_on: None,
            holds: Vec::new(),
        };
        // Job 0 is already doomed (laxity −900); it still sorts first.
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![mk(0, 100, 1_000), mk(1, 5_000, 10)],
        };
        let decision = Llf::new().schedule(&ctx);
        assert_eq!(decision.order[0], JobId::new(0));
    }
}
