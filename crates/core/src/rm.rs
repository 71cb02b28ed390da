use lfrt_sim::{Decision, SchedulerContext, UaScheduler};

use crate::ops::OpsCounter;

/// Rate-monotonic: the classic *static-priority* baseline (§4.1's first
/// scheduler class).
///
/// Priorities are fixed per task — shorter UAM window (higher rate) wins —
/// and never change while a job is live, so a job can be preempted at most
/// once per release of a higher-priority job (the static-priority half of
/// the preemption taxonomy that Lemma 1 contrasts UA schedulers against).
///
/// Cost: one sort, `O(n log n)` reported operations.
///
/// # Examples
///
/// ```
/// use lfrt_core::Rm;
/// use lfrt_sim::UaScheduler;
///
/// assert_eq!(Rm::new().name(), "rm");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rm {
    /// The order being sorted, as positions in the context's `jobs`.
    order: Vec<usize>,
}

impl Rm {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UaScheduler for Rm {
    fn name(&self) -> &str {
        "rm"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut ops = OpsCounter::new();
        let key = |job: usize| {
            let j = &ctx.jobs[job];
            (j.window, j.task, j.id)
        };
        self.order.clear();
        self.order.extend(0..ctx.jobs.len());
        self.order.sort_by(|&a, &b| {
            ops.tick();
            key(a).cmp(&key(b))
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
    fn shorter_window_wins_regardless_of_deadline() {
        let tuf = Tuf::step(1.0, 10_000).expect("valid");
        let mk = |id: usize, window: u64, crit: u64| JobView {
            id: JobId::new(id),
            task: TaskId::new(id),
            arrival: 0,
            absolute_critical_time: crit,
            window,
            tuf: &tuf,
            remaining: 10,
            blocked_on: None,
            holds: Vec::new(),
        };
        // Job 0 has the later deadline but the shorter window: RM picks it.
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![mk(0, 100, 9_000), mk(1, 500, 1_000)],
        };
        let decision = Rm::new().schedule(&ctx);
        assert_eq!(decision.order[0], JobId::new(0));
    }
}
