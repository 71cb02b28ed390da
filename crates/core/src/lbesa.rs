use lfrt_sim::{Decision, SchedulerContext, UaScheduler};

use crate::ops::OpsCounter;
use crate::pud::chain_pud;

/// LBESA — Locke's Best Effort Scheduling Algorithm, the other classic
/// utility-accrual scheduler from the TUF literature the paper builds on
/// (Locke, CMU 1986; surveyed in the paper's reference \[22\]).
///
/// Where RUA *greedily inserts* jobs in decreasing potential-utility-density
/// order and rejects an insertion that breaks feasibility, LBESA starts from
/// the full deadline-ordered schedule and *sheds* the lowest-density job
/// until the remainder is feasible. Both default to EDF during underloads;
/// during overloads they can shed different jobs, which makes LBESA a
/// valuable cross-check for the RUA results.
///
/// This implementation considers each job independently (no dependency
/// chains), matching its use with lock-free or ideal object sharing.
///
/// Cost: `O(n log n)` for the initial sort plus `O(n)` feasibility passes
/// per shed job — `O(n²)` in the worst case, like lock-free RUA.
///
/// # Examples
///
/// ```
/// use lfrt_core::Lbesa;
/// use lfrt_sim::UaScheduler;
///
/// assert_eq!(Lbesa::new().name(), "lbesa");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lbesa {
    /// The tentative schedule, as positions in the context's `jobs`.
    order: Vec<usize>,
}

impl Lbesa {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UaScheduler for Lbesa {
    fn name(&self) -> &str {
        "lbesa"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut ops = OpsCounter::new();
        let jobs = &ctx.jobs;
        let order = &mut self.order;
        // Deadline-ordered tentative schedule of every live job.
        order.clear();
        order.extend(0..jobs.len());
        order.sort_by(|&a, &b| {
            ops.tick();
            let (a, b) = (&jobs[a], &jobs[b]);
            (a.absolute_critical_time, a.id).cmp(&(b.absolute_critical_time, b.id))
        });
        // Shed the lowest-utility-density job until feasible.
        while !feasible(ctx, order, &mut ops) {
            let Some(worst) = order
                .iter()
                .map(|&job| (chain_pud(ctx, &[job], &mut ops), job))
                .min_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .expect("finite PUDs")
                        .then(jobs[b.1].id.cmp(&jobs[a.1].id))
                })
            else {
                break;
            };
            order.retain(|&job| job != worst.1);
            ops.charge_log(order.len());
        }
        Decision {
            order: order.iter().map(|&job| jobs[job].id).collect(),
            ops: ops.total(),
            aborts: Vec::new(),
        }
    }
}

fn feasible(ctx: &SchedulerContext<'_>, order: &[usize], ops: &mut OpsCounter) -> bool {
    let mut elapsed = 0u64;
    for &job in order {
        ops.tick();
        let view = &ctx.jobs[job];
        elapsed += view.remaining;
        if ctx.now + elapsed > view.absolute_critical_time {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_sim::{JobId, JobView, TaskId};
    use lfrt_tuf::Tuf;

    fn ctx_of<'a>(tufs: &'a [Tuf], jobs: &[(u64, u64)]) -> SchedulerContext<'a> {
        // jobs: (critical, remaining) — one per tuf.
        SchedulerContext {
            now: 0,
            jobs: jobs
                .iter()
                .enumerate()
                .map(|(i, &(critical, remaining))| JobView {
                    id: JobId::new(i),
                    task: TaskId::new(i),
                    arrival: 0,
                    absolute_critical_time: critical,
                    window: critical,
                    tuf: &tufs[i],
                    remaining,
                    blocked_on: None,
                    holds: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn underload_is_plain_edf() {
        let tufs = vec![
            Tuf::step(1.0, 1_000).expect("valid"),
            Tuf::step(1.0, 500).expect("valid"),
        ];
        let ctx = ctx_of(&tufs, &[(1_000, 100), (500, 100)]);
        let d = Lbesa::new().schedule(&ctx);
        assert_eq!(d.order, vec![JobId::new(1), JobId::new(0)]);
    }

    #[test]
    fn overload_sheds_lowest_density_job() {
        // Three jobs, only two fit. Job 1 has the lowest utility density.
        let tufs = vec![
            Tuf::step(10.0, 1_000).expect("valid"),
            Tuf::step(1.0, 1_100).expect("valid"),
            Tuf::step(10.0, 1_200).expect("valid"),
        ];
        let ctx = ctx_of(&tufs, &[(1_000, 600), (1_100, 600), (1_200, 600)]);
        let d = Lbesa::new().schedule(&ctx);
        assert_eq!(d.order, vec![JobId::new(0), JobId::new(2)]);
    }

    #[test]
    fn sheds_repeatedly_until_feasible() {
        let tufs: Vec<Tuf> = (0..4)
            .map(|i| Tuf::step(1.0 + i as f64, 1_000).expect("valid"))
            .collect();
        // Each needs 600; only one fits by t=1000.
        let ctx = ctx_of(
            &tufs,
            &[(1_000, 600), (1_000, 600), (1_000, 600), (1_000, 600)],
        );
        let d = Lbesa::new().schedule(&ctx);
        assert_eq!(d.order.len(), 1);
        // The highest-density job (utility 4) survives.
        assert_eq!(d.order[0], JobId::new(3));
    }

    #[test]
    fn empty_context_yields_empty_schedule() {
        let tufs: Vec<Tuf> = Vec::new();
        let ctx = ctx_of(&tufs, &[]);
        let d = Lbesa::new().schedule(&ctx);
        assert!(d.order.is_empty());
    }
}
