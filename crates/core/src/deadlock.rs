//! Deadlock detection and victim selection (§3.3 of the paper).
//!
//! RUA resolves deadlocks — cycles in the dependency graph, possible only
//! with nested critical sections — by aborting the job on the cycle that
//! would contribute the least utility. The comparisons of the paper exclude
//! nested sections, so this module is never triggered there; it is
//! implemented and tested for completeness with §3's full description.

use lfrt_sim::SchedulerContext;

use crate::ops::OpsCounter;
use crate::pud::chain_pud;

/// Picks the deadlock victim from a detected cycle (positions in `ctx.jobs`,
/// as [`Dependencies::chain`](crate::dependency::Dependencies::chain)
/// reports them): the job whose singleton PUD (its own utility density) is
/// lowest — the member "likely to contribute the least utility" (§3.3). Ties
/// break toward the higher job id (the younger job).
///
/// Returns the victim's position, or `None` if the cycle is empty.
///
/// # Panics
///
/// Panics if a member is not a position in `ctx.jobs`.
pub fn select_victim(
    ctx: &SchedulerContext<'_>,
    cycle: &[usize],
    ops: &mut OpsCounter,
) -> Option<usize> {
    cycle
        .iter()
        .map(|&job| (chain_pud(ctx, &[job], ops), job))
        .min_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("PUDs are finite")
                .then(ctx.jobs[b.1].id.cmp(&ctx.jobs[a.1].id))
        })
        .map(|(_, job)| job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_sim::{JobId, JobView, ObjectId, TaskId};
    use lfrt_tuf::Tuf;

    #[test]
    fn victim_is_lowest_pud_member() {
        let high = Tuf::step(100.0, 1_000).expect("valid");
        let low = Tuf::step(1.0, 1_000).expect("valid");
        let mk = |id: usize, tuf, blocked: usize, holds: usize| JobView {
            id: JobId::new(id),
            task: TaskId::new(0),
            arrival: 0,
            absolute_critical_time: 1_000,
            window: 1_000,
            tuf,
            remaining: 10,
            blocked_on: Some(ObjectId::new(blocked)),
            holds: vec![ObjectId::new(holds)],
        };
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![mk(1, &high, 2, 1), mk(2, &low, 1, 2)],
        };
        let victim = select_victim(&ctx, &[0, 1], &mut OpsCounter::new());
        assert_eq!(victim, Some(1), "low-utility member dies");
    }

    #[test]
    fn empty_cycle_has_no_victim() {
        let ctx = SchedulerContext {
            now: 0,
            jobs: Vec::new(),
        };
        assert_eq!(select_victim(&ctx, &[], &mut OpsCounter::new()), None);
    }

    #[test]
    fn tie_breaks_toward_younger_job() {
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let mk = |id: usize| JobView {
            id: JobId::new(id),
            task: TaskId::new(0),
            arrival: 0,
            absolute_critical_time: 1_000,
            window: 1_000,
            tuf: &tuf,
            remaining: 10,
            blocked_on: Some(ObjectId::new(0)),
            holds: vec![ObjectId::new(1)],
        };
        // The younger job is listed first: ids decide, not positions.
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![mk(2), mk(1)],
        };
        let mut ops = OpsCounter::new();
        assert_eq!(select_victim(&ctx, &[0, 1], &mut ops), Some(0));
        assert_eq!(select_victim(&ctx, &[1, 0], &mut ops), Some(0));
        assert_eq!(ops.total(), 4, "one singleton PUD per member");
    }
}
