//! Potential utility density (§3.2 of the paper).
//!
//! The PUD of a job measures the utility accrued per unit time by executing
//! the job together with everything it depends on:
//!
//! ```text
//! PUD(J) = ( U_J(t_f) + Σ_{D ∈ Dep(J)} U_D(t_D) ) / (t_f − t)
//! ```
//!
//! where `t_D` is each dependent's estimated completion time under the
//! assumption that the chain executes immediately and back-to-back, and
//! `t_f` is `J`'s own estimated completion time.

use lfrt_sim::SchedulerContext;

use crate::ops::OpsCounter;

/// Computes the PUD of a chain `⟨head, …, job⟩` at `ctx.now`, charging one
/// operation per chain member. Members are positions in `ctx.jobs`, as
/// [`Dependencies::chain`](crate::dependency::Dependencies::chain) produces
/// them.
///
/// Members are assumed to execute back-to-back starting now; each member's
/// utility is evaluated at its estimated completion time.
///
/// Returns 0.0 for an empty chain.
///
/// # Panics
///
/// Panics if a member is not a position in `ctx.jobs`.
pub fn chain_pud(ctx: &SchedulerContext<'_>, chain: &[usize], ops: &mut OpsCounter) -> f64 {
    let mut elapsed: u64 = 0;
    let mut total_utility = 0.0;
    for &member in chain {
        ops.tick();
        let view = &ctx.jobs[member];
        elapsed += view.remaining;
        let completion = ctx.now + elapsed;
        let sojourn = completion.saturating_sub(view.arrival);
        total_utility += view.tuf.utility(sojourn);
    }
    if elapsed == 0 {
        // A chain of zero remaining work either yields utility instantly
        // (infinite density, approximated by the utility itself scaled
        // large) or nothing at all.
        return if total_utility > 0.0 {
            f64::MAX / 2.0
        } else {
            0.0
        };
    }
    total_utility / elapsed as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_sim::{JobId, JobView, TaskId};
    use lfrt_tuf::Tuf;

    fn view<'a>(id: usize, tuf: &'a Tuf, arrival: u64, remaining: u64) -> JobView<'a> {
        JobView {
            id: JobId::new(id),
            task: TaskId::new(id),
            arrival,
            absolute_critical_time: arrival + tuf.critical_time(),
            window: tuf.critical_time(),
            tuf,
            remaining,
            blocked_on: None,
            holds: Vec::new(),
        }
    }

    #[test]
    fn singleton_chain_is_utility_over_remaining() {
        let tuf = Tuf::step(10.0, 1_000).expect("valid");
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![view(0, &tuf, 0, 50)],
        };
        let mut ops = OpsCounter::new();
        let pud = chain_pud(&ctx, &[0], &mut ops);
        assert!((pud - 10.0 / 50.0).abs() < 1e-12);
        assert_eq!(ops.total(), 1);
    }

    #[test]
    fn chain_sums_utilities_and_times() {
        let tuf_a = Tuf::step(6.0, 1_000).expect("valid");
        let tuf_b = Tuf::step(4.0, 1_000).expect("valid");
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![view(0, &tuf_a, 0, 100), view(1, &tuf_b, 0, 100)],
        };
        let mut ops = OpsCounter::new();
        let pud = chain_pud(&ctx, &[0, 1], &mut ops);
        // (6 + 4) / 200.
        assert!((pud - 0.05).abs() < 1e-12);
        assert_eq!(ops.total(), 2);
    }

    #[test]
    fn member_past_its_critical_time_contributes_nothing() {
        let tuf = Tuf::step(10.0, 100).expect("valid");
        // Completion estimate lands at sojourn 150 >= 100: zero utility.
        let ctx = SchedulerContext {
            now: 100,
            jobs: vec![view(0, &tuf, 50, 100)],
        };
        let pud = chain_pud(&ctx, &[0], &mut OpsCounter::new());
        assert_eq!(pud, 0.0);
    }

    #[test]
    fn non_step_tuf_uses_estimated_completion() {
        let tuf = Tuf::linear_decreasing(10.0, 100).expect("valid");
        // Completion at sojourn 50: utility 5; PUD = 5 / 50.
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![view(0, &tuf, 0, 50)],
        };
        let pud = chain_pud(&ctx, &[0], &mut OpsCounter::new());
        assert!((pud - 0.1).abs() < 1e-12);
    }

    #[test]
    fn members_are_positions_not_ids() {
        let tuf_a = Tuf::step(6.0, 1_000).expect("valid");
        let tuf_b = Tuf::step(4.0, 1_000).expect("valid");
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![view(70, &tuf_a, 0, 100), view(3, &tuf_b, 0, 50)],
        };
        let pud = chain_pud(&ctx, &[1], &mut OpsCounter::new());
        assert!((pud - 4.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_chain_and_finished_work_are_special() {
        let tuf = Tuf::step(10.0, 100).expect("valid");
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![view(0, &tuf, 0, 0)],
        };
        assert_eq!(chain_pud(&ctx, &[], &mut OpsCounter::new()), 0.0);
        // Utility for no further work: the densest chain there can be.
        assert_eq!(
            chain_pud(&ctx, &[0], &mut OpsCounter::new()),
            f64::MAX / 2.0
        );
    }
}
