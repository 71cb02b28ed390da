use lfrt_sim::{Decision, SchedulerContext, UaScheduler};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::construct::{Candidate, Construction};
use crate::ops::OpsCounter;

/// Lock-free RUA with *randomized feasibility testing* — the speed/accuracy
/// tradeoff the paper's §3.6 points at ("the step of testing for schedule
/// feasibility can be optimized through randomization as in \[17\], with
/// concomitant tradeoffs").
///
/// Exact lock-free RUA verifies every entry of the tentative schedule after
/// every insertion (`O(n)` per job, the dominating `O(n²)` term). This
/// variant verifies only the inserted entry plus `samples` randomly chosen
/// entries *after* the insertion point (the only entries whose completion
/// times the insertion delays). Completion times are obtainable in
/// `O(log n)` from a positional tree augmented with remaining-time subtree
/// sums, so the charged per-insertion cost drops to `O((k+1)·log n)` and
/// the whole invocation to `O(n·k·log n)` — asymptotically below exact RUA
/// for constant `k`. (This reference implementation admits in place on the
/// same loop as exact lock-free RUA, which keeps every entry's completion
/// time in a flat array it shifts on each kept insertion, and charges the
/// abstract tree cost, the same convention the other schedulers use for
/// ordered-structure operations.)
///
/// The tradeoff: an unsampled entry may silently become infeasible, so a
/// job that exact RUA would reject can be kept and later aborted at its
/// critical time. On the workloads of the paper's evaluation the utility
/// loss is small (see `rua_behavior` tests; its host time is the benchmark's
/// `core.lf_sampled_ns_n64`), which is why the paper calls the optimization
/// out as viable.
///
/// Seeded: identical inputs and seed give identical schedules.
///
/// # Examples
///
/// ```
/// use lfrt_core::RuaLockFreeSampled;
/// use lfrt_sim::UaScheduler;
///
/// assert_eq!(RuaLockFreeSampled::new(4, 7).name(), "rua-lock-free-sampled");
/// ```
#[derive(Debug)]
pub struct RuaLockFreeSampled {
    sampler: Sampler,
    construction: Construction,
}

/// The randomized feasibility test and its scratch.
#[derive(Debug)]
struct Sampler {
    rng: StdRng,
    /// The positions sampled for one insertion, one slot per sample.
    picks: Vec<usize>,
}

impl RuaLockFreeSampled {
    /// Creates the scheduler checking `samples` random entries per
    /// insertion (plus the inserted entry itself).
    pub fn new(samples: usize, seed: u64) -> Self {
        Self {
            sampler: Sampler {
                rng: StdRng::seed_from_u64(seed),
                picks: vec![0; samples],
            },
            construction: Construction::default(),
        }
    }
}

impl UaScheduler for RuaLockFreeSampled {
    fn name(&self) -> &str {
        "rua-lock-free-sampled"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut ops = OpsCounter::new();
        self.construction.rank_singletons(ctx, &mut ops);
        self.construction.sort_by_pud(&mut ops);
        let sampler = &mut self.sampler;
        let order = self
            .construction
            .admit_in_place(ctx, &mut ops, |candidate, ops| {
                sampler.admits(candidate, ops)
            });
        Decision {
            order,
            ops: ops.total(),
            aborts: Vec::new(),
        }
    }
}

impl Sampler {
    /// Whether `candidate` passes the sampled test: the new entry itself is
    /// verified, then one random entry behind it per sample (the only
    /// entries the insertion delays). Each verification is charged at the
    /// `O(log n)` cost of a completion-time query on a sum-augmented
    /// positional tree, and the insertion at its `O(log n)` cost whether or
    /// not it is kept.
    fn admits(&mut self, candidate: &Candidate<'_>, ops: &mut OpsCounter) -> bool {
        let scheduled = candidate.entries.len();
        // A rejected insertion was made, and is paid for, all the same.
        ops.charge_log(scheduled);
        let len = scheduled + 1;
        // Verify the inserted entry (one tree query).
        ops.charge_log(len);
        if !candidate.fits() {
            return false;
        }
        let behind = scheduled - candidate.pos;
        if behind == 0 || self.picks.is_empty() {
            return true;
        }
        // All the draws first, then all the lookups: neither loop waits for
        // the other.
        for pick in &mut self.picks {
            *pick = candidate.pos + self.rng.random_range(0..behind);
        }
        // The distinct samples are queried front to back until one misses.
        let mut first_miss = usize::MAX;
        for &pick in &self.picks {
            if candidate.delays_past_critical(pick) {
                first_miss = first_miss.min(pick);
            }
        }
        // Not `contains`: on slices this short its early-exit search costs
        // more than the rest of the test.
        let repeats = |drawn: usize| {
            let earlier = &self.picks[..drawn];
            earlier
                .iter()
                .fold(false, |seen, &pick| seen | (pick == self.picks[drawn]))
        };
        let queried = (0..self.picks.len())
            .filter(|&drawn| self.picks[drawn] <= first_miss && !repeats(drawn))
            .count();
        for _ in 0..queried {
            ops.charge_log(len);
        }
        first_miss == usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_sim::{JobId, JobView, TaskId};
    use lfrt_tuf::Tuf;

    fn ctx_of<'a>(tufs: &'a [Tuf], jobs: &[(u64, u64)]) -> SchedulerContext<'a> {
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
    fn feasible_underload_schedules_everything() {
        let tufs: Vec<Tuf> = (0..5)
            .map(|i| Tuf::step(1.0 + i as f64, 10_000).expect("valid"))
            .collect();
        let jobs: Vec<(u64, u64)> = (0..5).map(|i| (2_000 + i * 1_000, 100)).collect();
        let ctx = ctx_of(&tufs, &jobs);
        let d = RuaLockFreeSampled::new(3, 1).schedule(&ctx);
        assert_eq!(d.order.len(), 5, "underload keeps every job");
    }

    #[test]
    fn inserted_entry_itself_is_always_checked_exactly() {
        // A job that cannot meet its own critical time must be rejected even
        // with zero samples.
        let tufs = vec![
            Tuf::step(1.0, 10_000).expect("valid"),
            Tuf::step(1.0, 10_000).expect("valid"),
        ];
        let ctx = ctx_of(&tufs, &[(100, 500), (10_000, 10)]);
        let d = RuaLockFreeSampled::new(0, 1).schedule(&ctx);
        assert!(
            !d.order.contains(&JobId::new(0)),
            "self-infeasible job rejected"
        );
        assert!(d.order.contains(&JobId::new(1)));
    }

    #[test]
    fn deterministic_per_seed() {
        let tufs: Vec<Tuf> = (0..20)
            .map(|i| Tuf::step(1.0 + (i % 7) as f64, 5_000).expect("valid"))
            .collect();
        let jobs: Vec<(u64, u64)> = (0..20).map(|i| (1_000 + i * 137 % 4_000, 150)).collect();
        let ctx = ctx_of(&tufs, &jobs);
        let a = RuaLockFreeSampled::new(2, 9).schedule(&ctx);
        let b = RuaLockFreeSampled::new(2, 9).schedule(&ctx);
        assert_eq!(a.order, b.order);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn sampling_reports_fewer_ops_than_exact_on_large_contexts() {
        use crate::RuaLockFree;
        let tufs: Vec<Tuf> = (0..200)
            .map(|i| Tuf::step(1.0 + (i % 9) as f64, 100_000).expect("valid"))
            .collect();
        let jobs: Vec<(u64, u64)> = (0..200).map(|i| (50_000 + i * 211 % 50_000, 100)).collect();
        let ctx = ctx_of(&tufs, &jobs);
        let exact = RuaLockFree::new().schedule(&ctx);
        let sampled = RuaLockFreeSampled::new(2, 3).schedule(&ctx);
        assert!(
            sampled.ops * 2 < exact.ops,
            "sampling must cut the feasibility work: {} vs {}",
            sampled.ops,
            exact.ops
        );
    }
}
