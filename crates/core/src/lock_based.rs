use lfrt_sim::{Decision, JobId, SchedulerContext, UaScheduler};

use crate::construct::Construction;
use crate::deadlock::select_victim;
use crate::dependency::{Chain, Dependencies};
use crate::ops::OpsCounter;

/// Lock-based RUA: the full Resource-constrained Utility Accrual scheduler
/// with dependency chains (§3 of the paper).
///
/// At every scheduling event — arrivals, departures, and lock/unlock
/// requests — the algorithm:
///
/// 1. builds each job's dependency chain by following lock request/ownership
///    edges (`O(n)` per job, `O(n²)` total);
/// 2. computes each chain's potential utility density (`O(n²)` total);
/// 3. checks the chains for deadlock cycles and, if one is found (possible
///    only with nested critical sections), excludes the least-utility member
///    so its critical-time abort resolves the deadlock;
/// 4. sorts jobs by non-increasing PUD (`O(n log n)`);
/// 5. inserts each job and its dependents into an ECF tentative schedule,
///    respecting dependencies, keeping insertions only when feasible
///    (`O(n log n)` per job, `O(n² log n)` total — the dominating step).
///
/// The reported operation count therefore grows as `O(n² log n)`, which the
/// simulator's overhead model turns into the scheduling cost the paper's
/// Figure 9 measures.
///
/// # Examples
///
/// ```
/// use lfrt_core::RuaLockBased;
/// use lfrt_sim::UaScheduler;
///
/// let rua = RuaLockBased::new();
/// assert_eq!(rua.name(), "rua-lock-based");
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuaLockBased {
    dependencies: Dependencies,
    construction: Construction,
    /// Per context position: chosen as a deadlock victim this invocation.
    excluded: Vec<bool>,
}

impl RuaLockBased {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UaScheduler for RuaLockBased {
    fn name(&self) -> &str {
        "rua-lock-based"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut ops = OpsCounter::new();
        let Self {
            dependencies,
            construction,
            excluded,
        } = self;
        // Steps 1–3: chains, deadlock handling, PUDs.
        dependencies.resolve(ctx);
        construction.clear();
        excluded.clear();
        excluded.resize(ctx.jobs.len(), false);
        let mut aborts: Vec<JobId> = Vec::new();
        for job in 0..ctx.jobs.len() {
            let start = construction.members.len();
            match dependencies.chain(job, &mut construction.members, &mut ops) {
                Chain::Acyclic => construction.rank(ctx, start, &mut ops),
                Chain::Cycle => {
                    let cycle = &construction.members[start..];
                    if let Some(victim) = select_victim(ctx, cycle, &mut ops) {
                        if !std::mem::replace(&mut excluded[victim], true) {
                            aborts.push(ctx.jobs[victim].id);
                        }
                    }
                    construction.members.truncate(start);
                }
            }
        }
        if !aborts.is_empty() {
            construction.drop_chains_through(excluded);
        }
        // Step 4: sort by PUD.
        construction.sort_by_pud(&mut ops);
        // Step 5: construct the feasible ECF schedule.
        let order = construction.build_schedule(ctx, &mut ops);
        // Deadlock victims are handed to the engine for immediate abortion
        // (the abort-exception model of §3.5 resolves the deadlock).
        for victim in &aborts {
            lfrt_trace::emit(
                lfrt_trace::EventKind::SchedAbort,
                lfrt_trace::Site::Sched,
                victim.index() as u64,
            );
        }
        Decision {
            order,
            ops: ops.total(),
            aborts,
        }
    }
}
