use lfrt_sim::{Decision, SchedulerContext, UaScheduler};

use crate::construct::Construction;
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
/// what the paper's Figure 9 CML separation measures.
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
        let order = self.construction.build_schedule(ctx, &mut ops);
        Decision {
            order,
            ops: ops.total(),
            aborts: Vec::new(),
        }
    }
}
