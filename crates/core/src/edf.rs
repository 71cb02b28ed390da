use lfrt_sim::{Decision, JobId, SchedulerContext, SimTime, UaScheduler};

use crate::ops::OpsCounter;

/// Earliest-critical-time-first: the classic EDF baseline.
///
/// EDF is optimal during underloads (it meets all critical times whenever
/// any algorithm can) and is the schedule RUA degenerates to for step TUFs
/// without object sharing during underloads. During overloads it thrashes,
/// which is exactly the contrast the UA schedulers exist to fix.
///
/// Cost: one sort, `O(n log n)` reported operations.
///
/// # Examples
///
/// ```
/// use lfrt_core::Edf;
/// use lfrt_sim::UaScheduler;
///
/// assert_eq!(Edf::new().name(), "edf");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Edf {
    /// Every job's `(critical time, id)`, read once and sorted in place.
    keys: Vec<(SimTime, JobId)>,
}

// The sort charges one operation per comparison, and std's stable sort takes
// a different number of comparisons for elements above 16 bytes (see
// `construct.rs`). The charged counts are those of sorting 8-byte job ids.
const _: () = assert!(std::mem::size_of::<(SimTime, JobId)>() <= 16);

impl Edf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UaScheduler for Edf {
    fn name(&self) -> &str {
        "edf"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut ops = OpsCounter::new();
        self.keys.clear();
        self.keys
            .extend(ctx.jobs.iter().map(|j| (j.absolute_critical_time, j.id)));
        self.keys.sort_by(|a, b| {
            ops.tick();
            a.cmp(b)
        });
        Decision {
            order: self.keys.iter().map(|&(_, id)| id).collect(),
            ops: ops.total(),
            aborts: Vec::new(),
        }
    }
}
