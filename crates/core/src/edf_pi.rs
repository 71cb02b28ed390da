use lfrt_sim::{Decision, JobId, SchedulerContext, SimTime, UaScheduler};

use crate::dependency::Dependencies;
use crate::ops::OpsCounter;

/// EDF with *priority inheritance*: a lock holder inherits the earliest
/// critical time among the jobs transitively blocked on it (Sha, Rajkumar &
/// Lehoczky's protocol \[23\] of the paper, applied to deadlines).
///
/// Plain [`Edf`](crate::Edf) with locks suffers unbounded priority
/// inversion: a medium-urgency job can preempt the lock holder indefinitely
/// while the most urgent job waits — the famous Mars Pathfinder failure
/// mode (see `examples/mars_pathfinder.rs`). Inheritance bounds the
/// inversion to one critical section. RUA's dependency chains achieve the
/// same effect natively, and lock-free sharing dissolves the problem
/// entirely — this scheduler exists to measure the middle ground.
///
/// Cost: chain computation `O(n²)` plus a sort, `O(n²)` reported
/// operations.
///
/// # Examples
///
/// ```
/// use lfrt_core::EdfPi;
/// use lfrt_sim::UaScheduler;
///
/// assert_eq!(EdfPi::new().name(), "edf-pi");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EdfPi {
    dependencies: Dependencies,
    /// The chain being walked, as positions in the context's `jobs`.
    chain: Vec<usize>,
    /// Every job's `(id, effective deadline)`, in context order until sorted.
    effective: Vec<(JobId, SimTime)>,
}

impl EdfPi {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl UaScheduler for EdfPi {
    fn name(&self) -> &str {
        "edf-pi"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut ops = OpsCounter::new();
        let Self {
            dependencies,
            chain,
            effective,
        } = self;
        dependencies.resolve(ctx);
        // Effective deadline: own critical time, tightened by every job
        // whose dependency chain runs through this one.
        effective.clear();
        effective.extend(ctx.jobs.iter().map(|j| (j.id, j.absolute_critical_time)));
        for (job, view) in ctx.jobs.iter().enumerate() {
            chain.clear();
            if dependencies.chain(job, chain, &mut ops).is_cycle() {
                continue;
            }
            // Everyone ahead of the job itself, which ends its chain.
            for &member in &chain[..chain.len() - 1] {
                ops.tick();
                let deadline = &mut effective[member].1;
                *deadline = (*deadline).min(view.absolute_critical_time);
            }
        }
        effective.sort_by(|a, b| {
            ops.tick();
            (a.1, a.0).cmp(&(b.1, b.0))
        });
        Decision {
            order: effective.iter().map(|&(id, _)| id).collect(),
            ops: ops.total(),
            aborts: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_sim::{JobView, ObjectId, TaskId};
    use lfrt_tuf::Tuf;

    #[test]
    fn holder_inherits_blockers_deadline() {
        let tuf = Tuf::step(1.0, 1_000_000).expect("valid");
        let mk = |id: usize, crit: u64, blocked: Option<usize>, holds: Option<usize>| JobView {
            id: JobId::new(id),
            task: TaskId::new(id),
            arrival: 0,
            absolute_critical_time: crit,
            window: 1_000_000,
            tuf: &tuf,
            remaining: 10,
            blocked_on: blocked.map(ObjectId::new),
            holds: holds.map(ObjectId::new).into_iter().collect(),
        };
        // Low-urgency holder (crit 90k) holds O0; urgent job (crit 1k)
        // blocks on it; a medium job (crit 50k) is independent. With
        // inheritance the holder sorts FIRST (inherits 1k), ahead of the
        // medium job that would otherwise starve it.
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![
                mk(0, 90_000, None, Some(0)), // holder
                mk(1, 1_000, Some(0), None),  // urgent, blocked
                mk(2, 50_000, None, None),    // medium
            ],
        };
        let d = EdfPi::new().schedule(&ctx);
        assert_eq!(
            d.order[0],
            JobId::new(0),
            "holder inherits the urgent deadline"
        );
        assert_eq!(d.order[1], JobId::new(1));
        assert_eq!(d.order[2], JobId::new(2));
    }

    #[test]
    fn no_locks_degenerates_to_edf() {
        let tuf = Tuf::step(1.0, 1_000_000).expect("valid");
        let mk = |id: usize, crit: u64| JobView {
            id: JobId::new(id),
            task: TaskId::new(id),
            arrival: 0,
            absolute_critical_time: crit,
            window: 1_000_000,
            tuf: &tuf,
            remaining: 10,
            blocked_on: None,
            holds: Vec::new(),
        };
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![mk(0, 300), mk(1, 100), mk(2, 200)],
        };
        let d = EdfPi::new().schedule(&ctx);
        assert_eq!(d.order, vec![JobId::new(1), JobId::new(2), JobId::new(0)]);
    }

    #[test]
    fn inheritance_is_transitive() {
        let tuf = Tuf::step(1.0, 1_000_000).expect("valid");
        let mk = |id: usize, crit: u64, blocked: Option<usize>, holds: Option<usize>| JobView {
            id: JobId::new(id),
            task: TaskId::new(id),
            arrival: 0,
            absolute_critical_time: crit,
            window: 1_000_000,
            tuf: &tuf,
            remaining: 10,
            blocked_on: blocked.map(ObjectId::new),
            holds: holds.map(ObjectId::new).into_iter().collect(),
        };
        // chain: J2 (urgent) → J1 (holds O1, blocked on O0) → J0 (holds O0).
        let ctx = SchedulerContext {
            now: 0,
            jobs: vec![
                mk(0, 80_000, None, Some(0)),
                mk(1, 60_000, Some(0), Some(1)),
                mk(2, 1_000, Some(1), None),
            ],
        };
        let d = EdfPi::new().schedule(&ctx);
        assert_eq!(
            d.order[0],
            JobId::new(0),
            "deepest holder inherits transitively"
        );
    }
}
