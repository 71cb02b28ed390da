//! Shared schedule-construction logic (§3.4 of the paper), used by both the
//! lock-based and lock-free RUA variants.

use std::ops::Range;

use lfrt_sim::{JobId, SchedulerContext};

use crate::ops::OpsCounter;
use crate::pud::chain_pud;
use crate::schedule::{Entry, TentativeSchedule};

/// A chain ready for insertion: the owning job, its dependency chain (head
/// first; a singleton under lock-free sharing), and its PUD.
#[derive(Debug, Clone)]
pub(crate) struct RankedChain {
    pub job: JobId,
    /// Where the chain's members sit in [`Construction::members`].
    pub members: Range<usize>,
    pub pud: f64,
}

// `sort_by_pud` charges one operation per comparison, and std's stable sort
// picks its small-sort by element size: from 21 elements up, sorting the same
// keys as elements of at most 16 bytes takes a different number of
// comparisons than as larger ones. The charged counts are those of the larger
// class; a slimmer `RankedChain` would silently change `Decision::ops`.
const _: () = assert!(std::mem::size_of::<RankedChain>() > 16);

/// The working state of one RUA schedule construction. A scheduler keeps it
/// between invocations: every buffer is cleared and refilled, so an
/// invocation allocates only the `order` it returns.
#[derive(Debug, Clone, Default)]
pub(crate) struct Construction {
    pub chains: Vec<RankedChain>,
    /// Every chain's members, as positions in the context's `jobs`, head
    /// first within a chain.
    pub members: Vec<usize>,
    /// The schedule accepted so far.
    pub schedule: TentativeSchedule,
    /// The copy each examined chain is tried on; swapped with `schedule`
    /// when the insertion is kept.
    pub tentative: TentativeSchedule,
}

impl Construction {
    /// Forgets the previous invocation's chains.
    pub fn clear(&mut self) {
        self.chains.clear();
        self.members.clear();
    }

    /// Ranks the chain `members[start..]`, whose last member is the job the
    /// chain belongs to, by its PUD.
    pub fn rank(&mut self, ctx: &SchedulerContext<'_>, start: usize, ops: &mut OpsCounter) {
        let chain = &self.members[start..];
        let owner = *chain.last().expect("a chain ends in its own job");
        self.chains.push(RankedChain {
            job: ctx.jobs[owner].id,
            members: start..self.members.len(),
            pud: chain_pud(ctx, chain, ops),
        });
    }

    /// Clears, then ranks every job as a chain of its own: without locks,
    /// dependencies cannot arise.
    pub fn rank_singletons(&mut self, ctx: &SchedulerContext<'_>, ops: &mut OpsCounter) {
        self.clear();
        for position in 0..ctx.jobs.len() {
            let start = self.members.len();
            self.members.push(position);
            self.rank(ctx, start, ops);
        }
    }

    /// Drops every chain that runs through a job flagged in `excluded`
    /// (indexed by position).
    pub fn drop_chains_through(&mut self, excluded: &[bool]) {
        let members = &self.members;
        self.chains
            .retain(|chain| !members[chain.members.clone()].iter().any(|&m| excluded[m]));
    }

    /// Sorts chains by non-increasing PUD (ties toward the lower job id),
    /// charging one operation per comparison.
    pub fn sort_by_pud(&mut self, ops: &mut OpsCounter) {
        self.chains.sort_by(|a, b| {
            ops.tick();
            b.pud
                .partial_cmp(&a.pud)
                .expect("PUDs are finite")
                .then(a.job.cmp(&b.job))
        });
    }

    /// Examines chains in the given (non-increasing PUD) order, inserting
    /// each job with its dependents into a tentative copy of the schedule at
    /// their critical-time positions while respecting dependency order, and
    /// keeping each insertion only if the tentative schedule remains
    /// feasible. Returns the schedule's jobs, head first.
    ///
    /// This is the paper's §3.4 procedure, including the removal/reinsertion
    /// of already-present dependents (Figure 5) and the critical-time
    /// advancement of Figure 4.
    pub fn build_schedule(
        &mut self,
        ctx: &SchedulerContext<'_>,
        ops: &mut OpsCounter,
    ) -> Vec<JobId> {
        let Self {
            chains,
            members,
            schedule,
            tentative,
        } = self;
        schedule.clear();
        for ranked in chains.iter() {
            // A job already inserted as someone else's dependent is settled.
            if schedule.position(ranked.job, ops).is_some() {
                continue;
            }
            tentative.clone_from(schedule);
            ops.add(tentative.len() as u64); // copying the schedule costs O(n)

            // Insert from the tail of the chain (the job itself) toward the
            // head (its deepest dependent); every next member must precede
            // the last.
            let mut limit: Option<usize> = None;
            for &member in members[ranked.members.clone()].iter().rev() {
                let view = &ctx.jobs[member];
                let pos = match tentative.position(view.id, ops) {
                    Some(pos) => match limit {
                        Some(lim) if pos > lim => {
                            // Figure 5 Case 2: the dependent sits after the
                            // job that needs it; move it forward, advancing
                            // its effective critical time to the successor's.
                            let entry = tentative.remove(pos, ops);
                            tentative.insert_before(entry, Some(lim), ops)
                        }
                        _ => pos,
                    },
                    None => {
                        let entry = Entry {
                            job: view.id,
                            effective_critical_time: view.absolute_critical_time,
                            remaining: view.remaining,
                        };
                        tentative.insert_before(entry, limit, ops)
                    }
                };
                limit = Some(pos);
            }
            let kind = if tentative.is_feasible(ctx.now, ops) {
                std::mem::swap(schedule, tentative);
                lfrt_trace::EventKind::SchedAdmit
            } else {
                lfrt_trace::EventKind::SchedAbort
            };
            lfrt_trace::emit(kind, lfrt_trace::Site::Sched, ranked.members.len() as u64);
        }
        schedule.jobs()
    }
}
