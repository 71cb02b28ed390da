//! Shared schedule-construction logic (§3.4 of the paper), used by both the
//! lock-based and lock-free RUA variants.

use std::ops::Range;

use lfrt_sim::{JobId, SchedulerContext, SimTime};

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
    schedule: TentativeSchedule,
    /// The copy [`Construction::build_schedule`] tries each chain on;
    /// swapped with `schedule` when the insertion is kept.
    tentative: TentativeSchedule,
    /// Per context position: the [`Construction::build_schedule`] call
    /// that last put the job in `schedule`. Stamps instead of flags, so a
    /// call never has to clear them.
    scheduled: Vec<usize>,
    /// Calls of [`Construction::build_schedule`] so far.
    builds: usize,
    /// Per `schedule` entry: when [`Construction::admit_in_place`] has it
    /// complete if the schedule runs from `now`.
    completions: Vec<SimTime>,
}

/// One singleton chain's job, about to be tried where it lands in ECF order.
/// An admission test decides from this whether the job is kept, and charges
/// what it looked at.
#[derive(Debug)]
pub(crate) struct Candidate<'a> {
    /// The schedule as it stands, without the new entry.
    pub entries: &'a [Entry],
    /// When each of `entries` completes.
    completions: &'a [SimTime],
    /// Where the new entry goes; the entries from here on are behind it.
    pub pos: usize,
    /// The new entry.
    pub entry: Entry,
    /// When the new entry would complete.
    completion: SimTime,
}

impl Candidate<'_> {
    /// Whether the new entry itself completes by its critical time.
    pub fn fits(&self) -> bool {
        self.completion <= self.entry.effective_critical_time
    }

    /// Whether the entry at `index`, one behind the insertion point, would
    /// complete after its critical time once the new entry delays it.
    pub fn delays_past_critical(&self, index: usize) -> bool {
        self.completions[index] + self.entry.remaining > self.entries[index].effective_critical_time
    }

    /// The first entry behind the insertion point that the new entry would
    /// push past its critical time.
    pub fn first_miss_behind(&self) -> Option<usize> {
        // Zipped, not `delays_past_critical` per index: its bounds checks
        // cost 5 % of a whole invocation at n = 256.
        let remaining = self.entry.remaining;
        let behind = self.entries[self.pos..].iter();
        behind
            .zip(&self.completions[self.pos..])
            .position(|(entry, &completion)| completion + remaining > entry.effective_critical_time)
            .map(|offset| self.pos + offset)
    }
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
    /// advancement of Figure 4. Whether a job is already scheduled is read
    /// from a per-position stamp; only a member that is there is searched
    /// for, to find its index.
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
            scheduled,
            builds,
            ..
        } = self;
        schedule.clear();
        *builds += 1;
        let build = *builds;
        if scheduled.len() < ctx.jobs.len() {
            scheduled.resize(ctx.jobs.len(), 0);
        }
        for ranked in chains.iter() {
            let chain = &members[ranked.members.clone()];
            // A job already inserted as someone else's dependent is settled.
            // Every "already scheduled?" is charged as the ordered-structure
            // lookup it stands for.
            ops.charge_log(schedule.len());
            if scheduled[*chain.last().expect("a chain ends in its own job")] == build {
                continue;
            }
            tentative.clone_from(schedule);
            ops.add(tentative.len() as u64); // copying the schedule costs O(n)

            // Insert from the tail of the chain (the job itself) toward the
            // head (its deepest dependent); every next member must precede
            // the last. A chain's members are distinct, so the only ones on
            // the copy are those `schedule` already had.
            let mut limit: Option<usize> = None;
            for &member in chain.iter().rev() {
                let view = &ctx.jobs[member];
                let pos = if scheduled[member] == build {
                    let pos = tentative
                        .position(view.id, ops)
                        .expect("a scheduled job is in the schedule");
                    match limit {
                        Some(lim) if pos > lim => {
                            // Figure 5 Case 2: the dependent sits after the
                            // job that needs it; move it forward, advancing
                            // its effective critical time to the successor's.
                            let entry = tentative.remove(pos, ops);
                            tentative.insert_before(entry, Some(lim), ops)
                        }
                        _ => pos,
                    }
                } else {
                    ops.charge_log(tentative.len());
                    let entry = Entry {
                        job: view.id,
                        effective_critical_time: view.absolute_critical_time,
                        remaining: view.remaining,
                    };
                    tentative.insert_before(entry, limit, ops)
                };
                limit = Some(pos);
            }
            let kind = if tentative.is_feasible(ctx.now, ops) {
                std::mem::swap(schedule, tentative);
                for &member in chain {
                    scheduled[member] = build;
                }
                lfrt_trace::EventKind::SchedAdmit
            } else {
                lfrt_trace::EventKind::SchedAbort
            };
            lfrt_trace::emit(kind, lfrt_trace::Site::Sched, chain.len() as u64);
        }
        schedule.jobs()
    }

    /// Examines singleton chains in the given order, trying each job where
    /// it lands in ECF order instead of on a copy: without dependents an
    /// insertion moves nothing but the entries behind it, so `admits` decides
    /// from the new entry's completion (derived from its predecessor's) and
    /// the entries behind it, and charges what it looked at. An admitted job
    /// is inserted; a rejected one leaves nothing to undo. Returns the
    /// schedule's jobs, head first.
    pub fn admit_in_place(
        &mut self,
        ctx: &SchedulerContext<'_>,
        ops: &mut OpsCounter,
        mut admits: impl FnMut(&Candidate<'_>, &mut OpsCounter) -> bool,
    ) -> Vec<JobId> {
        let Self {
            chains,
            members,
            schedule,
            completions,
            ..
        } = self;
        schedule.clear();
        completions.clear();
        for ranked in chains.iter() {
            let view = &ctx.jobs[members[ranked.members.start]];
            let entry = Entry {
                job: view.id,
                effective_critical_time: view.absolute_critical_time,
                remaining: view.remaining,
            };
            let pos = schedule.ecf_position(entry.effective_critical_time);
            let ahead = pos.checked_sub(1).map_or(ctx.now, |last| completions[last]);
            let completion = ahead + entry.remaining;
            let candidate = Candidate {
                entries: schedule.entries(),
                completions: completions.as_slice(),
                pos,
                entry,
                completion,
            };
            let kind = if admits(&candidate, ops) {
                schedule.insert_at(pos, entry);
                completions.insert(pos, completion);
                for later in &mut completions[pos + 1..] {
                    *later += entry.remaining;
                }
                lfrt_trace::EventKind::SchedAdmit
            } else {
                lfrt_trace::EventKind::SchedAbort
            };
            lfrt_trace::emit(kind, lfrt_trace::Site::Sched, ranked.members.len() as u64);
        }
        schedule.jobs()
    }
}
