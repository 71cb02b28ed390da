//! Dependency-chain computation (§3.1 of the paper).
//!
//! A job `J` blocked on an object depends on the object's lock holder, which
//! may itself be blocked, and so on. The *dependency chain* of `J` is the
//! sequence `⟨head, …, J⟩` where `head` is the deepest dependency (a job
//! that is not blocked): each element must execute (at least far enough to
//! release its lock) before its successor.
//!
//! Jobs are named by their *position* in
//! [`SchedulerContext::jobs`](lfrt_sim::SchedulerContext::jobs): a scheduler
//! walks that vector anyway, and a position reaches a job's view in one
//! step whatever its id. [`Dependencies::resolve`] turns the context's
//! `blocked_on → holds` relation into one "waits for" position per job, once
//! per invocation; following a chain is then one array read per hop.

use lfrt_sim::{ObjectId, SchedulerContext};

use crate::ops::OpsCounter;

/// What following a job's dependency edges found. The jobs themselves are
/// appended to the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// The acyclic chain `⟨head, …, job⟩`, head (deepest dependency) first.
    Acyclic,
    /// A cycle was found (only possible with nested critical sections): the
    /// jobs on the cycle, in discovery order.
    Cycle,
}

impl Chain {
    /// Whether a deadlock (cycle) was detected.
    pub fn is_cycle(self) -> bool {
        self == Chain::Cycle
    }
}

/// The "waits for" edges of one scheduler context, and the scratch to follow
/// them. Kept by a scheduler between invocations so that resolving allocates
/// nothing once its buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct Dependencies {
    /// Every lock held in the context as `(object, holder position)`,
    /// sorted: the first entry of an object is its first holder in context
    /// order.
    held: Vec<(ObjectId, usize)>,
    /// Per position: the position of the holder of the object the job is
    /// blocked on. `None` if it is not blocked or the context lists no
    /// holder (the holder resolved between state updates).
    waits_for: Vec<Option<usize>>,
    /// Per position: the last walk that visited it.
    visited: Vec<usize>,
    /// Walks started since the last [`Dependencies::resolve`].
    walk: usize,
}

impl Dependencies {
    /// Empty tables; [`Dependencies::resolve`] fills them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `ctx`: `O(h log h)` for `h` held locks, after which every
    /// dependency edge is one array read. If several jobs list the same
    /// object in `holds`, the first in context order is its holder.
    pub fn resolve(&mut self, ctx: &SchedulerContext<'_>) {
        self.held.clear();
        for (position, view) in ctx.jobs.iter().enumerate() {
            self.held
                .extend(view.holds.iter().map(|&object| (object, position)));
        }
        self.held.sort_unstable();
        let held = &self.held;
        self.waits_for.clear();
        self.waits_for.extend(ctx.jobs.iter().map(|view| {
            let object = view.blocked_on?;
            let first = held.partition_point(|&(other, _)| other < object);
            held.get(first)
                .filter(|&&(other, _)| other == object)
                .map(|&(_, holder)| holder)
        }));
        self.visited.clear();
        self.visited.resize(ctx.jobs.len(), 0);
        self.walk = 0;
    }

    /// Appends the dependency chain of the job at `job` to `chain` by
    /// following the resolved edges, charging one operation per hop.
    ///
    /// Returns [`Chain::Cycle`] if the edges loop — the deadlock condition of
    /// §3.3, which cannot arise without nested critical sections but is
    /// detected for completeness; what is appended is then the cycle alone,
    /// from its first-discovered member on.
    ///
    /// # Panics
    ///
    /// Panics if `job` is outside the resolved context.
    pub fn chain(&mut self, job: usize, chain: &mut Vec<usize>, ops: &mut OpsCounter) -> Chain {
        self.walk += 1;
        let start = chain.len();
        chain.push(job);
        self.visited[job] = self.walk;
        let mut current = job;
        loop {
            ops.tick();
            let Some(holder) = self.waits_for[current] else {
                break;
            };
            if self.visited[holder] == self.walk {
                // Found a cycle: report the jobs from the first occurrence on.
                let first = chain[start..]
                    .iter()
                    .position(|&member| member == holder)
                    .expect("visited on this walk");
                chain.drain(start..start + first);
                return Chain::Cycle;
            }
            chain.push(holder);
            self.visited[holder] = self.walk;
            current = holder;
        }
        // Stored ⟨job, …, head⟩; the paper's convention is head first.
        chain[start..].reverse();
        Chain::Acyclic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_sim::{JobId, JobView, TaskId};
    use lfrt_tuf::Tuf;

    /// Jobs as `(id, blocked_on, holds)`, listed in this order.
    fn ctx_with<'a>(
        tuf: &'a Tuf,
        jobs: Vec<(usize, Option<usize>, Vec<usize>)>,
    ) -> SchedulerContext<'a> {
        SchedulerContext {
            now: 0,
            jobs: jobs
                .into_iter()
                .map(|(id, blocked, holds)| JobView {
                    id: JobId::new(id),
                    task: TaskId::new(0),
                    arrival: 0,
                    absolute_critical_time: 1_000,
                    window: 1_000,
                    tuf,
                    remaining: 10,
                    blocked_on: blocked.map(ObjectId::new),
                    holds: holds.into_iter().map(ObjectId::new).collect(),
                })
                .collect(),
        }
    }

    /// The chain of the job at `position`, as job ids.
    fn chain_of(ctx: &SchedulerContext<'_>, position: usize) -> (Chain, Vec<usize>) {
        let mut dependencies = Dependencies::new();
        dependencies.resolve(ctx);
        let mut chain = Vec::new();
        let kind = dependencies.chain(position, &mut chain, &mut OpsCounter::new());
        let ids = chain.iter().map(|&p| ctx.jobs[p].id.index()).collect();
        (kind, ids)
    }

    #[test]
    fn unblocked_job_is_its_own_chain() {
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let ctx = ctx_with(&tuf, vec![(0, None, vec![])]);
        let mut dependencies = Dependencies::new();
        dependencies.resolve(&ctx);
        let mut ops = OpsCounter::new();
        let mut chain = Vec::new();
        assert_eq!(dependencies.chain(0, &mut chain, &mut ops), Chain::Acyclic);
        assert_eq!(chain, vec![0]);
        assert_eq!(ops.total(), 1);
    }

    #[test]
    fn transitive_chain_head_first() {
        // The paper's §3.1 example: T1 waits on R1 held by T2; T2 waits on
        // R2 held by T3. T1's chain is ⟨T3, T2, T1⟩.
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let ctx = ctx_with(
            &tuf,
            vec![
                (1, Some(1), vec![]),  // T1 blocked on R1
                (2, Some(2), vec![1]), // T2 holds R1, blocked on R2
                (3, None, vec![2]),    // T3 holds R2
            ],
        );
        assert_eq!(chain_of(&ctx, 0), (Chain::Acyclic, vec![3, 2, 1]));
        // T2's own chain is ⟨T3, T2⟩, T3's is ⟨T3⟩.
        assert_eq!(chain_of(&ctx, 1), (Chain::Acyclic, vec![3, 2]));
        assert_eq!(chain_of(&ctx, 2), (Chain::Acyclic, vec![3]));
    }

    #[test]
    fn one_operation_per_hop_and_chains_append() {
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let ctx = ctx_with(
            &tuf,
            vec![
                (1, Some(1), vec![]),
                (2, Some(2), vec![1]),
                (3, None, vec![2]),
            ],
        );
        let mut dependencies = Dependencies::new();
        dependencies.resolve(&ctx);
        let mut ops = OpsCounter::new();
        let mut chains = Vec::new();
        dependencies.chain(0, &mut chains, &mut ops);
        assert_eq!(ops.total(), 3);
        dependencies.chain(1, &mut chains, &mut ops);
        assert_eq!(chains, vec![2, 1, 0, 2, 1], "appended after the first");
        assert_eq!(ops.total(), 5);
    }

    #[test]
    fn cycle_detected() {
        // T1 holds O1, waits O2; T2 holds O2, waits O1 — a deadlock (needs
        // nested sections, which the simulator excludes, but the detector
        // must still work per §3.3).
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let ctx = ctx_with(&tuf, vec![(1, Some(2), vec![1]), (2, Some(1), vec![2])]);
        assert_eq!(chain_of(&ctx, 0), (Chain::Cycle, vec![1, 2]));
        assert!(Chain::Cycle.is_cycle() && !Chain::Acyclic.is_cycle());
    }

    #[test]
    fn a_job_leading_into_a_cycle_reports_the_cycle_alone() {
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let ctx = ctx_with(
            &tuf,
            vec![
                (7, Some(1), vec![]),
                (1, Some(2), vec![1]),
                (2, Some(1), vec![2]),
            ],
        );
        let mut dependencies = Dependencies::new();
        dependencies.resolve(&ctx);
        let mut chain = vec![9];
        let mut ops = OpsCounter::new();
        assert_eq!(dependencies.chain(0, &mut chain, &mut ops), Chain::Cycle);
        assert_eq!(chain, vec![9, 1, 2], "what was there before stays");
        assert_eq!(ops.total(), 3);
    }

    #[test]
    fn self_cycle_detected() {
        // A job blocked on an object it also holds (pathological nesting).
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let ctx = ctx_with(&tuf, vec![(1, Some(1), vec![1])]);
        assert_eq!(chain_of(&ctx, 0), (Chain::Cycle, vec![1]));
    }

    #[test]
    fn missing_holder_ends_chain() {
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let ctx = ctx_with(&tuf, vec![(1, Some(7), vec![])]);
        assert_eq!(chain_of(&ctx, 0), (Chain::Acyclic, vec![1]));
    }

    #[test]
    fn ids_and_objects_may_be_sparse_and_unsorted() {
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let far = usize::MAX - 3;
        let ctx = ctx_with(
            &tuf,
            vec![
                (900, None, vec![far, 5]),
                (far, Some(5), vec![40]),
                (3, Some(40), vec![]),
            ],
        );
        assert_eq!(chain_of(&ctx, 2), (Chain::Acyclic, vec![900, far, 3]));
        assert_eq!(chain_of(&ctx, 1), (Chain::Acyclic, vec![900, far]));
    }

    #[test]
    fn first_listed_holder_of_an_object_wins() {
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let ctx = ctx_with(
            &tuf,
            vec![(5, Some(9), vec![]), (8, None, vec![9]), (2, None, vec![9])],
        );
        assert_eq!(chain_of(&ctx, 0), (Chain::Acyclic, vec![8, 5]));
    }

    #[test]
    fn resolving_again_forgets_the_previous_context() {
        let tuf = Tuf::step(1.0, 1_000).expect("valid");
        let blocked = ctx_with(&tuf, vec![(1, Some(1), vec![]), (2, None, vec![1])]);
        let free = ctx_with(&tuf, vec![(1, None, vec![])]);
        let mut dependencies = Dependencies::new();
        let mut chain = Vec::new();
        dependencies.resolve(&blocked);
        dependencies.chain(0, &mut chain, &mut OpsCounter::new());
        assert_eq!(chain, vec![1, 0]);
        dependencies.resolve(&free);
        chain.clear();
        dependencies.chain(0, &mut chain, &mut OpsCounter::new());
        assert_eq!(chain, vec![0]);
    }
}
