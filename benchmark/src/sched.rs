//! The scheduler measurements (§3.6 of the paper): direct
//! `UaScheduler::schedule` calls on job populations the benchmark builds
//! itself from the seed — no simulator involved.
//!
//! Lock-free RUA, EDF and sampled RUA see `n` independent jobs; lock-based
//! RUA sees the same jobs tied into blocking chains (job `k` holds object
//! `k` and waits for object `k + 1`), relaxed or with critical times so
//! tight that most insertions are rejected and re-examined.

use std::time::{Duration, Instant};

use lfrt_core::{Edf, RuaLockBased, RuaLockFree, RuaLockFreeSampled};
use lfrt_sim::{Decision, JobId, JobView, ObjectId, SchedulerContext, TaskId, UaScheduler};
use lfrt_tuf::Tuf;

use crate::rng::SplitMix64;
use crate::simw::Interval;

/// Largest population measured.
pub const MAX_JOBS: usize = 256;
/// Populations per run. A batch cycles through them, so no number depends
/// on one lucky arrangement of critical times: one population moves
/// lock-based RUA's cost by ±15 %, the mean of 64 by about ±2 %.
const POPULATIONS: usize = 64;
/// Jobs scheduled per cycle through a case's populations, at most: large
/// populations are slow enough that fewer of them fill a batch.
const JOBS_PER_CYCLE: usize = 4_096;
/// Host time one timed batch should take.
const BATCH_TARGET: Duration = Duration::from_millis(2);
const SAMPLED_CHECKS: usize = 4;

/// The seed-derived parameters of one job.
#[derive(Debug, Clone, PartialEq)]
struct JobParams {
    tuf: Tuf,
    arrival: u64,
    remaining: u64,
}

/// One seed-derived population of [`MAX_JOBS`] jobs; contexts of any
/// smaller `n` use its first `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    jobs: Vec<JobParams>,
}

/// The seed-derived inputs of the scheduler measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedInputs {
    pub populations: Vec<Population>,
}

impl SchedInputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::fork(seed, 3);
        let populations = (0..POPULATIONS)
            .map(|_| Population {
                jobs: (0..MAX_JOBS)
                    .map(|_| JobParams {
                        tuf: Tuf::step(1.0 + rng.below(10) as f64, 10_000 + rng.below(250_000))
                            .expect("positive height and critical time"),
                        arrival: rng.below(1_000),
                        remaining: 100 + rng.below(400),
                    })
                    .collect(),
            })
            .collect();
        Self { populations }
    }
}

/// How the jobs of a context depend on each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Independent,
    /// Blocking chains of this length.
    Chained(usize),
    /// Chains with critical times only a couple of jobs can meet.
    TightChained(usize),
}

impl Population {
    pub fn context(&self, n: usize, shape: Shape) -> SchedulerContext<'_> {
        let jobs = self.jobs[..n]
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let (blocked_on, holds) = match shape {
                    Shape::Independent => (None, None),
                    Shape::Chained(length) | Shape::TightChained(length) => {
                        let position = i % length;
                        let is_tail = position == length - 1 || i == n - 1;
                        ((!is_tail).then_some(i + 1), (position > 0).then_some(i))
                    }
                };
                JobView {
                    id: JobId::new(i),
                    task: TaskId::new(i % 10),
                    arrival: job.arrival,
                    absolute_critical_time: match shape {
                        Shape::TightChained(_) => 150 + (i as u64 % 7) * 40,
                        _ => job.arrival + job.tuf.critical_time(),
                    },
                    window: job.tuf.critical_time(),
                    tuf: &job.tuf,
                    remaining: job.remaining,
                    blocked_on: blocked_on.map(ObjectId::new),
                    holds: holds.map(ObjectId::new).into_iter().collect(),
                }
            })
            .collect();
        SchedulerContext { now: 0, jobs }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    LockFree,
    LockBased,
    Edf,
    LockFreeSampled,
}

/// One measured (algorithm, population size, dependency shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub name: &'static str,
    pub algorithm: Algorithm,
    pub n: usize,
    pub shape: Shape,
}

impl Case {
    pub const fn lock_free(name: &'static str, n: usize) -> Self {
        Self {
            name,
            algorithm: Algorithm::LockFree,
            n,
            shape: Shape::Independent,
        }
    }

    /// Lock-based RUA over chains of `n / 4` jobs.
    pub const fn lock_based(name: &'static str, n: usize) -> Self {
        Self {
            name,
            algorithm: Algorithm::LockBased,
            n,
            shape: Shape::Chained(n / 4),
        }
    }
}

/// What measuring one case produced.
#[derive(Debug, Default)]
pub struct CaseOut {
    /// ns per invocation, one sample per batch.
    pub ns: Vec<f64>,
    pub batches: Vec<Interval>,
    /// `Decision::ops` of one invocation on the first population (exact).
    pub ops: u64,
    pub invocations: u64,
    pub failed: u64,
}

/// One batch: `count` invocations by a fresh scheduler, cycling through
/// the contexts. Returns the batch interval, the summed `ops` and the last
/// decision (checked by the caller, outside the timed region).
fn batch<S: UaScheduler>(
    mut scheduler: S,
    contexts: &[SchedulerContext<'_>],
    count: usize,
) -> (Interval, u64, Decision) {
    let mut ops = 0;
    let mut last = Decision::default();
    let start = Instant::now();
    for context in contexts.iter().cycle().take(count) {
        last = std::hint::black_box(scheduler.schedule(std::hint::black_box(context)));
        ops += last.ops;
    }
    ((start, Instant::now()), ops, last)
}

fn run_batch(
    case: Case,
    contexts: &[SchedulerContext<'_>],
    count: usize,
) -> (Interval, u64, Decision) {
    match case.algorithm {
        Algorithm::LockFree => batch(RuaLockFree::new(), contexts, count),
        Algorithm::LockBased => batch(RuaLockBased::new(), contexts, count),
        Algorithm::Edf => batch(Edf::new(), contexts, count),
        // Same seed every batch, so the sampled checks — and `ops` — repeat.
        Algorithm::LockFreeSampled => {
            batch(RuaLockFreeSampled::new(SAMPLED_CHECKS, 1), contexts, count)
        }
    }
}

/// A schedule must list each job at most once and only jobs that exist.
fn is_valid_order(order: &[JobId], n: usize) -> bool {
    let mut seen = vec![false; n];
    order
        .iter()
        .all(|id| id.index() < n && !std::mem::replace(&mut seen[id.index()], true))
}

/// Measures `cases` round-robin, one batch each per round, for `seconds`:
/// host drift hits all of them alike.
pub fn measure(inputs: &SchedInputs, cases: &[Case], seconds: f64) -> Vec<CaseOut> {
    let started = Instant::now();
    let contexts: Vec<Vec<SchedulerContext<'_>>> = cases
        .iter()
        .map(|case| {
            let populations = inputs.populations.iter().take(JOBS_PER_CYCLE / case.n);
            populations.map(|p| p.context(case.n, case.shape)).collect()
        })
        .collect();
    // Size each case's batch from one warm-up pass over its contexts; that
    // pass also gives the reference `ops` sums.
    let mut outs: Vec<CaseOut> = Vec::new();
    let mut plan: Vec<(usize, u64)> = Vec::new();
    for (case, contexts) in cases.iter().zip(&contexts) {
        let (_, ops_first, _) = run_batch(*case, &contexts[..1], 1);
        let (warm, _, _) = run_batch(*case, contexts, contexts.len());
        let per_call = (warm.1 - warm.0).div_f64(contexts.len() as f64);
        let calls = BATCH_TARGET.div_duration_f64(per_call.max(Duration::from_nanos(1)));
        let count = (calls as usize)
            .clamp(1, 4_096)
            .next_multiple_of(contexts.len());
        let (_, ops_sum, _) = run_batch(*case, contexts, count);
        plan.push((count, ops_sum));
        outs.push(CaseOut {
            ops: ops_first,
            ..CaseOut::default()
        });
    }
    let mut rounds = 0;
    while rounds < 3 || started.elapsed().as_secs_f64() < seconds {
        for (((case, contexts), out), &(count, ops_sum)) in
            cases.iter().zip(&contexts).zip(&mut outs).zip(&plan)
        {
            let (interval, ops, last) = run_batch(*case, contexts, count);
            out.ns
                .push((interval.1 - interval.0).as_nanos() as f64 / count as f64);
            out.batches.push(interval);
            out.invocations += count as u64;
            if ops != ops_sum {
                out.failed += 1;
                eprintln!(
                    "FAILED sched {}: ops {ops} differ from the first batch's {ops_sum}",
                    case.name
                );
            }
            if !is_valid_order(&last.order, case.n) {
                out.failed += 1;
                eprintln!("FAILED sched {}: order repeats or invents a job", case.name);
            }
        }
        rounds += 1;
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_populations_and_another_seed_differs() {
        assert_eq!(SchedInputs::generate(3), SchedInputs::generate(3));
        assert_ne!(SchedInputs::generate(3), SchedInputs::generate(4));
        assert_eq!(SchedInputs::generate(3).populations.len(), POPULATIONS);
    }

    #[test]
    fn chains_link_each_waiter_to_the_holder_of_its_object() {
        let inputs = SchedInputs::generate(1);
        let ctx = inputs.populations[0].context(8, Shape::Chained(4));
        let waiting_on = ctx.jobs[0].blocked_on.expect("job 0 waits");
        assert_eq!(ctx.holder_of(waiting_on), Some(JobId::new(1)));
        assert!(ctx.jobs[3].blocked_on.is_none(), "chain tails run free");
        assert!(ctx.jobs[4].holds.is_empty(), "chain heads hold nothing");
        let free = inputs.populations[0].context(8, Shape::Independent);
        assert!(free
            .jobs
            .iter()
            .all(|j| j.blocked_on.is_none() && j.holds.is_empty()));
    }

    #[test]
    fn order_check_rejects_duplicates_and_unknown_jobs() {
        let ids = |raw: &[usize]| raw.iter().map(|&i| JobId::new(i)).collect::<Vec<_>>();
        assert!(is_valid_order(&ids(&[2, 0, 1]), 3));
        assert!(is_valid_order(&ids(&[1]), 3), "rejected jobs may be absent");
        assert!(!is_valid_order(&ids(&[0, 1, 0]), 3));
        assert!(!is_valid_order(&ids(&[0, 3]), 3));
    }

    #[test]
    fn measured_cases_pass_their_checks_and_ops_are_exact() {
        let inputs = SchedInputs::generate(2);
        let cases = [
            Case::lock_free("lf16", 16),
            Case::lock_based("lb16", 16),
            Case {
                name: "tight",
                algorithm: Algorithm::LockBased,
                n: 16,
                shape: Shape::TightChained(4),
            },
            Case {
                name: "sampled",
                algorithm: Algorithm::LockFreeSampled,
                n: 16,
                shape: Shape::Independent,
            },
        ];
        let first = measure(&inputs, &cases, 0.0);
        let again = measure(&inputs, &cases, 0.0);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.failed, 0);
            assert!(a.ns.len() >= 3 && a.invocations > 0);
            assert_eq!(a.ops, b.ops, "ops are a pure function of the inputs");
        }
    }
}
