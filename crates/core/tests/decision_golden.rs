//! Replays a fixed corpus of scheduler contexts through every scheduler in
//! the crate and compares each `Decision` with
//! `crates/core/tests/golden/decisions.digests`.
//!
//! `Decision::ops` is what the simulator charges as scheduling overhead, so
//! an optimisation of the schedulers' host cost must leave `(order, ops,
//! aborts)` bit-identical. The digests were frozen at commit bdf70a0, the
//! last one whose schedulers looked every job up with a linear scan: this
//! very file was run there and its `.actual` output copied to the golden
//! file. The file is never regenerated from the current schedulers: a
//! deliberate change of semantics edits the affected lines by hand and says
//! why in the commit.
//!
//! The corpus is every scheduler × n ∈ {1, 2, 7, 16, 33, 64, 256} × nine
//! dependency shapes × three id layouts × eight seeds. It exists because the
//! simulator's own golden digests see only short ready queues and ids the
//! engine hands out: std's stable sort picks its small-sort network by
//! `size_of::<T>()` from n = 33 up (so the *type* a scheduler sorts decides
//! how many comparisons it is charged), and a context may list jobs in any
//! order, with any ids, waiting on objects nobody in the context holds.
//!
//! Each line is `scheduler/shape/n<N>/ids ops=<Σ> placed=<Σ> aborts=<Σ>
//! <fnv64>` over the eight seeds' decisions. One scheduler instance serves
//! the whole corpus (sampled RUA: one per line, seeded by the line), so
//! scratch state kept between invocations sees contexts shrink and grow.
//! The lines this build produces are also written to
//! `$CARGO_TARGET_TMPDIR/decisions.digests.actual` so a mismatch can be
//! diffed.

use std::fmt::Write as _;

use lfrt_core::{Edf, EdfPi, Lbesa, Llf, Rm, RuaLockBased, RuaLockFree, RuaLockFreeSampled};
use lfrt_sim::{JobId, JobView, ObjectId, SchedulerContext, TaskId, UaScheduler};
use lfrt_tuf::Tuf;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/decisions.digests"
);

const SIZES: [usize; 7] = [1, 2, 7, 16, 33, 64, 256];
const SEEDS: u64 = 8;
const SAMPLED_CHECKS: usize = 4;

const SCHEDULERS: [&str; 8] = [
    "rua-lock-free",
    "rua-lock-based",
    "rua-lock-free-sampled",
    "edf",
    "edf-pi",
    "lbesa",
    "llf",
    "rm",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Independent,
    /// Blocking chains of n/4 jobs: job `i` holds object `i` and waits for
    /// object `i + 1`.
    Chained,
    /// The same chains with critical times only a couple of jobs can meet.
    TightChained,
    /// Every third pair / triple of jobs waits in a circle; the group after
    /// it waits on the circle's members.
    Deadlock(usize),
    /// Chains whose tails wait on an object no job holds.
    HolderAbsent,
    /// Chains whose objects are also listed by a second, unrelated holder.
    DuplicateHolders,
    /// Chains whose second member is missing from the context.
    MemberAbsent,
    /// One late, valuable holder per five jobs and urgent waiters behind
    /// it: every waiter's insertion finds the holder already scheduled
    /// *after* it (Figure 5, case 2).
    Reinsertion,
}

const SHAPES: [(&str, Shape); 9] = [
    ("independent", Shape::Independent),
    ("chained", Shape::Chained),
    ("tight-chained", Shape::TightChained),
    ("deadlock2", Shape::Deadlock(2)),
    ("deadlock3", Shape::Deadlock(3)),
    ("holder-absent", Shape::HolderAbsent),
    ("duplicate-holders", Shape::DuplicateHolders),
    ("member-absent", Shape::MemberAbsent),
    ("reinsertion", Shape::Reinsertion),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ids {
    /// Job `i` has id `i`, object `k` id `k`, jobs listed in id order.
    Dense,
    /// Ids far apart and far from zero, jobs listed in id order.
    Sparse,
    /// Sparse ids handed out in random order, jobs listed in random order.
    Shuffled,
}

const ID_LAYOUTS: [(&str, Ids); 3] = [
    ("dense", Ids::Dense),
    ("sparse", Ids::Sparse),
    ("shuffled", Ids::Shuffled),
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn fnv64(hash: u64, text: &str) -> u64 {
    text.bytes().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One job before ids are handed out: objects are named by index.
struct Job {
    tuf: Tuf,
    task: usize,
    arrival: u64,
    critical: u64,
    window: u64,
    remaining: u64,
    blocked_on: Option<usize>,
    holds: Vec<usize>,
}

/// A generated context's owned parts; [`Population::context`] borrows them.
struct Population {
    now: u64,
    /// `(job id, job)` in the order the context lists them.
    jobs: Vec<(usize, Job)>,
    /// Object index → object id.
    objects: Vec<usize>,
}

fn tuf(rng: &mut SplitMix64, height: f64, critical: u64) -> Tuf {
    // No exponential shape: `exp` is libm's, not IEEE's, to round.
    match rng.below(3) {
        0 => Tuf::step(height, critical),
        1 => Tuf::linear_decreasing(height, critical),
        _ => Tuf::parabolic(height, critical),
    }
    .expect("positive height and critical time")
}

impl Population {
    fn generate(shape: Shape, n: usize, ids: Ids, seed: u64) -> Self {
        let mut rng = SplitMix64(
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
                ^ fnv64(0xcbf2_9ce4_8422_2325, &format!("{shape:?}/{n}/{ids:?}")),
        );
        let now = rng.below(2_000);
        // Odd seeds are overloaded: about half the jobs cannot make it.
        let overloaded = seed % 2 == 1;
        // Seeds 2 and 6 draw the work from four values, so PUDs tie.
        let coarse = seed % 4 == 2;
        let mut jobs: Vec<Job> = (0..n)
            .map(|i| {
                let critical = if overloaded {
                    300 + rng.below(200 * n.max(4) as u64)
                } else {
                    10_000 + rng.below(250_000)
                };
                let height = 1.0 + rng.below(10) as f64;
                let arrival = rng.below(2_000);
                let remaining = if rng.below(32) == 0 {
                    0
                } else if coarse {
                    100 * (1 + rng.below(4))
                } else {
                    100 + rng.below(400)
                };
                Job {
                    tuf: tuf(&mut rng, height, critical),
                    task: i % 10,
                    arrival,
                    critical: arrival + critical,
                    window: 1_000 * (1 + rng.below(5)),
                    remaining,
                    blocked_on: None,
                    holds: Vec::new(),
                }
            })
            .collect();

        let chain = |jobs: &mut [Job], length: usize| {
            for (i, job) in jobs.iter_mut().enumerate() {
                let position = i % length;
                let is_tail = position == length - 1 || i == n - 1;
                job.blocked_on = (!is_tail).then_some(i + 1);
                if position > 0 {
                    job.holds.push(i);
                }
            }
        };
        let length = (n / 4).max(2);
        match shape {
            Shape::Independent => {}
            Shape::Chained => chain(&mut jobs, length),
            Shape::TightChained => {
                chain(&mut jobs, length);
                for (i, job) in jobs.iter_mut().enumerate() {
                    job.critical = now + 150 + (i as u64 % 7) * 40;
                }
            }
            Shape::Deadlock(k) => {
                for (i, job) in jobs.iter_mut().enumerate() {
                    let (group, rank) = (i / k, i % k);
                    match group % 3 {
                        0 if (group + 1) * k <= n => {
                            job.holds.push(i);
                            job.blocked_on = Some(group * k + (rank + 1) % k);
                        }
                        1 => {
                            job.holds.push(i);
                            job.blocked_on = Some(i - k);
                        }
                        _ => {}
                    }
                }
            }
            Shape::HolderAbsent => {
                chain(&mut jobs, length);
                for (i, job) in jobs.iter_mut().enumerate() {
                    if job.blocked_on.is_none() {
                        job.blocked_on = Some(n + i);
                    } else if job.holds.is_empty() {
                        job.holds.push(2 * n + i);
                    }
                }
            }
            Shape::DuplicateHolders => {
                chain(&mut jobs, length);
                for i in 0..n {
                    match i % 3 {
                        0 => jobs[(i + 2) % n].holds.push(i),
                        1 => jobs[(i + n - (2 % n)) % n].holds.push(i),
                        _ => {}
                    }
                }
            }
            Shape::MemberAbsent => chain(&mut jobs, (n / 4).max(3)),
            Shape::Reinsertion => {
                for (i, job) in jobs.iter_mut().enumerate() {
                    let (group, rank) = (i / 5, i % 5);
                    if rank == 0 {
                        job.tuf = Tuf::step(50.0 + rng.below(50) as f64, 1_000_000).expect("valid");
                        job.critical += 300_000;
                        job.remaining = 50 + rng.below(50);
                        job.holds.push(group);
                        // Odd leaders wait for the leader before them.
                        job.blocked_on = (group % 2 == 1).then(|| group - 1);
                    } else {
                        job.blocked_on = Some(group);
                    }
                }
            }
        }

        let objects = 3 * n + 1;
        let (mut job_ids, mut object_ids): (Vec<usize>, Vec<usize>) = match ids {
            Ids::Dense => ((0..n).collect(), (0..objects).collect()),
            Ids::Sparse | Ids::Shuffled => {
                let mut next = 1_000_000_007 * (1 + rng.below(1_000) as usize);
                let job_ids = (0..n)
                    .map(|_| {
                        next += 1 + rng.below(1_000) as usize;
                        next
                    })
                    .collect();
                let object_ids = (0..objects).map(|k| 17 + 999_983 * (k + 1)).collect();
                (job_ids, object_ids)
            }
        };
        if ids == Ids::Shuffled {
            rng.shuffle(&mut job_ids);
            rng.shuffle(&mut object_ids);
        }
        let mut jobs: Vec<(usize, Job)> = job_ids.into_iter().zip(jobs).collect();
        if shape == Shape::MemberAbsent && n >= 3 {
            let length = (n / 4).max(3);
            let mut i = 0;
            jobs.retain(|_| {
                i += 1;
                (i - 1) % length != 1
            });
        }
        if ids == Ids::Shuffled {
            rng.shuffle(&mut jobs);
        }
        Self {
            now,
            jobs,
            objects: object_ids,
        }
    }

    fn context(&self) -> SchedulerContext<'_> {
        let object = |k: &usize| ObjectId::new(self.objects[*k]);
        SchedulerContext {
            now: self.now,
            jobs: self
                .jobs
                .iter()
                .map(|(id, job)| JobView {
                    id: JobId::new(*id),
                    task: TaskId::new(job.task),
                    arrival: job.arrival,
                    absolute_critical_time: job.critical,
                    window: job.window,
                    tuf: &job.tuf,
                    remaining: job.remaining,
                    blocked_on: job.blocked_on.as_ref().map(object),
                    holds: job.holds.iter().map(object).collect(),
                })
                .collect(),
        }
    }
}

fn scheduler(name: &str, seed: u64) -> Box<dyn UaScheduler> {
    match name {
        "rua-lock-free" => Box::new(RuaLockFree::new()),
        "rua-lock-based" => Box::new(RuaLockBased::new()),
        "rua-lock-free-sampled" => Box::new(RuaLockFreeSampled::new(SAMPLED_CHECKS, seed)),
        "edf" => Box::new(Edf::new()),
        "edf-pi" => Box::new(EdfPi::new()),
        "lbesa" => Box::new(Lbesa::new()),
        "llf" => Box::new(Llf::new()),
        "rm" => Box::new(Rm::new()),
        other => unreachable!("no scheduler named {other}"),
    }
}

fn corpus() -> Vec<String> {
    let mut lines = Vec::new();
    for name in SCHEDULERS {
        let mut shared = scheduler(name, 0);
        assert_eq!(shared.name(), name);
        for (shape_label, shape) in SHAPES {
            for n in SIZES {
                for (ids_label, ids) in ID_LAYOUTS {
                    let case = format!("{name}/{shape_label}/n{n}/{ids_label}");
                    let mut own = scheduler(name, fnv64(0xcbf2_9ce4_8422_2325, &case));
                    let scheduler = if name == "rua-lock-free-sampled" {
                        &mut own
                    } else {
                        &mut shared
                    };
                    let (mut ops, mut placed, mut aborts) = (0, 0, 0);
                    let mut hash = 0xcbf2_9ce4_8422_2325;
                    let mut text = String::new();
                    for seed in 0..SEEDS {
                        let population = Population::generate(shape, n, ids, seed);
                        let decision = scheduler.schedule(&population.context());
                        ops += decision.ops;
                        placed += decision.order.len();
                        aborts += decision.aborts.len();
                        text.clear();
                        write!(
                            text,
                            "{:?}|{}|{:?};",
                            decision.order, decision.ops, decision.aborts
                        )
                        .expect("write to a String");
                        hash = fnv64(hash, &text);
                    }
                    lines.push(format!(
                        "{case} ops={ops} placed={placed} aborts={aborts} {hash:016x}"
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn every_scheduler_reproduces_the_frozen_decisions() {
    let actual = corpus();
    let actual_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/decisions.digests.actual");
    std::fs::write(actual_path, actual.join("\n") + "\n").expect("write actual digests");

    let golden = std::fs::read_to_string(GOLDEN).expect("read golden digests");
    let expected: Vec<&str> = golden.lines().collect();
    let mismatches: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| *e != a)
        .take(20)
        .map(|(e, a)| format!("  expected {e}\n       got {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == actual.len(),
        "decisions differ from the frozen digests ({} lines expected, {} produced; first {} shown); this run's lines are in {actual_path}\n{}",
        expected.len(),
        actual.len(),
        mismatches.len(),
        mismatches.join("\n"),
    );
}

/// The corpus must reach the paths it is there for; counted on the
/// lock-based scheduler's own output, so it holds for any implementation.
#[test]
fn corpus_shapes_exercise_what_they_claim() {
    let mut rua = RuaLockBased::new();
    let mut decide = |shape, n, ids, seed| {
        let population = Population::generate(shape, n, ids, seed);
        let context = population.context();
        (rua.schedule(&context), context.jobs.len())
    };
    // Deadlocks produce victims, in every id layout.
    for (_, ids) in ID_LAYOUTS {
        for k in [2, 3] {
            let (decision, _) = decide(Shape::Deadlock(k), 64, ids, 0);
            assert!(!decision.aborts.is_empty(), "{k}-cycles must be broken");
        }
    }
    // Overloaded seeds reject jobs, relaxed seeds place all of them.
    let (relaxed, listed) = decide(Shape::Independent, 64, Ids::Sparse, 0);
    assert_eq!(relaxed.order.len(), listed);
    let (overloaded, listed) = decide(Shape::Independent, 64, Ids::Sparse, 1);
    assert!(overloaded.order.len() < listed);
    // The absent member really is absent.
    let (_, listed) = decide(Shape::MemberAbsent, 64, Ids::Dense, 0);
    assert!(listed < 64);
    // A reinsertion puts a late-critical holder ahead of its urgent waiter.
    let population = Population::generate(Shape::Reinsertion, 16, Ids::Dense, 0);
    let context = population.context();
    let order = RuaLockBased::new().schedule(&context).order;
    let critical = |id: &JobId| {
        let view = context.jobs.iter().find(|j| j.id == *id).expect("listed");
        view.absolute_critical_time
    };
    assert!(
        order.windows(2).any(|w| critical(&w[0]) > critical(&w[1])),
        "dependency order must override ECF somewhere: {order:?}"
    );
}
