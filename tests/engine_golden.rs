//! Replays a fixed corpus through the simulator and compares each run's
//! digest with `crates/sim/tests/golden/engine.digests`.
//!
//! The digests were frozen at commit 71262ea, the last one that had two
//! event loops: the uniprocessor `Engine` produced every `uni/…` line and the
//! separate `MpEngine` loop every `mp/…` line. They replace the m = 1
//! differential tests that compared the two loops with each other, so the
//! reference for the one remaining loop is recorded output, not the code
//! under test. The file is never regenerated from the current engine: a
//! deliberate change of semantics edits the affected lines by hand and says
//! why in the commit.
//!
//! Each line is `case records=<n>:<fnv64> metrics=<fnv64> trace=<n>:<fnv64>`
//! over the `Debug` rendering of the job records, the `SimMetrics` and the
//! `TraceLog` (runs use `SimConfig::trace(true)`). The lines this build
//! produces are also written to `$CARGO_TARGET_TMPDIR/engine.digests.actual`
//! so a mismatch can be diffed.

use std::fmt::Debug;
use std::fmt::Write as _;

use lockfree_rt::core::{Edf, RuaLockBased, RuaLockFree};
use lockfree_rt::sim::mp::MpEngine;
use lockfree_rt::sim::workload::{ArrivalStyle, TufClass, WorkloadSpec};
use lockfree_rt::sim::{
    Engine, ExecTimeModel, ObjectId, OverheadModel, Segment, SharingMode, SimConfig, SimOutcome,
    TaskSpec,
};
use lockfree_rt::tuf::Tuf;
use lockfree_rt::uam::{ArrivalTrace, Uam};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/sim/tests/golden/engine.digests"
);

/// `paper_baseline` seeds replayed on the uniprocessor.
const BASELINE_SEEDS: u64 = 32;
/// Randomly shaped small workloads replayed on the uniprocessor.
const VARIED_SPECS: u64 = 64;

const IDEAL: SharingMode = SharingMode::Ideal;
const LOCK_FREE: SharingMode = SharingMode::LockFree { access_ticks: 20 };
const LOCK_BASED: SharingMode = SharingMode::LockBased { access_ticks: 60 };

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(value: &impl Debug) -> u64 {
    fnv64(&format!("{value:?}"))
}

#[derive(Clone, Copy)]
enum Sched {
    Edf,
    /// The RUA variant that matches the sharing discipline.
    Rua,
}

impl Sched {
    fn label(self) -> &'static str {
        match self {
            Sched::Edf => "edf",
            Sched::Rua => "rua",
        }
    }
}

fn sharing_label(sharing: SharingMode) -> &'static str {
    match sharing {
        SharingMode::Ideal => "ideal",
        SharingMode::LockFree { .. } => "lockfree",
        SharingMode::LockBased { .. } => "lockbased",
    }
}

/// Which machine a case runs on: `Engine`, or `MpEngine` with `cpus`
/// processors and an optional task→processor partition.
enum Machine {
    Uni,
    Mp(usize, Option<Vec<usize>>),
}

macro_rules! run_sched {
    ($engine:expr, $sched:expr, $sharing:expr) => {
        match ($sched, $sharing) {
            (Sched::Edf, _) => $engine.run(Edf::new()),
            (Sched::Rua, SharingMode::LockBased { .. }) => $engine.run(RuaLockBased::new()),
            (Sched::Rua, _) => $engine.run(RuaLockFree::new()),
        }
    };
}

struct Corpus {
    lines: Vec<String>,
}

impl Corpus {
    fn run(
        &mut self,
        name: &str,
        machine: Machine,
        (tasks, traces): (Vec<TaskSpec>, Vec<ArrivalTrace>),
        config: SimConfig,
        sched: Sched,
    ) {
        let sharing = config.sharing();
        let config = config.trace(true);
        let (prefix, outcome): (String, SimOutcome) = match machine {
            Machine::Uni => {
                let engine = Engine::new(tasks, traces, config).expect("valid engine");
                ("uni".into(), run_sched!(engine, sched, sharing))
            }
            Machine::Mp(cpus, partition) => {
                let mut engine = MpEngine::new(tasks, traces, config, cpus).expect("valid engine");
                let mut prefix = format!("mp/m{cpus}/global");
                if let Some(assignment) = partition {
                    engine = engine
                        .with_partitioning(assignment)
                        .expect("valid partition");
                    prefix = format!("mp/m{cpus}/partitioned");
                }
                (prefix, run_sched!(engine, sched, sharing))
            }
        };
        let mut line = format!(
            "{prefix}/{name}/{}/{}",
            sharing_label(sharing),
            sched.label()
        );
        write!(
            line,
            " records={}:{:016x} metrics={:016x} trace={}:{:016x}",
            outcome.records.len(),
            digest(&outcome.records),
            digest(&outcome.metrics),
            outcome.trace.len(),
            digest(&outcome.trace),
        )
        .expect("write to string");
        self.lines.push(line);
    }
}

fn build(spec: &WorkloadSpec) -> (Vec<TaskSpec>, Vec<ArrivalTrace>) {
    spec.build().expect("valid workload")
}

/// `paper_baseline(seed)` at one of four loads, so the corpus covers
/// underload (few aborts) through heavy overload.
fn baseline(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        target_load: [0.4, 0.8, 1.1, 1.5][(seed % 4) as usize],
        ..WorkloadSpec::paper_baseline(seed)
    }
}

/// Odd seeds charge scheduler overhead, so kernel-busy windows and deferred
/// reschedules are in the corpus as well as the zero-overhead case.
fn overhead(seed: u64) -> OverheadModel {
    if seed % 2 == 1 {
        OverheadModel::per_op(0.1)
    } else {
        OverheadModel::zero()
    }
}

/// A copy of `task` changed by `edit` (tasks are immutable once built).
fn rebuilt(
    task: &TaskSpec,
    edit: impl FnOnce(lockfree_rt::sim::TaskSpecBuilder) -> lockfree_rt::sim::TaskSpecBuilder,
) -> TaskSpec {
    edit(
        TaskSpec::builder(task.name())
            .tuf(task.tuf().clone())
            .uam(*task.uam())
            .segments(task.segments().to_vec()),
    )
    .build()
    .expect("valid task")
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small workload of random shape — the same ranges as `arb_spec` in
/// `tests/properties.rs`.
fn varied(index: u64) -> WorkloadSpec {
    let mut state = index;
    let mut below = |n: u64| splitmix64(&mut state) % n;
    let style = below(3);
    WorkloadSpec {
        num_tasks: 2 + below(6) as usize,
        num_objects: 1 + below(4) as usize,
        accesses_per_job: below(5) as usize,
        tuf_class: if style % 2 == 0 {
            TufClass::Step
        } else {
            TufClass::Heterogeneous
        },
        target_load: (20 + below(110)) as f64 / 100.0,
        window_range: (3_000, 12_000),
        max_burst: 1 + below(3) as u32,
        critical_time_frac: 0.9,
        arrival_style: match style {
            0 => ArrivalStyle::Periodic,
            1 => ArrivalStyle::RandomUam { intensity: 3.0 },
            _ => ArrivalStyle::BackToBackBurst,
        },
        horizon: 120_000,
        read_fraction: below(3) as f64 * 0.25,
        seed: below(u64::MAX),
    }
}

/// Three tasks taking two locks in opposite orders (they deadlock) plus a
/// bystander, released repeatedly.
fn nested_lock_set() -> (Vec<TaskSpec>, Vec<ArrivalTrace>) {
    let acquire = |o| Segment::Acquire {
        object: ObjectId::new(o),
    };
    let release = |o| Segment::Release {
        object: ObjectId::new(o),
    };
    let nested = |name: &str, utility: f64, critical: u64, first: usize, second: usize| {
        TaskSpec::builder(name)
            .tuf(Tuf::step(utility, critical).expect("valid tuf"))
            .uam(Uam::periodic(20_000))
            .segments(vec![
                acquire(first),
                Segment::Compute(100),
                acquire(second),
                Segment::Compute(100),
                release(second),
                release(first),
            ])
            .build()
            .expect("valid task")
    };
    let arrivals = |offset: u64| ArrivalTrace::new((0..5).map(|k| offset + k * 20_000).collect());
    (
        vec![
            nested("cheap", 1.0, 15_000, 0, 1),
            nested("valuable", 10.0, 5_000, 1, 0),
            nested("bystander", 3.0, 9_000, 0, 1),
        ],
        vec![arrivals(0), arrivals(50), arrivals(120)],
    )
}

fn corpus() -> Vec<String> {
    let mut c = Corpus { lines: Vec::new() };
    let rua_and_edf = [Sched::Edf, Sched::Rua];

    for seed in 0..BASELINE_SEEDS {
        for sharing in [IDEAL, LOCK_FREE, LOCK_BASED] {
            for sched in rua_and_edf {
                c.run(
                    &format!("baseline/s{seed}"),
                    Machine::Uni,
                    build(&baseline(seed)),
                    SimConfig::new(sharing).overhead(overhead(seed)),
                    sched,
                );
            }
        }
    }
    for index in 0..VARIED_SPECS {
        for sharing in [LOCK_FREE, LOCK_BASED] {
            c.run(
                &format!("varied/{index}"),
                Machine::Uni,
                build(&varied(index)),
                SimConfig::new(sharing).overhead(overhead(index)),
                Sched::Rua,
            );
        }
    }

    // One case per engine feature the sweeps above do not reach.
    let spec = baseline(3);
    for sharing in [LOCK_FREE, LOCK_BASED] {
        for sched in rua_and_edf {
            c.run(
                "quantum500",
                Machine::Uni,
                build(&spec),
                SimConfig::new(sharing)
                    .overhead(OverheadModel::per_op(0.1))
                    .quantum(500),
                sched,
            );
        }
    }
    c.run(
        "capacity2",
        Machine::Uni,
        build(&spec),
        SimConfig::new(LOCK_BASED).object_capacities(vec![2; 10]),
        Sched::Rua,
    );
    for sharing in [LOCK_FREE, LOCK_BASED] {
        let (tasks, traces) = build(&spec);
        let tasks = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| match i % 3 {
                0 => rebuilt(t, |b| b.crash_after(t.compute_ticks() / 2 + 30)),
                1 => rebuilt(t, |b| b.abort_handler_ticks(150)),
                _ => t.clone(),
            })
            .collect();
        c.run(
            "crash_and_handlers",
            Machine::Uni,
            (tasks, traces),
            SimConfig::new(sharing),
            Sched::Rua,
        );
    }
    for sched in rua_and_edf {
        c.run(
            "nested_locks",
            Machine::Uni,
            nested_lock_set(),
            SimConfig::new(LOCK_BASED),
            sched,
        );
    }
    for sharing in [LOCK_FREE, LOCK_BASED] {
        c.run(
            "uniform_exec",
            Machine::Uni,
            build(&spec),
            SimConfig::new(sharing).exec_time(ExecTimeModel::Uniform {
                min_factor: 0.5,
                max_factor: 1.8,
                seed: 11,
            }),
            Sched::Rua,
        );
    }

    // The multiprocessor loop, global and partitioned. Loads are per
    // processor so every CPU has contention to resolve.
    for cpus in [1usize, 2, 4] {
        for seed in [1u64, 2, 6, 7] {
            let spec = WorkloadSpec {
                target_load: baseline(seed).target_load * cpus as f64,
                ..baseline(seed)
            };
            for sharing in [LOCK_FREE, LOCK_BASED] {
                let partition: Vec<usize> = (0..spec.num_tasks).map(|t| t % cpus).collect();
                for partition in [None, Some(partition)] {
                    c.run(
                        &format!("baseline/s{seed}"),
                        Machine::Mp(cpus, partition),
                        build(&spec),
                        SimConfig::new(sharing).overhead(overhead(seed)),
                        Sched::Rua,
                    );
                }
            }
        }
    }
    for cpus in [2usize, 4] {
        let (tasks, traces) = build(&WorkloadSpec {
            target_load: 1.2 * cpus as f64,
            ..baseline(5)
        });
        let tasks = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| match i % 4 {
                0 => rebuilt(t, |b| b.crash_after(t.compute_ticks() / 2 + 30)),
                1 => rebuilt(t, |b| b.abort_handler_ticks(150)),
                _ => t.clone(),
            })
            .collect();
        c.run(
            "crash_capacity_uniform",
            Machine::Mp(cpus, None),
            (tasks, traces),
            SimConfig::new(LOCK_BASED)
                .object_capacities(vec![2; 10])
                .exec_time(ExecTimeModel::Uniform {
                    min_factor: 0.5,
                    max_factor: 1.8,
                    seed: 11,
                }),
            Sched::Rua,
        );
        c.run(
            "nested_locks",
            Machine::Mp(cpus, None),
            nested_lock_set(),
            SimConfig::new(LOCK_BASED),
            Sched::Rua,
        );
    }
    c.lines
}

#[test]
fn engine_reproduces_the_frozen_two_loop_digests() {
    let actual = corpus();
    let actual_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/engine.digests.actual");
    std::fs::write(actual_path, actual.join("\n") + "\n").expect("write actual digests");

    let golden = std::fs::read_to_string(GOLDEN).expect("read golden digests");
    let expected: Vec<&str> = golden.lines().collect();
    let mismatches: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| *e != a)
        .map(|(e, a)| format!("  expected {e}\n       got {a}"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.len() == actual.len(),
        "{} of {} cases differ from the frozen digests ({} expected); this run's lines are in {actual_path}\n{}",
        mismatches.len(),
        actual.len(),
        expected.len(),
        mismatches.join("\n"),
    );
}
