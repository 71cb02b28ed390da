//! Multiprocessor engine tests: parallel speedup, cross-CPU lock-free
//! interference without preemption, cross-CPU blocking, and dispatch
//! policies. (That m = 1 is the uniprocessor is pinned by the frozen digests
//! replayed in the workspace root's `tests/engine_golden.rs`.)

use lfrt_sim::mp::MpEngine;
use lfrt_sim::{
    AccessKind, Decision, JobId, ObjectId, SchedulerContext, Segment, SharingMode, SimConfig,
    SimError, TaskSpec, UaScheduler,
};
use lfrt_tuf::Tuf;
use lfrt_uam::{ArrivalTrace, Uam};

#[derive(Clone)]
struct Edf;

impl UaScheduler for Edf {
    fn name(&self) -> &str {
        "edf-test"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut order: Vec<JobId> = ctx.jobs.iter().map(|j| j.id).collect();
        order.sort_by_key(|&id| {
            let j = ctx.job(id).expect("listed job");
            (j.absolute_critical_time, id)
        });
        Decision {
            order,
            ops: 1,
            ..Decision::default()
        }
    }
}

fn task(name: &str, critical: u64, segments: Vec<Segment>) -> TaskSpec {
    TaskSpec::builder(name)
        .tuf(Tuf::step(1.0, critical).expect("valid tuf"))
        .uam(Uam::periodic(critical.max(1)))
        .segments(segments)
        .build()
        .expect("valid task")
}

fn access(object: usize) -> Segment {
    Segment::Access {
        object: ObjectId::new(object),
        kind: AccessKind::Write,
    }
}

#[test]
fn two_cpus_run_independent_jobs_in_parallel() {
    let a = task("a", 10_000, vec![Segment::Compute(1_000)]);
    let b = task("b", 10_000, vec![Segment::Compute(1_000)]);
    let outcome = MpEngine::new(
        vec![a, b],
        vec![ArrivalTrace::new(vec![0]), ArrivalTrace::new(vec![0])],
        SimConfig::new(SharingMode::Ideal),
        2,
    )
    .expect("valid engine")
    .run(Edf);
    assert_eq!(outcome.metrics.completed(), 2);
    // Both finish at t = 1000: true parallelism, zero preemptions.
    for r in &outcome.records {
        assert_eq!(r.resolved_at, 1_000);
        assert_eq!(r.preemptions, 0);
    }
}

#[test]
fn concurrent_lock_free_access_interferes_without_preemption() {
    // Two CPUs, two jobs, one object, simultaneous 500-tick write attempts.
    // Both start at version 0; one commits at 500 (version 1); the other's
    // check fails and it retries — interference with zero preemptions,
    // impossible on a uniprocessor.
    let a = task("a", 50_000, vec![access(0)]);
    let b = task("b", 50_001, vec![access(0)]);
    let outcome = MpEngine::new(
        vec![a, b],
        vec![ArrivalTrace::new(vec![0]), ArrivalTrace::new(vec![0])],
        SimConfig::new(SharingMode::LockFree { access_ticks: 500 }),
        2,
    )
    .expect("valid engine")
    .run(Edf);
    assert_eq!(outcome.metrics.completed(), 2);
    assert_eq!(
        outcome.metrics.preemptions(),
        0,
        "nobody was ever descheduled"
    );
    assert_eq!(
        outcome.metrics.retries(),
        1,
        "exactly one attempt loses the race"
    );
    let latest = outcome
        .records
        .iter()
        .map(|r| r.resolved_at)
        .max()
        .expect("ran");
    assert_eq!(latest, 1_000, "loser retries once: 500 wasted + 500 clean");
}

#[test]
fn lock_based_blocks_across_cpus() {
    let holder = task("holder", 50_000, vec![access(0), Segment::Compute(10)]);
    let waiter = task("waiter", 50_001, vec![access(0)]);
    let outcome = MpEngine::new(
        vec![holder, waiter],
        vec![ArrivalTrace::new(vec![0]), ArrivalTrace::new(vec![0])],
        SimConfig::new(SharingMode::LockBased { access_ticks: 400 }),
        2,
    )
    .expect("valid engine")
    .run(Edf);
    assert_eq!(outcome.metrics.completed(), 2);
    assert_eq!(outcome.metrics.blockings(), 1);
    let waiter_rec = outcome
        .records
        .iter()
        .find(|r| r.task.index() == 1)
        .expect("ran");
    // Waits for the holder's 400-tick critical section, then runs its own.
    assert_eq!(waiter_rec.resolved_at, 800);
}

#[test]
fn more_cpus_never_reduce_throughput() {
    let tasks = |n: usize| -> (Vec<TaskSpec>, Vec<ArrivalTrace>) {
        let t: Vec<TaskSpec> = (0..n)
            .map(|i| task(&format!("t{i}"), 3_000, vec![Segment::Compute(1_000)]))
            .collect();
        let traces = (0..n).map(|_| ArrivalTrace::new(vec![0])).collect();
        (t, traces)
    };
    // Four 1000-tick jobs, critical time 3000: one CPU finishes two (the
    // third would complete exactly AT its critical time, which is a miss).
    let (t, tr) = tasks(4);
    let one = MpEngine::new(t, tr, SimConfig::new(SharingMode::Ideal), 1)
        .expect("valid engine")
        .run(Edf);
    let (t, tr) = tasks(4);
    let two = MpEngine::new(t, tr, SimConfig::new(SharingMode::Ideal), 2)
        .expect("valid engine")
        .run(Edf);
    assert_eq!(one.metrics.completed(), 2);
    assert_eq!(one.metrics.aborted(), 2);
    assert_eq!(two.metrics.completed(), 4, "two CPUs finish all four");
}

#[test]
fn zero_processors_rejected() {
    let t = task("t", 1_000, vec![Segment::Compute(10)]);
    let err = MpEngine::new(
        vec![t],
        vec![ArrivalTrace::new(vec![0])],
        SimConfig::new(SharingMode::Ideal),
        0,
    )
    .expect_err("zero processors");
    assert_eq!(err, SimError::ZeroProcessors);
    assert!(err.to_string().contains("got 0"), "{err}");
}

#[test]
fn mp_runs_are_deterministic() {
    let spec = lfrt_sim::workload::WorkloadSpec::paper_baseline(77);
    let run = || {
        let (tasks, traces) = spec.build().expect("valid workload");
        MpEngine::new(
            tasks,
            traces,
            SimConfig::new(SharingMode::LockFree { access_ticks: 10 }),
            3,
        )
        .expect("valid engine")
        .run(Edf)
    };
    let a = run();
    let b = run();
    assert_eq!(a.records, b.records);
}

#[test]
fn partitioned_dispatch_pins_tasks_to_their_cpu() {
    // Task 0 → CPU 0, tasks 1 and 2 → CPU 1. CPU 1 serializes its two
    // jobs even though CPU 0 goes idle after 500 ticks.
    let tasks = vec![
        task("t0", 50_000, vec![Segment::Compute(500)]),
        task("t1", 50_001, vec![Segment::Compute(1_000)]),
        task("t2", 50_002, vec![Segment::Compute(1_000)]),
    ];
    let traces = vec![
        ArrivalTrace::new(vec![0]),
        ArrivalTrace::new(vec![0]),
        ArrivalTrace::new(vec![0]),
    ];
    let outcome = MpEngine::new(tasks, traces, SimConfig::new(SharingMode::Ideal), 2)
        .expect("valid engine")
        .with_partitioning(vec![0, 1, 1])
        .expect("valid assignment")
        .run(Edf);
    assert_eq!(outcome.metrics.completed(), 3);
    let done = |t: usize| {
        outcome
            .records
            .iter()
            .find(|r| r.task.index() == t)
            .expect("ran")
            .resolved_at
    };
    assert_eq!(done(0), 500);
    assert_eq!(done(1), 1_000);
    // t2 cannot migrate to the idle CPU 0: it waits for t1.
    assert_eq!(done(2), 2_000);
}

#[test]
fn global_beats_partitioned_on_imbalanced_load() {
    // Same workload as above under global dispatch: t2 migrates to the idle
    // CPU and everything finishes by 1500.
    let tasks = vec![
        task("t0", 50_000, vec![Segment::Compute(500)]),
        task("t1", 50_001, vec![Segment::Compute(1_000)]),
        task("t2", 50_002, vec![Segment::Compute(1_000)]),
    ];
    let traces = vec![
        ArrivalTrace::new(vec![0]),
        ArrivalTrace::new(vec![0]),
        ArrivalTrace::new(vec![0]),
    ];
    let outcome = MpEngine::new(tasks, traces, SimConfig::new(SharingMode::Ideal), 2)
        .expect("valid engine")
        .run(Edf);
    let makespan = outcome
        .records
        .iter()
        .map(|r| r.resolved_at)
        .max()
        .expect("ran");
    assert_eq!(makespan, 1_500, "global dispatch fills the idle CPU");
}

#[test]
fn bad_partition_assignments_rejected() {
    let t = task("t", 1_000, vec![Segment::Compute(10)]);
    let engine = MpEngine::new(
        vec![t.clone()],
        vec![ArrivalTrace::new(vec![0])],
        SimConfig::new(SharingMode::Ideal),
        2,
    )
    .expect("valid engine");
    let err = engine
        .with_partitioning(vec![5])
        .expect_err("cpu out of range");
    assert_eq!(
        err,
        SimError::BadPartition {
            tasks: 1,
            processors: 2,
            assignment: vec![5],
        }
    );
    assert!(err.to_string().contains("[5]"), "{err}");
    let engine = MpEngine::new(
        vec![t],
        vec![ArrivalTrace::new(vec![0])],
        SimConfig::new(SharingMode::Ideal),
        2,
    )
    .expect("valid engine");
    assert!(
        matches!(
            engine.with_partitioning(vec![0, 1]),
            Err(SimError::BadPartition { tasks: 1, .. })
        ),
        "wrong length"
    );
}

#[test]
fn crash_injection_works_on_multiprocessors() {
    // The crasher dies on its CPU while a peer keeps running on another.
    let crasher = TaskSpec::builder("crasher")
        .tuf(Tuf::step(1.0, 100_000).expect("valid tuf"))
        .uam(Uam::periodic(1_000_000))
        .segments(vec![Segment::Compute(5_000)])
        .crash_after(700)
        .build()
        .expect("valid task");
    let peer = task("peer", 100_000, vec![Segment::Compute(2_000)]);
    let outcome = MpEngine::new(
        vec![crasher, peer],
        vec![ArrivalTrace::new(vec![0]), ArrivalTrace::new(vec![0])],
        SimConfig::new(SharingMode::Ideal),
        2,
    )
    .expect("valid engine")
    .run(Edf);
    assert_eq!(outcome.metrics.crashed(), 1);
    assert_eq!(outcome.metrics.completed(), 1);
    let crash = outcome
        .records
        .iter()
        .find(|r| r.task.index() == 0)
        .expect("crashed");
    assert_eq!(crash.resolved_at, 700);
    let peer_rec = outcome
        .records
        .iter()
        .find(|r| r.task.index() == 1)
        .expect("ran");
    assert_eq!(peer_rec.resolved_at, 2_000, "the peer is unaffected");
}

#[test]
fn partitioning_by_object_eliminates_cross_cpu_blocking() {
    // Tasks 0-1 share object 0; tasks 2-3 share object 1. Partitioned so
    // each object's users live on one CPU, lock requests never cross CPUs
    // and — on a uniprocessor-per-partition — never even contend, because a
    // partition's jobs run one at a time. Global dispatch, by contrast,
    // runs two users of the same object simultaneously and blocks.
    let mk = |name: &str, object: usize| {
        TaskSpec::builder(name)
            .tuf(Tuf::step(1.0, 50_000).expect("valid tuf"))
            .uam(Uam::periodic(100_000))
            .segments(vec![access(object), Segment::Compute(100)])
            .build()
            .expect("valid task")
    };
    let tasks = vec![mk("a0", 0), mk("a1", 0), mk("b0", 1), mk("b1", 1)];
    let traces: Vec<ArrivalTrace> = (0..4).map(|_| ArrivalTrace::new(vec![0])).collect();
    let sharing = SharingMode::LockBased {
        access_ticks: 1_000,
    };

    let global = MpEngine::new(tasks.clone(), traces.clone(), SimConfig::new(sharing), 2)
        .expect("valid engine")
        .run(Edf);
    let partitioned = MpEngine::new(tasks, traces, SimConfig::new(sharing), 2)
        .expect("valid engine")
        .with_partitioning(vec![0, 0, 1, 1])
        .expect("valid assignment")
        .run(Edf);

    assert_eq!(global.metrics.completed(), 4);
    assert_eq!(partitioned.metrics.completed(), 4);
    assert!(
        global.metrics.blockings() >= 1,
        "global dispatch contends cross-CPU"
    );
    assert_eq!(
        partitioned.metrics.blockings(),
        0,
        "object-aligned partitioning removes lock contention entirely"
    );
}
