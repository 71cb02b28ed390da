//! Quantum-based scheduling (§1.1's reference \[2\], Anderson et al.):
//! the scheduler additionally fires at every quantum boundary, enabling
//! round-robin-style sharing — and with object accesses shorter than the
//! quantum, contended lock-free accesses retry at most once each.

use lfrt_sim::mp::MpEngine;
use lfrt_sim::{
    AccessKind, Decision, Engine, JobId, ObjectId, SchedulerContext, Segment, SharingMode,
    SimConfig, TaskSpec, UaScheduler,
};
use lfrt_tuf::Tuf;
use lfrt_uam::{ArrivalTrace, Uam};

/// Round-robin: rotates the dispatch order one position per invocation —
/// only meaningful when something (the quantum) invokes it periodically.
struct RoundRobin {
    turn: usize,
}

impl RoundRobin {
    fn new() -> Self {
        Self { turn: 0 }
    }
}

impl UaScheduler for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut order: Vec<JobId> = ctx.jobs.iter().map(|j| j.id).collect();
        order.sort_unstable();
        if !order.is_empty() {
            self.turn = (self.turn + 1) % order.len();
            order.rotate_left(self.turn);
        }
        let ops = order.len() as u64;
        Decision {
            order,
            ops,
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

#[test]
fn quantum_time_slices_equal_jobs() {
    // Two identical long jobs; without a quantum, round-robin is never
    // re-invoked mid-run, so the first job runs to completion. With a 100
    // tick quantum they interleave.
    let mk = || {
        (
            vec![
                task("a", 50_000, vec![Segment::Compute(1_000)]),
                task("b", 50_000, vec![Segment::Compute(1_000)]),
            ],
            vec![ArrivalTrace::new(vec![0]), ArrivalTrace::new(vec![0])],
        )
    };
    let (tasks, traces) = mk();
    let plain = Engine::new(tasks, traces, SimConfig::new(SharingMode::Ideal))
        .expect("valid engine")
        .run(RoundRobin::new());
    let (tasks, traces) = mk();
    let sliced = Engine::new(
        tasks,
        traces,
        SimConfig::new(SharingMode::Ideal).quantum(100),
    )
    .expect("valid engine")
    .run(RoundRobin::new());
    assert_eq!(plain.metrics.completed(), 2);
    assert_eq!(sliced.metrics.completed(), 2);
    assert_eq!(
        plain.metrics.preemptions(),
        0,
        "nothing interrupts the first job"
    );
    assert!(
        sliced.metrics.preemptions() >= 8,
        "quantum boundaries force interleaving (got {})",
        sliced.metrics.preemptions()
    );
    // Interleaving equalizes completion times: both finish within one
    // quantum of each other instead of 1000 ticks apart.
    let ends: Vec<u64> = sliced.records.iter().map(|r| r.resolved_at).collect();
    assert!(ends[0].abs_diff(ends[1]) <= 200, "{ends:?}");
}

#[test]
fn short_accesses_retry_at_most_once_per_success_under_quantum() {
    // Anderson et al.'s regime: object accesses (s = 20) much shorter than
    // the quantum (200). A preempted access can be invalidated and retried,
    // but the retried attempt fits comfortably inside the next quantum, so
    // retries never chain: retries ≤ successful accesses.
    let access = Segment::Access {
        object: ObjectId::new(0),
        kind: AccessKind::Write,
    };
    let mk_task = |i: usize| task(&format!("t{i}"), 1_000_000, vec![access; 10]);
    let tasks: Vec<TaskSpec> = (0..3).map(mk_task).collect();
    let traces = (0..3).map(|i| ArrivalTrace::new(vec![i * 7])).collect();
    let outcome = Engine::new(
        tasks,
        traces,
        SimConfig::new(SharingMode::LockFree { access_ticks: 20 }).quantum(200),
    )
    .expect("valid engine")
    .run(RoundRobin::new());
    assert_eq!(outcome.metrics.completed(), 3);
    let successful_accesses = 3 * 10;
    assert!(
        outcome.metrics.retries() <= successful_accesses,
        "retries ({}) must not exceed one per successful access ({successful_accesses})",
        outcome.metrics.retries()
    );
}

#[test]
fn quantum_does_not_fire_when_idle() {
    // A single short job: after it completes, quantum boundaries must not
    // keep the simulation (or scheduler) alive.
    let t = task("a", 10_000, vec![Segment::Compute(50)]);
    let outcome = Engine::new(
        vec![t],
        vec![ArrivalTrace::new(vec![0])],
        SimConfig::new(SharingMode::Ideal).quantum(100),
    )
    .expect("valid engine")
    .run(RoundRobin::new());
    assert_eq!(outcome.metrics.completed(), 1);
    // Scheduler fired at arrival, completion, and at most one boundary.
    assert!(outcome.metrics.sched_invocations <= 4);
}

#[test]
fn quantum_boundaries_invoke_the_scheduler_on_two_cpus() {
    // Three equal long jobs on two processors. Without a quantum nothing
    // re-invokes round-robin until the first two complete; with one, every
    // boundary reschedules both processors and the three jobs share them.
    let run = |config: SimConfig| {
        let tasks = (0..3)
            .map(|i| task(&format!("t{i}"), 50_000, vec![Segment::Compute(1_000)]))
            .collect();
        let traces = (0..3).map(|_| ArrivalTrace::new(vec![0])).collect();
        MpEngine::new(tasks, traces, config, 2)
            .expect("valid engine")
            .run(RoundRobin::new())
    };
    let plain = run(SimConfig::new(SharingMode::Ideal));
    let sliced = run(SimConfig::new(SharingMode::Ideal).quantum(100));
    assert_eq!(plain.metrics.completed(), 3);
    assert_eq!(sliced.metrics.completed(), 3);
    assert_eq!(plain.metrics.preemptions(), 0);
    assert!(
        sliced.metrics.preemptions() >= 8,
        "quantum boundaries force interleaving (got {})",
        sliced.metrics.preemptions()
    );
    // 3000 ticks of work on two processors end at 1500, so the boundaries
    // at 100..=1400 pass while jobs are live; each invokes the scheduler.
    assert!(plain.metrics.sched_invocations <= 4);
    assert!(
        sliced.metrics.sched_invocations >= 14,
        "got {}",
        sliced.metrics.sched_invocations
    );
    // Sharing equalizes completion: all three finish within two quanta of
    // 1500 instead of two at 1000 and one at 2000.
    for r in &sliced.records {
        assert!(r.resolved_at.abs_diff(1_500) <= 200, "{:?}", sliced.records);
    }
}
