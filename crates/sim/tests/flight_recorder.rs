//! The engine reports preemptions to the `lfrt-trace` flight recorder. Alone
//! in this test binary because the recorder is process-global: no other
//! simulation may run while it is enabled.

use lfrt_sim::mp::MpEngine;
use lfrt_sim::{
    Decision, JobId, SchedulerContext, Segment, SharingMode, SimConfig, TaskSpec, UaScheduler,
};
use lfrt_trace::{EventKind, Site};
use lfrt_tuf::Tuf;
use lfrt_uam::{ArrivalTrace, Uam};

struct Edf;

impl UaScheduler for Edf {
    fn name(&self) -> &str {
        "edf-test"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let mut order: Vec<JobId> = ctx.jobs.iter().map(|j| j.id).collect();
        order.sort_by_key(|&id| (ctx.job(id).expect("listed job").absolute_critical_time, id));
        Decision {
            order,
            ops: 1,
            ..Decision::default()
        }
    }
}

#[test]
fn preemption_on_two_cpus_emits_sched_preempt() {
    let task = |name: &str, critical: u64| {
        TaskSpec::builder(name)
            .tuf(Tuf::step(1.0, critical).expect("valid tuf"))
            .uam(Uam::periodic(critical))
            .segments(vec![Segment::Compute(1_000)])
            .build()
            .expect("valid task")
    };
    // Jobs 0 and 1 occupy both processors from t = 0; job 2 arrives at
    // t = 100 with the earliest critical time and displaces job 0, the one
    // with the latest.
    let tasks = vec![
        task("lax", 9_000),
        task("mid", 5_000),
        task("urgent", 2_000),
    ];
    let traces = vec![
        ArrivalTrace::new(vec![0]),
        ArrivalTrace::new(vec![0]),
        ArrivalTrace::new(vec![100]),
    ];
    let _guard = lfrt_trace::tests_serialize();
    lfrt_trace::set_enabled(true);
    let _ = lfrt_trace::drain();
    let outcome = MpEngine::new(tasks, traces, SimConfig::new(SharingMode::Ideal), 2)
        .expect("valid engine")
        .run(Edf);
    lfrt_trace::set_enabled(false);
    let (events, _) = lfrt_trace::drain();

    assert_eq!(outcome.metrics.preemptions(), 1);
    let preempted: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::SchedPreempt && e.site == Site::Sched)
        .map(|e| e.value)
        .collect();
    assert_eq!(preempted, [0], "one event, carrying the preempted job's id");
}
