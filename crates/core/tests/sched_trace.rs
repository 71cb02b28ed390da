//! Every RUA scheduler reports each chain it examines to the `lfrt-trace`
//! flight recorder: one `SchedAdmit` or `SchedAbort` per chain, carrying the
//! chain's length. Alone in this test binary because the recorder is
//! process-global: nothing else may schedule while it is enabled.

use lfrt_core::{RuaLockBased, RuaLockFree, RuaLockFreeSampled};
use lfrt_sim::{Decision, JobId, JobView, ObjectId, SchedulerContext, TaskId, UaScheduler};
use lfrt_trace::{EventKind, Site};
use lfrt_tuf::Tuf;

const JOBS: usize = 48;
/// Length of the blocking chains of the chained context.
const CHAIN: usize = 6;

/// `JOBS` jobs with scattered ids. Overloaded, about half of them cannot
/// meet their critical times; chained, job `i` holds object `i` and waits
/// for object `i + 1` within runs of `CHAIN`.
fn context(tufs: &[Tuf], overloaded: bool, chained: bool) -> SchedulerContext<'_> {
    let spread = if overloaded {
        200 * JOBS as u64
    } else {
        200_000
    };
    let jobs = tufs
        .iter()
        .enumerate()
        .map(|(i, tuf)| {
            let in_chain = i % CHAIN;
            JobView {
                id: JobId::new(1_000 + 37 * ((i * 29) % JOBS)),
                task: TaskId::new(i % 10),
                arrival: 0,
                absolute_critical_time: 300 + (i as u64 * 7_919) % spread,
                window: tuf.critical_time(),
                tuf,
                remaining: 100 + (i as u64 * 53) % 400,
                blocked_on: (chained && in_chain < CHAIN - 1).then(|| ObjectId::new(i + 1)),
                holds: (chained && in_chain > 0)
                    .then(|| ObjectId::new(i))
                    .into_iter()
                    .collect(),
            }
        })
        .collect();
    SchedulerContext { now: 0, jobs }
}

/// One invocation with the recorder on: its decision and the values of the
/// `SchedAdmit` and `SchedAbort` events it emitted.
fn recorded(
    scheduler: &mut dyn UaScheduler,
    ctx: &SchedulerContext<'_>,
) -> (Decision, Vec<u64>, Vec<u64>) {
    let _guard = lfrt_trace::tests_serialize();
    lfrt_trace::set_enabled(true);
    let _ = lfrt_trace::drain();
    let decision = scheduler.schedule(ctx);
    lfrt_trace::set_enabled(false);
    let (events, stats) = lfrt_trace::drain();
    assert_eq!(stats.overwritten + stats.discarded, 0);
    let values = |kind| {
        events
            .iter()
            .filter(|e| e.kind == kind && e.site == Site::Sched)
            .map(|e| e.value)
            .collect()
    };
    (
        decision,
        values(EventKind::SchedAdmit),
        values(EventKind::SchedAbort),
    )
}

fn tufs() -> Vec<Tuf> {
    (0..JOBS)
        .map(|i| Tuf::step(1.0 + (i % 9) as f64, 250_000).expect("valid"))
        .collect()
}

#[test]
fn every_examined_singleton_is_admitted_or_aborted_once() {
    let tufs = tufs();
    let schedulers: [Box<dyn UaScheduler>; 3] = [
        Box::new(RuaLockFree::new()),
        Box::new(RuaLockFreeSampled::new(4, 1)),
        Box::new(RuaLockBased::new()),
    ];
    for mut scheduler in schedulers {
        for overloaded in [false, true] {
            let ctx = context(&tufs, overloaded, false);
            let (decision, admits, aborts) = recorded(scheduler.as_mut(), &ctx);
            let name = scheduler.name();
            assert_eq!(admits.len() + aborts.len(), JOBS, "{name}");
            assert!(admits.iter().chain(&aborts).all(|&len| len == 1), "{name}");
            assert_eq!(admits.len(), decision.order.len(), "{name}");
            assert_eq!(aborts.is_empty(), !overloaded, "{name}");
        }
    }
}

#[test]
fn lock_based_rua_reports_each_examined_chain_with_its_length() {
    let tufs = tufs();
    for overloaded in [false, true] {
        let ctx = context(&tufs, overloaded, true);
        let (decision, admits, aborts) = recorded(&mut RuaLockBased::new(), &ctx);
        assert!(decision.aborts.is_empty(), "no deadlock, no victim");
        // A chain whose job an earlier chain already scheduled is skipped,
        // not examined.
        assert!(!admits.is_empty() && admits.len() + aborts.len() <= JOBS);
        assert!(admits
            .iter()
            .chain(&aborts)
            .all(|&len| (1..=CHAIN as u64).contains(&len)));
        // Every scheduled job came in with an admitted chain.
        assert!(admits.iter().sum::<u64>() >= decision.order.len() as u64);
    }
}
