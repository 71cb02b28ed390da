//! Property-based system tests: on arbitrary (seeded) UAM workloads, the
//! simulator + RUA stack upholds its global invariants under every sharing
//! discipline.

use lockfree_rt::core::{Edf, RuaLockBased, RuaLockFree};
use lockfree_rt::sim::mp::MpEngine;
use lockfree_rt::sim::workload::{ArrivalStyle, TufClass, WorkloadSpec};
use lockfree_rt::sim::{Engine, OverheadModel, SharingMode, SimConfig, SimOutcome, UaScheduler};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        2usize..8,    // tasks
        1usize..5,    // objects
        0usize..5,    // accesses per job
        0u64..3,      // tuf class selector / arrival style selector
        20u32..130,   // load percent
        1u32..4,      // burst
        any::<u64>(), // seed
    )
        .prop_map(
            |(tasks, objects, accesses, style, load_pct, burst, seed)| WorkloadSpec {
                num_tasks: tasks,
                num_objects: objects,
                accesses_per_job: accesses,
                tuf_class: if style % 2 == 0 {
                    TufClass::Step
                } else {
                    TufClass::Heterogeneous
                },
                target_load: f64::from(load_pct) / 100.0,
                window_range: (3_000, 12_000),
                max_burst: burst,
                critical_time_frac: 0.9,
                arrival_style: match style {
                    0 => ArrivalStyle::Periodic,
                    1 => ArrivalStyle::RandomUam { intensity: 3.0 },
                    _ => ArrivalStyle::BackToBackBurst,
                },
                horizon: 120_000,
                read_fraction: 0.0,
                seed,
            },
        )
}

fn run<S: UaScheduler>(spec: &WorkloadSpec, sharing: SharingMode, scheduler: S) -> SimOutcome {
    let (tasks, traces) = spec.build().expect("valid workload");
    Engine::new(
        tasks,
        traces,
        SimConfig::new(sharing).overhead(OverheadModel::per_op(0.1)),
    )
    .expect("valid engine")
    .run(scheduler)
}

fn check_invariants(outcome: &SimOutcome, sharing: SharingMode) {
    let m = &outcome.metrics;
    // Conservation: every released job resolves exactly once.
    assert_eq!(m.released(), m.completed() + m.aborted());
    assert_eq!(outcome.records.len() as u64, m.released());
    // Ratios live in [0, 1].
    assert!((0.0..=1.0).contains(&m.aur()), "AUR {}", m.aur());
    assert!((0.0..=1.0).contains(&m.cmr()), "CMR {}", m.cmr());
    // Discipline-specific impossibilities.
    match sharing {
        SharingMode::LockBased { .. } => {
            assert_eq!(m.retries(), 0, "lock-based sharing cannot retry");
        }
        SharingMode::LockFree { .. } | SharingMode::Ideal => {
            assert_eq!(m.blockings(), 0, "lock-free/ideal sharing cannot block");
        }
    }
    // Per-record sanity: resolution after arrival, never past the critical
    // time (completion strictly before, abort exactly at or before due to
    // deadlock resolution), utility only from completions.
    for r in &outcome.records {
        assert!(r.resolved_at >= r.arrival);
        if !r.completed {
            assert_eq!(r.utility, 0.0);
        }
        assert!(r.utility >= 0.0 && r.utility.is_finite());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invariants_hold_under_lock_free_rua(spec in arb_spec()) {
        let sharing = SharingMode::LockFree { access_ticks: 20 };
        let outcome = run(&spec, sharing, RuaLockFree::new());
        check_invariants(&outcome, sharing);
    }

    #[test]
    fn invariants_hold_under_lock_based_rua(spec in arb_spec()) {
        let sharing = SharingMode::LockBased { access_ticks: 60 };
        let outcome = run(&spec, sharing, RuaLockBased::new());
        check_invariants(&outcome, sharing);
    }

    #[test]
    fn invariants_hold_under_edf(spec in arb_spec()) {
        let sharing = SharingMode::Ideal;
        let outcome = run(&spec, sharing, Edf::new());
        check_invariants(&outcome, sharing);
    }

    /// Same spec, same seed, same scheduler => identical outcome.
    #[test]
    fn runs_are_reproducible(spec in arb_spec()) {
        let sharing = SharingMode::LockFree { access_ticks: 15 };
        let a = run(&spec, sharing, RuaLockFree::new());
        let b = run(&spec, sharing, RuaLockFree::new());
        prop_assert_eq!(a.records, b.records);
        prop_assert_eq!(a.metrics, b.metrics);
    }

    /// Measured retries respect Theorem 2 on every generated workload.
    #[test]
    fn theorem2_always_holds(spec in arb_spec()) {
        use lockfree_rt::analysis::RetryBoundInput;
        let (tasks, traces) = spec.build().expect("valid workload");
        let params: Vec<(lockfree_rt::uam::Uam, u64)> =
            tasks.iter().map(|t| (*t.uam(), t.tuf().critical_time())).collect();
        let outcome = Engine::new(
            tasks,
            traces,
            SimConfig::new(SharingMode::LockFree { access_ticks: 50 }),
        )
        .expect("valid engine")
        .run(RuaLockFree::new());
        for r in &outcome.records {
            let bound = RetryBoundInput::for_task(&params, r.task.index()).retry_bound();
            prop_assert!(
                r.retries <= bound,
                "job {} of task {}: {} retries > bound {}",
                r.id, r.task, r.retries, bound
            );
        }
    }

    /// More processors never lose utility on the same workload.
    #[test]
    fn extra_cpus_never_hurt(spec in arb_spec()) {
        let sharing = SharingMode::LockFree { access_ticks: 15 };
        let mut prev = -1.0f64;
        for cpus in [1usize, 2, 4] {
            let (tasks, traces) = spec.build().expect("valid workload");
            let outcome = MpEngine::new(tasks, traces, SimConfig::new(sharing), cpus)
                .expect("valid engine")
                .run(RuaLockFree::new());
            let aur = outcome.metrics.aur();
            // Greedy UA scheduling is not optimal, so allow small slack.
            prop_assert!(aur >= prev - 0.08, "{cpus} CPUs: AUR {aur} < {prev}");
            prev = prev.max(aur);
        }
    }

    /// Zero-overhead ideal sharing dominates (or ties) costly sharing on
    /// the same workload and scheduler.
    #[test]
    fn ideal_is_an_upper_bound(spec in arb_spec()) {
        let ideal = run(&spec, SharingMode::Ideal, RuaLockFree::new());
        let costly = run(
            &spec,
            SharingMode::LockFree { access_ticks: 100 },
            RuaLockFree::new(),
        );
        // Allow a small tolerance: UA scheduling is greedy, not optimal, so
        // pathological cases can invert slightly.
        prop_assert!(
            ideal.metrics.aur() >= costly.metrics.aur() - 0.12,
            "ideal {} far below costly {}",
            ideal.metrics.aur(),
            costly.metrics.aur()
        );
    }
}
