//! The simulator measurements: a researcher's parameter sweep, timed from
//! outside.
//!
//! Six `WorkloadSpec::paper_baseline` task sets (10 tasks, 10 objects; loads
//! 0.4 / 0.8 / 1.2; all-write and half-read), each with seed-derived
//! UAM-conformant arrivals over a 3 M-tick horizon, are run under the three
//! pairings the paper's figures compare —
//! lock-free sharing + lock-free RUA, lock-based sharing + lock-based RUA,
//! lock-free sharing + EDF — on `Engine` and on `MpEngine` with four CPUs.
//! One *pass* runs every (set, pairing) once; throughput is scheduling
//! events (`SimMetrics::sched_invocations`) per second of host time spent
//! in `Engine::new` + `run`.
//!
//! Simulated results are a pure function of the seed, so every repeat of a
//! run must reproduce the first one's `SimMetrics` exactly, and `MpEngine`
//! with one CPU must reproduce `Engine`'s.

use std::time::Instant;

use lfrt_core::{Edf, RuaLockBased, RuaLockFree};
use lfrt_sim::workload::WorkloadSpec;
use lfrt_sim::{
    Decision, Engine, MpEngine, OverheadModel, SchedulerContext, SharingMode, SimConfig,
    SimMetrics, TaskSpec, UaScheduler,
};
use lfrt_uam::{ArrivalGenerator, ArrivalTrace, RandomUamArrivals};

use crate::rng::SplitMix64;
use crate::spans::{SpanId, SpanLog};
use crate::stats::{median, Estimate};

const HORIZON: u64 = 3_000_000;
const LOADS: [f64; 3] = [0.4, 0.8, 1.2];
const READ_FRACTIONS: [f64; 2] = [0.0, 0.5];
/// Candidate arrival intensity of `paper_baseline`, as a multiple of each
/// task's UAM maximum rate.
const ARRIVAL_INTENSITY: f64 = 2.0;
/// Access times and scheduler overhead of the paper's Figures 10–13.
const S_TICKS: u64 = 5;
const R_TICKS: u64 = 400;
const OVERHEAD_TICKS_PER_OP: f64 = 0.2;
/// Processors of the multiprocessor sweep.
pub const MP_CPUS: usize = 4;

/// A start/end pair on the host clock.
pub type Interval = (Instant, Instant);

/// One generated task set with its arrival traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    pub tasks: Vec<TaskSpec>,
    pub traces: Vec<ArrivalTrace>,
}

/// The seed-derived inputs of the sweep.
#[derive(Debug, Clone)]
pub struct SimInputs {
    pub sets: Vec<TaskSet>,
    /// Host time of each `WorkloadSpec::build` call.
    pub builds: Vec<Interval>,
}

impl SimInputs {
    /// The task sets themselves (windows, bursts, utilities, which object
    /// each access touches) are the same for every seed — events per second
    /// depends on them by ±15 %, which would drown any change in the engine
    /// — and the seed decides when every job arrives.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::fork(seed, 2);
        let (mut sets, mut builds) = (Vec::new(), Vec::new());
        for target_load in LOADS {
            for read_fraction in READ_FRACTIONS {
                let spec = WorkloadSpec {
                    target_load,
                    read_fraction,
                    horizon: HORIZON,
                    ..WorkloadSpec::paper_baseline(sets.len() as u64)
                };
                let start = Instant::now();
                let (tasks, _) = spec.build().expect("the baseline spec is valid");
                builds.push((start, Instant::now()));
                let traces = tasks
                    .iter()
                    .map(|task| {
                        RandomUamArrivals::new(*task.uam(), rng.next_u64())
                            .with_intensity(ARRIVAL_INTENSITY)
                            .generate(HORIZON)
                    })
                    .collect();
                sets.push(TaskSet { tasks, traces });
            }
        }
        Self { sets, builds }
    }

    pub fn arrivals(&self) -> u64 {
        let traces = self.sets.iter().flat_map(|set| &set.traces);
        traces.map(|trace| trace.len() as u64).sum()
    }

    /// The generated inputs as bytes, for the same-seed self-test.
    #[cfg(test)]
    pub fn fingerprint(&self) -> Vec<u8> {
        format!("{:?}", self.sets).into_bytes()
    }
}

/// A sharing discipline paired with the scheduler the paper runs on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    LockFree,
    LockBased,
    Edf,
}

impl Pairing {
    pub const ALL: [Pairing; 3] = [Pairing::LockFree, Pairing::LockBased, Pairing::Edf];

    /// The pairing of the run at `index` of a pass (`set * 3 + pairing`).
    fn of_run(index: usize) -> Pairing {
        Pairing::ALL[index % Pairing::ALL.len()]
    }

    /// Whether the run at `index` belongs to `wanted` (`None` = every run).
    fn selects(wanted: Option<Pairing>, index: usize) -> bool {
        wanted.is_none_or(|pairing| pairing == Pairing::of_run(index))
    }

    fn sharing(self) -> SharingMode {
        match self {
            Pairing::LockBased => SharingMode::LockBased {
                access_ticks: R_TICKS,
            },
            Pairing::LockFree | Pairing::Edf => SharingMode::LockFree {
                access_ticks: S_TICKS,
            },
        }
    }
}

/// Which engine runs the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    Uni,
    Mp(usize),
}

/// The simulator's own observability switches (both off in the sweep).
#[derive(Debug, Clone, Copy, Default)]
pub struct Observe {
    pub record_jobs: bool,
    pub tracelog: bool,
}

/// Wraps the real scheduler so each invocation is a `core` span inside the
/// engine's `sim` span. Used by the traced run's span pass only.
struct Timed<'a, S> {
    inner: S,
    calls: &'a mut Vec<Interval>,
}

impl<S: UaScheduler> UaScheduler for Timed<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Decision {
        let start = Instant::now();
        let decision = self.inner.schedule(ctx);
        self.calls.push((start, Instant::now()));
        decision
    }
}

/// One simulation run, timed around engine construction and `run`.
pub struct RunOut {
    pub metrics: SimMetrics,
    pub host: Interval,
}

fn run_one(
    machine: Machine,
    set: &TaskSet,
    pairing: Pairing,
    observe: Observe,
    calls: Option<&mut Vec<Interval>>,
) -> RunOut {
    fn go<S: UaScheduler>(
        machine: Machine,
        tasks: Vec<TaskSpec>,
        traces: Vec<ArrivalTrace>,
        config: SimConfig,
        scheduler: S,
    ) -> RunOut {
        let start = Instant::now();
        let outcome = match machine {
            Machine::Uni => Engine::new(tasks, traces, config)
                .expect("generated sets are valid")
                .run(scheduler),
            Machine::Mp(cpus) => MpEngine::new(tasks, traces, config, cpus)
                .expect("generated sets are valid")
                .run(scheduler),
        };
        let end = Instant::now();
        RunOut {
            metrics: std::hint::black_box(outcome).metrics,
            host: (start, end),
        }
    }

    // The engines consume their inputs; the copies are made outside the
    // timed region.
    let (tasks, traces) = (set.tasks.clone(), set.traces.clone());
    let config = SimConfig::new(pairing.sharing())
        .overhead(OverheadModel::per_op(OVERHEAD_TICKS_PER_OP))
        .record_jobs(observe.record_jobs)
        .trace(observe.tracelog);
    macro_rules! dispatch {
        ($scheduler:expr) => {
            match calls {
                None => go(machine, tasks, traces, config, $scheduler),
                Some(calls) => {
                    let inner = $scheduler;
                    go(machine, tasks, traces, config, Timed { inner, calls })
                }
            }
        };
    }
    match pairing {
        Pairing::LockFree => dispatch!(RuaLockFree::new()),
        Pairing::LockBased => dispatch!(RuaLockBased::new()),
        Pairing::Edf => dispatch!(Edf::new()),
    }
}

/// Every (set, pairing) run once on one machine, in a fixed order.
pub struct PassOut {
    /// Indexed `set * 3 + pairing`.
    pub runs: Vec<RunOut>,
    /// Scheduler invocations of each run, when asked for.
    pub calls: Vec<Vec<Interval>>,
    pub machine: Machine,
}

impl PassOut {
    fn host_ns(&self, pairing: Option<Pairing>) -> f64 {
        self.select(pairing)
            .map(|run| (run.host.1 - run.host.0).as_nanos() as f64)
            .sum()
    }

    fn events(&self, pairing: Option<Pairing>) -> u64 {
        self.select(pairing)
            .map(|run| run.metrics.sched_invocations)
            .sum()
    }

    pub fn events_per_s(&self, pairing: Option<Pairing>) -> f64 {
        self.events(pairing) as f64 * 1e9 / self.host_ns(pairing)
    }

    pub fn select(&self, pairing: Option<Pairing>) -> impl Iterator<Item = &RunOut> {
        let runs = self.runs.iter().enumerate();
        runs.filter(move |(index, _)| Pairing::selects(pairing, *index))
            .map(|(_, run)| run)
    }

    /// Records one `sim` span per run (and one `core` span per scheduler
    /// invocation, if they were collected) under `parent`.
    pub fn record(&self, log: &mut SpanLog, parent: SpanId) {
        let name = match self.machine {
            Machine::Uni => "engine.new_run",
            Machine::Mp(_) => "mp_engine.new_run",
        };
        for (index, run) in self.runs.iter().enumerate() {
            let id = log.add(parent, "sim", name, 0, run.host.0, run.host.1);
            for &(start, end) in self.calls.get(index).into_iter().flatten() {
                log.add(id, "core", "schedule", 0, start, end);
            }
        }
    }
}

pub fn pass(inputs: &SimInputs, machine: Machine, observe: Observe, timed: bool) -> PassOut {
    let mut out = PassOut {
        runs: Vec::new(),
        calls: Vec::new(),
        machine,
    };
    for set in &inputs.sets {
        for pairing in Pairing::ALL {
            let mut calls = Vec::new();
            out.runs.push(run_one(
                machine,
                set,
                pairing,
                observe,
                timed.then_some(&mut calls),
            ));
            if timed {
                out.calls.push(calls);
            }
        }
    }
    out
}

/// The output checks of the sweep.
#[derive(Debug, Default)]
pub struct SimChecks {
    pub attempted: u64,
    pub failed: u64,
}

impl SimChecks {
    fn expect(&mut self, ok: bool, what: std::fmt::Arguments<'_>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED sim: {what}");
        }
    }

    /// Every run of `pass` must reproduce `reference` exactly.
    pub fn same_metrics(&mut self, reference: &PassOut, pass: &PassOut, what: &str) {
        for (index, (want, got)) in reference.runs.iter().zip(&pass.runs).enumerate() {
            self.expect(
                want.metrics == got.metrics,
                format_args!(
                    "{what}: set {} under {:?} differs from the first uniprocessor run",
                    index / Pairing::ALL.len(),
                    Pairing::of_run(index)
                ),
            );
        }
    }

    /// Every generated trace must conform to its task's UAM.
    pub fn uam_conformance(&mut self, inputs: &SimInputs) {
        for (index, set) in inputs.sets.iter().enumerate() {
            for (task, trace) in set.tasks.iter().zip(&set.traces) {
                self.expect(
                    trace.conforms_to(task.uam()).is_ok(),
                    format_args!("set {index}: trace of {} violates its UAM", task.name()),
                );
            }
        }
    }
}

/// Host times of every run of a pass, over the passes of a sweep; the
/// sweep's time is the sum of each run's undisturbed time.
#[derive(Debug, Default)]
struct RunTimes {
    /// Indexed like [`PassOut::runs`]; one sample per pass.
    ns: Vec<Vec<f64>>,
}

impl RunTimes {
    fn add(&mut self, pass: &PassOut) {
        self.ns.resize(pass.runs.len(), Vec::new());
        for (samples, run) in self.ns.iter_mut().zip(&pass.runs) {
            samples.push((run.host.1 - run.host.0).as_nanos() as f64);
        }
    }

    /// Events per second of host time over the runs of `pairing`.
    fn events_per_s(&self, reference: &PassOut, pairing: Option<Pairing>) -> f64 {
        let ns: f64 = (0..self.ns.len())
            .filter(|&index| Pairing::selects(pairing, index))
            .map(|index| Estimate::Undisturbed.of(&self.ns[index]))
            .sum();
        reference.events(pairing) as f64 * 1e9 / ns
    }
}

/// What the timed sweep produced.
pub struct SweepOut {
    /// Events/s of each whole pass, as they came (for the report).
    pub uni_passes: Vec<f64>,
    pub mp_passes: Vec<f64>,
    /// Events/s with every run at its undisturbed time.
    pub uni: f64,
    pub mp: f64,
    pub uni_by_pairing: [f64; 3],
    /// The first uniprocessor pass: the reference for every check, and the
    /// source of the simulated values.
    pub reference: PassOut,
    pub checks: SimChecks,
}

/// Alternates uniprocessor and multiprocessor passes for `seconds`.
pub fn sweep(inputs: &SimInputs, seconds: f64, log: &mut SpanLog, parent: SpanId) -> SweepOut {
    let started = Instant::now();
    // The reference passes also warm the allocator; they are not samples.
    let reference = pass(inputs, Machine::Uni, Observe::default(), false);
    let mp_reference = pass(inputs, Machine::Mp(MP_CPUS), Observe::default(), false);
    let (mut uni_times, mut mp_times) = (RunTimes::default(), RunTimes::default());
    let (mut uni_passes, mut mp_passes) = (Vec::new(), Vec::new());
    let mut checks = SimChecks::default();
    while uni_passes.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let uni = pass(inputs, Machine::Uni, Observe::default(), false);
        let mp = pass(inputs, Machine::Mp(MP_CPUS), Observe::default(), false);
        uni.record(log, parent);
        mp.record(log, parent);
        uni_times.add(&uni);
        mp_times.add(&mp);
        uni_passes.push(uni.events_per_s(None));
        mp_passes.push(mp.events_per_s(None));
        checks.same_metrics(&reference, &uni, "repeat");
        checks.same_metrics(&mp_reference, &mp, "4-CPU repeat");
    }
    SweepOut {
        uni_passes,
        mp_passes,
        uni: uni_times.events_per_s(&reference, None),
        mp: mp_times.events_per_s(&mp_reference, None),
        uni_by_pairing: Pairing::ALL.map(|p| uni_times.events_per_s(&reference, Some(p))),
        reference,
        checks,
    }
}

/// Untimed checks: UAM conformance of the inputs, and `MpEngine` with one
/// CPU against `Engine`.
pub fn verify(inputs: &SimInputs, sweep: &mut SweepOut) {
    sweep.checks.uam_conformance(inputs);
    let mp1 = pass(inputs, Machine::Mp(1), Observe::default(), false);
    sweep
        .checks
        .same_metrics(&sweep.reference, &mp1, "MpEngine(cpus = 1)");
}

/// The traced run's extra passes over the uniprocessor sweep.
pub struct Extras {
    pub mp1_over_uni: f64,
    pub record_jobs_over_off: f64,
    pub tracelog_over_off: f64,
    /// Host time of the span pass over the plain pass: what recording one
    /// span per scheduler invocation costs.
    pub spans_over_off: f64,
    /// Shares of the span pass's host time.
    pub sched_share: f64,
    pub engine_self_share: f64,
    pub insitu_ns_per_invocation: f64,
}

pub fn extras(inputs: &SimInputs, log: &mut SpanLog, parent: SpanId) -> Extras {
    const REPEATS: usize = 3;
    let jobs = Observe {
        record_jobs: true,
        tracelog: false,
    };
    let tracelog = Observe {
        record_jobs: false,
        tracelog: true,
    };
    let mut host: [Vec<f64>; 5] = Default::default();
    let (mut sched_share, mut engine_share, mut insitu) = (Vec::new(), Vec::new(), Vec::new());
    for repeat in 0..REPEATS {
        // Variants interleaved, so drift on the host hits all of them.
        let variants = [
            pass(inputs, Machine::Uni, Observe::default(), false),
            pass(inputs, Machine::Mp(1), Observe::default(), false),
            pass(inputs, Machine::Uni, jobs, false),
            pass(inputs, Machine::Uni, tracelog, false),
        ];
        for (samples, variant) in host.iter_mut().zip(&variants) {
            samples.push(variant.host_ns(None));
        }
        let start = Instant::now();
        let spanned = pass(inputs, Machine::Uni, Observe::default(), true);
        let end = Instant::now();
        host[4].push(spanned.host_ns(None));
        let in_scheduler: f64 = spanned
            .calls
            .iter()
            .flatten()
            .map(|(from, to)| (*to - *from).as_nanos() as f64)
            .sum();
        let whole = (end - start).as_nanos() as f64;
        sched_share.push(in_scheduler / whole);
        engine_share.push((spanned.host_ns(None) - in_scheduler) / whole);
        insitu.push(in_scheduler / spanned.events(None) as f64);
        // One repeat's spans are enough for the trace file.
        if repeat == 0 {
            let id = log.add(parent, "bench", "sim.span_pass", 0, start, end);
            spanned.record(log, id);
        }
    }
    let plain = median(&host[0]);
    Extras {
        mp1_over_uni: median(&host[1]) / plain,
        record_jobs_over_off: median(&host[2]) / plain,
        tracelog_over_off: median(&host[3]) / plain,
        spans_over_off: median(&host[4]) / plain,
        sched_share: median(&sched_share),
        engine_self_share: median(&engine_share),
        insitu_ns_per_invocation: median(&insitu),
    }
}

/// Simulated values of a uniprocessor pass (exact for a seed).
pub struct Simulated {
    pub events_total: u64,
    pub sched_ops_total: u64,
    pub aur_lf: f64,
    pub aur_lb: f64,
    pub cmr_lf: f64,
    pub cmr_lb: f64,
    pub retries_total: u64,
    pub blockings_total: u64,
}

impl Simulated {
    pub fn of(pass: &PassOut) -> Self {
        let mean = |pairing, value: fn(&SimMetrics) -> f64| {
            let values: Vec<f64> = pass
                .select(Some(pairing))
                .map(|run| value(&run.metrics))
                .collect();
            values.iter().sum::<f64>() / values.len() as f64
        };
        let total = |value: fn(&SimMetrics) -> u64| -> u64 {
            pass.runs.iter().map(|run| value(&run.metrics)).sum()
        };
        Self {
            events_total: pass.events(None),
            sched_ops_total: total(|m| m.sched_ops),
            aur_lf: mean(Pairing::LockFree, SimMetrics::aur),
            aur_lb: mean(Pairing::LockBased, SimMetrics::aur),
            cmr_lf: mean(Pairing::LockFree, SimMetrics::cmr),
            cmr_lb: mean(Pairing::LockBased, SimMetrics::cmr),
            retries_total: total(SimMetrics::retries),
            blockings_total: total(SimMetrics::blockings),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> SimInputs {
        let mut inputs = SimInputs::generate(seed);
        inputs.sets.truncate(2);
        inputs
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        assert_eq!(
            SimInputs::generate(9).fingerprint(),
            SimInputs::generate(9).fingerprint()
        );
        assert_ne!(
            SimInputs::generate(9).fingerprint(),
            SimInputs::generate(10).fingerprint()
        );
    }

    #[test]
    fn same_inputs_give_the_same_simulated_metrics_on_both_engines() {
        let inputs = small(4);
        let first = pass(&inputs, Machine::Uni, Observe::default(), false);
        let mut checks = SimChecks::default();
        // Inputs generated again from the same seed, run under the wrapper.
        let again = pass(&small(4), Machine::Uni, Observe::default(), true);
        checks.same_metrics(&first, &again, "repeat under the span wrapper");
        let mp1 = pass(&inputs, Machine::Mp(1), Observe::default(), false);
        checks.same_metrics(&first, &mp1, "mp1");
        checks.uam_conformance(&inputs);
        assert_eq!(checks.failed, 0);
        assert_eq!(checks.attempted, 6 + 6 + 20);
        assert_eq!(again.calls.len(), 6);
        assert_eq!(
            again.calls.iter().map(Vec::len).sum::<usize>() as u64,
            first.events(None),
            "one recorded call per scheduler invocation"
        );
    }

    #[test]
    fn a_differing_run_is_counted_and_the_pairings_are_selected_in_order() {
        let inputs = small(4);
        let first = pass(&inputs, Machine::Uni, Observe::default(), false);
        let other = pass(&small(5), Machine::Uni, Observe::default(), false);
        let mut checks = SimChecks::default();
        checks.same_metrics(&first, &other, "other seed");
        assert!(checks.failed > 0);
        assert_eq!(first.select(Some(Pairing::LockBased)).count(), 2);
        let blockings: u64 = first
            .select(Some(Pairing::LockFree))
            .map(|run| run.metrics.blockings())
            .sum();
        assert_eq!(blockings, 0, "lock-free sharing never blocks");
    }
}
