//! The repo's benchmark. One process measures one workload:
//!
//! ```text
//! lfrt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the same three phases — shared objects, simulator
//! sweep, scheduler calls — because every end-to-end metric is reported by
//! every workload; the workload decides which phase gets the bulk of the
//! time ([`Plan`]) and how many threads share the objects. `--trace 0`
//! prints the end-to-end metrics with nothing recorded; `--trace 1` is a
//! separate run that records spans around every call into a layer, adds the
//! per-layer passes (cost ledger, the other structures, simulator switches,
//! scheduler scaling, one `paper_all`) and prints the per-layer metrics.
//! `README.md` in this directory defines every metric.

mod alloc_count;
mod ledger;
mod metrics;
mod obj;
mod rng;
mod sched;
mod simw;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use lfrt_lockfree::{LockFreeQueue, LockedQueue, TreiberStack};

use metrics::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use obj::{subjects, ObjInputs, Pass, Pattern, Rig, Subject, Verdict};
use sched::{Algorithm, Case, SchedInputs, Shape};
use simw::{SimInputs, Simulated};
use spans::{SpanId, SpanLog, NO_SPAN};
use stats::{Estimate, Summary};

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// Set-up is repeated this often and its median reported.
const SETUP_REPEATS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ObjUncontended,
    ObjContended,
    SimSweep,
    SchedScaling,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let raw: Vec<String> = raw.collect();
        let value = |flag: &str| -> Result<&str, String> {
            let at = raw.iter().position(|arg| arg == flag);
            at.and_then(|at| raw.get(at + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {flag} <value>"))
        };
        let workload = match value("--workload")? {
            "obj_uncontended" => Workload::ObjUncontended,
            "obj_contended" => Workload::ObjContended,
            "sim_sweep" => Workload::SimSweep,
            "sched_scaling" => Workload::SchedScaling,
            other => return Err(format!("unknown workload {other}; one of {WORKLOADS:?}")),
        };
        let seed = value("--seed")?;
        let seconds = value("--seconds")?;
        Ok(Self {
            workload,
            seed: seed
                .parse()
                .map_err(|_| format!("--seed {seed} is not a u64"))?,
            seconds: match seconds.parse() {
                Ok(s) if (0.05..=600.0).contains(&s) => s,
                _ => return Err(format!("--seconds {seconds} is not in 0.05..=600")),
            },
            traced: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace {other} is neither 0 nor 1")),
            },
        })
    }

    fn workload_name(&self) -> &'static str {
        WORKLOADS[self.workload as usize]
    }
}

/// How a run's measuring time is divided, in seconds.
#[derive(Debug)]
struct Plan {
    obj: f64,
    sim: f64,
    sched: f64,
    /// Traced run only: the structures no end-to-end metric covers.
    layers: f64,
    /// Traced run only: the cost ledger's micro-loops.
    ledger: f64,
    /// Traced run only: the other scheduler cases.
    sched_cases: f64,
    /// Threads sharing each structure in the object phase.
    obj_threads: usize,
}

impl Plan {
    fn new(args: &Args, nproc: usize) -> Self {
        // The workload's own phase gets 70 % of the time; the other two get
        // 15 % each, enough for a steady median of their metrics.
        let share = |phase: Workload, also: Option<Workload>| {
            if args.workload == phase || Some(args.workload) == also {
                0.70
            } else {
                0.15
            }
        };
        // A traced run spends 40 % of its time on the per-layer passes.
        let (main, extra) = if args.traced { (0.6, 0.4) } else { (1.0, 0.0) };
        let main = args.seconds * main;
        let extra = args.seconds * extra;
        Self {
            obj: main * share(Workload::ObjUncontended, Some(Workload::ObjContended)),
            sim: main * share(Workload::SimSweep, None),
            sched: main * share(Workload::SchedScaling, None),
            layers: extra * 0.6,
            ledger: extra * 0.2,
            sched_cases: extra * 0.2,
            obj_threads: if args.workload == Workload::ObjContended {
                nproc.clamp(2, 4)
            } else {
                1
            },
        }
    }
}

/// Median cost of reading the clock twice in a row: what an individually
/// timed operation is charged for being timed.
fn clock_floor_ns() -> u64 {
    let mut deltas: Vec<u64> = (0..100_000)
        .map(|_| {
            let first = Instant::now();
            (Instant::now() - first).as_nanos() as u64
        })
        .collect();
    deltas.sort_unstable();
    deltas[deltas.len() / 2]
}

/// Everything set-up produces: calibrated clock, generated inputs, and the
/// three end-to-end structures pre-filled and warmed on their workers.
struct Prepared {
    floor_ns: u64,
    obj: ObjInputs,
    sim: SimInputs,
    sched: SchedInputs,
    rigs: Rigs,
}

/// The structures behind `s_ns`, `stack_ns` and `r_ns`.
struct Rigs {
    queue: Rig<LockFreeQueue<u64>>,
    stack: Rig<TreiberStack<u64>>,
    locked: Rig<LockedQueue<u64>>,
}

fn prepare(seed: u64, threads: usize) -> Prepared {
    let floor_ns = clock_floor_ns();
    let obj = ObjInputs::generate(seed);
    let sim = SimInputs::generate(seed);
    let sched = SchedInputs::generate(seed);
    let mut queue = Rig::new(subjects::queue(), threads, obj.base);
    let mut stack = Rig::new(subjects::stack(), threads, obj.base);
    let mut locked = Rig::new(subjects::locked_queue(), threads, obj.base);
    queue.warm();
    stack.warm();
    locked.warm();
    Prepared {
        floor_ns,
        obj,
        sim,
        sched,
        rigs: Rigs {
            queue,
            stack,
            locked,
        },
    }
}

/// The run's state: the span log and the output checks so far.
struct Run {
    log: SpanLog,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn judge(&mut self, verdict: Verdict) {
        self.attempted += verdict.ops;
        self.failed += verdict.failures();
    }

    /// One timed pass over a rig, with a `bench` span around it and one
    /// `lockfree` span per batch.
    fn pass<S: Subject>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        rig: &mut Rig<S>,
        pattern: Pattern,
        seconds: f64,
    ) -> Pass {
        let id = self.log.open(parent, "bench", name, Instant::now());
        let pass = rig.timed(pattern, seconds);
        for &(worker, from, to) in &pass.batches {
            self.log.add(id, "lockfree", "batch", worker, from, to);
        }
        self.log.close(id, Instant::now());
        pass
    }
}

/// Prints a timing the way every timing is reported — median, highest
/// percentile with ten samples beyond it, sample count — and returns the
/// value `estimate` makes of the samples, which is what the metric carries.
fn timing(name: &str, samples: &[f64], estimate: Estimate) -> f64 {
    let value = estimate.of(samples);
    println!("  {name:<34} {} -> {value:.2}", Summary::of(samples));
    value
}

/// How the locked structures' batches are read: a mutex shared by threads
/// is the one case the undisturbed estimate does not fit (see [`Estimate`]).
fn locked_estimate(threads: usize) -> Estimate {
    if threads == 1 {
        Estimate::Undisturbed
    } else {
        Estimate::SharedMean
    }
}

fn per(count: u64, ops: u64) -> f64 {
    count as f64 / ops.max(1) as f64
}

struct ObjOut {
    queue: Pass,
    stack: Pass,
    s_ns: f64,
    stack_ns: f64,
    r_ns: f64,
    s_p99_ns: f64,
    s_p999_ns: f64,
    locked_contended_ratio: f64,
}

/// The object phase: the queue's tail pass, then timed batches on the
/// queue (`s`), the stack and the locked queue (`r`).
fn object_phase(
    run: &mut Run,
    rigs: Rigs,
    floor_ns: u64,
    seconds: f64,
    locked: Estimate,
) -> ObjOut {
    let Rigs {
        mut queue,
        mut stack,
        locked: mut locked_queue,
    } = rigs;
    let phase = run.log.open(NO_SPAN, "bench", "phase.obj", Instant::now());
    // The tail pass and the three batch passes get a quarter each.
    let each = seconds / 4.0;

    let tail = queue.tail(floor_ns, each);
    for &(worker, from, to) in &tail.spans {
        run.log
            .add(phase, "lockfree", "queue.tail", worker, from, to);
    }
    run.attempted += tail.ops;
    let queue_pass = run.pass(phase, "obj.queue", &mut queue, Pattern::Pairs, each);
    let stack_pass = run.pass(phase, "obj.stack", &mut stack, Pattern::Pairs, each);
    let locked_pass = run.pass(
        phase,
        "obj.locked_queue",
        &mut locked_queue,
        Pattern::Pairs,
        each,
    );
    run.log.close(phase, Instant::now());

    let contended = locked_queue.subject().contended_acquisitions();
    run.judge(queue.finish("queue"));
    run.judge(stack.finish("stack"));
    let verdict = locked_queue.finish("locked_queue");
    let locked_contended_ratio = per(contended, verdict.ops);
    run.judge(verdict);

    let undisturbed = Estimate::Undisturbed;
    timing("queue op, p50 per block (ns)", &tail.p50, undisturbed);
    ObjOut {
        s_ns: timing("s_ns (queue, ns/op)", &queue_pass.ns_per_op, undisturbed),
        stack_ns: timing("stack_ns (ns/op)", &stack_pass.ns_per_op, undisturbed),
        r_ns: timing("r_ns (locked queue, ns/op)", &locked_pass.ns_per_op, locked),
        s_p99_ns: timing("s_p99_ns, per block (ns)", &tail.p99, undisturbed),
        s_p999_ns: timing("s_p999_ns, per block (ns)", &tail.p999, undisturbed),
        queue: queue_pass,
        stack: stack_pass,
        locked_contended_ratio,
    }
}

struct SimOut {
    uni_events_per_s: f64,
    mp_events_per_s: f64,
    by_pairing: [f64; 3],
    simulated: Simulated,
    extras: Option<simw::Extras>,
}

/// The simulator phase: the timed sweep, its checks, and (traced) the
/// extra passes.
fn sim_phase(run: &mut Run, inputs: &SimInputs, seconds: f64) -> SimOut {
    let phase = run.log.open(NO_SPAN, "bench", "phase.sim", Instant::now());
    let mut sweep = simw::sweep(inputs, seconds, &mut run.log, phase);
    let extras = run
        .log
        .enabled()
        .then(|| simw::extras(inputs, &mut run.log, phase));
    simw::verify(inputs, &mut sweep);
    run.log.close(phase, Instant::now());
    run.attempted += sweep.checks.attempted;
    run.failed += sweep.checks.failed;

    // Whole passes as they came, for the report; the metrics sum every
    // run's undisturbed time instead (`simw::sweep`).
    timing(
        "uniprocessor passes (events/s)",
        &sweep.uni_passes,
        Estimate::Median,
    );
    timing(
        "4-CPU passes (events/s)",
        &sweep.mp_passes,
        Estimate::Median,
    );
    println!(
        "  sim_uni_events_per_s {:.0}, by pairing {:.0?}",
        sweep.uni, sweep.uni_by_pairing
    );
    println!("  sim_mp_events_per_s {:.0}", sweep.mp);
    SimOut {
        uni_events_per_s: sweep.uni,
        mp_events_per_s: sweep.mp,
        by_pairing: sweep.uni_by_pairing,
        simulated: Simulated::of(&sweep.reference),
        extras,
    }
}

/// The two end-to-end scheduler cases.
const SCHED_CASES: [Case; 2] = [
    Case::lock_free("lf_n64", 64),
    Case::lock_based("lb_n64", 64),
];

/// The traced run's other cases, in the order `measure` reads them.
const SCHED_LAYER_CASES: [Case; 8] = [
    Case::lock_free("lf_n16", 16),
    Case::lock_free("lf_n256", 256),
    Case::lock_based("lb_n16", 16),
    Case::lock_based("lb_n256", 256),
    Case {
        name: "lb_tight_n64",
        algorithm: Algorithm::LockBased,
        n: 64,
        shape: Shape::TightChained(16),
    },
    Case {
        name: "edf_n64",
        algorithm: Algorithm::Edf,
        n: 64,
        shape: Shape::Independent,
    },
    Case {
        name: "lf_sampled_n64",
        algorithm: Algorithm::LockFreeSampled,
        n: 64,
        shape: Shape::Independent,
    },
    // Figure 8's lock-path population: ten jobs in one chain.
    Case {
        name: "lb_fig8_n10",
        algorithm: Algorithm::LockBased,
        n: 10,
        shape: Shape::Chained(10),
    },
];

/// Measures `cases` under one `bench` span; returns each case's
/// ns/invocation and its exact `ops`.
fn sched_phase(
    run: &mut Run,
    inputs: &SchedInputs,
    name: &'static str,
    cases: &[Case],
    seconds: f64,
) -> Vec<(f64, u64)> {
    let phase = run.log.open(NO_SPAN, "bench", name, Instant::now());
    let outs = sched::measure(inputs, cases, seconds);
    for out in &outs {
        for &(from, to) in &out.batches {
            run.log.add(phase, "core", "schedule.batch", 0, from, to);
        }
    }
    run.log.close(phase, Instant::now());
    cases
        .iter()
        .zip(outs)
        .map(|(case, out)| {
            run.attempted += out.invocations;
            run.failed += out.failed;
            let label = format!("sched {} (ns/invocation)", case.name);
            (timing(&label, &out.ns, Estimate::Undisturbed), out.ops)
        })
        .collect()
}

/// The traced run's pass over the structures no end-to-end metric covers.
struct Layers<'a> {
    run: &'a mut Run,
    values: &'a mut Values,
    phase: SpanId,
    threads: usize,
    base: u64,
    /// Seconds per structure.
    each: f64,
}

impl Layers<'_> {
    /// Timed batches of `pattern` on a fresh, warmed rig of `subject`; sets
    /// `metric` and hands back the pass and the rig for their counters.
    fn row<S: Subject>(
        &mut self,
        metric: &'static str,
        subject: S,
        pattern: Pattern,
        estimate: Estimate,
    ) -> (Pass, Rig<S>) {
        let mut rig = Rig::new(subject, self.threads, self.base);
        rig.warm();
        let pass = self
            .run
            .pass(self.phase, metric, &mut rig, pattern, self.each);
        self.values
            .set(metric, timing(metric, &pass.ns_per_op, estimate));
        (pass, rig)
    }

    /// [`Layers::row`] for a structure of which only the time is wanted.
    fn pairs<S: Subject>(&mut self, metric: &'static str, subject: S, estimate: Estimate) {
        let (_, rig) = self.row(metric, subject, Pattern::Pairs, estimate);
        self.run.judge(rig.finish(metric));
    }
}

fn layers_phase(
    run: &mut Run,
    values: &mut Values,
    inputs: &ObjInputs,
    plan: &Plan,
    floor_ns: u64,
) {
    let (free, lock) = (Estimate::Undisturbed, locked_estimate(plan.obj_threads));
    let phase = run
        .log
        .open(NO_SPAN, "bench", "phase.layers", Instant::now());
    let mut layers = Layers {
        run,
        values,
        phase,
        threads: plan.obj_threads,
        base: inputs.base,
        each: plan.layers / 12.0,
    };
    layers.pairs("lockfree.queue_boxed_ns", subjects::queue_boxed(), free);
    layers.pairs("lockfree.stack_boxed_ns", subjects::stack_boxed(), free);
    layers.pairs("lockfree.mpmc_ns", subjects::mpmc(), free);
    layers.pairs("lockfree.mpmc_sharded_ns", subjects::mpmc_sharded(), free);
    layers.pairs("lockfree.locked_stack_ns", subjects::locked_stack(), lock);

    let list = inputs.keyed_list(plan.obj_threads);
    let (pass, rig) = layers.row("lockfree.list_ns", list, Pattern::Pairs, free);
    layers
        .values
        .set("lockfree.list_retries_per_op", per(pass.retries, pass.ops));
    layers.run.judge(rig.finish("lockfree.list_ns"));

    let elim = subjects::stack_elim();
    let (_, rig) = layers.row("lockfree.stack_elim_ns", elim, Pattern::Pairs, free);
    let exchanger = rig.subject().elimination().expect("built with elimination");
    let (hits, misses) = (exchanger.hits(), exchanger.misses());
    layers
        .values
        .set("lockfree.elim_hit_ratio", per(hits, hits + misses));
    layers.run.judge(rig.finish("lockfree.stack_elim_ns"));

    let (_, rig) = layers.row(
        "lockfree.stack_burst_ns",
        subjects::stack(),
        Pattern::Burst,
        free,
    );
    layers.run.judge(rig.finish("lockfree.stack_burst_ns"));
    let (_, rig) = layers.row(
        "lockfree.queue_burst_ns",
        subjects::queue(),
        Pattern::Burst,
        free,
    );
    layers.run.judge(rig.finish("lockfree.queue_burst_ns"));
    let mut stack = Rig::new(subjects::stack(), layers.threads, layers.base);
    stack.warm();
    let tail = stack.tail(floor_ns, layers.each);
    for &(worker, from, to) in &tail.spans {
        let log = &mut layers.run.log;
        log.add(phase, "lockfree", "stack.tail", worker, from, to);
    }
    layers.run.attempted += tail.ops;
    layers.values.set(
        "lockfree.stack_p99_ns",
        timing("lockfree.stack_p99_ns", &tail.p99, free),
    );
    layers.run.judge(stack.finish("lockfree.stack_p99_ns"));

    let start = Instant::now();
    let (samples, verdict) = obj::spsc(layers.threads, layers.base, layers.each);
    let log = &mut layers.run.log;
    log.add(phase, "lockfree", "spsc", 0, start, Instant::now());
    layers.values.set(
        "lockfree.spsc_ns",
        timing("lockfree.spsc_ns", &samples, free),
    );
    layers.run.judge(verdict);
    layers.run.log.close(phase, Instant::now());
}

/// One full `paper_all`, as a researcher would run it. Returns seconds.
fn paper_all(run: &mut Run, binary: &Path, nproc: usize) -> f64 {
    let start = Instant::now();
    let status = Command::new(binary)
        .args(["--threads", &nproc.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    let end = Instant::now();
    run.log.add(NO_SPAN, "bench", "paper_all", 0, start, end);
    run.attempted += 1;
    if !status.is_ok_and(|status| status.success()) {
        run.failed += 1;
        eprintln!("FAILED bench: {} did not run to success", binary.display());
    }
    (end - start).as_secs_f64()
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .expect("the kernel reports VmHWM");
    let kib: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a number of kB");
    kib / 1024.0
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn main() -> ExitCode {
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(measure)
        .expect("spawn the measuring thread")
        .join()
        .expect("the measuring thread panicked")
}

fn measure() -> ExitCode {
    let origin = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("lfrt-benchmark: {message}");
            eprintln!(
                "usage: lfrt-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let plan = Plan::new(&args, nproc);
    assert!(
        !lfrt_trace::enabled(),
        "every timing is taken with the flight recorder off"
    );
    println!(
        "# lfrt-benchmark workload={} seed={} seconds={} trace={} nproc={nproc} \
         generator_threads={} git_rev={} recorder=off",
        args.workload_name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        plan.obj_threads,
        env_or("LFRT_BENCH_GIT_REV", "unknown"),
    );

    // Set-up, several times over; the last one's products are measured.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        prepared = Some(prepare(args.seed, plan.obj_threads));
        setups.push((start, Instant::now()));
    }
    let prepared = prepared.expect("set-up ran at least once");
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|(from, to)| (*to - *from).as_secs_f64())
        .collect();

    let mut run = Run {
        log: SpanLog::new(origin, args.traced),
        attempted: 0,
        failed: 0,
    };
    let &(from, to) = setups.last().expect("set-up ran at least once");
    let setup = run.log.add(NO_SPAN, "bench", "setup", 0, from, to);
    for &(from, to) in &prepared.sim.builds {
        run.log
            .add(setup, "uam", "workload_spec.build", 0, from, to);
    }
    let build_ns: f64 = prepared
        .sim
        .builds
        .iter()
        .map(|(from, to)| (*to - *from).as_nanos() as f64)
        .sum();
    let build_ns_per_arrival = build_ns / prepared.sim.arrivals() as f64;
    let Prepared {
        floor_ns,
        obj: obj_inputs,
        sim: sim_inputs,
        sched: sched_inputs,
        rigs,
    } = prepared;

    println!("timings: median, highest percentile with >= 10 samples beyond it, sample count");
    let setup_s = timing("setup_s", &setup_s, Estimate::Median);
    let obj = object_phase(
        &mut run,
        rigs,
        floor_ns,
        plan.obj,
        locked_estimate(plan.obj_threads),
    );
    let sim = sim_phase(&mut run, &sim_inputs, plan.sim);
    let sched = sched_phase(
        &mut run,
        &sched_inputs,
        "phase.sched",
        &SCHED_CASES,
        plan.sched,
    );
    let ((sched_lf_ns, lf_ops), (sched_lb_ns, lb_ops)) = (sched[0], sched[1]);
    assert!(
        !lfrt_trace::enabled(),
        "a phase left the flight recorder on"
    );

    let mut values = Values::default();
    if !args.traced {
        values.set("setup_s", setup_s);
        values.set("s_ns", obj.s_ns);
        values.set("s_p99_ns", obj.s_p99_ns);
        values.set("stack_ns", obj.stack_ns);
        values.set("r_ns", obj.r_ns);
        values.set("sim_uni_events_per_s", sim.uni_events_per_s);
        values.set("sim_mp_events_per_s", sim.mp_events_per_s);
        values.set("sched_lf_ns", sched_lf_ns);
        values.set("sched_lb_ns", sched_lb_ns);
        values.print_table(END_TO_END);
        println!(
            "{}",
            values.result_line(END_TO_END, run.attempted, run.failed)
        );
        return ExitCode::SUCCESS;
    }

    layers_phase(&mut run, &mut values, &obj_inputs, &plan, floor_ns);
    let cases = sched_phase(
        &mut run,
        &sched_inputs,
        "phase.sched_cases",
        &SCHED_LAYER_CASES,
        plan.sched_cases,
    );
    let ledger_start = Instant::now();
    let ledger = ledger::Ledger::measure(plan.ledger);
    run.log.add(
        NO_SPAN,
        "bench",
        "phase.ledger",
        0,
        ledger_start,
        Instant::now(),
    );
    let paper_all_s = paper_all(
        &mut run,
        Path::new(&env_or("LFRT_BENCH_PAPER_ALL", "target/release/paper_all")),
        nproc,
    );

    let v = &mut values;
    v.set("ledger.bare_cas_ns", ledger.bare_cas_ns);
    v.set("ledger.tolls_sum_ns", ledger.tolls_sum_ns());
    v.set(
        "ledger.unaccounted_ns",
        obj.stack_ns - ledger.bare_cas_ns - ledger.tolls_sum_ns(),
    );
    v.set("epoch.pin_ns", ledger.pin_ns);
    v.set("epoch.pin_nested_ns", ledger.pin_nested_ns);
    v.set(
        "epoch.retired_per_op",
        per(obj.stack.retired, obj.stack.ops),
    );
    v.set("epoch.backlog_peak", obj.stack.backlog_peak as f64);
    v.set("stats.attempt_ns", ledger.attempt_ns);
    v.set("stats.snapshot_ns", ledger.snapshot_ns);
    let pool = obj.stack.pool;
    v.set("pool.hit_ratio", per(pool.hits, pool.hits + pool.misses));
    v.set("pool.misses_per_op", per(pool.misses, obj.stack.ops));
    v.set("pool.spills_per_kop", 1e3 * per(pool.spills, obj.stack.ops));
    v.set(
        "pool.refills_per_kop",
        1e3 * per(pool.refills, obj.stack.ops),
    );
    v.set("pool.allocs_per_op", per(obj.stack.allocs, obj.stack.ops));
    v.set(
        "pool.pooled_minus_boxed_ns",
        obj.stack_ns - v.get("lockfree.stack_boxed_ns"),
    );
    v.set("trace.flag_check_ns", ledger.flag_check_ns);
    v.set("trace.casop_off_ns", ledger.casop_off_ns);
    v.set("trace.emit_on_ns", ledger.emit_on_ns);
    v.set("trace.now_ns", ledger.now_ns);
    v.set("trace.stack_on_over_off", ledger.stack_on_over_off);
    v.set("lockfree.stack_batch_ns", ledger.stack_batch_ns);
    v.set("lockfree.s_p999_ns", obj.s_p999_ns);
    v.set(
        "lockfree.queue_retries_per_op",
        per(obj.queue.retries, obj.queue.ops),
    );
    v.set(
        "lockfree.stack_retries_per_op",
        per(obj.stack.retries, obj.stack.ops),
    );
    v.set(
        "lockfree.success_per_attempt",
        per(obj.queue.attempts - obj.queue.retries, obj.queue.attempts),
    );
    v.set(
        "lockfree.locked_contended_ratio",
        obj.locked_contended_ratio,
    );

    let extras = sim.extras.expect("the traced run measures the extras");
    v.set("sim.uni_lf_events_per_s", sim.by_pairing[0]);
    v.set("sim.uni_lb_events_per_s", sim.by_pairing[1]);
    v.set("sim.uni_edf_events_per_s", sim.by_pairing[2]);
    v.set("sim.engine_self_share", extras.engine_self_share);
    v.set("sim.mp1_over_uni", extras.mp1_over_uni);
    v.set("sim.record_jobs_over_off", extras.record_jobs_over_off);
    v.set("sim.tracelog_over_off", extras.tracelog_over_off);
    v.set("sim.events_total", sim.simulated.events_total as f64);
    v.set("sim.aur_lf", sim.simulated.aur_lf);
    v.set("sim.aur_lb", sim.simulated.aur_lb);
    v.set("sim.cmr_lf", sim.simulated.cmr_lf);
    v.set("sim.cmr_lb", sim.simulated.cmr_lb);
    v.set("sim.retries_total", sim.simulated.retries_total as f64);
    v.set("sim.blockings_total", sim.simulated.blockings_total as f64);
    v.set("core.sched_share", extras.sched_share);
    v.set(
        "core.insitu_ns_per_invocation",
        extras.insitu_ns_per_invocation,
    );
    v.set(
        "core.ops_per_invocation",
        per(sim.simulated.sched_ops_total, sim.simulated.events_total),
    );

    let ns = |index: usize| cases[index].0;
    v.set("core.lf_ns_n16", ns(0));
    v.set("core.lf_ns_n256", ns(1));
    v.set("core.lb_ns_n16", ns(2));
    v.set("core.lb_ns_n256", ns(3));
    v.set("core.lb_tight_ns_n64", ns(4));
    v.set("core.edf_ns_n64", ns(5));
    v.set("core.lf_sampled_ns_n64", ns(6));
    v.set("core.lf_ops_n64", lf_ops as f64);
    v.set("core.lb_ops_n64", lb_ops as f64);
    // Log-log slope of cost against n between n = 16 and n = 256.
    v.set("core.lf_exponent", (ns(1) / ns(0)).ln() / 16f64.ln());
    v.set("core.lb_exponent", (ns(3) / ns(2)).ln() / 16f64.ln());
    v.set("core.lb_over_lf_n64", sched_lb_ns / sched_lf_ns);
    v.set("uam.build_ns_per_arrival", build_ns_per_arrival);
    v.set("tuf.utility_ns", ledger.tuf_utility_ns);

    v.set("bench.paper_all_s", paper_all_s);
    v.set(
        "bench.build_s",
        env_or("LFRT_BENCH_BUILD_S", "0").parse().unwrap_or(0.0),
    );
    v.set("bench.clock_floor_ns", floor_ns as f64);
    v.set("bench.trace_overhead_ratio", extras.spans_over_off);
    v.set("bench.peak_rss_mb", peak_rss_mib());
    v.set("bench.nproc", nproc as f64);
    v.set("bench.generator_threads", plan.obj_threads as f64);
    // Figure 8 charges a lock-based access the lock operation plus the two
    // scheduler activations (lock and unlock request) it triggers.
    let r_fig8_ns = obj.r_ns + 2.0 * ns(7);
    v.set("paper.r_fig8_ns", r_fig8_ns);
    v.set("paper.s_over_r_object", obj.s_ns / obj.r_ns);
    v.set("paper.s_over_r_fig8", obj.s_ns / r_fig8_ns);

    println!("per-layer self time (ms), from the spans:");
    for (layer, self_ns) in run.log.layer_self_ns() {
        println!("  {layer:<10} {:.1}", self_ns as f64 / 1e6);
    }
    let trace_file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", args.workload_name()));
    if let Err(error) = run
        .log
        .write_jsonl(&trace_file, args.workload_name(), args.seed)
    {
        eprintln!(
            "lfrt-benchmark: cannot write {}: {error}",
            trace_file.display()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{} spans written to {}",
        run.log.spans().len(),
        trace_file.display()
    );
    values.print_table(PER_LAYER);
    println!(
        "{}",
        values.result_line(PER_LAYER, run.attempted, run.failed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Result<Args, String> {
        Args::parse(raw.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn arguments_are_the_drivers() {
        let args = parse(&[
            "--workload",
            "sim_sweep",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(args.workload, Workload::SimSweep);
        assert_eq!(args.workload_name(), "sim_sweep");
        assert_eq!((args.seed, args.seconds, args.traced), (7, 20.0, true));
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "7",
                "--seconds",
                "20",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "sim_sweep",
                "--seed",
                "-1",
                "--seconds",
                "20",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "sim_sweep",
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "sim_sweep",
                "--seed",
                "7",
                "--seconds",
                "20",
                "--trace",
                "2",
            ],
            &["--workload", "sim_sweep", "--seed", "7", "--seconds", "20"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_workload_name_parses_to_its_own_variant() {
        for (index, name) in WORKLOADS.iter().enumerate() {
            let args = parse(&[
                "--workload",
                name,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .expect("declared workload");
            assert_eq!(args.workload as usize, index);
        }
    }

    #[test]
    fn plans_spend_the_stated_seconds_and_favour_the_workloads_phase() {
        for name in WORKLOADS {
            for traced in ["0", "1"] {
                let args = parse(&[
                    "--workload",
                    name,
                    "--seed",
                    "1",
                    "--seconds",
                    "20",
                    "--trace",
                    traced,
                ])
                .expect("valid");
                let plan = Plan::new(&args, 2);
                let total =
                    plan.obj + plan.sim + plan.sched + plan.layers + plan.ledger + plan.sched_cases;
                assert!(
                    (total - 20.0).abs() < 1e-9,
                    "{name} trace {traced}: {total}"
                );
                let focus = match args.workload {
                    Workload::ObjUncontended | Workload::ObjContended => plan.obj,
                    Workload::SimSweep => plan.sim,
                    Workload::SchedScaling => plan.sched,
                };
                assert!(focus > plan.obj.min(plan.sim).min(plan.sched));
                assert_eq!(
                    plan.obj_threads > 1,
                    args.workload == Workload::ObjContended
                );
            }
        }
    }
}
