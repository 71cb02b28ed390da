//! The `lfrt` subcommands, written as pure functions from parsed arguments
//! (plus stdin text where applicable) to output text, so they are directly
//! unit-testable.

use std::io::BufRead;

use lfrt_analysis::admission::{admit as run_admission, AdmissionTask, Discipline};
use lfrt_analysis::RetryBoundInput;
use lfrt_core::{Edf, EdfPi, Lbesa, Llf, Rm, RuaLockBased, RuaLockFree};
use lfrt_json::Args;
use lfrt_sim::mp::MpEngine;
use lfrt_sim::workload::{ArrivalStyle, TufClass, WorkloadSpec};
use lfrt_sim::{sojourn_percentiles, SharingMode, SimConfig, SimOutcome, TaskSpec};
use lfrt_uam::{ArrivalTrace, TraceStats, Uam};

fn spec_from(args: &Args) -> WorkloadSpec {
    WorkloadSpec {
        num_tasks: args.get_u64("tasks", 10) as usize,
        num_objects: args.get_u64("objects", 10) as usize,
        accesses_per_job: args.get_u64("accesses", 4) as usize,
        tuf_class: match args.get_str("tufs", "step").as_str() {
            "hetero" | "heterogeneous" => TufClass::Heterogeneous,
            _ => TufClass::Step,
        },
        target_load: args.get_f64("load", 0.6),
        window_range: (args.get_u64("wmin", 6_000), args.get_u64("wmax", 18_000)),
        max_burst: args.get_u64("burst", 2) as u32,
        critical_time_frac: args.get_f64("cfrac", 0.9),
        arrival_style: ArrivalStyle::RandomUam {
            intensity: args.get_f64("intensity", 3.0),
        },
        horizon: args.get_u64("horizon", 500_000),
        read_fraction: args.get_f64("reads", 0.0),
        seed: args.get_u64("seed", 1),
    }
}

/// `lfrt workload` — run a workload and report the metrics.
pub fn workload(args: &Args) -> Result<String, String> {
    let spec = spec_from(args);
    let (tasks, traces) = spec.build().map_err(|e| e.to_string())?;
    let sharing = match args.get_str("sharing", "lockfree").as_str() {
        "lockfree" => SharingMode::LockFree {
            access_ticks: args.get_u64("s", 10),
        },
        "lockbased" => SharingMode::LockBased {
            access_ticks: args.get_u64("r", 400),
        },
        "ideal" => SharingMode::Ideal,
        other => return Err(format!("unknown sharing mode {other:?}")),
    };
    let want_gantt = args.get_str("gantt", "false") == "true";
    let config = SimConfig::new(sharing).trace(want_gantt);
    let cpus = args.get_u64("cpus", 1) as usize;
    let scheduler_name = args.get_str("scheduler", "rua");
    let outcome = dispatch_run(tasks, traces, config, cpus, &scheduler_name)?;
    let mut out = render_metrics(&scheduler_name, sharing, &outcome);
    if want_gantt {
        out.push('\n');
        out.push_str(&outcome.trace.render_gantt(72));
    }
    Ok(out)
}

fn dispatch_run(
    tasks: Vec<TaskSpec>,
    traces: Vec<ArrivalTrace>,
    config: SimConfig,
    cpus: usize,
    scheduler: &str,
) -> Result<SimOutcome, String> {
    let engine = MpEngine::new(tasks, traces, config, cpus).map_err(|e| e.to_string())?;
    Ok(match scheduler {
        "rua" | "rua-lockfree" => engine.run(RuaLockFree::new()),
        "rua-lockbased" => engine.run(RuaLockBased::new()),
        "edf" => engine.run(Edf::new()),
        "edf-pi" => engine.run(EdfPi::new()),
        "rm" => engine.run(Rm::new()),
        "llf" => engine.run(Llf::new()),
        "lbesa" => engine.run(Lbesa::new()),
        other => return Err(format!("unknown scheduler {other:?}")),
    })
}

fn render_metrics(scheduler: &str, sharing: SharingMode, outcome: &SimOutcome) -> String {
    let m = &outcome.metrics;
    let mut out = String::new();
    out.push_str(&format!("scheduler {scheduler}, sharing {sharing:?}\n"));
    out.push_str(&format!(
        "released {}  completed {}  aborted {}\n",
        m.released(),
        m.completed(),
        m.aborted()
    ));
    out.push_str(&format!("AUR {:.3}  CMR {:.3}\n", m.aur(), m.cmr()));
    out.push_str(&format!(
        "retries {}  blockings {}  preemptions {}  scheduler invocations {}\n",
        m.retries(),
        m.blockings(),
        m.preemptions(),
        m.sched_invocations
    ));
    if let Some(p) = sojourn_percentiles(&outcome.records) {
        out.push_str(&format!(
            "sojourn p50 {}  p90 {}  p99 {}  max {} (over {} completions)\n",
            p.p50, p.p90, p.p99, p.max, p.n
        ));
    }
    out
}

/// `lfrt admit` — admission-test the generated task set.
pub fn admit(args: &Args) -> Result<String, String> {
    let spec = spec_from(args);
    let (tasks, _) = spec.build().map_err(|e| e.to_string())?;
    let s = args.get_u64("s", 20);
    let admission: Vec<AdmissionTask> = tasks
        .iter()
        .map(|t| AdmissionTask {
            uam: *t.uam(),
            critical_time: t.tuf().critical_time(),
            compute: t.compute_ticks(),
            accesses: t.access_count() as u64,
        })
        .collect();
    let report = run_admission(&admission, Discipline::LockFree { access_ticks: s });
    let mut out = String::new();
    for (task, verdict) in tasks.iter().zip(&report.per_task) {
        out.push_str(&format!(
            "{:<8} worst {:>9} of {:>9} budget — {}\n",
            task.name(),
            verdict.worst_sojourn,
            verdict.critical_time,
            if verdict.admitted {
                "admitted"
            } else {
                "REJECTED"
            }
        ));
    }
    out.push_str(&format!(
        "verdict: {}\n",
        if report.all_admitted() {
            "all admitted"
        } else {
            "not schedulable in the worst case"
        }
    ));
    Ok(out)
}

/// `lfrt bound` — the Theorem 2 calculator.
pub fn bound(args: &Args) -> Result<String, String> {
    let critical = args.get_u64("critical", 0);
    if critical == 0 {
        return Err("--critical is required".into());
    }
    let others = parse_others(&args.get_str("others", ""))?;
    let input = RetryBoundInput {
        own_max_arrivals: args.get_u64("a", 1) as u32,
        critical_time: critical,
        others,
    };
    Ok(format!(
        "x = {}\nretry bound f ≤ {}\n",
        input.interference_x(),
        input.retry_bound()
    ))
}

/// Parses `a:w,a:w,...` into UAMs.
pub fn parse_others(text: &str) -> Result<Vec<Uam>, String> {
    let mut out = Vec::new();
    for part in text.split(',').filter(|p| !p.trim().is_empty()) {
        let (a, w) = part
            .split_once(':')
            .ok_or_else(|| format!("expected a:w, got {part:?}"))?;
        let a: u32 = a
            .trim()
            .parse()
            .map_err(|_| format!("bad burst in {part:?}"))?;
        let w: u64 = w
            .trim()
            .parse()
            .map_err(|_| format!("bad window in {part:?}"))?;
        out.push(Uam::new(1, a.max(1), w).map_err(|e| e.to_string())?);
    }
    Ok(out)
}

/// `lfrt fit` — UAM model identification from an arrival trace on stdin.
pub fn fit(args: &Args, input: &str) -> Result<String, String> {
    let trace = ArrivalTrace::read_csv(input.as_bytes()).map_err(|e| e.to_string())?;
    let window = args.get_u64("window", 10_000);
    let horizon = args.get_u64("horizon", trace.times().last().map_or(0, |&t| t + 1));
    let fitted = Uam::fit(&trace, window, horizon).ok_or("empty trace or zero window")?;
    let stats = TraceStats::of(&trace).ok_or("empty trace")?;
    Ok(format!(
        "arrivals {}  span {}..{}\ngaps: min {} mean {:.1} max {}\nfitted ⟨l={}, a={}, W={}⟩\npeak window occupancy {:.2}\n",
        stats.count,
        stats.first,
        stats.last,
        stats.min_gap,
        stats.mean_gap,
        stats.max_gap,
        fitted.min_arrivals(),
        fitted.max_arrivals(),
        fitted.window(),
        TraceStats::peak_window_occupancy(&trace, &fitted),
    ))
}

/// `lfrt summary` — summarize a job-record CSV.
pub fn summary<R: BufRead>(reader: &mut R) -> Result<String, String> {
    let records = lfrt_sim::csv::read_records(reader).map_err(|e| e.to_string())?;
    if records.is_empty() {
        return Ok("no records\n".into());
    }
    let completed = records.iter().filter(|r| r.completed).count();
    let utility: f64 = records.iter().map(|r| r.utility).sum();
    let retries: u64 = records.iter().map(|r| r.retries).sum();
    let blockings: u64 = records.iter().map(|r| r.blockings).sum();
    let mut out = format!(
        "records {}  completed {}  aborted {}\ntotal utility {utility:.2}  retries {retries}  blockings {blockings}\n",
        records.len(),
        completed,
        records.len() - completed,
    );
    if let Some(p) = sojourn_percentiles(&records) {
        out.push_str(&format!(
            "sojourn p50 {}  p90 {}  p99 {}  max {}\n",
            p.p50, p.p90, p.p99, p.max
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(pairs: &[(&str, &str)]) -> Args {
        let raw: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Args::parse(raw)
    }

    #[test]
    fn parse_others_accepts_lists() {
        let uams = parse_others("2:1000, 1:500").expect("valid");
        assert_eq!(uams.len(), 2);
        assert_eq!(uams[0].max_arrivals(), 2);
        assert_eq!(uams[1].window(), 500);
        assert!(parse_others("").expect("empty ok").is_empty());
        assert!(parse_others("nonsense").is_err());
        assert!(parse_others("1:0").is_err(), "zero window rejected");
    }

    #[test]
    fn bound_command_computes_theorem2() {
        let out = bound(&args(&[
            ("critical", "1000"),
            ("a", "1"),
            ("others", "2:500"),
        ]))
        .expect("valid");
        // x = 2·(⌈1000/500⌉+1) = 6; bound = 3 + 12 = 15.
        assert!(out.contains("x = 6"), "{out}");
        assert!(out.contains("≤ 15"), "{out}");
        assert!(bound(&args(&[("a", "1")])).is_err(), "critical required");
    }

    #[test]
    fn workload_command_runs_and_reports() {
        let out = workload(&args(&[
            ("tasks", "4"),
            ("objects", "2"),
            ("load", "0.3"),
            ("horizon", "100000"),
            ("scheduler", "rua"),
        ]))
        .expect("valid run");
        assert!(out.contains("AUR"), "{out}");
        assert!(out.contains("released"), "{out}");
    }

    #[test]
    fn workload_command_multiprocessor_and_gantt() {
        let out = workload(&args(&[
            ("tasks", "3"),
            ("load", "0.3"),
            ("horizon", "50000"),
            ("cpus", "2"),
            ("gantt", "true"),
        ]))
        .expect("valid run");
        assert!(out.contains('|'), "gantt rows expected: {out}");
    }

    #[test]
    fn workload_rejects_unknown_inputs() {
        assert!(workload(&args(&[("scheduler", "what")])).is_err());
        assert!(workload(&args(&[("sharing", "what")])).is_err());
    }

    #[test]
    fn workload_rejects_zero_cpus() {
        let err = workload(&args(&[("cpus", "0")])).expect_err("no processor to run on");
        assert!(err.contains("at least one processor"), "{err}");
    }

    #[test]
    fn admit_command_reports_verdicts() {
        let out = admit(&args(&[
            ("tasks", "3"),
            ("load", "0.05"),
            ("wmin", "50000"),
            ("wmax", "90000"),
        ]))
        .expect("valid");
        assert!(out.contains("admitted"), "{out}");
    }

    #[test]
    fn fit_command_identifies_model() {
        let trace = "0\n100\n100\n8000\n8100\n";
        let out = fit(&args(&[("window", "8000"), ("horizon", "16000")]), trace).expect("valid");
        assert!(out.contains("a=3") || out.contains("a=2"), "{out}");
        assert!(fit(&args(&[]), "garbage\n").is_err());
    }

    #[test]
    fn summary_command_round_trips_records() {
        let csv = "job,task,arrival,resolved_at,completed,utility,retries,blockings,preemptions\n\
                   0,0,0,100,true,5,1,0,0\n1,0,50,400,false,0,2,1,0\n";
        let out = summary(&mut csv.as_bytes()).expect("valid");
        assert!(out.contains("records 2"), "{out}");
        assert!(out.contains("completed 1"), "{out}");
        assert!(out.contains("retries 3"), "{out}");
    }
}
