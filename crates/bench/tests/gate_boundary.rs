//! Boundary tests for the `compare_reports` perf gate: each case decides
//! whether a red X appears on a PR, so each drives the real binary (from the
//! repository root, against the real `BENCHMARK.json`) and asserts on exit
//! code *and* message. Workload and metric names, directions and bounds are
//! read from `BENCHMARK.json` here too; the only names spelled out are the
//! ones a case is about.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use lfrt_bench::gate::Contract;
use lfrt_bench::json::{self, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn contract() -> Contract {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read");
    Contract::from_json(&json::parse(&text).expect("BENCHMARK.json parses")).expect("contract")
}

/// Three runs per workload of `side`, every metric at `value(workload,
/// metric)`, printed the way the program prints its result line.
fn runs(side: &str, value: impl Fn(&str, &str) -> &'static str) -> String {
    let contract = contract();
    let mut text = String::new();
    for workload in &contract.workloads {
        let metric = |name| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"u\"}}",
                value(workload, name)
            )
        };
        let metrics: Vec<String> = contract.metrics.iter().map(|m| metric(&m.name)).collect();
        let record = format!(
            "{{\"workload\": \"{workload}\", \"side\": \"{side}\", \"rev\": \"{side}-rev\", \"result\": \
             {{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {{{}}}}}}}\n",
            metrics.join(", ")
        );
        text += &record.repeat(3);
    }
    text
}

/// Every metric reads 100.
fn flat(side: &str) -> String {
    runs(side, |_, _| "100")
}

/// `metric` under `workload` reads `value`, everything else 100.
fn child_with(workload: &'static str, metric: &'static str, value: &'static str) -> String {
    runs("child", move |w, m| {
        if (w, m) == (workload, metric) {
            value
        } else {
            "100"
        }
    })
}

fn gate(tag: &str, parent: &str, child: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("lfrt-gate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (parent_path, child_path) = (dir.join("parent.jsonl"), dir.join("child.jsonl"));
    std::fs::write(&parent_path, parent).expect("write parent runs");
    std::fs::write(&child_path, child).expect("write child runs");
    let out = Command::new(env!("CARGO_BIN_EXE_compare_reports"))
        .current_dir(repo_root())
        .args([&parent_path, &child_path])
        .output()
        .expect("run compare_reports");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_stderr(out: &Output, needle: &str) {
    assert!(stderr(out).contains(needle), "{}", stderr(out));
}

fn assert_passes(out: &Output) {
    assert!(out.status.success(), "{}", stderr(out));
    assert!(stdout(out).contains("PASS: no end-to-end metric"));
    assert!(!stdout(out).contains("REGRESSED"), "{}", stdout(out));
}

fn assert_fails_naming(out: &Output, workload: &str, metric: &str) {
    assert_eq!(out.status.code(), Some(1), "{}", stdout(out));
    assert_stderr(out, &format!("FAIL: {workload} {metric}:"));
    assert!(!stdout(out).contains("PASS"), "{}", stdout(out));
}

#[test]
fn exactly_at_the_bound_passes_and_just_past_it_fails() {
    // `s_ns` is lower-is-better with bound 0.2.
    let child = child_with("obj_uncontended", "s_ns", "120");
    assert_passes(&gate("at-bound", &flat("parent"), &child));
    let child = child_with("obj_uncontended", "s_ns", "120.0001");
    let out = gate("past-bound", &flat("parent"), &child);
    assert_fails_naming(&out, "obj_uncontended", "s_ns");
    assert!(stdout(&out).contains("REGRESSED"), "{}", stdout(&out));
}

#[test]
fn median_past_the_bound_fails_only_if_every_child_run_is_worse() {
    // Child medians 30 % worse (`s_ns` bound 0.2, events/s bound 0.15), but
    // one of the three child runs reads what the parent reads, as one binary
    // does on a loud host: exit 0, and the row says so instead of "ok".
    for (workload, metric, worse, hair_worse) in [
        ("obj_uncontended", "s_ns", "130", "100.01"),
        ("sim_sweep", "sim_mp_events_per_s", "70", "99.99"),
    ] {
        let at = |value: &str| format!("\"{metric}\": {{\"value\": {value},");
        let child = child_with(workload, metric, worse);
        let overlapping = child.replacen(&at(worse), &at("100"), 1);
        let out = gate(&format!("overlap-{metric}"), &flat("parent"), &overlapping);
        assert!(out.status.success(), "{}", stderr(&out));
        let table = stdout(&out);
        let row = format!("{workload:<16} {metric:<21}");
        let row = table.lines().find(|line| line.starts_with(&row));
        assert_eq!(row.map(|row| row.ends_with(" UNRESOLVED")), Some(true));
        assert!(table.contains("in every run; 1 UNRESOLVED"), "{table}");
        // The child's best run a hair worse than the parent's: no overlap.
        let apart = child.replacen(&at(worse), &at(hair_worse), 1);
        let out = gate(&format!("apart-{metric}"), &flat("parent"), &apart);
        assert_fails_naming(&out, workload, metric);
    }
}

#[test]
fn direction_is_read_from_benchmark_json() {
    // events/s is higher-is-better with bound 0.15: 20 % fewer fails, 20 %
    // more passes. (The old comparator knew only lower-is-better.)
    let child = child_with("sim_sweep", "sim_uni_events_per_s", "80");
    let out = gate("fewer-events", &flat("parent"), &child);
    assert_fails_naming(&out, "sim_sweep", "sim_uni_events_per_s");
    let child = child_with("sim_sweep", "sim_mp_events_per_s", "120");
    assert_passes(&gate("more-events", &flat("parent"), &child));
}

/// Every metric of the child `good` or `bad` by a factor of two or more.
fn everywhere(bad: bool) -> String {
    let higher = contract()
        .metrics
        .into_iter()
        .filter(|m| m.higher_is_better);
    let higher: Vec<String> = higher.map(|m| m.name).collect();
    runs("child", move |_, m| {
        if higher.iter().any(|h| h == m) == bad {
            "50"
        } else {
            "200"
        }
    })
}

#[test]
fn improvement_only_child_passes() {
    assert_passes(&gate("improvement", &flat("parent"), &everywhere(false)));
}

#[test]
fn across_the_board_2x_child_fails_every_row() {
    let out = gate("2x", &flat("parent"), &everywhere(true));
    assert_eq!(out.status.code(), Some(1));
    let rows = contract().workloads.len() * contract().metrics.len();
    assert_eq!(stderr(&out).matches("FAIL:").count(), rows);
    assert_eq!(stdout(&out).matches("REGRESSED").count(), rows);
}

#[test]
fn missing_metric_fails_on_either_side() {
    let without_r_ns = |side| flat(side).replace("\"r_ns\"", "\"gone\"");
    let out = gate("missing-child", &flat("parent"), &without_r_ns("child"));
    assert_fails_naming(&out, "obj_contended", "r_ns");
    assert_stderr(&out, "child is missing");
    let out = gate("missing-parent", &without_r_ns("parent"), &flat("child"));
    assert_fails_naming(&out, "obj_contended", "r_ns");
    assert_stderr(&out, "parent is missing");
}

#[test]
fn non_finite_metric_fails_instead_of_passing_a_strict_comparison() {
    // `NaN > bound` is false, so the old gate waved a poisoned report
    // through. `NaN` and `inf` are what the program's `{}` prints, 1e999
    // parses to infinity, null is what `lfrt-json` writes for either.
    for value in ["NaN", "inf", "-inf", "1e999", "null"] {
        let child = child_with("sched_scaling", "sched_lf_ns", value);
        let out = gate(&format!("child-{value}"), &flat("parent"), &child);
        assert_fails_naming(&out, "sched_scaling", "sched_lf_ns");
    }
    let parent = runs("parent", |_, m| if m == "setup_s" { "NaN" } else { "100" });
    let out = gate("nan-parent", &parent, &flat("child"));
    assert_fails_naming(&out, "sim_sweep", "setup_s");
}

#[test]
fn run_without_a_result_line_or_with_failed_checks_fails_by_itself() {
    let (contract, good) = (contract(), flat("child"));
    // The program died before printing: every metric of that workload is
    // absent from a run, and each is named.
    let first = &contract.workloads[0];
    let died = format!(
        "{{\"workload\": \"{first}\", \"side\": \"child\", \"rev\": \"r\", \"result\": null}}\n"
    );
    let out = gate("no-result-line", &flat("parent"), &(died + &good));
    for metric in &contract.metrics {
        assert_fails_naming(&out, first, &metric.name);
    }
    // Identical timings, but one run's own checks failed.
    for (from, to) in [
        ("\"correct\": true", "\"correct\": false"),
        ("\"failed\": 0", "\"failed\": 3"),
    ] {
        let bad = good.replacen(from, to, 1);
        let out = gate(&to.replace('"', ""), &flat("parent"), &bad);
        assert_eq!(out.status.code(), Some(1), "{to}");
        let why = format!("FAIL: {first}: a child run failed its own checks");
        assert_stderr(&out, &why);
    }
    // A workload with no run at all on one side.
    let last = contract.workloads.last().expect("a workload");
    let kept = good.lines().filter(|l| !l.contains(last.as_str()));
    let kept: Vec<&str> = kept.collect();
    let out = gate("no-run", &flat("parent"), &kept.join("\n"));
    assert_fails_naming(&out, last, "s_ns");
    assert_stderr(&out, "child has no run");
}

#[test]
fn zero_to_zero_passes_but_zero_to_nonzero_fails() {
    let zero_r_ns = |side| runs(side, |_, m| if m == "r_ns" { "0" } else { "100" });
    let out = gate("zero-zero", &zero_r_ns("parent"), &zero_r_ns("child"));
    assert_passes(&out);
    let out = gate("zero-one", &zero_r_ns("parent"), &flat("child"));
    assert_fails_naming(&out, "obj_uncontended", "r_ns");
}

#[test]
fn empty_swapped_or_undeclared_input_aborts_loudly() {
    let out = gate("empty", &flat("parent"), "\n");
    assert!(!out.status.success(), "a vacuous gate must not pass");
    assert_stderr(&out, "child runs: no record");
    // Parent and child paths swapped: a regression would read as a gain.
    let out = gate("swapped", &flat("child"), &flat("parent"));
    assert!(!out.status.success());
    assert_stderr(&out, "not a record of the parent side");
    let child = flat("child").replace("\"sim_sweep\"", "\"sim_swept\"");
    let out = gate("undeclared", &flat("parent"), &child);
    assert_eq!(out.status.code(), Some(1));
    assert_stderr(&out, "FAIL: sim_swept: a child run of a workload");
}

#[test]
fn judges_exactly_benchmark_json_and_ends_with_one_history_line_per_workload() {
    let contract = contract();
    let out = gate("contract", &flat("parent"), &runs("child", |_, _| "101.5"));
    assert_passes(&out);
    let text = stdout(&out);
    // The table: exactly `workloads` × `end_to_end`, in file order.
    let first_two = |line: &str| {
        line.split_whitespace()
            .take(2)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let judged = text.lines().filter(|line| line.ends_with(" ok"));
    let judged: Vec<String> = judged.map(first_two).collect();
    let metric_names: Vec<&str> = contract.metrics.iter().map(|m| m.name.as_str()).collect();
    let declared: Vec<String> = contract
        .workloads
        .iter()
        .flat_map(|w| metric_names.iter().map(move |m| format!("{w} {m}")))
        .collect();
    assert_eq!(judged, declared);
    // The trajectory: the last lines are one JSON object per workload with
    // every child median, so `| grep '^{' >> BENCH_history.jsonl` is enough.
    let lines: Vec<&str> = text.lines().collect();
    let history = &lines[lines.len() - contract.workloads.len()..];
    assert_eq!(
        lines.iter().filter(|l| l.starts_with('{')).count(),
        history.len()
    );
    let history = history
        .iter()
        .map(|line| json::parse(line).expect("a history line is JSON"));
    for (line, workload) in history.zip(&contract.workloads) {
        let text = |key| line.get(key).and_then(Json::as_str);
        assert_eq!(text("workload"), Some(workload.as_str()));
        assert_eq!(text("recorder"), Some("off"));
        // `rev` is the measured binary's, from the child's records.
        assert_eq!(text("rev"), Some("child-rev"));
        assert!(["date", "nproc", "source"]
            .iter()
            .all(|key| line.get(key).is_some()));
        let Some(Json::Obj(medians)) = line.get("metrics") else {
            panic!("a history line without a metrics object");
        };
        let names: Vec<&str> = medians.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, metric_names);
        assert!(medians
            .iter()
            .all(|(_, median)| median.as_f64() == Some(101.5)));
    }
}
