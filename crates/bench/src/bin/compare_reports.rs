//! **The perf gate.** Compares a child commit's `benchmark/run.sh` result
//! lines with its parent's and exits 1 when an end-to-end metric's median is
//! worse by more than its `BENCHMARK.json` bound, or when a comparison could
//! not be made (see [`lfrt_bench::gate`]). A median past its bound whose
//! runs overlap the parent's is printed as `UNRESOLVED` and does not fail.
//!
//! Run from the root of a checkout, where `BENCHMARK.json` is; CI's
//! `perf-gate` job shows how the two files are produced (both binaries built
//! from one directory, alternated runs). After the table, the last stdout
//! lines are one JSON object per workload with the child's medians, the
//! lines `BENCH_history.jsonl` collects.
//!
//! Usage: `cargo run -p lfrt-bench --release --bin compare_reports --
//! <parent.jsonl> <child.jsonl>`

use std::process::{Command, ExitCode};

use lfrt_bench::gate::{self, Contract};
use lfrt_bench::json;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [parent_path, child_path] = paths.as_slice() else {
        eprintln!("usage: compare_reports <parent.jsonl> <child.jsonl>");
        return ExitCode::from(2);
    };
    let contract = json::parse(&read("BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|doc| Contract::from_json(&doc))
        .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
    let runs = |path: &str, side| {
        gate::read_runs(&read(path), side).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let (parent, child) = (runs(parent_path, "parent"), runs(child_path, "child"));
    let outcome = gate::compare(&contract, &parent, &child);

    let (runs, of) = (child.len(), parent.len());
    let (child_rev, parent_rev) = (&child[0].rev, &parent[0].rev);
    println!("# perf gate: child {child_rev} ({runs} runs) vs parent {parent_rev} ({of} runs)");
    println!(
        "{:<16} {:<21} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "parent median", "child median", "worse by", "bound"
    );
    for row in &outcome.rows {
        println!(
            "{:<16} {:<21} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}% {}",
            row.workload,
            row.metric,
            row.parent,
            row.child,
            row.worse_by * 100.0,
            row.bound * 100.0,
            row.verdict()
        );
    }
    for failure in &outcome.failures {
        eprintln!("FAIL: {failure}");
    }
    if outcome.failures.is_empty() {
        let verdicts = outcome.rows.iter().map(gate::Row::verdict);
        println!(
            "PASS: no end-to-end metric is worse than its bound in every run; {} UNRESOLVED",
            verdicts.filter(|&verdict| verdict == "UNRESOLVED").count()
        );
    }

    let date = Command::new("date").args(["-u", "+%F"]).output().ok();
    let date = date.and_then(|out| String::from_utf8(out.stdout).ok());
    let date = date.map_or("unknown".to_string(), |date| date.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let metrics = contract.metrics.len();
    for line in gate::history_lines(&outcome, metrics, &child, &date, nproc) {
        println!("{line}");
    }
    ExitCode::from(u8::from(!outcome.failures.is_empty()))
}
