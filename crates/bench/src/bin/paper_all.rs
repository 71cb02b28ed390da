//! One-command reproduction: runs every paper experiment in sequence by
//! invoking the sibling binaries (same build profile, same defaults) and
//! streaming their output.
//!
//! The shared runner flags pass straight through: `--quick` and
//! `--threads N` are forwarded to every child, and `--json <path>` makes
//! each child write its own report to a scratch directory, after which the
//! reports are merged into one document (14 `experiments` entries — figures
//! 8, 9, 10–13, 14a/14b, the five tables, plus `churn_footprint`) at
//! `<path>`. The merged document keeps each child's deterministic payload
//! byte-for-byte, so the `--threads 1` vs `--threads 8` identity check works
//! on it too.
//!
//! `--trace <path>` likewise hands every child its own flight-recorder
//! destination (see `lfrt_bench::trace`) and merges the per-child trace
//! reports into one document at `<path>`.
//!
//! Usage: `cargo run -p lfrt-bench --release --bin paper_all --
//! [--quick] [--threads N] [--json <path>] [--trace <path>]`

use std::path::PathBuf;
use std::process::Command;

use lfrt_bench::json::{self, Json};
use lfrt_bench::Args;

fn main() {
    let started = std::time::Instant::now();
    let args = Args::from_env();
    let quick = args.quick();
    let json_path = args.json_path();
    let trace_path = args.trace_path();

    let me = std::env::current_exe().expect("own path");
    let bin_dir = me.parent().expect("bin directory").to_path_buf();
    let runs: &[(&str, &[&str])] = &[
        ("fig8_access_times", &[]),
        ("fig9_cml", &[]),
        ("fig10_13_aur_cmr", &["--load", "0.4", "--tufs", "step"]),
        ("fig10_13_aur_cmr", &["--load", "0.4", "--tufs", "hetero"]),
        ("fig10_13_aur_cmr", &["--load", "1.1", "--tufs", "step"]),
        ("fig10_13_aur_cmr", &["--load", "1.1", "--tufs", "hetero"]),
        ("fig14_readers", &[]),
        ("retry_bound_table", &[]),
        ("sojourn_crossover", &[]),
        ("taxonomy_table", &[]),
        ("crash_starvation", &[]),
        ("mp_scaling", &[]),
        ("churn_footprint", &[]),
    ];

    // Scratch directory for the children's individual reports.
    let scratch = (json_path.is_some() || trace_path.is_some()).then(|| {
        let dir = std::env::temp_dir().join(format!("paper_all_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    });

    let threads = args.threads().to_string();
    let mut failed = Vec::new();
    let mut child_reports: Vec<PathBuf> = Vec::new();
    let mut child_traces: Vec<PathBuf> = Vec::new();
    for (i, (bin, extra)) in runs.iter().enumerate() {
        println!(
            "\n==================== {bin} {} ====================",
            extra.join(" ")
        );
        let mut command = Command::new(bin_dir.join(bin));
        command.args(*extra).args(["--threads", &threads]);
        if quick {
            command.arg("--quick");
        }
        if let (Some(dir), true) = (&scratch, json_path.is_some()) {
            let child_path = dir.join(format!("{i:02}_{bin}.json"));
            command.arg("--json").arg(&child_path);
            child_reports.push(child_path);
        }
        if let (Some(dir), true) = (&scratch, trace_path.is_some()) {
            let child_path = dir.join(format!("{i:02}_{bin}.trace.json"));
            command.arg("--trace").arg(&child_path);
            child_traces.push(child_path);
        }
        let status = command
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failed.push(format!("{bin} {}", extra.join(" ")));
        }
    }

    if let (Some(path), true) = (&json_path, failed.is_empty()) {
        merge(path, &child_reports, args.threads(), quick, started);
    }
    if let (Some(path), true) = (&trace_path, failed.is_empty()) {
        merge(path, &child_traces, args.threads(), quick, started);
    }
    if let Some(dir) = &scratch {
        let _ = std::fs::remove_dir_all(dir);
    }

    println!("\n====================================================");
    if failed.is_empty() {
        println!("all experiments completed; see EXPERIMENTS.md for the recorded shapes.");
    } else {
        println!("FAILED experiments: {failed:?}");
        std::process::exit(1);
    }
}

/// Concatenates the children's `experiments` arrays (in run order) into one
/// document with fresh run metadata.
fn merge(
    path: &std::path::Path,
    child_reports: &[PathBuf],
    threads: usize,
    quick: bool,
    started: std::time::Instant,
) {
    let mut experiments = Vec::new();
    for child in child_reports {
        let text = std::fs::read_to_string(child)
            .unwrap_or_else(|e| panic!("read {}: {e}", child.display()));
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("parse {}: {e}", child.display()));
        let entries = doc
            .get("experiments")
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{}: no experiments array", child.display()));
        experiments.extend(entries.iter().cloned());
    }
    let count = experiments.len();
    let doc = Json::Obj(vec![
        ("schema_version".into(), 1u64.into()),
        (
            "meta".into(),
            Json::Obj(vec![
                ("generator".into(), "lfrt-bench".into()),
                ("git_rev".into(), json::git_rev().into()),
                ("threads".into(), threads.into()),
                ("quick".into(), quick.into()),
                (
                    "duration_secs".into(),
                    started.elapsed().as_secs_f64().into(),
                ),
            ]),
        ),
        ("experiments".into(), Json::Arr(experiments)),
    ]);
    std::fs::write(path, doc.to_string_pretty())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {count} experiment(s) to {}", path.display());
}
