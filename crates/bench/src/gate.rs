//! The perf gate: a parent commit's `benchmark/run.sh` result lines against
//! a child's, judged by `BENCHMARK.json` and nothing else.
//!
//! `BENCHMARK.json` is the only source of what is compared: its `workloads`
//! × its `end_to_end` metrics, each metric's `better` direction and the
//! `bound` by which the child's median may be worse than the parent's. No
//! name, direction or number is repeated here.
//!
//! Each side is a JSONL file with one record per run,
//!
//! ```text
//! {"workload": "obj_uncontended", "side": "parent", "rev": "7f2ea019c246", "result": <the program's last stdout line, or null>}
//! ```
//!
//! and the verdict is worse-only: an improvement of any size passes, a
//! median exactly at its bound passes, one step past it fails. Everything
//! that would make a comparison vacuous fails too, with the workload and the
//! metric named: a run that printed no result line, a metric that is missing
//! or not a finite number on either side, a workload with no run, a run whose
//! own checks failed (`correct` false or `failed` > 0).
//!
//! One case is reported and does not fail: a median past its bound while
//! some child run is no worse than some parent run (`UNRESOLVED`). That is
//! what one binary measured against itself looks like on a loud host; in
//! EXPERIMENTS.md "The perf gate" every same-binary alarm overlapped and no
//! row of a real 35 % regression did. The bound is not moved.

use crate::json::{parse, Json};

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name the program prints it under.
    pub name: String,
    /// `"better": "higher"` (otherwise lower is better).
    pub higher_is_better: bool,
    /// Share of the parent's median by which the child may be worse.
    pub bound: f64,
}

/// What `BENCHMARK.json` says the gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub metrics: Vec<Metric>,
}

impl Contract {
    /// Reads the `workloads` and `end_to_end` arrays of a parsed
    /// `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Names the member that is missing or has the wrong type.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let array = |key: &str| {
            let items = doc.get(key).and_then(Json::as_array);
            items.ok_or_else(|| format!("BENCHMARK.json has no {key} array"))
        };
        let name = |item: &Json| {
            let name = item.get("name").and_then(Json::as_str);
            name.map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json entry without a name: {item:?}"))
        };
        let workloads = array("workloads")?
            .iter()
            .map(name)
            .collect::<Result<_, _>>()?;
        let mut metrics = Vec::new();
        for item in array("end_to_end")? {
            let name = name(item)?;
            let higher_is_better = match item.get("better").and_then(Json::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                other => return Err(format!("{name}: better is {other:?}, not higher/lower")),
            };
            let bound = item.get("bound").and_then(Json::as_f64);
            let bound = bound.ok_or_else(|| format!("{name}: no numeric bound"))?;
            metrics.push(Metric {
                name,
                higher_is_better,
                bound,
            });
        }
        Ok(Self { workloads, metrics })
    }
}

/// One benchmark run of one side.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The `--workload` it measured.
    pub workload: String,
    /// The commit the measured binary was built from.
    pub rev: String,
    /// Its result line; `Json::Null` when the program printed none.
    pub result: Json,
}

/// Parses one side's JSONL file; every record must carry `side`, so two
/// swapped paths cannot turn regressions into improvements.
///
/// # Errors
///
/// Names the line that is not a record of this side, or says that there is
/// no record at all.
pub fn read_runs(text: &str, side: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let lines = text.lines().enumerate();
    for (index, line) in lines.filter(|(_, line)| !line.trim().is_empty()) {
        // Rust prints a non-finite f64 as `NaN` / `inf`, for which JSON has
        // no token. Read them as null, so that the metric fails by name
        // instead of the whole file failing to parse.
        let line = line
            .replace(": NaN", ": null")
            .replace(": inf", ": null")
            .replace(": -inf", ": null");
        let at = format!("{side} runs, line {}", index + 1);
        let record = parse(&line).map_err(|e| format!("{at}: {e}"))?;
        let text = |key: &str| {
            let member = record.get(key).and_then(Json::as_str);
            member.ok_or_else(|| format!("{at}: no {key}"))
        };
        let (workload, rev) = (text("workload")?, text("rev")?);
        if record.get("side").and_then(Json::as_str) != Some(side) {
            return Err(format!("{at}: not a record of the {side} side"));
        }
        runs.push(Run {
            workload: workload.to_string(),
            rev: rev.to_string(),
            result: record.get("result").cloned().unwrap_or(Json::Null),
        });
    }
    if runs.is_empty() {
        return Err(format!("{side} runs: no record"));
    }
    Ok(runs)
}

/// One judged (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over the parent's runs.
    pub parent: f64,
    /// Median over the child's runs.
    pub child: f64,
    /// Change in the metric's bad direction as a share of `parent`;
    /// negative is an improvement.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Some child run is no worse than some parent run.
    pub overlap: bool,
}

impl Row {
    /// `REGRESSED`, which alone fails the gate: the median is past the bound
    /// and every child run is worse than every parent run. `UNRESOLVED`,
    /// which is only reported: past the bound, but the runs overlap.
    pub fn verdict(&self) -> &'static str {
        match (self.worse_by > self.bound, self.overlap) {
            (false, _) => "ok",
            (true, false) => "REGRESSED",
            (true, true) => "UNRESOLVED",
        }
    }
}

/// Result of one gate run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// One row per workload × metric whose two medians exist, in
    /// `BENCHMARK.json` order.
    pub rows: Vec<Row>,
    /// Why the gate fails; empty means it passes.
    pub failures: Vec<String>,
}

/// `metric` in every one of `runs`' runs of `workload`, ascending, or why a
/// value is not there.
fn values(runs: &[Run], workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let mut values = Vec::new();
    for run in runs.iter().filter(|run| run.workload == workload) {
        let entry = run.result.get("metrics").and_then(|m| m.get(metric));
        match entry.and_then(|m| m.get("value")).and_then(Json::as_f64) {
            Some(value) if value.is_finite() => values.push(value),
            Some(value) => return Err(format!("is {value} in a run")),
            None => return Err("is missing or not a number in a run".into()),
        }
    }
    if values.is_empty() {
        return Err("has no run".into());
    }
    values.sort_by(f64::total_cmp);
    Ok(values)
}

fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Judges the child's runs against the parent's.
pub fn compare(contract: &Contract, parent: &[Run], child: &[Run]) -> Outcome {
    let mut out = Outcome::default();
    for (side, runs) in [("parent", parent), ("child", child)] {
        for run in runs {
            let workload = &run.workload;
            if !contract.workloads.contains(workload) {
                out.failures.push(format!(
                    "{workload}: a {side} run of a workload BENCHMARK.json does not declare"
                ));
            }
            let correct = run.result.get("correct") == Some(&Json::Bool(true));
            let failed = run.result.get("failed").and_then(Json::as_f64);
            if run.result != Json::Null && !(correct && failed == Some(0.0)) {
                out.failures.push(format!(
                    "{workload}: a {side} run failed its own checks (correct {correct}, failed {failed:?})"
                ));
            }
        }
    }
    for workload in &contract.workloads {
        for metric in &contract.metrics {
            let sides = [("parent", parent), ("child", child)].map(|(side, runs)| {
                values(runs, workload, &metric.name)
                    .map_err(|why| format!("{workload} {}: {side} {why}", metric.name))
            });
            let (parents, children) = match sides {
                [Ok(parents), Ok(children)] => (parents, children),
                sides => {
                    out.failures
                        .extend(sides.into_iter().filter_map(Result::err));
                    continue;
                }
            };
            let (parent, child) = (median(&parents), median(&children));
            // Sorted ascending: the child's best run against the parent's worst.
            let (worse, overlap) = if metric.higher_is_better {
                (parent - child, children[children.len() - 1] >= parents[0])
            } else {
                (child - parent, children[0] <= parents[parents.len() - 1])
            };
            let row = Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                parent,
                child,
                // 0 -> 0 is no change; 0 -> anything worse is infinitely worse.
                worse_by: if worse == 0.0 {
                    0.0
                } else {
                    worse / parent.abs()
                },
                bound: metric.bound,
                overlap,
            };
            if row.verdict() == "REGRESSED" {
                out.failures.push(format!(
                    "{workload} {}: child {child} vs parent {parent} is {:+.1}% worse, bound {:.0}%",
                    metric.name,
                    row.worse_by * 100.0,
                    metric.bound * 100.0
                ));
            }
            out.rows.push(row);
        }
    }
    out
}

/// One line per workload for `BENCH_history.jsonl`: which commit the child's
/// binary was built from (its runs' `rev`), when and where it was measured,
/// and its medians. A workload with a median missing gets no line.
pub fn history_lines(
    outcome: &Outcome,
    metrics: usize,
    child: &[Run],
    date: &str,
    nproc: usize,
) -> Vec<String> {
    let workloads = outcome.rows.chunk_by(|a, b| a.workload == b.workload);
    let complete = workloads.filter(|rows| rows.len() == metrics);
    let line = |rows: &[Row]| {
        let workload = &rows[0].workload;
        let run = child.iter().find(|run| &run.workload == workload);
        let rev = run.map_or("unknown", |run| run.rev.as_str());
        let medians: Vec<String> = rows
            .iter()
            .map(|row| format!("\"{}\": {}", row.metric, row.child))
            .collect();
        // The program takes every end-to-end timing with the recorder off
        // and asserts it; there is no other state a result line can be in.
        format!(
            "{{\"rev\": \"{rev}\", \"date\": \"{date}\", \"nproc\": {nproc}, \"recorder\": \"off\", \
             \"source\": \"gate\", \"workload\": \"{workload}\", \"metrics\": {{{}}}}}",
            medians.join(", ")
        )
    };
    complete.map(line).collect()
}
