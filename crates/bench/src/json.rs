//! Machine-readable experiment results.
//!
//! Every experiment binary can emit its results as JSON (flag `--json
//! <path>`) next to the human-readable text tables, so benchmark
//! trajectories can be recorded per commit (`BENCH_*.json`) and diffed by
//! CI. The format is hand-rolled (the build environment is offline, so no
//! serde_json) but deliberately tiny: an ordered [`Json`] value tree, a
//! canonical pretty-printer, and a strict parser for round-tripping — all
//! three live in the dependency-free `lfrt-json` crate and are re-exported
//! here; this module adds the experiment document on top.
//!
//! # Document schema (`schema_version` 1)
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "meta": {                      // run provenance — NOT deterministic
//!     "generator": "lfrt-bench",
//!     "git_rev": "<rev or unknown>",
//!     "threads": N,                // worker threads used by the sweep
//!     "quick": bool,               // reduced-resolution CI mode?
//!     "duration_secs": float       // wall-clock for the whole run
//!   },
//!   "experiments": [               // one entry per experiment (figure/table)
//!     {
//!       "experiment": "fig10_13_aur_cmr",  // binary name
//!       "figure": "12",                    // paper figure/table key
//!       "title": "...",
//!       "config": { ... },                 // resolved parameters
//!       "points": [
//!         {
//!           "params": { "objects": 4 },    // the sweep coordinates
//!           "seeds": [0, 1, 2],            // ascending; [] if seedless
//!           "metrics": { ... },            // DETERMINISTIC results; summary
//!                                          // stats carry mean/std_dev/ci95/n
//!                                          // plus the seed-ordered samples
//!           "timing": { ... }              // host wall-clock measurements —
//!                                          // NOT deterministic; omitted when
//!                                          // the experiment has none
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! **Determinism contract:** for a fixed command line, everything under
//! `experiments` *except* the `timing` objects is a pure function of the
//! experiment's seeds — independent of `--threads`, wall-clock, and host.
//! [`payload`] extracts exactly that deterministic subtree; CI asserts its
//! bytes match across `--threads 1` and `--threads 8`.

use crate::stats::Summary;

pub use lfrt_json::{parse, Json, ParseError};

impl From<&Summary> for Json {
    /// `{mean, std_dev, ci95, n}` — attach the raw samples with
    /// [`summary_of`] when they exist.
    fn from(s: &Summary) -> Self {
        Json::Obj(vec![
            ("mean".into(), s.mean.into()),
            ("std_dev".into(), s.std_dev.into()),
            ("ci95".into(), s.ci95.into()),
            ("n".into(), s.n.into()),
        ])
    }
}

/// Summarizes `samples` (mean/std-dev/95% CI) and keeps the raw,
/// seed-ordered samples alongside, so the JSON is both diffable at a glance
/// and fully reproducible.
pub fn summary_of(samples: &[f64]) -> Json {
    let s = Summary::of(samples);
    let Json::Obj(mut fields) = Json::from(&s) else {
        unreachable!("Summary is an object")
    };
    fields.push((
        "samples".into(),
        Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
    ));
    Json::Obj(fields)
}

/// One experiment's results: a figure or table of the paper.
#[derive(Debug, Clone)]
pub struct Report {
    /// The experiment binary's name, e.g. `fig10_13_aur_cmr`.
    pub experiment: String,
    /// The paper figure/table key, e.g. `12` or `table:theorem2`.
    pub figure: String,
    /// Human-readable title.
    pub title: String,
    /// Resolved configuration (flag values, derived constants).
    pub config: Vec<(String, Json)>,
    /// The sweep's data points, in deterministic sweep order.
    pub points: Vec<Point>,
}

/// One sweep point of a [`Report`].
#[derive(Debug, Clone, Default)]
pub struct Point {
    /// Sweep coordinates (e.g. `objects`, `load`).
    pub params: Vec<(String, Json)>,
    /// The seeds aggregated into this point, ascending; empty if seedless.
    pub seeds: Vec<u64>,
    /// Deterministic results (identical for every `--threads` value).
    pub metrics: Vec<(String, Json)>,
    /// Host wall-clock measurements (non-deterministic; may be empty).
    pub timing: Vec<(String, Json)>,
}

impl Report {
    /// A report with no points yet.
    pub fn new(
        experiment: impl Into<String>,
        figure: impl Into<String>,
        title: impl Into<String>,
    ) -> Self {
        Self {
            experiment: experiment.into(),
            figure: figure.into(),
            title: title.into(),
            config: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Appends a config entry (builder-style).
    pub fn config(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.config.push((key.into(), value.into()));
        self
    }

    /// Renders to the `experiments[i]` JSON shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("experiment".into(), self.experiment.as_str().into()),
            ("figure".into(), self.figure.as_str().into()),
            ("title".into(), self.title.as_str().into()),
            ("config".into(), Json::Obj(self.config.clone())),
            (
                "points".into(),
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            let mut fields = vec![
                                ("params".into(), Json::Obj(p.params.clone())),
                                (
                                    "seeds".into(),
                                    Json::Arr(p.seeds.iter().map(|&s| s.into()).collect()),
                                ),
                                ("metrics".into(), Json::Obj(p.metrics.clone())),
                            ];
                            if !p.timing.is_empty() {
                                fields.push(("timing".into(), Json::Obj(p.timing.clone())));
                            }
                            Json::Obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Run provenance recorded under `meta` (see the module docs: `meta` is
/// explicitly outside the determinism contract).
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// `git rev-parse HEAD` of the working tree, or `unknown`.
    pub git_rev: String,
    /// Worker threads used by the sweeps.
    pub threads: usize,
    /// Whether `--quick` reduced resolution.
    pub quick: bool,
    /// Wall-clock duration of the whole run, seconds.
    pub duration_secs: f64,
}

impl RunMeta {
    /// Captures provenance for a run that used `threads` workers.
    pub fn capture(threads: usize, quick: bool) -> Self {
        Self {
            git_rev: git_rev(),
            threads,
            quick,
            duration_secs: 0.0,
        }
    }
}

/// Best-effort `git rev-parse HEAD` (short); `unknown` outside a checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Assembles the full document from per-experiment reports.
pub fn document(reports: &[Report], meta: &RunMeta) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), 1u64.into()),
        (
            "meta".into(),
            Json::Obj(vec![
                ("generator".into(), "lfrt-bench".into()),
                ("git_rev".into(), meta.git_rev.as_str().into()),
                ("threads".into(), meta.threads.into()),
                ("quick".into(), meta.quick.into()),
                ("duration_secs".into(), meta.duration_secs.into()),
            ]),
        ),
        (
            "experiments".into(),
            Json::Arr(reports.iter().map(Report::to_json).collect()),
        ),
    ])
}

/// The deterministic subtree of a document: its `experiments` array with
/// every `timing` member removed. Byte-identical across `--threads` values
/// for the same command line (the determinism contract CI enforces).
pub fn payload(doc: &Json) -> Json {
    fn strip(value: &Json) -> Json {
        match value {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != "timing")
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    strip(doc.get("experiments").unwrap_or(&Json::Arr(Vec::new())))
}

/// Writes `reports` to `path`, stamping `meta` with `duration_secs`.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_reports(
    path: &std::path::Path,
    reports: &[Report],
    mut meta: RunMeta,
    started: std::time::Instant,
) -> std::io::Result<()> {
    meta.duration_secs = started.elapsed().as_secs_f64();
    std::fs::write(path, document(reports, &meta).to_string_pretty())?;
    eprintln!(
        "wrote {} experiment(s) to {}",
        reports.len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        let mut report = Report::new("fig_x", "7", "a title").config("seeds", 2u64);
        report.points.push(Point {
            params: vec![("objects".into(), 4u64.into())],
            seeds: vec![0, 1],
            metrics: vec![("aur".into(), summary_of(&[0.5, 0.75]))],
            timing: vec![("ns".into(), 12.5.into())],
        });
        document(
            &[report],
            &RunMeta {
                git_rev: "abc123".into(),
                threads: 2,
                quick: true,
                duration_secs: 0.25,
            },
        )
    }

    #[test]
    fn round_trips_exactly() {
        let doc = sample_doc();
        let text = doc.to_string_pretty();
        let reparsed = parse(&text).expect("own output must parse");
        assert_eq!(reparsed, doc);
        // And printing again is byte-identical (canonical form).
        assert_eq!(reparsed.to_string_pretty(), text);
    }

    #[test]
    fn payload_strips_timing_only() {
        let doc = sample_doc();
        let payload = payload(&doc);
        let text = payload.to_string_pretty();
        assert!(!text.contains("timing"));
        assert!(
            !text.contains("duration_secs"),
            "meta must not leak into payload"
        );
        assert!(text.contains("metrics"));
        assert!(text.contains("samples"));
    }

    #[test]
    fn summary_of_embeds_ordered_samples() {
        let json = summary_of(&[1.0, 2.0, 3.0]);
        assert_eq!(json.get("n").and_then(Json::as_f64), Some(3.0));
        let samples = json
            .get("samples")
            .and_then(Json::as_array)
            .expect("samples");
        let values: Vec<f64> = samples.iter().filter_map(Json::as_f64).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
    }
}
