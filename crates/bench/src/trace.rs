//! `--trace` support: turns the flight recorder ([`lfrt_trace`]) on for a
//! run and exports its drain snapshot through the [`crate::json`] report
//! schema, so every experiment binary grows the flag for free.
//!
//! Usage inside a binary:
//!
//! ```no_run
//! let args = lfrt_bench::Args::from_env();
//! let trace = lfrt_bench::trace::Session::from_args(&args, "fig8_access_times");
//! // ... run the experiment ...
//! trace.finish(args.threads(), args.quick());
//! ```
//!
//! Everything the recorder measures is host wall-clock, so the exported
//! points put **all** data under `timing` — the report stays compatible
//! with the determinism contract (`payload()` strips it entirely) and the
//! trace document can be merged by `paper_all` like any other.

use std::path::PathBuf;
use std::time::Instant;

use lfrt_trace::TraceSnapshot;

use crate::json::{self, Json, Report};

/// A per-run recorder session driven by the shared `--trace <path>` flag.
///
/// Constructing it from args with the flag present enables the recorder;
/// [`Session::finish`] disables it, drains every ring, and writes a
/// standalone report document at the path. Without the flag both calls are
/// no-ops, so binaries can call them unconditionally.
#[derive(Debug)]
pub struct Session {
    path: Option<PathBuf>,
    experiment: String,
    started: Instant,
}

impl Session {
    /// Starts recording if `--trace <path>` was given.
    pub fn from_args(args: &crate::Args, experiment: &str) -> Session {
        let path = args.trace_path();
        if path.is_some() {
            lfrt_trace::set_enabled(true);
        }
        Session {
            path,
            experiment: experiment.to_string(),
            started: Instant::now(),
        }
    }

    /// Whether the recorder is on for this session.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Stops recording and writes the drained histograms (if active).
    ///
    /// # Panics
    ///
    /// Panics if the report cannot be written.
    pub fn finish(self, threads: usize, quick: bool) {
        let Some(path) = self.path else { return };
        lfrt_trace::set_enabled(false);
        let snap = lfrt_trace::snapshot();
        let report = report_from_snapshot(&self.experiment, &snap);
        let meta = json::RunMeta::capture(threads, quick);
        json::write_reports(&path, &[report], meta, self.started).expect("write trace report");
    }
}

fn hist_fields(prefix: &str, h: &lfrt_trace::Histogram) -> Vec<(String, Json)> {
    vec![
        (format!("{prefix}mean"), h.mean().into()),
        (format!("{prefix}min"), h.min().into()),
        (format!("{prefix}p50"), h.percentile(50.0).into()),
        (format!("{prefix}p90"), h.percentile(90.0).into()),
        (format!("{prefix}p99"), h.percentile(99.0).into()),
        (format!("{prefix}max"), h.max().into()),
        (
            format!("{prefix}buckets"),
            Json::Arr(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(ceiling, count)| Json::Arr(vec![ceiling.into(), count.into()]))
                    .collect(),
            ),
        ),
    ]
}

/// Renders a drained [`TraceSnapshot`] as one `experiments[i]` report named
/// `<experiment>_trace`: a `drain` accounting point, one point per event
/// kind, and one per instrumentation site with completed operations. All
/// numbers live under `timing` (they are host wall-clock by nature).
fn report_from_snapshot(experiment: &str, snap: &TraceSnapshot) -> Report {
    let mut report = Report::new(
        format!("{experiment}_trace"),
        "trace",
        format!("Flight-recorder histograms for {experiment}"),
    )
    .config("ring_capacity", lfrt_trace::RING_CAPACITY)
    .config("value_bits", u64::from(lfrt_trace::VALUE_BITS));

    report.points.push(json::Point {
        params: vec![("section".into(), "drain".into())],
        timing: vec![
            ("rings".into(), snap.rings.into()),
            ("events".into(), snap.events.into()),
            ("overwritten".into(), snap.overwritten.into()),
            ("discarded".into(), snap.discarded.into()),
        ],
        ..Default::default()
    });

    for kind in &snap.kinds {
        let mut timing: Vec<(String, Json)> = vec![("count".into(), kind.count.into())];
        // For cas_success the value histogram holds the unpacked latency.
        let prefix = if kind.retries.is_some() {
            "latency_ns_"
        } else {
            "value_"
        };
        timing.extend(hist_fields(prefix, &kind.value));
        if let Some(retries) = &kind.retries {
            timing.extend(hist_fields("retries_", retries));
        }
        report.points.push(json::Point {
            params: vec![
                ("section".into(), "kind".into()),
                ("kind".into(), kind.kind.name().into()),
            ],
            timing,
            ..Default::default()
        });
    }

    for site in &snap.sites {
        let mut timing: Vec<(String, Json)> = vec![("ops".into(), site.ops.into())];
        timing.extend(hist_fields("latency_ns_", &site.latency_ns));
        timing.extend(hist_fields("retries_", &site.retries));
        report.points.push(json::Point {
            params: vec![
                ("section".into(), "site".into()),
                ("site".into(), site.site.name().into()),
            ],
            timing,
            ..Default::default()
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfrt_trace::{CasOp, EventKind, Site};

    #[test]
    fn snapshot_renders_drain_kind_and_site_points() {
        let _guard = lfrt_trace::tests_serialize();
        lfrt_trace::set_enabled(true);
        lfrt_trace::drain();
        let mut op = CasOp::start(Site::QueueEnqueue);
        op.attempt();
        op.retry();
        op.attempt();
        op.success();
        lfrt_trace::emit(EventKind::EpochPin, Site::Epoch, 1);
        lfrt_trace::set_enabled(false);
        let snap = lfrt_trace::snapshot();

        let report = report_from_snapshot("unit", &snap);
        assert_eq!(report.experiment, "unit_trace");
        let rendered = report.to_json().to_string_pretty();
        assert!(rendered.contains("\"section\": \"drain\""));
        assert!(rendered.contains("\"kind\": \"cas_success\""));
        assert!(rendered.contains("\"kind\": \"cas_retry\""));
        assert!(rendered.contains("\"kind\": \"epoch_pin\""));
        assert!(rendered.contains("\"site\": \"queue_enqueue\""));
        assert!(rendered.contains("latency_ns_p99"));
        assert!(rendered.contains("retries_max"));
        // Everything trace-derived is under timing: the deterministic
        // payload of a trace report must be timing-free.
        let doc = json::document(
            &[report],
            &json::RunMeta {
                git_rev: "test".into(),
                threads: 1,
                quick: true,
                duration_secs: 0.0,
            },
        );
        let payload = json::payload(&doc).to_string_pretty();
        assert!(!payload.contains("latency_ns_p99"));
        assert!(!payload.contains("\"count\""));
    }
}
