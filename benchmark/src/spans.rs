//! Span recording for the traced run (`--trace 1`).
//!
//! A span is one call — or one batch of calls — from the benchmark's own
//! files into a layer: name, layer, start, end, and the span that caused
//! it. Spans are kept in memory and written as JSON Lines when the run
//! ends (schema in `README.md`). A span's *self time* is its duration minus
//! the part of that interval its child spans cover; children of one parent
//! may overlap (worker threads), so coverage is the union, not the sum.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Identifies a recorded span; `NO_SPAN` is "no parent" and what a disabled
/// log hands out.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = 0;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub layer: &'static str,
    pub name: &'static str,
    /// Benchmark thread that made the call (0 = main).
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// `origin` is the zero of every `start_ns` / `end_ns`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a finished span and returns its id (`NO_SPAN` when the log
    /// is disabled, so callers need no branch of their own).
    pub fn add(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        thread: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            thread,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
        id
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends; [`SpanLog::close`] fills in the end.
    pub fn open(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        start: Instant,
    ) -> SpanId {
        self.add(parent, layer, name, 0, start, start)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if id != NO_SPAN {
            self.spans[id as usize - 1].end_ns = self.offset_ns(end);
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Self time of every span, indexed like [`SpanLog::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != NO_SPAN {
                children
                    .entry(span.parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|span| {
                let covered = children
                    .get_mut(&span.id)
                    .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Total self time per layer.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            *totals.entry(span.layer).or_insert(0) += self_ns;
        }
        totals
    }

    /// Writes one JSON object per span. Names and layers are benchmark
    /// constants (`[a-z0-9_.]`), so nothing needs escaping.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"thread\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"workload\":\"{}\",\"seed\":{}}}",
                span.id,
                span.parent,
                span.layer,
                span.name,
                span.thread,
                span.start_ns,
                span.end_ns,
                self_ns,
                workload,
                seed
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(from, to) in intervals.iter() {
        let from = from.max(reach);
        let to = to.min(end);
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn log_with(spans: &[(SpanId, &'static str, u64, u64)]) -> SpanLog {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin, true);
        for &(parent, layer, start, end) in spans {
            log.add(
                parent,
                layer,
                "x",
                0,
                origin + Duration::from_nanos(start),
                origin + Duration::from_nanos(end),
            );
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // 1: [0,100]   2: [10,30] in 1   3: [50,90] in 1   4: [60,70] in 3
        let log = log_with(&[
            (NO_SPAN, "bench", 0, 100),
            (1, "sim", 10, 30),
            (1, "sim", 50, 90),
            (3, "core", 60, 70),
        ]);
        assert_eq!(log.self_times(), vec![40, 20, 30, 10]);
        let layers = log.layer_self_ns();
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["sim"], 50);
        assert_eq!(layers["core"], 10);
        assert_eq!(
            layers.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two worker threads' batches overlap inside one parent.
        let log = log_with(&[
            (NO_SPAN, "bench", 0, 100),
            (1, "lockfree", 10, 60),
            (1, "lockfree", 40, 80),
            (1, "lockfree", 95, 130), // clipped to the parent's end
        ]);
        assert_eq!(log.self_times()[0], 100 - 70 - 5);
    }

    #[test]
    fn open_close_brackets_children_and_disabled_log_records_nothing() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin, true);
        let root = log.open(NO_SPAN, "bench", "phase", origin);
        let child = log.add(
            root,
            "sim",
            "run",
            0,
            origin,
            origin + Duration::from_nanos(5),
        );
        log.close(root, origin + Duration::from_nanos(9));
        assert_eq!((root, child), (1, 2));
        assert_eq!(log.self_times(), vec![4, 5]);

        let mut off = SpanLog::new(origin, false);
        let id = off.open(NO_SPAN, "bench", "phase", origin);
        off.close(id, origin);
        assert_eq!(id, NO_SPAN);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_every_field() {
        let log = log_with(&[(NO_SPAN, "bench", 0, 100), (1, "sim", 10, 30)]);
        let path = std::env::temp_dir().join(format!("lfrt-spans-{}.jsonl", std::process::id()));
        log.write_jsonl(&path, "sim_sweep", 42)
            .expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans back");
        std::fs::remove_file(&path).expect("remove scratch file");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":2,\"parent\":1,\"layer\":\"sim\",\"name\":\"x\",\"thread\":0,\
             \"start_ns\":10,\"end_ns\":30,\"self_ns\":20,\"workload\":\"sim_sweep\",\"seed\":42}"
        );
    }
}
