//! The names, units and directions of everything the benchmark prints — the
//! same lists `BENCHMARK.json` carries (a self-test compares the two) — and
//! the result line of a run.

use std::collections::BTreeMap;
use std::fmt::Write;

pub const WORKLOADS: [&str; 4] = [
    "obj_uncontended",
    "obj_contended",
    "sim_sweep",
    "sched_scaling",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// Printed by the untraced run (`--trace 0`), by every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("s_ns", "ns/op", Lower),
    m("s_p99_ns", "ns", Lower),
    m("stack_ns", "ns/op", Lower),
    m("r_ns", "ns/op", Lower),
    m("sim_uni_events_per_s", "events/s", Higher),
    m("sim_mp_events_per_s", "events/s", Higher),
    m("sched_lf_ns", "ns/invocation", Lower),
    m("sched_lb_ns", "ns/invocation", Lower),
];

/// Printed by the traced run (`--trace 1`), by every workload.
pub const PER_LAYER: &[Metric] = &[
    m("ledger.bare_cas_ns", "ns/op", Lower),
    m("ledger.tolls_sum_ns", "ns/op", Lower),
    m("ledger.unaccounted_ns", "ns/op", Lower),
    m("epoch.pin_ns", "ns", Lower),
    m("epoch.pin_nested_ns", "ns", Lower),
    m("epoch.retired_per_op", "1/op", Lower),
    m("epoch.backlog_peak", "count", Lower),
    m("stats.attempt_ns", "ns", Lower),
    m("stats.snapshot_ns", "ns", Lower),
    m("pool.hit_ratio", "ratio", Higher),
    m("pool.misses_per_op", "1/op", Lower),
    m("pool.spills_per_kop", "1/kop", Lower),
    m("pool.refills_per_kop", "1/kop", Lower),
    m("pool.allocs_per_op", "1/op", Lower),
    m("pool.pooled_minus_boxed_ns", "ns/op", Lower),
    m("trace.flag_check_ns", "ns", Lower),
    m("trace.casop_off_ns", "ns", Lower),
    m("trace.emit_on_ns", "ns", Lower),
    m("trace.now_ns", "ns", Lower),
    m("trace.stack_on_over_off", "ratio", Lower),
    m("lockfree.queue_boxed_ns", "ns/op", Lower),
    m("lockfree.stack_boxed_ns", "ns/op", Lower),
    m("lockfree.stack_elim_ns", "ns/op", Lower),
    m("lockfree.mpmc_ns", "ns/op", Lower),
    m("lockfree.mpmc_sharded_ns", "ns/op", Lower),
    m("lockfree.spsc_ns", "ns/op", Lower),
    m("lockfree.list_ns", "ns/op", Lower),
    m("lockfree.locked_stack_ns", "ns/op", Lower),
    m("lockfree.stack_burst_ns", "ns/op", Lower),
    m("lockfree.queue_burst_ns", "ns/op", Lower),
    m("lockfree.stack_batch_ns", "ns/op", Lower),
    m("lockfree.stack_p99_ns", "ns", Lower),
    m("lockfree.s_p999_ns", "ns", Lower),
    m("lockfree.queue_retries_per_op", "1/op", Lower),
    m("lockfree.stack_retries_per_op", "1/op", Lower),
    m("lockfree.list_retries_per_op", "1/op", Lower),
    m("lockfree.success_per_attempt", "ratio", Higher),
    m("lockfree.elim_hit_ratio", "ratio", Higher),
    m("lockfree.locked_contended_ratio", "ratio", Lower),
    m("sim.uni_lf_events_per_s", "events/s", Higher),
    m("sim.uni_lb_events_per_s", "events/s", Higher),
    m("sim.uni_edf_events_per_s", "events/s", Higher),
    m("sim.engine_self_share", "ratio", Lower),
    m("sim.mp1_over_uni", "ratio", Lower),
    m("sim.record_jobs_over_off", "ratio", Lower),
    m("sim.tracelog_over_off", "ratio", Lower),
    m("sim.events_total", "count", Higher),
    m("sim.aur_lf", "ratio", Higher),
    m("sim.aur_lb", "ratio", Higher),
    m("sim.cmr_lf", "ratio", Higher),
    m("sim.cmr_lb", "ratio", Higher),
    m("sim.retries_total", "count", Lower),
    m("sim.blockings_total", "count", Lower),
    m("core.sched_share", "ratio", Lower),
    m("core.insitu_ns_per_invocation", "ns/invocation", Lower),
    m("core.ops_per_invocation", "ops/invocation", Lower),
    m("core.lf_ns_n16", "ns/invocation", Lower),
    m("core.lf_ns_n256", "ns/invocation", Lower),
    m("core.lb_ns_n16", "ns/invocation", Lower),
    m("core.lb_ns_n256", "ns/invocation", Lower),
    m("core.lb_tight_ns_n64", "ns/invocation", Lower),
    m("core.edf_ns_n64", "ns/invocation", Lower),
    m("core.lf_sampled_ns_n64", "ns/invocation", Lower),
    m("core.lf_ops_n64", "ops/invocation", Lower),
    m("core.lb_ops_n64", "ops/invocation", Lower),
    m("core.lf_exponent", "exponent", Lower),
    m("core.lb_exponent", "exponent", Lower),
    m("core.lb_over_lf_n64", "ratio", Lower),
    m("uam.build_ns_per_arrival", "ns/arrival", Lower),
    m("tuf.utility_ns", "ns", Lower),
    m("bench.paper_all_s", "s", Lower),
    m("bench.build_s", "s", Lower),
    m("bench.clock_floor_ns", "ns", Lower),
    m("bench.trace_overhead_ratio", "ratio", Lower),
    m("bench.peak_rss_mb", "MiB", Lower),
    m("bench.nproc", "count", Higher),
    m("bench.generator_threads", "count", Higher),
    m("paper.r_fig8_ns", "ns/op", Lower),
    m("paper.s_over_r_object", "ratio", Lower),
    m("paper.s_over_r_fig8", "ratio", Lower),
];

/// The measured values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// # Panics
    ///
    /// Panics on a name that is in neither list, a value set twice or a
    /// value that is not finite: each is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    /// Every metric of `list` by name, with its unit and direction.
    pub fn print_table(&self, list: &[Metric]) {
        println!("metrics:");
        for metric in list {
            let better = match metric.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            println!(
                "  {:<34} {:>16.4} {:<14} ({better} is better)",
                metric.name,
                self.get(metric.name),
                metric.unit
            );
        }
    }

    /// The run's last line of output: every metric of `list`, no other.
    pub fn result_line(&self, list: &[Metric], attempted: u64, failed: u64) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (index, metric) in list.iter().enumerate() {
            let separator = if index == 0 { "" } else { ", " };
            write!(
                line,
                "{separator}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                self.get(metric.name),
                metric.unit
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strings that follow `"key":` inside the array named `section`.
    fn strings_of<'a>(json: &'a str, section: &str, key: &str) -> Vec<&'a str> {
        let start = json
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let marker = format!("\"{key}\": \"");
        body.match_indices(&marker)
            .map(|(at, _)| {
                let value = &body[at + marker.len()..];
                &value[..value.find('"').expect("string closes")]
            })
            .collect()
    }

    fn contract() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
    }

    fn is_name(name: &str) -> bool {
        let charset = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(charset)
    }

    fn is_unit(unit: &str) -> bool {
        let charset = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(charset)
    }

    #[test]
    fn printed_names_match_the_contract_in_both_directions() {
        let json = contract();
        assert_eq!(strings_of(&json, "workloads", "name"), WORKLOADS);
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = list.iter().map(|m| m.name).collect();
            assert_eq!(strings_of(&json, section, "name"), names, "{section} names");
            let units: Vec<&str> = list.iter().map(|m| m.unit).collect();
            assert_eq!(strings_of(&json, section, "unit"), units, "{section} units");
            let better: Vec<&str> = list
                .iter()
                .map(|m| if m.better == Lower { "lower" } else { "higher" })
                .collect();
            assert_eq!(
                strings_of(&json, section, "better"),
                better,
                "{section} directions"
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contracts_charset_and_are_used_once() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for metric in &all {
            assert!(is_name(metric.name), "name {}", metric.name);
            assert!(
                is_unit(metric.unit),
                "unit {} of {}",
                metric.unit,
                metric.name
            );
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).chain(WORKLOADS).collect();
        assert!(names.iter().all(|name| is_name(name)));
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let mut values = Values::default();
        values.set("setup_s", 0.25);
        values.set("s_ns", 51.5);
        values.set("bench.nproc", 2.0);
        let line = values.result_line(&END_TO_END[..2], 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"s_ns\": {\"value\": 51.5, \"unit\": \"ns/op\"}}}"
        );
        assert!(values
            .result_line(&END_TO_END[..1], 10, 3)
            .contains("\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_a_bug() {
        Values::default().set("made_up", 1.0);
    }
}
