//! Shared infrastructure for the experiment harness: summary statistics,
//! plain-text table rendering, the CLI-flag parser (re-exported from the
//! `lfrt-json` leaf crate, like the `Json` value), a parallel sweep
//! runner with deterministic result merging, machine-readable JSON reports,
//! synthetic scheduler contexts for the cost ablations, and the perf gate's
//! comparator ([`gate`]).
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation; see `DESIGN.md` §5 for the experiment index and
//! `EXPERIMENTS.md` for recorded outputs. Every binary understands three
//! shared flags on top of its own:
//!
//! * `--json <path>` — also write results as JSON ([`json`] documents);
//! * `--threads N` — worker threads for the sweep ([`runner::Sweep`]);
//!   results are byte-identical for any `N`;
//! * `--quick` — reduced-resolution mode sized for CI smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;
pub mod runner;
pub mod stats;
pub mod synth;
pub mod table;
pub mod trace;
pub mod workloads;

pub use lfrt_json::Args;
