//! Memory-ordering lint pass over the workspace's atomics.
//!
//! Reviewing the `Ordering` argument of every atomic access by hand is the
//! weakest link in a lock-free codebase: the SC interleaving explorer
//! (`lfrt-interleave` before its store-buffer mode) cannot see
//! weak-memory bugs, and nothing machine-checked watched the orderings
//! themselves. This crate closes that gap *statically*:
//!
//! 1. [`scan`] inventories every atomic access site whose arguments carry a
//!    literal `Ordering` token — load/store/swap/CAS/fetch and the `_ord`
//!    twins `lfrt-interleave`'s models use — with file, line, enclosing
//!    function, and normalized receiver.
//! 2. [`graph`] groups sites per file into a publication graph (which
//!    receivers are written where, read where, at which ordering).
//! 3. [`rules`] applies six local heuristics (ORD001–ORD006) over a
//!    forward-textual [`dataflow`] approximation.
//! 4. The findings are matched against the `[[allow]]` entries of the
//!    checked-in `ordlint.toml` under `lfrt_srcscan::baseline`'s contract:
//!    intentional patterns carry a written justification, and both
//!    unbaselined findings *and* stale entries fail the run.
//!
//! The companion dynamic check is `lfrt-interleave`'s
//! `MemoryMode::StoreBuffer`: what a rule merely suspects, a store-buffer
//! schedule can confirm with a replayable counterexample (see
//! `crates/interleave/tests/weak_memory.rs` and DESIGN.md §6b).
//!
//! Run it as `cargo run -p lfrt-ordlint` (add `--json <path>` for the CI
//! artifact, `--list` for the full inventory).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod graph;
pub mod report;
pub mod rules;
pub mod scan;
/// The default `--root`, shared with `lfrt-progress` via `lfrt-srcscan`.
pub use lfrt_srcscan::report::workspace_root;
/// Comment/string blanking and [`source::SourceFile`], shared with
/// `lfrt-progress` via `lfrt-srcscan`.
pub use lfrt_srcscan::source;

use std::io;
use std::path::{Path, PathBuf};

use lfrt_srcscan::baseline::{self, Lint};
use lfrt_srcscan::walk;

use graph::GraphEntry;
use rules::Finding;
use scan::Site;

/// What this lint states about itself to the shared baseline reader,
/// report and driver.
pub const LINT: Lint = Lint {
    tool: "ordlint",
    manifest: "ordlint.toml",
    manifest_flag: "baseline",
    manifest_required: false,
    error_prefix: "",
    table: "allow",
    detail_key: "receiver",
};

/// The baseline match outcome over this lint's findings.
pub type MatchResult = baseline::MatchResult<Finding>;

/// Everything one run produces, pre-baseline-matching included.
#[derive(Debug)]
pub struct Analysis {
    /// Scan root as given on the command line.
    pub root: String,
    /// Relative paths of every scanned file.
    pub files: Vec<String>,
    /// Every qualifying site, as (file, site), in scan order.
    pub sites: Vec<(String, Site)>,
    /// Publication graph over all files.
    pub graph: Vec<GraphEntry>,
    /// Baseline match outcome.
    pub matched: MatchResult,
}

/// Scan roots inside a workspace checkout: the root package's `src/` plus
/// every crate's `src/` and `benches/`, plus `vendor/crossbeam/src`. Most
/// vendored stand-ins and all `tests/` directories are deliberately out of
/// scope — vendor code usually mirrors external crates' published APIs
/// (orderings arrive in variables there anyway), and test code exercises
/// odd orderings on purpose. The vendored `crossbeam` is the exception:
/// since it grew a real epoch reclamation scheme (global-epoch/record
/// protocol with its own fence pairing), its orderings are first-party
/// lock-free algorithm code and get the same scrutiny as `crates/`.
fn workspace_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for c in crates {
            dirs.push(c.join("src"));
            dirs.push(c.join("benches"));
        }
    }
    dirs.push(root.join("vendor").join("crossbeam").join("src"));
    dirs
}

/// Scans `root` and applies the rules; the result still needs
/// `baseline::apply` (see [`analyze_with_baseline`]).
///
/// # Errors
///
/// Propagates I/O errors from directory walks and file reads.
pub fn analyze(root: &Path) -> io::Result<(Analysis, Vec<Finding>)> {
    let sources = walk::collect_sources(root, &workspace_dirs(root))?;
    let mut analysis = Analysis {
        root: root.display().to_string(),
        files: Vec::new(),
        sites: Vec::new(),
        graph: Vec::new(),
        // Nothing matched yet: `analyze_with_baseline` fills this in.
        matched: baseline::apply(Vec::new(), &[]),
    };
    let mut findings = Vec::new();
    for sf in &sources {
        let scanned = scan::scan_file(sf);
        findings.extend(rules::run_rules(sf, &scanned));
        analysis
            .graph
            .extend(graph::publication_graph(&sf.rel_path, &scanned));
        analysis
            .sites
            .extend(scanned.sites.into_iter().map(|s| (sf.rel_path.clone(), s)));
        analysis.files.push(sf.rel_path.clone());
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok((analysis, findings))
}

/// Full pipeline: scan, rules, baseline match.
///
/// `baseline_text` is the content of `ordlint.toml`; pass `""` for an
/// empty baseline.
///
/// # Errors
///
/// I/O errors from the scan, or the baseline parse error string.
pub fn analyze_with_baseline(root: &Path, baseline_text: &str) -> Result<Analysis, String> {
    let entries = baseline::parse(baseline_text, &LINT)?;
    let (mut analysis, findings) = analyze(root).map_err(|e| format!("scan failed: {e}"))?;
    analysis.matched = baseline::apply(findings, &entries);
    Ok(analysis)
}
