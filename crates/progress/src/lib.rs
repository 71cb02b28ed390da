//! Static progress-guarantee and reclamation-safety lint.
//!
//! The paper's value proposition is *progress*: the Theorem 2 retry
//! bounds (`crates/analysis::retry_bound`, exercised by
//! `tests/theorem2_opstats.rs`) are sound only if every operation they
//! cover really is lock-free. A single blocking call on a hot path, an
//! unbounded non-CAS wait, or a use-after-retire silently voids the
//! analysis — and none of the existing checkers watch for that:
//! `ordlint` checks *orderings*, `interleave` checks *interleavings* of
//! hand-written models. This crate closes the gap statically:
//!
//! 1. [`scan`] parses the workspace sources (`src/`, `crates/lockfree`,
//!    `crates/trace`, `crates/core`, `vendor/crossbeam/src`) into
//!    impl-qualified functions with their lexical features.
//! 2. [`callgraph`] wires them into a per-function call graph with a
//!    precision-first resolution precedence.
//! 3. [`manifest`] reads `progress.toml`, which declares every public
//!    operation of `crates/lockfree` and the vendored epoch API as
//!    `wait_free` / `lock_free` / `blocking` (+ `no_alloc`) — and the
//!    analysis enforces that the declared set matches the public-fn set
//!    *exactly*, so the manifest and the API can only drift together.
//! 4. [`rules`] applies PRG001–PRG006 over functions and reachability.
//! 5. Findings diff against the `[[baseline]]` entries in the same file
//!    under `lfrt_srcscan::baseline`'s contract (unbaselined findings and
//!    stale entries both fail, same as `ordlint.toml`).
//!
//! Run it as `cargo run -p lfrt-progress` (add `--json <path>` for the
//! CI artifact, `--list` for the op/function inventory).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod scan;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use lfrt_srcscan::baseline::{self, Lint};
use lfrt_srcscan::items::scan_items;
/// The default `--root`, shared with `lfrt-ordlint` via `lfrt-srcscan`.
pub use lfrt_srcscan::report::workspace_root;
use lfrt_srcscan::source::SourceFile;

use callgraph::Graph;
use manifest::OpDecl;
use rules::Finding;
use scan::FnInfo;

/// What this lint states about itself to the shared baseline reader,
/// report and driver. Unlike `ordlint`, a missing manifest is an error,
/// not an empty baseline — the manifest IS the contract being checked.
pub const LINT: Lint = Lint {
    tool: "progress",
    manifest: "progress.toml",
    manifest_flag: "manifest",
    manifest_required: true,
    error_prefix: "progress.toml:",
    table: "baseline",
    detail_key: "detail",
};

/// The baseline match outcome over this lint's findings.
pub type MatchResult = baseline::MatchResult<Finding>;

/// Everything one run produces.
#[derive(Debug)]
pub struct Analysis {
    /// Scan root as given.
    pub root: String,
    /// Relative paths of every scanned file.
    pub files: Vec<String>,
    /// Number of functions scanned.
    pub functions: usize,
    /// Declared ops.
    pub ops: Vec<OpDecl>,
    /// Public fns in the coverage scope with no `[[op]]` declaration —
    /// these fail the run.
    pub undeclared: Vec<String>,
    /// `[[op]]` declarations matching no public fn in the coverage scope
    /// — these fail the run too.
    pub unresolved: Vec<String>,
    /// Baseline match outcome.
    pub matched: MatchResult,
}

/// Scan roots inside a workspace checkout. `src/` and `crates/core` are
/// scanned so call-graph edges *out of* scheduler code resolve, but only
/// `crates/lockfree` and the vendored epoch implementation carry declared
/// ops; `crates/trace` is scanned because the flight recorder rides on
/// every hot path.
fn workspace_dirs(root: &Path) -> Vec<PathBuf> {
    vec![
        root.join("src"),
        root.join("crates").join("lockfree").join("src"),
        root.join("crates").join("trace").join("src"),
        root.join("crates").join("core").join("src"),
        root.join("vendor").join("crossbeam").join("src"),
    ]
}

/// Whether `rel_path` is in the op-coverage scope: every `pub fn` here
/// must have a manifest entry, and every manifest entry must resolve
/// here. The epoch stand-in's public API is first-party lock-free code
/// (ROADMAP PR 4), so it gets the same contract as `crates/lockfree`.
fn workspace_coverage(rel_path: &str) -> bool {
    rel_path.starts_with("crates/lockfree/src/") || rel_path == "vendor/crossbeam/src/epoch.rs"
}

/// Loads sources for `root`: workspace layout when a `crates/` directory
/// exists, recursive otherwise (fixture directories in tests).
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    lfrt_srcscan::walk::collect_sources(root, &workspace_dirs(root))
        .map_err(|e| format!("scan failed: {e}"))
}

/// Full pipeline: scan, call graph, coverage, rules, baseline match.
///
/// `manifest_text` is the content of `progress.toml`. In workspace
/// layout, coverage is enforced over `crates/lockfree/src` and the
/// vendored `epoch.rs`; in fixture layout (no `crates/`), over every
/// scanned file.
///
/// # Errors
///
/// I/O errors from the scan, or the manifest parse error string.
pub fn analyze(root: &Path, manifest_text: &str) -> Result<Analysis, String> {
    let manifest = manifest::parse(manifest_text)?;
    let sources = collect_sources(root)?;
    let workspace_layout = root.join("crates").is_dir();

    // Flat function list across all files.
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut fn_files: Vec<String> = Vec::new();
    let mut files = Vec::new();
    let mut per_fn_source: Vec<usize> = Vec::new();
    for (si, sf) in sources.iter().enumerate() {
        for info in scan::scan_file(sf) {
            fns.push(info);
            fn_files.push(sf.rel_path.clone());
            per_fn_source.push(si);
        }
        files.push(sf.rel_path.clone());
    }
    let graph = Graph::build(&fns);

    // Coverage: declared set == public-fn set in scope, exactly.
    let in_scope = |rel: &str| !workspace_layout || workspace_coverage(rel);
    let mut public: Vec<&str> = fns
        .iter()
        .zip(&fn_files)
        .filter(|(f, rel)| f.is_pub && in_scope(rel))
        .map(|(f, _)| f.qname.as_str())
        .collect();
    public.sort_unstable();
    public.dedup();
    let undeclared: Vec<String> = public
        .iter()
        .filter(|q| manifest.op(q).is_none())
        .map(|q| q.to_string())
        .collect();
    let unresolved: Vec<String> = manifest
        .ops
        .iter()
        .filter(|o| !public.contains(&o.name.as_str()))
        .map(|o| o.name.clone())
        .collect();

    // Per-op root functions (empty for unresolved ops; rules skip them
    // gracefully, the coverage failure reports them).
    let op_roots: HashMap<String, Vec<usize>> = manifest
        .ops
        .iter()
        .map(|o| (o.name.clone(), graph.by_qname(&o.name).to_vec()))
        .collect();

    let lines = |fn_idx: usize, offset: usize| sources[per_fn_source[fn_idx]].line_of(offset);
    let ctx = rules::Ctx {
        fns: &fns,
        files: &fn_files,
        lines: &lines,
        graph: &graph,
        manifest: &manifest,
        op_roots: &op_roots,
    };
    let findings = rules::run_rules(&ctx);
    let matched = baseline::apply(findings, &manifest.baseline);

    Ok(Analysis {
        root: root.display().to_string(),
        files,
        functions: fns.len(),
        ops: manifest.ops,
        undeclared,
        unresolved,
        matched,
    })
}

/// Enumerates the public ops the manifest must cover for a workspace
/// checkout at `root` — the independent enumeration used by the
/// manifest-sync test.
///
/// # Errors
///
/// Propagates scan I/O errors as strings.
pub fn enumerate_public_ops(root: &Path) -> Result<Vec<String>, String> {
    let sources = collect_sources(root)?;
    let covered = sources.iter().filter(|sf| workspace_coverage(&sf.rel_path));
    let public = covered
        .flat_map(|sf| scan_items(sf).fns)
        .filter(|f| f.is_pub);
    let mut out: Vec<String> = public.map(|f| f.qname).collect();
    out.sort();
    out.dedup();
    Ok(out)
}
