//! Human-readable and JSON rendering of a progress analysis.
//!
//! The op table and coverage lists are this lint's own; the findings,
//! stale entries and summary counts come from `lfrt_srcscan::report`,
//! printed through `lfrt_json`'s canonical printer so CI can archive
//! `progress-report.json` as an artifact and diff it across commits byte
//! for byte.
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "root": "...",
//!   "files_scanned": N,
//!   "functions_scanned": N,
//!   "ops": [ {name, class, no_alloc} ],
//!   "coverage": { "undeclared": [...], "unresolved": [...] },
//!   "findings": [ {rule, file, line, function, detail, message,
//!                  baselined, justification?} ],
//!   "stale_baseline": [ {rule, file, function, detail} ],
//!   "summary": {ops, findings, baselined, unbaselined, stale,
//!               undeclared, unresolved}
//! }
//! ```

use std::fmt::Write as _;

use lfrt_json::Json;
use lfrt_srcscan::report::{matched_json, render_matched};

use crate::manifest::OpDecl;
use crate::{Analysis, LINT};

/// The full JSON document for an analysis.
pub fn to_json(analysis: &Analysis) -> Json {
    let op = |o: &OpDecl| {
        Json::obj([
            ("name", o.name.as_str().into()),
            ("class", o.class.name().into()),
            ("no_alloc", o.no_alloc.into()),
        ])
    };
    let coverage = Json::obj([
        ("undeclared", analysis.undeclared.clone().into()),
        ("unresolved", analysis.unresolved.clone().into()),
    ]);
    let mut doc = vec![
        ("schema_version", 1u64.into()),
        ("root", analysis.root.as_str().into()),
        ("files_scanned", analysis.files.len().into()),
        ("functions_scanned", analysis.functions.into()),
        ("ops", Json::Arr(analysis.ops.iter().map(op).collect())),
        ("coverage", coverage),
    ];
    let ops = [("ops", analysis.ops.len())];
    let uncovered = [
        ("undeclared", analysis.undeclared.len()),
        ("unresolved", analysis.unresolved.len()),
    ];
    doc.extend(matched_json(&LINT, &analysis.matched, &ops, &uncovered));
    Json::obj(doc)
}

/// The human-readable report. `list_ops` additionally dumps the declared
/// op table.
pub fn render_text(analysis: &Analysis, list_ops: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "progress: {} files, {} functions, {} declared ops",
        analysis.files.len(),
        analysis.functions,
        analysis.ops.len()
    );
    if list_ops {
        for o in &analysis.ops {
            let _ = writeln!(
                out,
                "  op {} {}{}",
                o.name,
                o.class,
                if o.no_alloc { " no_alloc" } else { "" }
            );
        }
    }
    for q in &analysis.undeclared {
        let _ = writeln!(
            out,
            "coverage: public op `{q}` has no [[op]] declaration in progress.toml"
        );
    }
    for q in &analysis.unresolved {
        let _ = writeln!(
            out,
            "coverage: progress.toml declares `{q}` but no such public fn exists"
        );
    }
    render_matched(&mut out, &LINT, &analysis.matched);
    let _ = writeln!(
        out,
        "; {} undeclared, {} unresolved op(s)",
        analysis.undeclared.len(),
        analysis.unresolved.len(),
    );
    out
}

/// Exit status for the run: success only when nothing is unbaselined,
/// nothing is stale, and the manifest covers the public API exactly.
pub fn is_clean(analysis: &Analysis) -> bool {
    analysis.matched.is_clean() && analysis.undeclared.is_empty() && analysis.unresolved.is_empty()
}
