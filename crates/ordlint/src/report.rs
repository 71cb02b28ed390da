//! Human-readable and JSON rendering of an analysis.
//!
//! The site inventory and publication graph are this lint's own; the
//! findings, stale entries and summary counts come from
//! `lfrt_srcscan::report`, printed through `lfrt_json`'s canonical printer
//! so CI can archive `ordlint-report.json` as an artifact and diff it
//! across commits byte for byte.
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "root": "...",                // scan root as given
//!   "files_scanned": N,
//!   "sites": [ {file, line, function, receiver, kind, method,
//!               orderings: [...]} ],
//!   "publication_graph": [ {file, receiver,
//!                           writers: [{function, line, kind, ordering}],
//!                           readers: [...]} ],
//!   "findings": [ {rule, severity, file, line, function, receiver,
//!                  message, baselined, justification?} ],
//!   "stale_baseline": [ {rule, file, function, receiver} ],
//!   "summary": {sites, findings, baselined, unbaselined, stale}
//! }
//! ```

use std::fmt::Write as _;

use lfrt_json::Json;
use lfrt_srcscan::report::{matched_json, render_matched};

use crate::graph::{Access, GraphEntry};
use crate::scan::Site;
use crate::{Analysis, LINT};

fn site_json(s: &Site, file: &str) -> Json {
    Json::obj([
        ("file", file.into()),
        ("line", s.line.into()),
        ("function", s.function.as_str().into()),
        ("receiver", s.receiver.as_str().into()),
        ("kind", s.kind.name().into()),
        ("method", s.method.as_str().into()),
        ("orderings", s.orderings.clone().into()),
    ])
}

fn access_json(a: &Access) -> Json {
    Json::obj([
        ("function", a.function.as_str().into()),
        ("line", a.line.into()),
        ("kind", a.kind.into()),
        ("ordering", a.ordering.as_str().into()),
    ])
}

fn graph_json(g: &GraphEntry) -> Json {
    let accesses = |list: &[Access]| Json::Arr(list.iter().map(access_json).collect());
    Json::obj([
        ("file", g.file.as_str().into()),
        ("receiver", g.receiver.as_str().into()),
        ("writers", accesses(&g.writers)),
        ("readers", accesses(&g.readers)),
    ])
}

/// The full JSON document for an analysis.
pub fn to_json(analysis: &Analysis) -> Json {
    let sites = analysis.sites.iter().map(|(file, s)| site_json(s, file));
    let graph = analysis.graph.iter().map(graph_json);
    let mut doc = vec![
        ("schema_version", 1u64.into()),
        ("root", analysis.root.as_str().into()),
        ("files_scanned", analysis.files.len().into()),
        ("sites", Json::Arr(sites.collect())),
        ("publication_graph", Json::Arr(graph.collect())),
    ];
    let counts = [("sites", analysis.sites.len())];
    doc.extend(matched_json(&LINT, &analysis.matched, &counts, &[]));
    Json::obj(doc)
}

/// The human-readable report. `list_sites` additionally dumps the full
/// site inventory and publication graph.
pub fn render_text(analysis: &Analysis, list_sites: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ordlint: {} files, {} atomic sites with literal orderings",
        analysis.files.len(),
        analysis.sites.len()
    );
    if list_sites {
        render_inventory(&mut out, analysis);
    }
    render_matched(&mut out, &LINT, &analysis.matched);
    out.push('\n');
    out
}

fn render_inventory(out: &mut String, analysis: &Analysis) {
    for (file, s) in &analysis.sites {
        let (line, kind, receiver, method) = (s.line, s.kind.name(), &s.receiver, &s.method);
        let orderings = s.orderings.join(", ");
        let _ = writeln!(
            out,
            "  site {file}:{line} {kind} `{receiver}`.{method}({orderings})"
        );
    }
    for g in &analysis.graph {
        if g.writers.is_empty() || g.readers.is_empty() {
            continue;
        }
        let _ = writeln!(out, "  publish {} `{}`:", g.file, g.receiver);
        for (role, accesses) in [("writer", &g.writers), ("reader", &g.readers)] {
            for a in accesses {
                let (function, line, kind, ordering) = (&a.function, a.line, a.kind, &a.ordering);
                let _ = writeln!(out, "    {role} {function}:{line} {kind} {ordering}");
            }
        }
    }
}
