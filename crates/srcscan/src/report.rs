//! The report and driver skeleton both checkers share.
//!
//! A lint's report is its own header and inventory wrapped around the same
//! core: the findings (unbaselined first) as JSON and text, the stale
//! baseline entries, and the summary counts. The binaries share one
//! driver too — `--root DIR`, `--<manifest_flag> FILE`, `--list`,
//! `--json PATH`, and the exit status: 0 clean, 1 findings, 2 I/O or parse
//! errors. The JSON goes through `lfrt_json`'s canonical printer, so CI can
//! archive a report as an artifact and diff it across commits byte for
//! byte.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lfrt_json::{Args, Json};

use crate::baseline::{Finding, Lint, MatchResult};

fn finding_json<F: Finding>(lint: &Lint, f: &F, justification: Option<&str>) -> Json {
    let [rule, file, function, detail] = f.key();
    let mut fields = vec![("rule", rule.into())];
    fields.extend(f.severity().map(|s| ("severity", s.into())));
    fields.extend([
        ("file", file.into()),
        ("line", f.line().into()),
        ("function", function.into()),
        (lint.detail_key, detail.into()),
        ("message", f.message().into()),
        ("baselined", justification.is_some().into()),
    ]);
    fields.extend(justification.map(|j| ("justification", j.into())));
    Json::obj(fields)
}

/// The members every report ends with: `findings` (unbaselined first, then
/// baselined with their justifications), `stale_baseline`, and `summary` —
/// findings / baselined / unbaselined / stale between the lint's own
/// `head` and `tail` counts.
pub fn matched_json<'a, F: Finding>(
    lint: &Lint,
    m: &MatchResult<F>,
    head: &[(&'a str, usize)],
    tail: &[(&'a str, usize)],
) -> [(&'a str, Json); 3] {
    let unbaselined = m.unbaselined.iter().map(|f| finding_json(lint, f, None));
    let baselined = m.baselined.iter();
    let baselined = baselined.map(|(f, j)| finding_json(lint, f, Some(j)));
    let stale = m.stale.iter().map(|e| {
        Json::obj([
            ("rule", e.rule.as_str().into()),
            ("file", e.file.as_str().into()),
            ("function", e.function.as_str().into()),
            (lint.detail_key, e.detail.as_str().into()),
        ])
    });
    let counts = [
        ("findings", m.baselined.len() + m.unbaselined.len()),
        ("baselined", m.baselined.len()),
        ("unbaselined", m.unbaselined.len()),
        ("stale", m.stale.len()),
    ];
    let summary = head.iter().chain(&counts).chain(tail);
    [
        (
            "findings",
            Json::Arr(unbaselined.chain(baselined).collect()),
        ),
        ("stale_baseline", Json::Arr(stale.collect())),
        ("summary", Json::obj(summary.map(|&(k, n)| (k, n.into())))),
    ]
}

/// Appends the text form of the match outcome — one line per unbaselined
/// finding (its `Display`), per baselined finding, and per stale entry —
/// and the closing count sentence, without its newline (a lint may extend
/// it).
pub fn render_matched<F: Finding>(out: &mut String, lint: &Lint, m: &MatchResult<F>) {
    for f in &m.unbaselined {
        let _ = writeln!(out, "{f}");
    }
    for (f, justification) in &m.baselined {
        let [rule, file, ..] = f.key();
        let _ = writeln!(
            out,
            "{file}:{}: {rule} baselined: {justification}",
            f.line()
        );
    }
    for e in &m.stale {
        let _ = writeln!(
            out,
            "{}:{}: stale [[{}]] entry ({} {} `{}` `{}`) matches no finding — remove it",
            lint.manifest, e.line, lint.table, e.rule, e.file, e.function, e.detail
        );
    }
    let _ = write!(
        out,
        "{} finding(s): {} baselined, {} unbaselined; {} stale baseline entr{}",
        m.baselined.len() + m.unbaselined.len(),
        m.baselined.len(),
        m.unbaselined.len(),
        m.stale.len(),
        if m.stale.len() == 1 { "y" } else { "ies" },
    );
}

/// The workspace root the checkers were built in (two levels above a crate
/// manifest) — the default `--root`.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// What one run hands back to the driver.
pub struct Outcome {
    /// The human-readable report, printed to stdout.
    pub text: String,
    /// The JSON document, written when `--json PATH` is given.
    pub json: Json,
    /// Whether the run passes (exit 0) or fails (exit 1).
    pub clean: bool,
}

/// The `main` of a lint binary: reads the flags and the manifest, runs
/// `analyze(root, manifest_text, list)`, prints and writes its outcome.
pub fn run(
    lint: &Lint,
    analyze: impl FnOnce(&Path, &str, bool) -> Result<Outcome, String>,
) -> ExitCode {
    let tool = lint.tool;
    let args = Args::from_env();
    let path_flag = |key: &str| {
        let value = args.get_str(key, "");
        (!value.is_empty()).then(|| PathBuf::from(value))
    };
    let root = path_flag("root").unwrap_or_else(workspace_root);
    let manifest_path = path_flag(lint.manifest_flag).unwrap_or_else(|| root.join(lint.manifest));
    let manifest_text = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && !lint.manifest_required => {
            String::new()
        }
        Err(e) => {
            eprintln!("{tool}: cannot read {}: {e}", manifest_path.display());
            return ExitCode::from(2);
        }
    };
    let outcome = match analyze(
        &root,
        &manifest_text,
        args.get_str("list", "false") == "true",
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{tool}: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.text);
    if let Some(path) = path_flag("json") {
        if let Err(e) = std::fs::write(&path, outcome.json.to_string_pretty()) {
            eprintln!("{tool}: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("{tool}: wrote {}", path.display());
    }
    if outcome.clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::apply;
    use crate::baseline::tests::{entry_text, parse, Probe, LINT};

    #[test]
    fn json_and_text_cover_all_three_outcomes() {
        let entries = parse(&(entry_text("R1", "f", "known") + &entry_text("R2", "g", "old")))
            .expect("valid baseline");
        let m = apply(
            vec![
                Probe(["R1", "a.rs", "f", "self.top"], 3),
                Probe(["R3", "c.rs", "h", "p"], 7),
            ],
            &entries,
        );
        let doc = Json::obj(matched_json(&LINT, &m, &[("sites", 5)], &[("extra", 0)]));
        let findings = doc.get("findings").and_then(Json::as_array).unwrap();
        // Unbaselined first; the fourth key part carries the lint's name
        // for it; no severity member unless the finding has one.
        let keys = |j: &Json| match j {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => panic!("finding must be an object"),
        };
        assert_eq!(
            keys(&findings[0]),
            [
                "rule",
                "file",
                "line",
                "function",
                "receiver",
                "message",
                "baselined"
            ]
        );
        assert_eq!(findings[0].get("rule").and_then(Json::as_str), Some("R3"));
        assert_eq!(findings[0].get("baselined"), Some(&Json::Bool(false)));
        assert_eq!(
            findings[1].get("justification").and_then(Json::as_str),
            Some("known")
        );
        let stale = doc.get("stale_baseline").and_then(Json::as_array).unwrap();
        assert_eq!(keys(&stale[0]), ["rule", "file", "function", "receiver"]);
        let summary = doc.get("summary").unwrap();
        assert_eq!(
            keys(summary),
            [
                "sites",
                "findings",
                "baselined",
                "unbaselined",
                "stale",
                "extra"
            ]
        );
        for (key, want) in [
            ("sites", 5.0),
            ("findings", 2.0),
            ("baselined", 1.0),
            ("unbaselined", 1.0),
            ("stale", 1.0),
        ] {
            assert_eq!(summary.get(key).and_then(Json::as_f64), Some(want), "{key}");
        }

        let mut text = String::new();
        render_matched(&mut text, &LINT, &m);
        assert_eq!(
            text,
            "c.rs:7: R3 fired\n\
             a.rs:3: R1 baselined: known\n\
             demo.toml:7: stale [[allow]] entry (R2 a.rs `g` `self.top`) matches no finding — remove it\n\
             2 finding(s): 1 baselined, 1 unbaselined; 1 stale baseline entry"
        );
    }
}
