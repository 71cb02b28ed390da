//! Fixture tests: every rule fires at exactly the expected file lines — no
//! more, no fewer — over the hand-written sources in `tests/fixtures/`.
//! (That directory has no `crates/` subdirectory, so [`analyze`] walks it
//! recursively instead of using the workspace layout.)

use std::path::{Path, PathBuf};

use lfrt_ordlint::analyze;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// `(rule, line)` pairs of every finding in one fixture file, in report
/// order.
fn findings_in(file: &str) -> Vec<(String, usize)> {
    let (_, findings) = analyze(&fixtures_root()).expect("fixture scan");
    findings
        .iter()
        .filter(|f| f.file == file)
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn pairs(raw: &[(&str, usize)]) -> Vec<(String, usize)> {
    raw.iter().map(|(r, l)| (r.to_string(), *l)).collect()
}

#[test]
fn ord001_fires_on_relaxed_publication_only() {
    assert_eq!(findings_in("ord001.rs"), pairs(&[("ORD001", 5)]));
}

#[test]
fn ord002_fires_on_binding_and_chain_derefs() {
    assert_eq!(
        findings_in("ord002.rs"),
        pairs(&[("ORD002", 4), ("ORD002", 9), ("ORD002", 23)])
    );
}

#[test]
fn ord003_fires_with_ord005_on_the_swapped_pair() {
    assert_eq!(
        findings_in("ord003.rs"),
        pairs(&[("ORD003", 5), ("ORD005", 5)])
    );
}

#[test]
fn ord004_fires_without_dekker_or_fence() {
    assert_eq!(findings_in("ord004.rs"), pairs(&[("ORD004", 4)]));
}

#[test]
fn ord005_fires_on_feedback_only_failure_value() {
    assert_eq!(findings_in("ord005.rs"), pairs(&[("ORD005", 6)]));
}

#[test]
fn ord006_fires_on_unpaired_fences() {
    assert_eq!(
        findings_in("ord006.rs"),
        pairs(&[("ORD006", 5), ("ORD006", 9)])
    );
}

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(findings_in("clean.rs"), pairs(&[]));
}

#[test]
fn findings_carry_function_and_receiver() {
    let (_, findings) = analyze(&fixtures_root()).expect("fixture scan");
    let f = findings
        .iter()
        .find(|f| f.file == "ord002.rs" && f.line == 4)
        .expect("binding-deref finding");
    assert_eq!(f.function, "deref_via_binding");
    assert_eq!(f.receiver, "head");
    assert_eq!(f.severity, "error");
}

#[test]
fn fixture_scan_sees_every_file() {
    let (analysis, findings) = analyze(&fixtures_root()).expect("fixture scan");
    assert_eq!(
        analysis.files,
        [
            "clean.rs",
            "ord001.rs",
            "ord002.rs",
            "ord003.rs",
            "ord004.rs",
            "ord005.rs",
            "ord006.rs",
            "rawstr.rs"
        ]
    );
    assert_eq!(findings.len(), 10, "{findings:?}");
}

#[test]
fn byte_string_escape_does_not_hide_the_following_site() {
    let (analysis, _) = analyze(&fixtures_root()).expect("fixture scan");
    let site = analysis
        .sites
        .iter()
        .find(|(file, _)| file == "rawstr.rs")
        .map(|(_, s)| s)
        .expect("the load after the byte string must be scanned as a site");
    assert_eq!(site.method, "load");
    assert_eq!(site.function, "tagged");
    assert_eq!(site.orderings, ["Acquire"]);
    // ...and the fixture is otherwise clean.
    assert_eq!(findings_in("rawstr.rs"), pairs(&[]));
}
