//! The ordering rules, ORD001–ORD006.
//!
//! Every rule is a *local* heuristic over one function body: cheap, fully
//! deterministic, and honest about its reach. A firing is a request for
//! review, not a proof of a bug — real but intentional patterns (a
//! constructor publishing with `Relaxed` before the object is shared, a
//! `Drop` walking nodes with exclusive access) get a justified entry in the
//! checked-in `ordlint.toml` baseline instead of a code change. The
//! store-buffer mode of `lfrt-interleave` is the dynamic complement: it
//! confirms or refutes what these rules merely suspect.
//!
//! | rule | severity | fires on |
//! |---------|----------|----------|
//! | ORD001 | error | `Relaxed` store/CAS publishing a newly allocated value |
//! | ORD002 | error | `Relaxed` load whose value is dereferenced |
//! | ORD003 | error | CAS failure ordering stronger than its success ordering |
//! | ORD004 | perf | `SeqCst` with no local store→load (Dekker) pattern |
//! | ORD005 | perf | CAS failure `Acquire`+ whose failure value is never dereferenced |
//! | ORD006 | warn | fence with no pairable atomic access in its function |

use crate::dataflow::{
    bindings, contains_word, deref_use_after, err_binding_after, propagate, starts_with_deref,
    Binding,
};
use crate::scan::{Kind, ScanResult, Site};
use crate::source::SourceFile;
use lfrt_srcscan::items::FnItem;

/// One rule firing, anchored to a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID, `ORD001`–`ORD006`.
    pub rule: &'static str,
    /// `error`, `warn`, or `perf`.
    pub severity: &'static str,
    /// File the site is in, relative to the scan root.
    pub file: String,
    /// 1-based line of the site.
    pub line: usize,
    /// Enclosing function name.
    pub function: String,
    /// Normalized receiver (empty for fences).
    pub receiver: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (file, line, rule, severity) = (&self.file, self.line, self.rule, self.severity);
        let (function, receiver, message) = (&self.function, &self.receiver, &self.message);
        write!(
            f,
            "{file}:{line}: {rule} [{severity}] in `{function}` on `{receiver}`: {message}"
        )
    }
}

impl lfrt_srcscan::baseline::Finding for Finding {
    fn key(&self) -> [&str; 4] {
        [self.rule, &self.file, &self.function, &self.receiver]
    }
    fn line(&self) -> usize {
        self.line
    }
    fn message(&self) -> &str {
        &self.message
    }
    fn severity(&self) -> Option<&str> {
        Some(self.severity)
    }
}

/// Strength rank used by ORD003/ORD005. `Release` and `Acquire` are
/// one-sided and incomparable in the memory model; for "failure stronger
/// than success" purposes ranking them equal is the conservative reading.
fn rank(order: &str) -> u8 {
    match order {
        "Relaxed" => 0,
        "Acquire" | "Release" => 1,
        "AcqRel" => 2,
        "SeqCst" => 3,
        _ => 0,
    }
}

const ALLOC_MARKERS: [&str; 5] = [
    "Box::new(",
    "Owned::new(",
    "Arc::new(",
    "Rc::new(",
    ".alloc(",
];

/// Runs every rule over one scanned file.
pub fn run_rules(sf: &SourceFile, scan: &ScanResult) -> Vec<Finding> {
    let mut findings = Vec::new();
    for span in &scan.functions {
        let sites: Vec<&Site> = scan
            .sites
            .iter()
            .filter(|s| s.offset >= span.start && s.offset < span.end && s.function == span.name)
            .collect();
        if sites.is_empty() {
            continue;
        }
        let binds = bindings(&sf.clean, (span.start, span.end));
        rule_ord001(sf, &sites, &binds, &mut findings);
        rule_ord002(sf, span, &sites, &binds, &mut findings);
        rule_ord003(sf, &sites, &mut findings);
        rule_ord004(sf, &sites, &mut findings);
        rule_ord005(sf, span, &sites, &mut findings);
        rule_ord006(sf, &sites, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn emit(
    findings: &mut Vec<Finding>,
    sf: &SourceFile,
    site: &Site,
    rule: &'static str,
    severity: &'static str,
    message: String,
) {
    findings.push(Finding {
        rule,
        severity,
        file: sf.rel_path.clone(),
        line: site.line,
        function: site.function.clone(),
        receiver: site.receiver.clone(),
        message,
    });
}

/// ORD001: a `Relaxed`-published pointer to a newly allocated value lets an
/// observer dereference the allocation before its initializing stores are
/// visible — exactly the reordering `RelaxedPubStack` demonstrates under
/// the store-buffer explorer.
fn rule_ord001(sf: &SourceFile, sites: &[&Site], binds: &[Binding], findings: &mut Vec<Finding>) {
    let seeds: Vec<(String, usize)> = binds
        .iter()
        .filter(|b| {
            let rhs = &sf.clean[b.rhs.0..b.rhs.1];
            ALLOC_MARKERS.iter().any(|m| rhs.contains(m))
        })
        .map(|b| (b.name.clone(), b.offset))
        .collect();
    if seeds.is_empty() {
        return;
    }
    let tainted = propagate(&sf.clean, binds, &seeds);
    for site in sites {
        let publishes_relaxed = site.kind.is_store_like()
            && site.orderings.first().map(String::as_str) == Some("Relaxed");
        if !publishes_relaxed {
            continue;
        }
        if let Some((name, _)) = tainted
            .iter()
            .find(|(n, at)| *at < site.offset && contains_word(&site.args, n))
        {
            emit(
                findings,
                sf,
                site,
                "ORD001",
                "error",
                format!(
                    "Relaxed {} publishes newly allocated value `{name}`; \
                     an observer may dereference it before its initializing \
                     stores become visible — use Release",
                    site.method
                ),
            );
        }
    }
}

/// ORD002: dereferencing the value of a `Relaxed` load reads through a
/// pointer with no acquire edge to the stores that initialized the
/// pointee.
fn rule_ord002(
    sf: &SourceFile,
    span: &FnItem,
    sites: &[&Site],
    binds: &[Binding],
    findings: &mut Vec<Finding>,
) {
    let fspan = (span.start, span.end);
    for site in sites {
        if site.kind != Kind::Load || site.orderings.first().map(String::as_str) != Some("Relaxed")
        {
            continue;
        }
        // (a) The loaded value is dereferenced in the same chain:
        // `x.load(Relaxed, g).deref()`.
        let chain_deref = starts_with_deref(sf.clean[site.args_end..span.end].trim_start());
        // (b) The value is bound and a tainted identifier is dereferenced
        // later in the function.
        let deref_at = if chain_deref {
            Some(site.offset)
        } else {
            binds
                .iter()
                .find(|b| b.rhs.0 <= site.offset && site.offset < b.rhs.1)
                .and_then(|b| {
                    let tainted = propagate(&sf.clean, binds, &[(b.name.clone(), b.offset)]);
                    tainted
                        .iter()
                        .filter_map(|(n, at)| deref_use_after(&sf.clean, fspan, n, *at))
                        .min()
                })
        };
        if let Some(at) = deref_at {
            emit(
                findings,
                sf,
                site,
                "ORD002",
                "error",
                format!(
                    "value of Relaxed load is dereferenced (line {}); without \
                     Acquire the pointee's initialization may not be visible — \
                     use Acquire",
                    sf.line_of(at)
                ),
            );
        }
    }
}

/// ORD003: a failure ordering stronger than the success ordering buys
/// nothing (the failure path observed no new value to synchronize with)
/// and usually indicates swapped arguments.
fn rule_ord003(sf: &SourceFile, sites: &[&Site], findings: &mut Vec<Finding>) {
    for site in sites {
        if site.kind != Kind::Cas || site.orderings.len() < 2 {
            continue;
        }
        let (success, failure) = (&site.orderings[0], &site.orderings[1]);
        if rank(failure) > rank(success) {
            emit(
                findings,
                sf,
                site,
                "ORD003",
                "error",
                format!(
                    "compare_exchange failure ordering {failure} is stronger \
                     than success ordering {success}; the failure path cannot \
                     need more synchronization than the success path"
                ),
            );
        }
    }
}

/// ORD004: `SeqCst` is only distinguishable from `Acquire`/`Release` when
/// a thread's store to one location must be globally ordered before its
/// load of *another* (the Dekker/store→load pattern). A function whose
/// `SeqCst` sites show no such pattern locally — no `SeqCst` store
/// textually before a `SeqCst` load of a different receiver, and no
/// `fence(SeqCst)` — gets flagged for downgrade or justification.
fn rule_ord004(sf: &SourceFile, sites: &[&Site], findings: &mut Vec<Finding>) {
    let sc: Vec<&&Site> = sites
        .iter()
        .filter(|s| s.orderings.iter().any(|o| o == "SeqCst"))
        .collect();
    if sc.is_empty() {
        return;
    }
    if sc.iter().any(|s| s.kind == Kind::Fence) {
        return; // an explicit SC fence is the store→load barrier
    }
    let dekker = sc.iter().any(|a| {
        a.kind.is_store_like()
            && sc
                .iter()
                .any(|b| b.kind.is_load_like() && a.offset < b.offset && a.receiver != b.receiver)
    });
    if dekker {
        return;
    }
    for site in sc {
        emit(
            findings,
            sf,
            site,
            "ORD004",
            "perf",
            format!(
                "SeqCst {} with no local store\u{2192}load (Dekker) pattern: \
                 Acquire/Release appears sufficient — downgrade or justify",
                site.method
            ),
        );
    }
}

/// ORD005: an `Acquire`-or-stronger failure ordering only matters when the
/// observed (failure) value is dereferenced; feeding it back as the next
/// CAS expectation needs no synchronization, so `Relaxed` suffices.
fn rule_ord005(sf: &SourceFile, span: &FnItem, sites: &[&Site], findings: &mut Vec<Finding>) {
    let fspan = (span.start, span.end);
    for site in sites {
        if site.kind != Kind::Cas || site.orderings.len() < 2 {
            continue;
        }
        let failure = &site.orderings[1];
        if rank(failure) < rank("Acquire") {
            continue;
        }
        let dereferenced = match err_binding_after(&sf.clean, fspan, site.args_end) {
            Some((ident, at)) => deref_use_after(&sf.clean, fspan, &ident, at).is_some(),
            None => false,
        };
        if !dereferenced {
            emit(
                findings,
                sf,
                site,
                "ORD005",
                "perf",
                format!(
                    "compare_exchange failure ordering {failure}, but the \
                     failure value is never dereferenced — Relaxed failure \
                     ordering suffices"
                ),
            );
        }
    }
}

/// ORD006: a fence orders *other* accesses; one with nothing to pair with
/// in its function is either dead or paired across functions (justify it).
fn rule_ord006(sf: &SourceFile, sites: &[&Site], findings: &mut Vec<Finding>) {
    for site in sites {
        if site.kind != Kind::Fence {
            continue;
        }
        let order = site.orderings.first().map(String::as_str).unwrap_or("");
        let store_after = sites
            .iter()
            .any(|s| s.kind != Kind::Fence && s.kind.is_store_like() && s.offset > site.offset);
        let load_before = sites
            .iter()
            .any(|s| s.kind != Kind::Fence && s.kind.is_load_like() && s.offset < site.offset);
        let any_other = sites.iter().any(|s| s.kind != Kind::Fence);
        let (unpaired, need) = match order {
            "Release" => (!store_after, "a subsequent atomic store"),
            "Acquire" => (!load_before, "a preceding atomic load"),
            "AcqRel" => (
                !store_after || !load_before,
                "a preceding load and a subsequent store",
            ),
            _ => (!any_other, "any atomic access"), // SeqCst
        };
        if unpaired {
            emit(
                findings,
                sf,
                site,
                "ORD006",
                "warn",
                format!(
                    "{order} fence with no pairable access: needs {need} in \
                     this function to order anything"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_file;

    fn check(src: &str) -> Vec<Finding> {
        let sf = SourceFile::new("t.rs", src);
        run_rules(&sf, &scan_file(&sf))
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn ord001_relaxed_publication_of_allocation() {
        let fire = "
fn publish(&self) {
    let node = Box::new(Node::default());
    self.top.store(node, Relaxed);
}
";
        assert_eq!(rules_of(&check(fire)), ["ORD001"]);
        let release = "
fn publish(&self) {
    let node = Box::new(Node::default());
    self.top.store(node, Release);
}
";
        assert!(check(release).is_empty());
        // Initializing a field OF the new node with Relaxed is fine: the
        // allocation is the receiver, not the published value.
        let init = "
fn push(&self) {
    let new = Owned::new(Node::default());
    new.next.store(top, Relaxed);
    self.top.compare_exchange(top, new, Release, Relaxed, guard);
}
";
        assert!(check(init).is_empty(), "{:?}", check(init));
    }

    #[test]
    fn ord002_deref_of_relaxed_load() {
        let fire = "
fn drop(&mut self) {
    let node = self.top.load(Relaxed, guard);
    let next = node.deref().next;
}
";
        let f = check(fire);
        assert_eq!(rules_of(&f), ["ORD002"]);
        assert_eq!(f[0].receiver, "self.top");
        let acquire = "
fn walk(&self) {
    let node = self.top.load(Acquire, guard);
    let next = node.deref().next;
}
";
        assert!(check(acquire).is_empty());
        let no_deref = "
fn peek(&self) {
    let v = self.version.load(Relaxed);
    if v == 0 { return; }
}
";
        assert!(check(no_deref).is_empty());
    }

    #[test]
    fn ord003_failure_stronger_than_success() {
        // The unused Acquire failure value also fires ORD005 — the two
        // rules diagnose independent aspects of the same bad pair.
        let fire = "fn f(&self) { self.v.compare_exchange(a, b, Relaxed, Acquire); }";
        assert_eq!(rules_of(&check(fire)), ["ORD003", "ORD005"]);
        let ok = "fn f(&self) { self.v.compare_exchange(a, b, AcqRel, Acquire); }";
        assert_ne!(rules_of(&check(ok)), ["ORD003"]);
    }

    #[test]
    fn ord004_seqcst_without_dekker_pattern() {
        let fire = "fn bump(&self) { self.count.fetch_add(1, SeqCst); }";
        assert_eq!(rules_of(&check(fire)), ["ORD004"]);
        let dekker = "
fn lock(&self) {
    self.flag.store(true, SeqCst);
    if self.other.load(SeqCst) { return; }
}
";
        assert!(check(dekker).is_empty());
        let fenced = "
fn lock(&self) {
    self.flag.store(true, SeqCst);
    fence(SeqCst);
}
";
        assert!(check(fenced).is_empty());
    }

    #[test]
    fn ord005_unused_failure_value_with_acquire() {
        let fire = "
fn update(&self) {
    match self.v.compare_exchange_weak(cur, next, AcqRel, Acquire) {
        Ok(p) => return,
        Err(actual) => cur = actual,
    }
}
";
        assert_eq!(rules_of(&check(fire)), ["ORD005"]);
        let relaxed = "
fn update(&self) {
    match self.v.compare_exchange_weak(cur, next, AcqRel, Relaxed) {
        Ok(p) => return,
        Err(actual) => cur = actual,
    }
}
";
        assert!(check(relaxed).is_empty());
        let derefs = "
fn retry(&self) {
    match self.head.compare_exchange(cur, next, Release, Acquire) {
        Ok(p) => return,
        Err(seen) => { let n = seen.deref(); }
    }
}
";
        assert!(check(derefs).is_empty(), "{:?}", check(derefs));
    }

    #[test]
    fn ord006_unpaired_fences() {
        let fire = "fn f(&self) { self.v.store(1, Relaxed); fence(Release); }";
        assert_eq!(rules_of(&check(fire)), ["ORD006"]);
        let paired = "
fn write(&self) {
    let v = self.version.load(Relaxed);
    fence(Release);
    self.version.store(v, Release);
}
";
        assert!(check(paired).is_empty());
        let acquire_fire = "fn f(&self) { fence(Acquire); self.v.load(Relaxed); }";
        assert_eq!(rules_of(&check(acquire_fire)), ["ORD006"]);
    }
}
