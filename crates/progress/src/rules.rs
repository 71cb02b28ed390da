//! The six progress rules, PRG001–PRG006.
//!
//! PRG001, PRG003, and PRG004 are *structural*: they apply to every
//! scanned function, manifest or not — a pause-less CAS retry loop or a
//! guard-escaping pointer is wrong no matter what the enclosing op
//! declares. PRG002, PRG005, and PRG006 are *contract* rules: they check
//! the call graph reachable from each declared op against its declared
//! class (`lock_free`+ must not reach a blocking primitive, `wait_free`
//! must not spin on another thread's progress, `no_alloc` must not reach
//! the heap).

use std::collections::HashMap;

use crate::callgraph::Graph;
use crate::manifest::Manifest;
use crate::scan::{FnInfo, LoopInfo};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule ID (`PRG001`...).
    pub rule: String,
    /// Relative path of the file.
    pub file: String,
    /// 1-based line of the anchoring token.
    pub line: usize,
    /// Qualified name of the containing function.
    pub function: String,
    /// Rule-specific discriminator — the baseline key's fourth component
    /// (CAS receiver, blocking token, escaping identifier, alloc token,
    /// loop keyword + re-read receiver).
    pub detail: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} in `{}` [{}]: {}",
            self.file, self.line, self.rule, self.function, self.detail, self.message
        )
    }
}

impl lfrt_srcscan::baseline::Finding for Finding {
    fn key(&self) -> [&str; 4] {
        [&self.rule, &self.file, &self.function, &self.detail]
    }
    fn line(&self) -> usize {
        self.line
    }
    fn message(&self) -> &str {
        &self.message
    }
}

/// Context shared by all rules: the flat function list, which file each
/// function is in, and per-function line lookup.
pub struct Ctx<'a> {
    /// All scanned functions, flat across files.
    pub fns: &'a [FnInfo],
    /// Parallel to `fns`: relative path of the defining file.
    pub files: &'a [String],
    /// Parallel to `fns`: maps a byte offset to a 1-based line.
    pub lines: &'a dyn Fn(usize, usize) -> usize,
    /// The call graph.
    pub graph: &'a Graph,
    /// The manifest.
    pub manifest: &'a Manifest,
    /// Per-op resolved root functions (qname -> fn indices).
    pub op_roots: &'a HashMap<String, Vec<usize>>,
}

impl Ctx<'_> {
    fn line(&self, fn_idx: usize, offset: usize) -> usize {
        (self.lines)(fn_idx, offset)
    }
}

/// Runs all six rules, sorted by (file, line, rule).
pub fn run_rules(ctx: &Ctx<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    prg001_cas_without_backoff(ctx, &mut findings);
    prg002_blocking_reachable(ctx, &mut findings);
    prg003_guard_escape(ctx, &mut findings);
    prg004_retire_before_unlink(ctx, &mut findings);
    prg005_unbounded_wait_free_loop(ctx, &mut findings);
    prg006_alloc_reachable(ctx, &mut findings);
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.detail).cmp(&(&b.file, b.line, &b.rule, &b.detail))
    });
    findings
}

/// The innermost loop of `f` containing `offset`.
fn innermost_loop(f: &FnInfo, offset: usize) -> Option<&LoopInfo> {
    f.loops
        .iter()
        .filter(|l| l.span.0 <= offset && offset < l.span.1)
        .min_by_key(|l| l.span.1 - l.span.0)
}

/// PRG001: a CAS retry loop with no bounded `Backoff` pacing call
/// (`.spin()`/`.snooze()`) anywhere in the loop body. Structural — every
/// scanned function, declared or not.
fn prg001_cas_without_backoff(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    for (i, f) in ctx.fns.iter().enumerate() {
        for cas in &f.cas {
            let Some(lp) = innermost_loop(f, cas.offset) else {
                continue; // single-attempt CAS, nothing to pace
            };
            let paced = f.pacing.iter().any(|&p| lp.span.0 <= p && p < lp.span.1);
            if paced {
                continue;
            }
            findings.push(Finding {
                rule: "PRG001".into(),
                file: ctx.files[i].clone(),
                line: ctx.line(i, cas.offset),
                function: f.qname.clone(),
                detail: cas.receiver.clone(),
                message: format!(
                    "CAS retry {} on `{}` has no bounded Backoff on its failure arm \
                     (add `backoff.spin()`/`snooze()` or justify in progress.toml)",
                    lp.kind, cas.receiver
                ),
            });
        }
    }
}

/// PRG002: a blocking primitive reachable in the call graph from an op
/// declared `lock_free` or `wait_free`. One finding per blocking site,
/// naming every declared op that reaches it and one witness path.
fn prg002_blocking_reachable(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    // site key: (fn_idx, token offset) -> (ops, witness path)
    let mut sites: HashMap<(usize, usize), (Vec<String>, Vec<usize>)> = HashMap::new();
    for op in &ctx.manifest.ops {
        if !op.class.at_least_lock_free() {
            continue;
        }
        let roots = &ctx.op_roots[&op.name];
        let reached = ctx.graph.reachable(roots);
        for (&fn_idx, path) in &reached {
            for tok in &ctx.fns[fn_idx].blocking {
                let entry = sites
                    .entry((fn_idx, tok.offset))
                    .or_insert_with(|| (Vec::new(), path.clone()));
                entry.0.push(format!("{} ({})", op.name, op.class));
            }
        }
    }
    for ((fn_idx, offset), (mut ops, path)) in sites {
        ops.sort();
        ops.dedup();
        let f = &ctx.fns[fn_idx];
        let token = f
            .blocking
            .iter()
            .find(|t| t.offset == offset)
            .map(|t| t.token.clone())
            .unwrap_or_default();
        let via: Vec<&str> = path.iter().map(|&k| ctx.fns[k].qname.as_str()).collect();
        findings.push(Finding {
            rule: "PRG002".into(),
            file: ctx.files[fn_idx].clone(),
            line: ctx.line(fn_idx, offset),
            function: f.qname.clone(),
            detail: token.clone(),
            message: format!(
                "blocking primitive `{token}` reachable from declared op(s) {} \
                 (via {})",
                ops.join(", "),
                via.join(" -> ")
            ),
        });
    }
}

/// PRG003: a value derived from an epoch-`Guard` load used after the
/// guard's lexical scope (use-after-unpin). Structural; the detection
/// lives in [`crate::scan`], this rule just reports it.
fn prg003_guard_escape(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    for (i, f) in ctx.fns.iter().enumerate() {
        for esc in &f.guard_escapes {
            findings.push(Finding {
                rule: "PRG003".into(),
                file: ctx.files[i].clone(),
                line: ctx.line(i, esc.offset),
                function: f.qname.clone(),
                detail: esc.token.clone(),
                message: format!(
                    "`{}` is derived from an epoch-Guard load but used after the \
                     guard is dropped — the epoch may have advanced and the \
                     pointee been reclaimed",
                    esc.token
                ),
            });
        }
    }
}

/// PRG004: `defer_destroy`/`defer_recycle` issued in a function with no
/// preceding CAS — retiring a node before (or without) the unlink CAS that
/// makes it unreachable. For the recycle flavor this is precisely the
/// reuse-before-grace hazard: a reachable node handed to the pool can be
/// re-acquired and overwritten under a concurrent reader. Textual-order
/// approximation within one function body: sound for the unlink-then-retire
/// idiom every structure here uses, and anything cleverer lands in the
/// baseline with a justification.
fn prg004_retire_before_unlink(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    for (i, f) in ctx.fns.iter().enumerate() {
        for defer in &f.defers {
            let unlinked = f.cas.iter().any(|c| c.offset < defer.offset);
            if unlinked {
                continue;
            }
            findings.push(Finding {
                rule: "PRG004".into(),
                file: ctx.files[i].clone(),
                line: ctx.line(i, defer.offset),
                function: f.qname.clone(),
                detail: defer.token.clone(),
                message: format!(
                    "{} with no preceding unlink CAS in this function — a node \
                     must be unreachable before it is retired or recycled",
                    defer.token
                ),
            });
        }
    }
}

/// PRG005: a `loop`/`while` reachable from an op declared `wait_free`
/// whose body re-reads shared state (atomic load or CAS) — the loop's
/// exit can depend on another thread's progress, which is exactly what
/// wait-freedom rules out. `for` loops are bounded by their iterator and
/// exempt.
fn prg005_unbounded_wait_free_loop(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    let mut sites: HashMap<(usize, usize), Vec<String>> = HashMap::new();
    for op in &ctx.manifest.ops {
        if op.class != crate::manifest::Class::WaitFree {
            continue;
        }
        let roots = &ctx.op_roots[&op.name];
        for &fn_idx in ctx.graph.reachable(roots).keys() {
            let f = &ctx.fns[fn_idx];
            for lp in &f.loops {
                let rereads_shared = shared_reread_in(f, lp);
                if rereads_shared {
                    sites
                        .entry((fn_idx, lp.offset))
                        .or_default()
                        .push(op.name.clone());
                }
            }
        }
    }
    for ((fn_idx, offset), mut ops) in sites {
        ops.sort();
        ops.dedup();
        let f = &ctx.fns[fn_idx];
        let lp = f.loops.iter().find(|l| l.offset == offset).unwrap();
        findings.push(Finding {
            rule: "PRG005".into(),
            file: ctx.files[fn_idx].clone(),
            line: ctx.line(fn_idx, offset),
            function: f.qname.clone(),
            detail: lp.kind.into(),
            message: format!(
                "`{}` re-reads shared state with no iteration bound, but is \
                 reachable from wait_free-declared op(s) {} — a wait-free op \
                 cannot wait on another thread's progress",
                lp.kind,
                ops.join(", ")
            ),
        });
    }
}

/// Whether a loop body re-reads shared state: any atomic `.load(` call or
/// CAS inside the span.
fn shared_reread_in(f: &FnInfo, lp: &LoopInfo) -> bool {
    let in_span = |o: usize| lp.span.0 <= o && o < lp.span.1;
    f.cas.iter().any(|c| in_span(c.offset))
        || f.calls
            .iter()
            .any(|c| in_span(c.offset) && (c.name == "load" || c.name == "load_ord"))
}

/// PRG006: a heap allocation reachable from an op declared `no_alloc`.
fn prg006_alloc_reachable(ctx: &Ctx<'_>, findings: &mut Vec<Finding>) {
    let mut sites: HashMap<(usize, usize), Vec<String>> = HashMap::new();
    for op in &ctx.manifest.ops {
        if !op.no_alloc {
            continue;
        }
        let roots = &ctx.op_roots[&op.name];
        for &fn_idx in ctx.graph.reachable(roots).keys() {
            for tok in &ctx.fns[fn_idx].allocs {
                sites
                    .entry((fn_idx, tok.offset))
                    .or_default()
                    .push(op.name.clone());
            }
        }
    }
    for ((fn_idx, offset), mut ops) in sites {
        ops.sort();
        ops.dedup();
        let f = &ctx.fns[fn_idx];
        let token = f
            .allocs
            .iter()
            .find(|t| t.offset == offset)
            .map(|t| t.token.clone())
            .unwrap_or_default();
        findings.push(Finding {
            rule: "PRG006".into(),
            file: ctx.files[fn_idx].clone(),
            line: ctx.line(fn_idx, offset),
            function: f.qname.clone(),
            detail: token.clone(),
            message: format!(
                "heap allocation `{token}` reachable from no_alloc-declared op(s) {}",
                ops.join(", ")
            ),
        });
    }
}
