//! Atomic-access-site extraction.
//!
//! A single pass over the cleaned text of one file finds every call of an
//! atomic method (`load`, `store`, `swap`, `compare_exchange[_weak]`,
//! `fetch_*`, and their `_ord` twins from `lfrt-interleave`) plus free
//! `fence`/`compiler_fence` calls, records the enclosing function and the
//! receiver expression, and parses the literal `Ordering` tokens out of the
//! argument list.
//!
//! A call **qualifies as a site only if its arguments contain at least one
//! literal ordering token** (`Relaxed`, `Acquire`, `Release`, `AcqRel`,
//! `SeqCst`). Calls passing orderings through variables — the vendored
//! crossbeam stand-in's internals, the SC-only model operations — carry no
//! local evidence to lint and are skipped by design; the weak-memory
//! explorer covers them dynamically.
//!
//! Function items and the `#[cfg(test)]` spans to skip come from
//! `lfrt_srcscan::items`: the lint targets production code, and test
//! bodies deliberately exercise odd orderings.

use crate::source::SourceFile;
use lfrt_srcscan::items::{scan_items, FnItem};
use lfrt_srcscan::lex::{matching, prev_sig, receiver_chain, skip_ws, words};

/// The access class of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A plain atomic load.
    Load,
    /// A plain atomic store.
    Store,
    /// An unconditional read-modify-write returning the old value.
    Swap,
    /// A compare-and-swap (success + failure orderings).
    Cas,
    /// A `fetch_*` read-modify-write.
    Rmw,
    /// A free `fence`/`compiler_fence` call.
    Fence,
}

impl Kind {
    /// Whether the site can make a value visible to other threads.
    pub fn is_store_like(self) -> bool {
        matches!(self, Kind::Store | Kind::Swap | Kind::Cas | Kind::Rmw)
    }

    /// Whether the site observes values written by other threads.
    pub fn is_load_like(self) -> bool {
        matches!(self, Kind::Load | Kind::Swap | Kind::Cas | Kind::Rmw)
    }

    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Load => "load",
            Kind::Store => "store",
            Kind::Swap => "swap",
            Kind::Cas => "cas",
            Kind::Rmw => "rmw",
            Kind::Fence => "fence",
        }
    }
}

/// The five literal ordering tokens the scanner recognizes.
pub const ORDER_TOKENS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One qualifying atomic access site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Byte offset of the method/function name in the file.
    pub offset: usize,
    /// 1-based line of the site.
    pub line: usize,
    /// Name of the enclosing function (`""` at item level).
    pub function: String,
    /// Normalized receiver chain (`self.slots[_].sequence`); empty for
    /// fences.
    pub receiver: String,
    /// Leading identifier of the receiver chain (`self`, `node`, ...).
    pub base_ident: String,
    /// The method or function identifier as written.
    pub method: String,
    /// Access class.
    pub kind: Kind,
    /// Literal ordering tokens, in argument order. For CAS sites the first
    /// is the success ordering and the second the failure ordering.
    pub orderings: Vec<String>,
    /// Cleaned argument text (parens stripped).
    pub args: String,
    /// Byte offset just past the closing paren of the call.
    pub args_end: usize,
}

/// Everything the scanner extracts from one file.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Qualifying sites, in source order.
    pub sites: Vec<Site>,
    /// Function items, in order of their closing brace.
    pub functions: Vec<FnItem>,
}

fn method_kind(name: &str) -> Option<Kind> {
    Some(match name {
        "load" | "load_ord" => Kind::Load,
        "store" | "store_ord" => Kind::Store,
        "swap" | "swap_ord" => Kind::Swap,
        "compare_exchange" | "compare_exchange_weak" | "compare_exchange_ord" => Kind::Cas,
        "fetch_add" | "fetch_sub" | "fetch_and" | "fetch_or" | "fetch_xor" | "fetch_nand"
        | "fetch_max" | "fetch_min" | "fetch_update" | "fetch_add_ord" => Kind::Rmw,
        _ => return None,
    })
}

/// Scans one cleaned file for qualifying sites and function items.
pub fn scan_file(sf: &SourceFile) -> ScanResult {
    let bytes = sf.clean.as_bytes();
    let items = scan_items(sf);
    let mut sites = Vec::new();
    // The identifier after `fn` names a definition (`fn fence(...)`), never
    // a call site.
    let mut after_fn = false;
    for (start, word) in words(&sf.clean) {
        if std::mem::replace(&mut after_fn, false) {
            continue;
        }
        if word == "fn" {
            after_fn = true;
            continue;
        }
        let preceded_by_dot = prev_sig(bytes, start) == Some(b'.');
        let kind = match method_kind(word) {
            Some(kind) if preceded_by_dot => kind,
            None if (word == "fence" || word == "compiler_fence") && !preceded_by_dot => {
                Kind::Fence
            }
            _ => continue,
        };
        if items.is_skipped(start) {
            continue;
        }
        let function = items.enclosing(start).map_or("", |f| f.name.as_str());
        sites.extend(build_site(sf, start, word, kind, function));
    }
    ScanResult {
        sites,
        functions: items.fns,
    }
}

fn build_site(
    sf: &SourceFile,
    name_start: usize,
    method: &str,
    kind: Kind,
    function: &str,
) -> Option<Site> {
    let bytes = sf.clean.as_bytes();
    // The call's opening paren (generic turbofish never appears on these).
    let open = skip_ws(bytes, name_start + method.len(), bytes.len());
    if bytes.get(open) != Some(&b'(') {
        return None;
    }
    let close = matching(bytes, open, b'(', b')')?;
    let args = sf.clean[open + 1..close].to_string();
    let orderings: Vec<String> = ordering_tokens(&args);
    if orderings.is_empty() {
        return None;
    }
    let (receiver, base_ident) = if kind == Kind::Fence {
        (String::new(), String::new())
    } else {
        receiver_chain(&sf.clean, name_start)
    };
    Some(Site {
        offset: name_start,
        line: sf.line_of(name_start),
        function: function.to_string(),
        receiver,
        base_ident,
        method: method.to_string(),
        kind,
        orderings,
        args,
        args_end: close + 1,
    })
}

/// Literal ordering tokens in `text`, in order of appearance.
pub fn ordering_tokens(text: &str) -> Vec<String> {
    words(text)
        .filter(|(_, word)| ORDER_TOKENS.contains(word))
        .map(|(_, word)| word.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScanResult {
        scan_file(&SourceFile::new("t.rs", src))
    }

    #[test]
    fn finds_qualifying_sites_with_receiver_and_function() {
        let src = "
impl S {
    fn push(&self) {
        let top = self.top.load(Acquire, guard);
        self.slots[tail & mask].sequence.store(1, Ordering::Release);
        plain.store_plain(1);
        untracked.load(order);
    }
}
";
        let r = scan(src);
        assert_eq!(r.sites.len(), 2, "{:?}", r.sites);
        assert_eq!(r.sites[0].function, "push");
        assert_eq!(r.sites[0].receiver, "self.top");
        assert_eq!(r.sites[0].base_ident, "self");
        assert_eq!(r.sites[0].kind, Kind::Load);
        assert_eq!(r.sites[0].orderings, ["Acquire"]);
        assert_eq!(r.sites[1].receiver, "self.slots[_].sequence");
        assert_eq!(r.sites[1].orderings, ["Release"]);
        assert_eq!(r.functions.len(), 1);
    }

    #[test]
    fn cas_orderings_in_argument_order() {
        let src = "fn f() { self.top.compare_exchange(top, new, Release, Relaxed, guard); }";
        let r = scan(src);
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].kind, Kind::Cas);
        assert_eq!(r.sites[0].orderings, ["Release", "Relaxed"]);
    }

    #[test]
    fn free_fence_but_not_fn_definition() {
        let src = "
fn fence_helper() { fence(Ordering::Release); }
pub fn fence(order: Ordering) { other(order); }
fn qualified() { std::sync::atomic::fence(Ordering::Acquire); }
";
        let r = scan(src);
        assert_eq!(r.sites.len(), 2, "{:?}", r.sites);
        assert!(r.sites.iter().all(|s| s.kind == Kind::Fence));
        assert_eq!(r.sites[0].function, "fence_helper");
        assert_eq!(r.sites[1].function, "qualified");
    }

    #[test]
    fn multiline_receiver_chain() {
        let src =
            "fn f() { tail_ref\n    .next\n    .compare_exchange(a, b, Release, Relaxed, g); }";
        let r = scan(src);
        assert_eq!(r.sites[0].receiver, "tail_ref.next");
        assert_eq!(r.sites[0].base_ident, "tail_ref");
    }

    #[test]
    fn deref_chain_receiver() {
        let src = "fn f() { node.deref().next.load(Relaxed, guard); }";
        let r = scan(src);
        assert_eq!(r.sites[0].receiver, "node.deref().next");
        assert_eq!(r.sites[0].base_ident, "node");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "
fn real() { a.load(Relaxed); }
#[cfg(test)]
mod tests {
    fn t() { b.store(1, SeqCst); }
}
fn after() { c.swap(2, AcqRel); }
";
        let r = scan(src);
        let fns: Vec<&str> = r.sites.iter().map(|s| s.function.as_str()).collect();
        assert_eq!(fns, ["real", "after"], "{:?}", r.sites);
    }

    #[test]
    fn path_prefix_is_not_part_of_the_receiver() {
        let src = "fn f() { Ordering::Relaxed; epoch::pin().top.load(Acquire, g); }";
        let r = scan(src);
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].receiver, "pin().top");
    }

    #[test]
    fn comments_and_strings_never_produce_sites() {
        let src = "
// a.load(Relaxed)
fn f() {
    let s = \"b.store(1, SeqCst)\";
    real.load(Acquire);
}
";
        let r = scan(src);
        assert_eq!(r.sites.len(), 1);
        assert_eq!(r.sites[0].receiver, "real");
    }
}
