//! Per-body feature scanning.
//!
//! `lfrt_srcscan::items` recovers the item structure the rules need —
//! every function body with its impl-qualified name (`Type::method`) and
//! visibility, `#[cfg(test)]` items skipped; this module adds the lexical
//! features inside each body: call sites, loops, CAS sites, backoff
//! pacing, blocking/allocation tokens, `defer_destroy` sites, and
//! epoch-guard bindings with their taint and escapes. Like `ordlint`,
//! everything runs on blanked text (`lfrt_srcscan::source`) so strings
//! and comments can't fake a site.

use lfrt_srcscan::items::{scan_items, FnItem};
use lfrt_srcscan::lex::{
    find_word, is_ident_char, leading_ident, matching, matching_back, prev_sig, receiver_chain,
    skip_ws, words,
};
use lfrt_srcscan::source::SourceFile;

/// How a call site names its callee — drives resolution precedence in
/// [`crate::callgraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallStyle {
    /// `Qualifier::name(...)` — an associated fn or module-qualified free
    /// fn; resolved exactly.
    Path,
    /// `self.name(...)` — resolved within the enclosing impl type.
    SelfMethod,
    /// `receiver.name(...)` with any other receiver — resolved by name
    /// against every known method, behind the ubiquity denylist.
    Method,
    /// `name(...)` — resolved against free fns.
    Bare,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee identifier as written.
    pub name: String,
    /// `Qualifier` of a [`CallStyle::Path`] call (`epoch`, `Owned`, ...);
    /// the enclosing impl type for [`CallStyle::SelfMethod`].
    pub qualifier: Option<String>,
    /// Resolution style.
    pub style: CallStyle,
    /// Byte offset of the callee identifier.
    pub offset: usize,
}

/// A named token occurrence (blocking primitive, allocation, escape use).
#[derive(Debug, Clone)]
pub struct TokenSite {
    /// The token (`lock`, `Box::new`, a tainted identifier, ...).
    pub token: String,
    /// Byte offset.
    pub offset: usize,
}

impl TokenSite {
    fn new(token: impl Into<String>, offset: usize) -> Self {
        Self {
            token: token.into(),
            offset,
        }
    }
}

/// A `compare_exchange[_weak]` call site.
#[derive(Debug, Clone)]
pub struct CasSite {
    /// Byte offset of the method identifier.
    pub offset: usize,
    /// Normalized receiver chain (`self.top`, `REGISTRY`, ...).
    pub receiver: String,
}

/// An unbounded-iteration construct (`loop` or `while`; `for` is bounded
/// by its iterator and exempt).
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Byte offset of the `loop`/`while` keyword.
    pub offset: usize,
    /// `"loop"` or `"while"`.
    pub kind: &'static str,
    /// Half-open byte range of the body braces (condition included for
    /// `while`, so a CAS in the condition counts as inside).
    pub span: (usize, usize),
}

/// One scanned function with everything the rules consume.
#[derive(Debug, Clone, Default)]
pub struct FnInfo {
    /// The function item (also reachable through `Deref`): bare and
    /// impl-qualified name, visibility, body span, line.
    pub item: FnItem,
    /// Call sites, in source order.
    pub calls: Vec<Call>,
    /// `loop`/`while` constructs.
    pub loops: Vec<LoopInfo>,
    /// Blocking-primitive call tokens (`lock`, `park`, `sleep`, ...).
    pub blocking: Vec<TokenSite>,
    /// Heap-allocation tokens (`Box::new`, `vec!`, `.to_vec(`, ...).
    pub allocs: Vec<TokenSite>,
    /// Backoff pacing calls (`.spin(`/`.snooze(`) by offset.
    pub pacing: Vec<usize>,
    /// Retirement call sites (`defer_destroy`/`defer_recycle`), with the
    /// call token.
    pub defers: Vec<TokenSite>,
    /// CAS sites.
    pub cas: Vec<CasSite>,
    /// Guard-derived pointers used after the guard's scope (PRG003).
    pub guard_escapes: Vec<TokenSite>,
}

/// Blocking-primitive call names (PRG002). Whole-identifier matched, so
/// `try_lock` — the non-blocking probe the epoch collector uses — never
/// matches `lock`.
const BLOCKING_CALLS: [&str; 9] = [
    "lock",
    "park",
    "park_timeout",
    "sleep",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "join",
];

/// Allocating `Qualifier::name` associated calls (PRG006). The two
/// `alloc::*` entries catch raw global-allocator calls — the pool's cold
/// paths are deliberately spelled `std::alloc::alloc`/`std::alloc::dealloc`
/// so the immediate path segment matches here (`dealloc` counts too: any
/// allocator round trip breaks a no_alloc contract).
const ALLOC_PATH_CALLS: [(&str, &str); 12] = [
    ("alloc", "alloc"),
    ("alloc", "dealloc"),
    ("Box", "new"),
    ("Box", "leak"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Allocating method names (PRG006).
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_owned", "to_string", "collect"];

/// Allocating macros (PRG006).
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

const KEYWORDS: [&str; 25] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "as", "in", "move", "ref", "mut", "dyn", "where", "unsafe", "impl", "use", "pub", "const",
    "static", "await",
];

/// Scans one cleaned file into its function inventory: the function items
/// from `lfrt_srcscan::items` (impl-qualified names, visibility,
/// `#[cfg(test)]` skipping), each with its body features.
pub fn scan_file(sf: &SourceFile) -> Vec<FnInfo> {
    let items = scan_items(sf).fns.into_iter();
    let mut fns: Vec<FnInfo> = items.map(FnInfo::from).collect();
    for info in &mut fns {
        scan_body(sf, info);
        guard_escapes(sf, info);
    }
    fns
}

impl From<FnItem> for FnInfo {
    fn from(item: FnItem) -> Self {
        Self {
            item,
            ..Self::default()
        }
    }
}

impl std::ops::Deref for FnInfo {
    type Target = FnItem;
    fn deref(&self) -> &FnItem {
        &self.item
    }
}

/// Second pass over one body: calls, loops, and token features.
fn scan_body(sf: &SourceFile, info: &mut FnInfo) {
    let clean = &sf.clean;
    let bytes = clean.as_bytes();
    let (body_start, body_end) = (info.start, info.end);
    let inside = body_start + 1;
    let mut last_word = "";
    for (at, word) in words(&clean[inside..body_end - 1]) {
        let (start, i) = (inside + at, inside + at + word.len());
        let after_fn = std::mem::replace(&mut last_word, word) == "fn";
        // Loops.
        if word == "loop" || word == "while" {
            if let Some(open) = loop_body_brace(bytes, clean, i, body_end) {
                if let Some(close) = matching(bytes, open, b'{', b'}') {
                    info.loops.push(LoopInfo {
                        offset: start,
                        kind: if word == "loop" { "loop" } else { "while" },
                        span: (start, close + 1),
                    });
                }
            }
            continue;
        }
        // Macros: `name!(...)` — only the allocating ones matter.
        if bytes.get(i) == Some(&b'!') {
            if ALLOC_MACROS.contains(&word) {
                info.allocs.push(TokenSite::new(format!("{word}!"), start));
            }
            continue;
        }
        // Call sites: identifier (+ optional turbofish) followed by `(`,
        // not a keyword, not a definition (`fn name(`).
        let mut k = skip_ws(bytes, i, body_end);
        if clean[k..].starts_with("::<") {
            if let Some(close) = matching(&bytes[..body_end], k + 2, b'<', b'>') {
                k = skip_ws(bytes, close + 1, body_end);
            }
        }
        let is_call = bytes.get(k) == Some(&b'(') && !KEYWORDS.contains(&word) && !after_fn;
        if is_call {
            let prev = prev_sig(bytes, start);
            let (style, qualifier) = if prev == Some(b'.') {
                // Exactly `self.m(...)`, not `self.field.m(...)`.
                if receiver_chain(clean, start).0 == "self" {
                    (CallStyle::SelfMethod, None)
                } else {
                    (CallStyle::Method, None)
                }
            } else if bytes[..start].ends_with(b"::") {
                (CallStyle::Path, path_qualifier(clean, start))
            } else {
                (CallStyle::Bare, None)
            };
            if BLOCKING_CALLS.contains(&word) {
                info.blocking.push(TokenSite::new(word, start));
            }
            if word == "compare_exchange" || word == "compare_exchange_weak" {
                let receiver = if style == CallStyle::Method || style == CallStyle::SelfMethod {
                    receiver_chain(clean, start).0
                } else {
                    String::new()
                };
                info.cas.push(CasSite {
                    offset: start,
                    receiver,
                });
            }
            if word == "spin" || word == "snooze" {
                info.pacing.push(start);
            }
            if word == "defer_destroy" || word == "defer_recycle" {
                info.defers.push(TokenSite::new(word, start));
            }
            let is_alloc = match style {
                CallStyle::Path => qualifier
                    .as_deref()
                    .is_some_and(|q| ALLOC_PATH_CALLS.contains(&(q, word))),
                CallStyle::Method | CallStyle::SelfMethod => ALLOC_METHODS.contains(&word),
                CallStyle::Bare => false,
            };
            if is_alloc {
                let token = match &qualifier {
                    Some(q) => format!("{q}::{word}"),
                    None => format!(".{word}()"),
                };
                info.allocs.push(TokenSite::new(token, start));
            }
            info.calls.push(Call {
                name: word.to_string(),
                qualifier,
                style,
                offset: start,
            });
        }
    }
}

/// The opening brace of a `loop`/`while` body, searching from just past
/// the keyword. Skips header-position `unsafe { .. }` blocks — as in
/// `while let Some(r) = unsafe { p.as_ref() } { .. }` — which are the one
/// kind of block expression Rust allows in a loop header without
/// parentheses; taking the first `{` there would truncate the loop span
/// to the header block and hide every CAS in the real body.
fn loop_body_brace(bytes: &[u8], clean: &str, from: usize, end: usize) -> Option<usize> {
    let mut from = from;
    loop {
        // The next `{`: `while` conditions cannot contain a bare block.
        let open = (from..end).find(|&k| bytes[k] == b'{')?;
        let before = clean[..open].trim_end().strip_suffix("unsafe");
        if before.is_some_and(|b| !b.bytes().last().is_some_and(is_ident_char)) {
            from = matching(bytes, open, b'{', b'}')? + 1;
            continue;
        }
        return Some(open);
    }
}

/// The immediate qualifier of a path call: the path segment right before
/// the final `::` (`epoch::pin` → `epoch`, `lfrt_trace::CasOp::start` →
/// `CasOp`, `Shared::<T>::null` → `Shared`).
fn path_qualifier(clean: &str, name_start: usize) -> Option<String> {
    let bytes = clean.as_bytes();
    let mut i = name_start.checked_sub(2)?;
    // A turbofish between qualifier and name: `Q::<T>::name`.
    if i > 0 && bytes[i - 1] == b'>' {
        i = matching_back(bytes, i - 1, b'<', b'>')?;
        if i >= 2 && &bytes[i - 2..i] == b"::" {
            i -= 2;
        }
    }
    let end = i;
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        return None;
    }
    Some(clean[start..end].to_string())
}

/// PRG003 detection: for each `let g = [&]epoch::pin();` binding, compute
/// the guard's lexical scope (its innermost block, shortened by a
/// `drop(g)`), taint identifiers bound from statements mentioning the
/// guard, and record word-uses of tainted identifiers past the scope end.
fn guard_escapes(sf: &SourceFile, info: &mut FnInfo) {
    let clean = &sf.clean;
    let bytes = clean.as_bytes();
    let (body_start, body_end) = (info.start, info.end);
    let pins: Vec<usize> = info
        .calls
        .iter()
        .filter(|c| c.name == "pin" && c.style == CallStyle::Path)
        .map(|c| c.offset)
        .collect();
    for pin_offset in pins {
        let bind_stmt = stmt_start(bytes, body_start, pin_offset);
        let Some(guard) = let_binding_ident(clean, bind_stmt, pin_offset) else {
            continue;
        };
        // Scope: innermost block containing the binding...
        let mut scope_end = enclosing_block_end(bytes, body_start, body_end, pin_offset);
        // ...shortened by an explicit `drop(guard)`.
        for c in &info.calls {
            if c.name == "drop" && c.style == CallStyle::Bare && c.offset > pin_offset {
                if let Some(open) = (c.offset..body_end).find(|&k| bytes[k] == b'(') {
                    if let Some(close) = matching(bytes, open, b'(', b')') {
                        if clean[open + 1..close].trim() == guard && close < scope_end {
                            scope_end = close + 1;
                        }
                    }
                }
            }
        }
        // Taint: identifiers bound or assigned from a statement whose RHS
        // mentions the guard inside its scope.
        let mut tainted: Vec<String> = Vec::new();
        for use_offset in word_occurrences(clean, &guard, pin_offset + 1, scope_end) {
            let s = stmt_start(bytes, body_start, use_offset);
            if let Some(ident) = let_binding_ident(clean, s, use_offset)
                .or_else(|| assignment_ident(clean, s, use_offset))
            {
                if ident != guard && !tainted.contains(&ident) {
                    tainted.push(ident);
                }
            }
        }
        // Escapes: any word-use of a tainted identifier after the scope.
        for t in &tainted {
            for esc in word_occurrences(clean, t, scope_end, body_end) {
                info.guard_escapes.push(TokenSite::new(t, esc));
            }
        }
    }
    info.guard_escapes.sort_by_key(|t| t.offset);
    info.guard_escapes.dedup_by(|a, b| a.offset == b.offset);
}

/// Start of the statement containing `offset`: just past the previous
/// `;`, `{`, or `}` in the body.
fn stmt_start(bytes: &[u8], body_start: usize, offset: usize) -> usize {
    (body_start..offset)
        .rev()
        .find(|&k| matches!(bytes[k], b';' | b'{' | b'}'))
        .map_or(body_start, |k| k + 1)
}

/// If the statement starting at `stmt` is `let [mut] IDENT = ...` (a plain
/// identifier pattern, not a destructuring), the identifier.
fn let_binding_ident(clean: &str, stmt: usize, limit: usize) -> Option<String> {
    let s = clean[stmt..limit].trim_start();
    let rest = s.strip_prefix("let")?;
    if rest.bytes().next().is_some_and(is_ident_char) {
        return None; // `letx`-style non-keyword
    }
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let ident = leading_ident(rest);
    if ident.is_empty() {
        return None;
    }
    let after = rest[ident.len()..].trim_start();
    // Plain binding only: `=` (type-ascribed or not), never `(`/`{` of a
    // destructuring pattern like `let Some(x) =`.
    (after.starts_with('=') || after.starts_with(':')).then_some(ident)
}

/// If the statement starting at `stmt` is `IDENT = ...` (simple
/// assignment, not `==`), the identifier.
fn assignment_ident(clean: &str, stmt: usize, limit: usize) -> Option<String> {
    let s = clean[stmt..limit].trim_start();
    let ident = leading_ident(s);
    if ident.is_empty() || ident == "let" {
        return None;
    }
    let after = s[ident.len()..].trim_start();
    (after.starts_with('=') && !after.starts_with("==")).then_some(ident)
}

/// Byte offset just past the closing brace of the innermost block
/// containing `offset`.
fn enclosing_block_end(bytes: &[u8], body_start: usize, body_end: usize, offset: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let mut innermost_open = body_start;
    let mut i = body_start;
    while i < offset {
        match bytes[i] {
            b'{' => stack.push(i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }
    if let Some(&open) = stack.last() {
        innermost_open = open;
    }
    matching(bytes, innermost_open, b'{', b'}').map_or(body_end, |c| c + 1)
}

/// Word-boundary occurrences of `ident` in `clean[from..to]`.
fn word_occurrences(clean: &str, ident: &str, from: usize, to: usize) -> Vec<usize> {
    let text = &clean[..to.min(clean.len())];
    let mut out = Vec::new();
    let mut search = from;
    while let Some(at) = find_word(text, ident, search) {
        out.push(at);
        search = at + ident.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<FnInfo> {
        scan_file(&SourceFile::new("t.rs", src))
    }

    #[test]
    fn call_styles_are_classified() {
        let src = "
impl S {
    fn op(&self) {
        self.own();
        other.method();
        epoch::pin();
        Owned::new(1);
        free_call();
        self.field.chained();
    }
}
";
        let f = &scan(src)[0];
        let styles: Vec<(&str, CallStyle)> =
            f.calls.iter().map(|c| (c.name.as_str(), c.style)).collect();
        assert_eq!(
            styles,
            [
                ("own", CallStyle::SelfMethod),
                ("method", CallStyle::Method),
                ("pin", CallStyle::Path),
                ("new", CallStyle::Path),
                ("free_call", CallStyle::Bare),
                ("chained", CallStyle::Method),
            ]
        );
        assert_eq!(f.calls[2].qualifier.as_deref(), Some("epoch"));
        assert_eq!(f.calls[3].qualifier.as_deref(), Some("Owned"));
    }

    #[test]
    fn loops_cas_pacing_and_blocking_tokens() {
        let src = "
impl S {
    fn paced(&self) {
        let backoff = Backoff::new();
        loop {
            match self.top.compare_exchange_weak(a, b, AcqRel, Relaxed) {
                Ok(_) => return,
                Err(_) => backoff.spin(),
            }
        }
    }
    fn blocking(&self) {
        let g = self.inner.lock().unwrap();
        for x in g.iter() {}
    }
}
";
        let fns = scan(src);
        let paced = &fns[0];
        assert_eq!(paced.loops.len(), 1);
        assert_eq!(paced.loops[0].kind, "loop");
        assert_eq!(paced.cas.len(), 1);
        assert_eq!(paced.cas[0].receiver, "self.top");
        assert_eq!(paced.pacing.len(), 1);
        let blocking = &fns[1];
        assert_eq!(blocking.blocking.len(), 1);
        assert_eq!(blocking.blocking[0].token, "lock");
        assert!(blocking.loops.is_empty(), "for loops are bounded: exempt");
    }

    #[test]
    fn while_let_unsafe_header_does_not_truncate_the_loop_span() {
        let src = "
fn walk(mut cursor: Shared<Record>) -> bool {
    while let Some(record) = unsafe { cursor.as_ref() } {
        if record.in_use.compare_exchange(false, true, Acquire, Relaxed).is_ok() {
            return true;
        }
        cursor = record.next.load(Acquire);
    }
    false
}
";
        let f = &scan(src)[0];
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].kind, "while");
        assert_eq!(f.cas.len(), 1);
        let (lo, hi) = f.loops[0].span;
        assert!(
            lo <= f.cas[0].offset && f.cas[0].offset < hi,
            "the CAS in the while-let body must fall inside the loop span"
        );
    }

    #[test]
    fn try_lock_is_not_a_blocking_token() {
        let src = "fn f() { if let Some(g) = ORPHANS.try_lock() { g.len(); } }";
        assert!(scan(src)[0].blocking.is_empty());
    }

    #[test]
    fn alloc_tokens() {
        let src = "
fn f() {
    let a = Box::new(1);
    let b = vec![1, 2];
    let c = xs.to_vec();
    let d = std::mem::size_of::<u64>();
}
";
        let tokens: Vec<String> = scan(src)[0]
            .allocs
            .iter()
            .map(|t| t.token.clone())
            .collect();
        assert_eq!(tokens, ["Box::new", "vec!", ".to_vec()"]);
    }

    #[test]
    fn guard_escape_out_of_block_and_after_drop() {
        let src = "
impl S {
    fn block_escape(&self) -> u64 {
        let p;
        {
            let guard = epoch::pin();
            p = self.head.load(Acquire, &guard).as_raw();
        }
        unsafe { *p }
    }
    fn drop_escape(&self) -> u64 {
        let guard = epoch::pin();
        let p = self.head.load(Acquire, &guard).as_raw();
        drop(guard);
        unsafe { *p }
    }
    fn clean(&self) -> u64 {
        let guard = epoch::pin();
        let p = self.head.load(Acquire, &guard).as_raw();
        unsafe { *p }
    }
}
";
        let fns = scan(src);
        assert_eq!(fns[0].guard_escapes.len(), 1, "{:?}", fns[0].guard_escapes);
        assert_eq!(fns[0].guard_escapes[0].token, "p");
        assert_eq!(fns[1].guard_escapes.len(), 1, "{:?}", fns[1].guard_escapes);
        assert!(
            fns[2].guard_escapes.is_empty(),
            "{:?}",
            fns[2].guard_escapes
        );
    }
}
