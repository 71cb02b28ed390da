//! Function items in cleaned source text.
//!
//! One pass over a blanked file recovers the item structure both checkers
//! anchor to: every function body with its bare and impl-qualified name
//! (`Type::method`), visibility, byte span and line — plus the spans of
//! `#[cfg(test)]` items, which the lints skip entirely (they target
//! production code, and test bodies exercise odd patterns on purpose).
//! What each lint then looks for *inside* a body (atomic sites, calls,
//! loops) is its own business.

use crate::lex::{find_word, is_ident_char, matching, skip_ws};
use crate::source::SourceFile;

/// One function with a body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnItem {
    /// Bare name.
    pub name: String,
    /// Qualified name: `Type::name` inside an impl/trait block, the bare
    /// name for free fns. Nested fns get the innermost enclosing impl's
    /// qualification (same as their parent).
    pub qname: String,
    /// Whether the fn is `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Whether the fn is defined inside an impl or trait block.
    pub is_method: bool,
    /// Byte offset of the body's opening `{`.
    pub start: usize,
    /// Byte offset just past the body's closing `}`.
    pub end: usize,
    /// 1-based line of the body's opening brace.
    pub line: usize,
}

/// Everything [`scan_items`] extracts from one file.
#[derive(Debug, Default)]
pub struct Items {
    /// Function items outside `#[cfg(test)]`, in order of their closing
    /// brace (so a nested fn precedes the fn containing it).
    pub fns: Vec<FnItem>,
    /// Brace-to-brace spans (both inclusive) of `#[cfg(test)]` items.
    pub skipped: Vec<(usize, usize)>,
}

impl Items {
    /// The innermost function whose body contains `offset`.
    pub fn enclosing(&self, offset: usize) -> Option<&FnItem> {
        self.fns.iter().find(|f| (f.start..f.end).contains(&offset))
    }

    /// Whether `offset` lies inside a `#[cfg(test)]` item.
    pub fn is_skipped(&self, offset: usize) -> bool {
        self.skipped
            .iter()
            .any(|&(open, close)| (open..=close).contains(&offset))
    }
}

/// Scans one cleaned file for function items and `#[cfg(test)]` spans.
pub fn scan_items(sf: &SourceFile) -> Items {
    let bytes = sf.clean.as_bytes();
    let mut out = Items::default();
    // Open function bodies and impl/trait blocks, with their brace depth.
    let mut fn_stack: Vec<(FnItem, usize)> = Vec::new();
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut pending_fn: Option<(String, bool)> = None;
    let mut pending_impl: Option<String> = None;
    let mut awaiting_fn_name = false;
    let mut item_pub = false;
    // `#[cfg(test)]` skip: once armed, the next braced item is skipped.
    let mut skip_pending = false;
    let mut skip_depth: Option<(usize, usize)> = None;
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'{' => {
                depth += 1;
                let fn_pending = pending_fn.take();
                let impl_pending = pending_impl.take();
                if skip_pending {
                    skip_pending = false;
                    skip_depth = Some((depth, i));
                } else if let Some((name, is_pub)) = fn_pending {
                    let ty = impl_stack.last().map(|(ty, _)| ty);
                    let item = FnItem {
                        qname: ty.map_or_else(|| name.clone(), |ty| format!("{ty}::{name}")),
                        name,
                        is_pub,
                        is_method: ty.is_some(),
                        start: i,
                        end: 0,
                        line: sf.line_of(i),
                    };
                    fn_stack.push((item, depth));
                } else if let Some(ty) = impl_pending {
                    impl_stack.push((ty, depth));
                }
                item_pub = false;
                i += 1;
            }
            b'}' => {
                if fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                    let (mut item, _) = fn_stack.pop().expect("just checked");
                    if skip_depth.is_none() {
                        item.end = i + 1;
                        out.fns.push(item);
                    }
                }
                if impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                    impl_stack.pop();
                }
                if let Some((_, open)) = skip_depth.filter(|&(d, _)| d == depth) {
                    out.skipped.push((open, i));
                    skip_depth = None;
                }
                depth = depth.saturating_sub(1);
                item_pub = false;
                i += 1;
            }
            b';' => {
                // A trait method declaration ends without a body.
                pending_fn = None;
                item_pub = false;
                i += 1;
            }
            b'#' if sf.clean[i..].starts_with("#[cfg(test)]") && skip_depth.is_none() => {
                skip_pending = true;
                i += "#[cfg(test)]".len();
            }
            _ if is_ident_char(b) && (i == 0 || !is_ident_char(bytes[i - 1])) => {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                let word = &sf.clean[start..i];
                if awaiting_fn_name {
                    awaiting_fn_name = false;
                    pending_fn = Some((word.to_string(), item_pub));
                    item_pub = false;
                    continue;
                }
                match word {
                    "fn" => awaiting_fn_name = true,
                    // `pub(crate)`/`pub(super)` are not public API.
                    "pub" => item_pub = bytes.get(skip_ws(bytes, i, bytes.len())) != Some(&b'('),
                    // A return-position/argument-position `impl Trait`
                    // appears only after `fn name` is pending; the guard
                    // below keeps it from opening a phantom impl block.
                    "impl" | "trait" if pending_fn.is_none() && skip_depth.is_none() => {
                        pending_impl = impl_type(&sf.clean[i..]);
                    }
                    _ => {}
                }
            }
            _ => i += 1,
        }
    }
    // An unclosed `#[cfg(test)]` item (truncated file) skips to the end.
    out.skipped
        .extend(skip_depth.map(|(_, open)| (open, bytes.len())));
    out
}

/// Extracts the implemented type's name from an impl/trait header (the
/// text after the keyword, up to the body brace): the last path segment of
/// the type after a top-level `for` (if any), generics stripped.
/// `impl<T: Send> ConcurrentQueue<T> for LockedQueue<T>` → `LockedQueue`;
/// `impl fmt::Debug for NbwWriter<T>` → `NbwWriter`; `trait Queue<T>` →
/// `Queue`.
fn impl_type(after_kw: &str) -> Option<String> {
    let header_end = after_kw.find('{').unwrap_or(after_kw.len());
    let mut s = after_kw[..header_end].trim();
    // Leading generic parameters.
    if s.starts_with('<') {
        s = matching(s.as_bytes(), 0, b'<', b'>').map_or("", |close| s[close + 1..].trim_start());
    }
    // A top-level ` for ` splits trait from implementing type.
    let mut from = 0;
    while let Some(k) = find_word(s, "for", from) {
        let angle_depth = s[..k].bytes().fold(0usize, |d, b| match b {
            b'<' => d + 1,
            b'>' => d.saturating_sub(1),
            _ => d,
        });
        if angle_depth == 0 {
            s = s[k + 3..].trim_start();
            break;
        }
        from = k + 3;
    }
    // Trailing where clause, bounds, generics.
    let s = s.split("where").next().unwrap_or(s).trim();
    let s = s.split(':').next().unwrap_or(s).trim();
    let base = s.split('<').next().unwrap_or(s).trim();
    let name = base
        .rsplit("::")
        .next()
        .unwrap_or(base)
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    if name.is_empty() || !name.bytes().all(is_ident_char) {
        return None;
    }
    Some(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Items {
        scan_items(&SourceFile::new("t.rs", src))
    }

    fn qnames(items: &Items) -> Vec<&str> {
        items.fns.iter().map(|f| f.qname.as_str()).collect()
    }

    #[test]
    fn qualifies_methods_with_their_impl_type() {
        let src = "
pub struct S;
impl S {
    pub fn op(&self) { self.helper(); }
    fn helper(&self) {}
    pub(crate) fn internal(&self) {}
}
impl<T: Send> Default for Q<T> {
    fn default() -> Self { Q::new() }
}
fn free() {}
";
        let items = scan(src);
        let names: Vec<(&str, &str, bool, bool)> = items
            .fns
            .iter()
            .map(|f| (f.qname.as_str(), f.name.as_str(), f.is_pub, f.is_method))
            .collect();
        assert_eq!(
            names,
            [
                ("S::op", "op", true, true),
                ("S::helper", "helper", false, true),
                ("S::internal", "internal", false, true),
                ("Q::default", "default", false, true),
                ("free", "free", false, false),
            ]
        );
        assert_eq!(items.fns[0].line, 4);
        assert_eq!(&src[items.fns[4].start..items.fns[4].end], "{}");
    }

    #[test]
    fn trait_method_without_body_is_not_an_item() {
        let src = "
trait Queue<T> {
    fn push(&self, v: T);
    fn len(&self) -> usize { 0 }
}
fn after() {}
";
        assert_eq!(qnames(&scan(src)), ["Queue::len", "after"]);
    }

    #[test]
    fn return_position_impl_trait_does_not_open_an_impl_block() {
        let src = "
fn make() -> impl Iterator<Item = u64> {
    (0..3).map(|x| x)
}
fn after() {}
";
        assert_eq!(qnames(&scan(src)), ["make", "after"]);
    }

    #[test]
    fn nested_fn_closes_first_and_is_the_innermost_enclosing() {
        let src = "
impl S {
    fn outer(&self) {
        fn inner() { marker(); }
        inner();
    }
}
";
        let items = scan(src);
        assert_eq!(qnames(&items), ["S::inner", "S::outer"]);
        let in_inner = src.find("marker").unwrap();
        let in_outer = src.find("inner();").unwrap();
        assert_eq!(items.enclosing(in_inner).unwrap().name, "inner");
        assert_eq!(items.enclosing(in_outer).unwrap().name, "outer");
        assert!(items.enclosing(0).is_none());
    }

    #[test]
    fn cfg_test_mod_is_skipped_and_its_span_reported() {
        let src = "
fn real() {}
#[cfg(test)]
mod tests {
    fn fake() { x.lock(); }
}
fn after() {}
";
        let items = scan(src);
        assert_eq!(qnames(&items), ["real", "after"]);
        assert_eq!(items.skipped.len(), 1);
        assert!(items.is_skipped(src.find("x.lock").unwrap()));
        assert!(!items.is_skipped(src.find("real").unwrap()));
        assert!(!items.is_skipped(src.find("after").unwrap()));
    }

    #[test]
    fn unsafe_block_in_a_while_let_header_keeps_the_body_span_whole() {
        let src = "
fn walk(mut cursor: Shared<Record>) -> bool {
    while let Some(record) = unsafe { cursor.as_ref() } {
        cursor = record.next.load(Acquire);
    }
    false
}
fn after() {}
";
        let items = scan(src);
        assert_eq!(qnames(&items), ["walk", "after"]);
        let walk = &items.fns[0];
        assert!(src[walk.start..walk.end].trim_end().ends_with("false\n}"));
        assert_eq!(
            items.enclosing(src.find("record.next").unwrap()),
            Some(walk)
        );
    }
}
