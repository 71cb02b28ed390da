//! Local, per-function dataflow approximations.
//!
//! Everything here is a *textual, forward-only* analysis over one cleaned
//! function body: `let` bindings and simple assignments propagate a taint
//! set; dereference forms (`*x`, `x.deref()`, `x.as_ref()`, ...) mark uses.
//! Taint is never killed — reassignment from an untainted value does not
//! clear it — and loop-carried flows (a use textually *before* the binding)
//! are not seen. Both choices keep the pass trivially deterministic; the
//! misses are exactly what the weak-memory explorer covers dynamically, and
//! false positives land in the justified baseline.

/// One `let` binding or simple `x = rhs` assignment.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound identifier.
    pub name: String,
    /// Byte offset of the identifier (order key for propagation).
    pub offset: usize,
    /// Half-open byte range of the right-hand side.
    pub rhs: (usize, usize),
}

use lfrt_srcscan::lex::{self, is_ident_char, prev_sig, skip_ws, words};

/// Collects `let [mut] x = rhs;` bindings and simple `x = rhs;`
/// assignments inside `clean[span]`, in source order.
pub fn bindings(clean: &str, span: (usize, usize)) -> Vec<Binding> {
    let mut out = Vec::new();
    // A binding's right-hand side is not scanned for nested bindings.
    let mut resume = span.0;
    for (at, word) in words(&clean[span.0..span.1]) {
        let (start, end) = (span.0 + at, span.0 + at + word.len());
        if start < resume {
            continue;
        }
        let binding = match word {
            "let" => parse_let(clean, span, end),
            _ => parse_assign(clean, span, start, end),
        };
        if let Some(b) = binding {
            resume = b.rhs.1;
            out.push(b);
        }
    }
    out
}

fn parse_let(clean: &str, span: (usize, usize), after_let: usize) -> Option<Binding> {
    let bytes = clean.as_bytes();
    let mut i = skip_ws(bytes, after_let, span.1);
    // Optional `mut`.
    if clean[i..].starts_with("mut") && !is_ident_char(*bytes.get(i + 3)?) {
        i = skip_ws(bytes, i + 3, span.1);
    }
    if i >= span.1 || !is_ident_char(bytes[i]) {
        return None; // destructuring patterns are out of scope
    }
    let name_start = i;
    while i < span.1 && is_ident_char(bytes[i]) {
        i += 1;
    }
    let name = clean[name_start..i].to_string();
    // Skip an optional `: Type` annotation up to the `=` (statement depth).
    i = skip_ws(bytes, i, span.1);
    if bytes.get(i) == Some(&b':') {
        while i < span.1 && bytes[i] != b'=' && bytes[i] != b';' {
            i += 1;
        }
    }
    if bytes.get(i) != Some(&b'=') || bytes.get(i + 1) == Some(&b'=') {
        return None; // `let x;` or something unexpected
    }
    let rhs_start = i + 1;
    let rhs_end = statement_end(bytes, rhs_start, span.1);
    Some(Binding {
        name,
        offset: name_start,
        rhs: (rhs_start, rhs_end),
    })
}

fn parse_assign(
    clean: &str,
    span: (usize, usize),
    name_start: usize,
    name_end: usize,
) -> Option<Binding> {
    let bytes = clean.as_bytes();
    // Only statement-position targets: the previous significant byte must
    // end a statement, open a block, or end a match arm.
    let prev = prev_sig(&bytes[span.0..], name_start - span.0);
    if !matches!(prev, None | Some(b';' | b'{' | b'}' | b'>' | b',' | b'(')) {
        return None;
    }
    let i = skip_ws(bytes, name_end, span.1);
    // Compound assignment (`+=`, ...) is impossible here: the `=` directly
    // follows the identifier (modulo whitespace) by construction.
    if bytes.get(i) != Some(&b'=') || matches!(bytes.get(i + 1), Some(&b'=') | Some(&b'>')) {
        return None;
    }
    let rhs_start = i + 1;
    let rhs_end = statement_end(bytes, rhs_start, span.1);
    Some(Binding {
        name: clean[name_start..name_end].to_string(),
        offset: name_start,
        rhs: (rhs_start, rhs_end),
    })
}

/// Scans to the `;` (or `,`/`}` closing a match arm) ending the statement
/// that starts at `from`, respecting bracket nesting.
fn statement_end(bytes: &[u8], from: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < end {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b';' | b',' if depth == 0 => return i,
            _ => {}
        }
        if depth < 0 {
            return i;
        }
        i += 1;
    }
    end
}

/// Whether `text` contains `word` as a standalone identifier — not a field
/// (`.word`), not a path segment (`word::`/`::word`), not a substring.
pub fn contains_word(text: &str, word: &str) -> bool {
    find_word(text, word, 0).is_some()
}

/// First occurrence of standalone identifier `word` in `text` at or after
/// byte `from`.
pub fn find_word(text: &str, word: &str, mut from: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    while let Some(i) = lex::find_word(text, word, from) {
        let dot_field = i > 0 && bytes[i - 1] == b'.';
        let path_seg = (i > 0 && bytes[i - 1] == b':') || bytes.get(i + word.len()) == Some(&b':');
        if !dot_field && !path_seg {
            return Some(i);
        }
        from = i + 1;
    }
    None
}

/// Propagates taint through `bindings`: a binding whose right-hand side
/// mentions an already-tainted identifier taints its own name. `seeds` are
/// (identifier, offset) pairs tainted from the start.
pub fn propagate(
    clean: &str,
    bindings: &[Binding],
    seeds: &[(String, usize)],
) -> Vec<(String, usize)> {
    let mut tainted: Vec<(String, usize)> = seeds.to_vec();
    for b in bindings {
        let rhs = &clean[b.rhs.0..b.rhs.1];
        let hit = tainted
            .iter()
            .any(|(name, at)| *at <= b.offset && contains_word(rhs, name));
        if hit && !tainted.iter().any(|(n, _)| n == &b.name) {
            tainted.push((b.name.clone(), b.offset));
        }
    }
    tainted
}

/// Whether `text` opens with a dereferencing method call.
pub fn starts_with_deref(text: &str) -> bool {
    [".deref()", ".deref_mut()", ".as_ref()", ".as_mut()"]
        .iter()
        .any(|m| text.starts_with(m))
}

/// Whether `text` opens with a field path ending in a facade cell access:
/// `.value.with(` / `.with_mut(`. The closure handed to
/// `crate::sync::UnsafeCell::{with, with_mut}` dereferences the cell's
/// payload, so the call dereferences whatever the receiver was reached
/// through — exactly as `*x.value.get()` did before the facade.
fn starts_with_cell_access(text: &str) -> bool {
    let is_path = |c: char| c == '.' || c == '_' || c.is_ascii_alphanumeric();
    let (path, tail) = text.split_at(text.find(|c| !is_path(c)).unwrap_or(text.len()));
    tail.starts_with('(') && (path.ends_with(".with") || path.ends_with(".with_mut"))
}

/// First dereference-shaped use of `ident` in `clean[span]` at or after
/// `from`: `*ident` (tight, not multiplication),
/// `ident.deref()`/`.deref_mut()`/`.as_ref()`/`.as_mut()`, or a facade cell
/// access reached through it (`ident.field.with(..)`/`.with_mut(..)`).
pub fn deref_use_after(
    clean: &str,
    span: (usize, usize),
    ident: &str,
    from: usize,
) -> Option<usize> {
    let text = &clean[span.0..span.1];
    let base = span.0;
    let mut i = from.saturating_sub(base);
    while let Some(pos) = find_word(text, ident, i) {
        let bytes = text.as_bytes();
        // `*ident`: the star must be adjacent and not a multiplication
        // (previous significant byte an identifier char or `)`).
        if pos > 0 && bytes[pos - 1] == b'*' {
            let prev = prev_sig(bytes, pos - 1);
            let multiplication =
                matches!(prev, Some(p) if is_ident_char(p) || p == b')' || p == b']');
            if !multiplication {
                return Some(base + pos);
            }
        }
        let after = &text[pos + ident.len()..];
        if starts_with_deref(after) || starts_with_cell_access(after) {
            return Some(base + pos);
        }
        i = pos + ident.len();
    }
    None
}

/// The identifier bound by the first `Err(ident)` pattern at or after
/// `from` in `clean[span]`, with its offset.
pub fn err_binding_after(
    clean: &str,
    span: (usize, usize),
    from: usize,
) -> Option<(String, usize)> {
    let text = &clean[span.0..span.1];
    let base = span.0;
    let mut i = from.saturating_sub(base);
    while let Some(pos) = find_word(text, "Err", i) {
        let bytes = text.as_bytes();
        let mut j = pos + 3;
        if bytes.get(j) == Some(&b'(') {
            j += 1;
            let start = j;
            while j < bytes.len() && is_ident_char(bytes[j]) {
                j += 1;
            }
            if j > start && bytes.get(j) == Some(&b')') {
                let ident = text[start..j].to_string();
                if ident != "_" {
                    return Some((ident, base + start));
                }
            }
        }
        i = pos + 3;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(clean: &str) -> (usize, usize) {
        (0, clean.len())
    }

    #[test]
    fn let_and_assignment_bindings() {
        let src =
            "let sentinel = Owned::new(x); let sentinel = sentinel.into_shared(g); node = next;";
        let b = bindings(src, full(src));
        let names: Vec<&str> = b.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["sentinel", "sentinel", "node"]);
        assert!(src[b[0].rhs.0..b[0].rhs.1].contains("Owned::new"));
        assert!(src[b[2].rhs.0..b[2].rhs.1].contains("next"));
    }

    #[test]
    fn match_arm_assignment_is_a_binding() {
        let src = "match r { Ok(_) => return, Err(actual) => current = actual, }";
        let b = bindings(src, full(src));
        assert_eq!(b.len(), 1, "{b:?}");
        assert_eq!(b[0].name, "current");
    }

    #[test]
    fn comparison_is_not_an_assignment() {
        let src = "if first == second { x = 1; }";
        let b = bindings(src, full(src));
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].name, "x");
    }

    #[test]
    fn word_matching_respects_fields_and_paths() {
        assert!(contains_word("a + new", "new"));
        assert!(!contains_word("e.new", "new"));
        assert!(!contains_word("Owned::new(x)", "new"));
        assert!(!contains_word("renewal", "new"));
        assert!(contains_word("store(sentinel, Relaxed)", "sentinel"));
    }

    #[test]
    fn taint_propagates_through_rebinding() {
        let src = "let s = Owned::new(n); let s = s.into_shared(g); let t = s;";
        let b = bindings(src, full(src));
        let tainted = propagate(src, &b, &[(String::from("s"), b[0].offset)]);
        assert!(tainted.iter().any(|(n, _)| n == "t"));
    }

    #[test]
    fn deref_forms() {
        let src = "let a = *v; node.deref().next; w.as_ref(); x * y;";
        assert!(deref_use_after(src, full(src), "v", 0).is_some());
        assert!(deref_use_after(src, full(src), "node", 0).is_some());
        assert!(deref_use_after(src, full(src), "w", 0).is_some());
        assert!(
            deref_use_after(src, full(src), "y", 0).is_none(),
            "multiplication"
        );
        assert!(
            deref_use_after(src, full(src), "v", src.len() / 2).is_none(),
            "respects from"
        );
    }

    #[test]
    fn err_binding_extraction() {
        let src = "match c { Ok(p) => p, Err(actual) => { current = actual; } }";
        let (name, off) = err_binding_after(src, full(src), 0).expect("found");
        assert_eq!(name, "actual");
        assert!(off < src.len());
        assert!(err_binding_after("r.is_err()", (0, 10), 0).is_none());
    }
}
