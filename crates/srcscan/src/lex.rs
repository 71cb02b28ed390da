//! Token-level helpers over cleaned source text.
//!
//! Everything here operates on the blanked text from [`crate::source`], so
//! brackets and identifiers can be matched without worrying about comments
//! or string literals. Offsets in and out are byte offsets into that text
//! (identical to offsets into the raw text).

/// Whether `b` can appear inside a Rust identifier.
pub fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Every identifier-like word of `text` (maximal runs of identifier
/// characters, so keywords and numbers too) with its byte offset, in order.
pub fn words(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let bytes = text.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() && !is_ident_char(bytes[i]) {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        (start < i).then(|| (start, &text[start..i]))
    })
}

/// First occurrence of `word` as a whole identifier (not a substring of a
/// longer one) in `text` at or after byte `from`.
pub fn find_word(text: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut search = from;
    while !word.is_empty() {
        let at = search + text.get(search..)?.find(word)?;
        let end = at + word.len();
        let starts = at == 0 || !is_ident_char(bytes[at - 1]);
        if starts && (end == bytes.len() || !is_ident_char(bytes[end])) {
            return Some(at);
        }
        search = at + 1;
    }
    None
}

/// The first offset at or after `i` (and below `end`) that is not
/// whitespace, or `end`.
pub fn skip_ws(bytes: &[u8], mut i: usize, end: usize) -> usize {
    while i < end && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// The last non-whitespace byte before `pos`.
pub fn prev_sig(bytes: &[u8], pos: usize) -> Option<u8> {
    bytes[..pos]
        .iter()
        .rev()
        .copied()
        .find(|b| !b.is_ascii_whitespace())
}

/// Byte offset of the bracket matching `bytes[open]`.
pub fn matching(bytes: &[u8], open: usize, op: u8, cl: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == op {
            depth += 1;
        } else if b == cl {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Byte offset of the opening bracket matching the closer at `close`.
pub fn matching_back(bytes: &[u8], close: usize, op: u8, cl: u8) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if bytes[i] == cl {
            depth += 1;
        } else if bytes[i] == op {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Walks backwards from the `.` before a method name, collecting the
/// receiver chain (identifiers, field accesses, balanced `()` and `[]`).
/// Returns the normalized chain (whitespace stripped, index expressions
/// collapsed to `[_]`, call arguments to `()`) and its leading identifier.
///
/// `name_start` must point at the method identifier, whose significant
/// preceding byte is a `.` (the caller checks with [`prev_sig`]).
pub fn receiver_chain(clean: &str, name_start: usize) -> (String, String) {
    let bytes = clean.as_bytes();
    let mut i = name_start;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    debug_assert_eq!(bytes.get(i - 1), Some(&b'.'));
    i -= 1; // now at the `.`
    let chain_end = i;
    let mut start = i;
    loop {
        while start > 0 && bytes[start - 1].is_ascii_whitespace() {
            start -= 1;
        }
        if start == 0 {
            break;
        }
        match bytes[start - 1] {
            b')' => match matching_back(bytes, start - 1, b'(', b')') {
                Some(open) => start = open,
                None => break,
            },
            b']' => match matching_back(bytes, start - 1, b'[', b']') {
                Some(open) => start = open,
                None => break,
            },
            b'.' => start -= 1,
            c if is_ident_char(c) => {
                while start > 0 && is_ident_char(bytes[start - 1]) {
                    start -= 1;
                }
                // A `::` path prefix ends the chain at this identifier.
                if start >= 2 && &bytes[start - 2..start] == b"::" {
                    break;
                }
                // Continue only through a field access.
                let mut j = start;
                while j > 0 && bytes[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                if j > 0 && bytes[j - 1] == b'.' {
                    start = j - 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    let span = &clean[start..chain_end];
    (normalize_receiver(span), leading_ident(span))
}

/// Normalizes a receiver span: whitespace stripped, index expressions
/// collapsed to `[_]`, call arguments to `()`.
pub fn normalize_receiver(span: &str) -> String {
    let bytes = span.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => {
                out.push_str("[_]");
                i = matching(bytes, i, b'[', b']').map_or(bytes.len(), |c| c + 1);
            }
            b'(' => {
                out.push_str("()");
                i = matching(bytes, i, b'(', b')').map_or(bytes.len(), |c| c + 1);
            }
            b if b.is_ascii_whitespace() => i += 1,
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

/// The leading identifier of a receiver span (`self`, `node`, ...).
pub fn leading_ident(span: &str) -> String {
    span.trim_start()
        .bytes()
        .take_while(|&b| is_ident_char(b))
        .map(|b| b as char)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receiver_chain_walks_fields_indexes_and_calls() {
        let src = "x = self.slots[tail & mask].sequence.load";
        let name_start = src.len() - "load".len();
        let (chain, base) = receiver_chain(src, name_start);
        assert_eq!(chain, "self.slots[_].sequence");
        assert_eq!(base, "self");
    }

    #[test]
    fn receiver_chain_stops_at_path_prefix() {
        let src = "epoch::pin().top.load";
        let name_start = src.len() - "load".len();
        let (chain, base) = receiver_chain(src, name_start);
        assert_eq!(chain, "pin().top");
        assert_eq!(base, "pin");
    }

    #[test]
    fn matching_pairs_nest() {
        let bytes = b"a(b(c)d)e";
        assert_eq!(matching(bytes, 1, b'(', b')'), Some(7));
        assert_eq!(matching_back(bytes, 7, b'(', b')'), Some(1));
    }

    #[test]
    fn words_carry_their_offsets() {
        let found: Vec<(usize, &str)> = words("a.load(Acquire, g2) ").collect();
        assert_eq!(found, [(0, "a"), (2, "load"), (7, "Acquire"), (16, "g2")]);
        assert_eq!(words(" .. ").count(), 0);
    }

    #[test]
    fn find_word_needs_identifier_boundaries() {
        let text = "renewal new e.new new_x (new)";
        assert_eq!(find_word(text, "new", 0), Some(8));
        assert_eq!(find_word(text, "new", 9), Some(14));
        assert_eq!(find_word(text, "new", 15), Some(25));
        assert_eq!(find_word(text, "new", 26), None);
        assert_eq!(find_word(text, "", 0), None);
        assert_eq!(find_word(text, "new", text.len() + 1), None);
    }

    #[test]
    fn prev_sig_skips_whitespace() {
        assert_eq!(prev_sig(b"a .  x", 5), Some(b'.'));
        assert_eq!(prev_sig(b"   x", 3), None);
    }
}
