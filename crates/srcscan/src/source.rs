//! Source loading and lexical cleaning.
//!
//! The scanners work on a *cleaned* copy of each file in which every
//! comment, string literal, and char literal has been blanked out with
//! spaces, byte for byte. Blanking (instead of removing) keeps every byte
//! offset and line number identical between the raw and cleaned text, so
//! findings anchor to real `file:line` positions while the pattern matching
//! never trips over `".load("` inside a string or a doc comment.

use std::fmt;

/// One workspace source file, raw and cleaned.
pub struct SourceFile {
    /// Path relative to the scan root, with `/` separators.
    pub rel_path: String,
    /// The original text.
    pub raw: String,
    /// Same length as `raw`, with comments and string/char literals
    /// (including their delimiters) replaced by spaces. Newlines survive.
    pub clean: String,
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Cleans `raw` and indexes its lines.
    pub fn new(rel_path: impl Into<String>, raw: impl Into<String>) -> Self {
        let raw = raw.into();
        let clean = blank(&raw);
        debug_assert_eq!(raw.len(), clean.len(), "blanking must preserve offsets");
        let mut line_starts = vec![0];
        line_starts.extend(
            raw.bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        Self {
            rel_path: rel_path.into(),
            raw,
            clean,
            line_starts,
        }
    }

    /// 1-based line number of byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }
}

impl fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceFile")
            .field("rel_path", &self.rel_path)
            .field("bytes", &self.raw.len())
            .finish()
    }
}

#[derive(PartialEq)]
enum State {
    Normal,
    LineComment,
    /// Nesting depth (Rust block comments nest).
    BlockComment(u32),
    Str,
    /// Number of `#`s in the `r#...#"` opener.
    RawStr(u32),
    CharLit,
}

/// Replaces comments and string/char literals with spaces, preserving byte
/// offsets and newlines. Lifetimes (`'a`) are kept; raw strings, byte
/// strings, nested block comments, and escapes are handled.
///
/// Byte strings (`b"..."`) process `\"` escapes exactly like ordinary
/// strings; only the `r"..."` / `r#"..."#` / `br"..."` forms are raw
/// (escapes inert, closing decided by the quote-and-hashes sequence).
pub fn blank(src: &str) -> String {
    let mut out = Vec::with_capacity(src.len());
    let mut state = State::Normal;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    // Emits `ch` either verbatim or as an equal number of spaces.
    fn emit(out: &mut Vec<u8>, ch: char, keep: bool) {
        if keep || ch == '\n' {
            let mut buf = [0u8; 4];
            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
        } else {
            out.extend(std::iter::repeat_n(b' ', ch.len_utf8()));
        }
    }
    while i < chars.len() {
        let ch = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Normal => match ch {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    emit(&mut out, ch, false);
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    emit(&mut out, ch, false);
                    emit(&mut out, '*', false);
                    i += 1;
                }
                '"' => {
                    state = State::Str;
                    emit(&mut out, ch, false);
                }
                'r' | 'b' if !prev_is_ident(&chars, i) => {
                    // Possible raw/byte string prefix: r", r#", br", b"...
                    // Only prefixes containing `r` are *raw*; a plain `b"`
                    // opens an ordinary (escape-processing) string body.
                    let mut j = i + 1;
                    let mut is_raw = ch == 'r';
                    if ch == 'b' && chars.get(j).copied() == Some('r') {
                        is_raw = true;
                        j += 1;
                    }
                    let mut hashes = 0;
                    if is_raw {
                        while chars.get(j).copied() == Some('#') {
                            hashes += 1;
                            j += 1;
                        }
                    }
                    if chars.get(j).copied() == Some('"') {
                        for &c in &chars[i..=j] {
                            emit(&mut out, c, false);
                        }
                        i = j;
                        state = if is_raw {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                    } else if ch == 'b' && chars.get(i + 1).copied() == Some('\'') {
                        emit(&mut out, ch, false);
                        emit(&mut out, '\'', false);
                        i += 1;
                        state = State::CharLit;
                    } else {
                        emit(&mut out, ch, true);
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a literal is '<escape>' or
                    // '<char>' (closing quote two ahead); otherwise 'ident.
                    let is_literal = next == Some('\\') || chars.get(i + 2).copied() == Some('\'');
                    if is_literal && !prev_is_ident(&chars, i) {
                        state = State::CharLit;
                        emit(&mut out, ch, false);
                    } else {
                        emit(&mut out, ch, true);
                    }
                }
                _ => emit(&mut out, ch, true),
            },
            State::LineComment => {
                if ch == '\n' {
                    state = State::Normal;
                }
                emit(&mut out, ch, false);
            }
            State::BlockComment(depth) => {
                if ch == '*' && next == Some('/') {
                    emit(&mut out, ch, false);
                    emit(&mut out, '/', false);
                    i += 1;
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if ch == '/' && next == Some('*') {
                    emit(&mut out, ch, false);
                    emit(&mut out, '*', false);
                    i += 1;
                    state = State::BlockComment(depth + 1);
                } else {
                    emit(&mut out, ch, false);
                }
            }
            State::Str => {
                if ch == '\\' {
                    emit(&mut out, ch, false);
                    if let Some(n) = next {
                        emit(&mut out, n, false);
                        i += 1;
                    }
                } else {
                    if ch == '"' {
                        state = State::Normal;
                    }
                    emit(&mut out, ch, false);
                }
            }
            State::RawStr(hashes) => {
                if ch == '"' {
                    let closed =
                        (1..=hashes as usize).all(|k| chars.get(i + k).copied() == Some('#'));
                    emit(&mut out, ch, false);
                    if closed {
                        for _ in 0..hashes {
                            i += 1;
                            emit(&mut out, '#', false);
                        }
                        state = State::Normal;
                    }
                } else {
                    emit(&mut out, ch, false);
                }
            }
            State::CharLit => {
                if ch == '\\' {
                    emit(&mut out, ch, false);
                    if let Some(n) = next {
                        emit(&mut out, n, false);
                        i += 1;
                    }
                } else {
                    if ch == '\'' {
                        state = State::Normal;
                    }
                    emit(&mut out, ch, false);
                }
            }
        }
        i += 1;
    }
    String::from_utf8(out).expect("blanking only replaces chars with ASCII spaces")
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = 1; // a.load(Relaxed)\nlet s = \".store(SeqCst)\"; /* fence( */ y";
        let clean = blank(src);
        assert_eq!(clean.len(), src.len());
        assert!(!clean.contains("Relaxed"));
        assert!(!clean.contains("SeqCst"));
        assert!(!clean.contains("fence"));
        assert!(clean.contains("let x = 1;"));
        assert!(clean.ends_with('y'));
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let src = "/* outer /* inner */ still */ keep r#\"raw .load( \"# after b\"bytes\" end";
        let clean = blank(src);
        assert!(clean.contains("keep"));
        assert!(clean.contains("after"));
        assert!(clean.contains("end"));
        assert!(!clean.contains("inner"));
        assert!(!clean.contains(".load("));
        assert!(!clean.contains("bytes"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\n'; }";
        let clean = blank(src);
        assert!(clean.contains("<'a>"));
        assert!(clean.contains("&'a str"));
        assert!(!clean.contains("'x'"));
        assert!(!clean.contains("\\n"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let src = r#"let s = "a\"b.load(Acquire)"; tail"#;
        let clean = blank(src);
        assert!(!clean.contains("Acquire"));
        assert!(clean.contains("tail"));
    }

    #[test]
    fn line_numbers_match_offsets() {
        let sf = SourceFile::new("x.rs", "a\nbb\nccc\n");
        assert_eq!(sf.line_of(0), 1);
        assert_eq!(sf.line_of(2), 2);
        assert_eq!(sf.line_of(3), 2);
        assert_eq!(sf.line_of(5), 3);
        assert_eq!(sf.line_of(8), 3);
    }

    #[test]
    fn multibyte_chars_keep_byte_alignment() {
        let src = "// em—dash comment\nlet x = 1;";
        let clean = blank(src);
        assert_eq!(clean.len(), src.len());
        assert!(clean.contains("let x = 1;"));
    }

    // Regression: byte strings are NOT raw strings. The pre-extraction
    // blanker routed `b"..."` into the raw-string state, so an escaped
    // `\"` inside one terminated the literal early and the trailing real
    // quote re-opened a phantom string — desynchronizing every site after
    // it in the file.
    #[test]
    fn escaped_quote_in_byte_string_does_not_desync() {
        let src = "let v = b\"x\\\"y\"; real.load(Acquire); tail";
        let clean = blank(src);
        assert_eq!(clean.len(), src.len());
        assert!(
            clean.contains("real.load(Acquire)"),
            "code after the byte string must survive blanking: {clean:?}"
        );
        assert!(!clean.contains('x'), "byte-string body must be blanked");
        assert!(clean.contains("tail"));
    }

    // Regression companion: a lone `"` inside a hashed raw string must not
    // close it, and the `"#` terminator must.
    #[test]
    fn quote_inside_hashed_raw_string_does_not_close_it() {
        let src = "let s = r#\"has \" quote .load(SeqCst) \"# ; live.store(1, Release); end";
        let clean = blank(src);
        assert_eq!(clean.len(), src.len());
        assert!(!clean.contains("SeqCst"));
        assert!(clean.contains("live.store(1, Release)"));
        assert!(clean.contains("end"));
    }

    // `br"..."` stays raw: backslashes are inert, the quote closes it.
    #[test]
    fn raw_byte_string_backslash_is_inert() {
        let src = "let v = br\"a\\\"; after.load(AcqRel); end";
        let clean = blank(src);
        assert_eq!(clean.len(), src.len());
        assert!(clean.contains("after.load(AcqRel)"));
        assert!(clean.contains("end"));
    }
}
