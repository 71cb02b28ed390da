//! The TOML subset the checkers' manifests use.
//!
//! `ordlint.toml` and `progress.toml` are both flat lists of
//! array-of-table entries. The build is offline (no toml crate), so this
//! reader handles exactly that subset — `[[table]]` headers,
//! `key = "quoted string"` pairs (with `\"` and `\\` escapes), bare
//! `true`/`false`, and `#` comments — and rejects everything else loudly
//! rather than guessing. Which tables and keys exist is the caller's
//! [`Schema`]; typing the values is the caller's job too.

/// The tables a manifest may contain, each with the keys it may carry.
pub type Schema<'a> = &'a [(&'a str, &'a [&'a str])];

/// One `[[name]]` table with its `key = value` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// The table name between `[[` and `]]`.
    pub name: String,
    /// 1-based line of the header, for error messages.
    pub line: usize,
    fields: Vec<(String, String)>,
}

impl Table {
    /// The value of `key`, unescaped; booleans read as `"true"`/`"false"`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Strips a `#` comment, respecting quoted strings and their escapes.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(n) = chars.next() {
                out.push(n);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// `[[a]] or [[b]]` / `[[a]]/[[b]]`, for error messages.
fn table_list(schema: Schema<'_>, sep: &str) -> String {
    let names: Vec<String> = schema.iter().map(|(t, _)| format!("[[{t}]]")).collect();
    names.join(sep)
}

/// Reads manifest text into its tables, in file order.
///
/// `prefix` goes in front of the line number of every error
/// (`"progress.toml:"` gives `progress.toml:12: ...`).
///
/// # Errors
///
/// A `{prefix}{line}: message` string for: a table or key the schema does
/// not list, a key outside any table, a line that is not `key = value`, a
/// value that is neither quoted nor a bare boolean, and a key repeated
/// within one table.
pub fn read(text: &str, prefix: &str, schema: Schema<'_>) -> Result<Vec<Table>, String> {
    let mut tables: Vec<Table> = Vec::new();
    let mut keys: &[&str] = &[];
    for (idx, raw_line) in text.lines().enumerate() {
        let at = format!("{prefix}{}", idx + 1);
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = header.trim();
            let Some((_, table_keys)) = schema.iter().find(|(t, _)| *t == name) else {
                return Err(format!(
                    "{at}: unknown table `[[{name}]]` (expected {})",
                    table_list(schema, " or ")
                ));
            };
            keys = table_keys;
            tables.push(Table {
                name: name.to_string(),
                line: idx + 1,
                fields: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("{at}: expected `key = \"value\"`, got `{line}`"));
        };
        let Some(table) = tables.last_mut() else {
            return Err(format!("{at}: key outside {}", table_list(schema, "/")));
        };
        let key = key.trim();
        let value = value.trim();
        let value = if let Some(q) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
            unescape(q)
        } else if value == "true" || value == "false" {
            value.to_string()
        } else {
            return Err(format!(
                "{at}: value for `{key}` must be quoted (or a bare boolean)"
            ));
        };
        if !keys.contains(&key) {
            return Err(format!("{at}: unknown key `{key}`"));
        }
        if table.get(key).is_some() {
            return Err(format!("{at}: duplicate key `{key}`"));
        }
        table.fields.push((key.to_string(), value));
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: Schema<'static> = &[("op", &["name", "no_alloc"]), ("allow", &["why"])];

    /// One table-driven test for the reader: each case is manifest text and
    /// either the `(table, key, value)` it must yield or a fragment of the
    /// error it must raise.
    #[test]
    fn reader_cases() {
        type Expect = Result<(&'static str, &'static str, &'static str), &'static str>;
        let cases: [(&str, &str, Expect); 13] = [
            (
                "plain pair after a header comment",
                "# header\n[[op]]\nname = \"S::push\" # trailing\n",
                Ok(("op", "name", "S::push")),
            ),
            (
                "escaped quote stays in the value",
                "[[allow]]\nwhy = \"say \\\"hi\\\" twice\"\n",
                Ok(("allow", "why", "say \"hi\" twice")),
            ),
            (
                // Regression: ordlint's old reader looked one byte back to
                // decide a quote was escaped, never left string mode here,
                // kept the comment, and rejected the line as unquoted.
                "escaped backslash before the closing quote, then a comment",
                "[[allow]]\nwhy = \"ends in a backslash \\\\\" # note\n",
                Ok(("allow", "why", "ends in a backslash \\")),
            ),
            (
                "hash inside a string is not a comment",
                "[[allow]]\nwhy = \"issue #12 # still text\"\n",
                Ok(("allow", "why", "issue #12 # still text")),
            ),
            (
                "bare true",
                "[[op]]\nno_alloc = true\n",
                Ok(("op", "no_alloc", "true")),
            ),
            (
                "bare false",
                "[[op]]\nno_alloc = false # comment\n",
                Ok(("op", "no_alloc", "false")),
            ),
            (
                "other bare values are rejected",
                "[[op]]\nname = S::push\n",
                Err("f.toml:2: value for `name` must be quoted (or a bare boolean)"),
            ),
            (
                "duplicate key",
                "[[op]]\nname = \"a\"\nname = \"b\"\n",
                Err("f.toml:3: duplicate key `name`"),
            ),
            (
                "key outside a table",
                "name = \"orphan\"\n",
                Err("f.toml:1: key outside [[op]]/[[allow]]"),
            ),
            (
                "unknown table",
                "[[ops]]\n",
                Err("f.toml:1: unknown table `[[ops]]` (expected [[op]] or [[allow]])"),
            ),
            (
                "key of another table",
                "[[op]]\nwhy = \"x\"\n",
                Err("f.toml:2: unknown key `why`"),
            ),
            (
                "not a pair",
                "[[op]]\njust words\n",
                Err("f.toml:2: expected `key = \"value\"`, got `just words`"),
            ),
            (
                "single-bracket header is not a pair either",
                "[op]\n",
                Err("f.toml:1: expected `key = \"value\"`"),
            ),
        ];
        for (what, text, expect) in cases {
            let got = read(text, "f.toml:", SCHEMA);
            match (expect, got) {
                (Ok((table, key, value)), Ok(tables)) => {
                    assert_eq!(tables.len(), 1, "{what}");
                    assert_eq!(tables[0].name, table, "{what}");
                    assert_eq!(tables[0].get(key), Some(value), "{what}");
                }
                (Err(fragment), Err(message)) => {
                    assert!(message.contains(fragment), "{what}: got `{message}`");
                }
                (expect, got) => panic!("{what}: expected {expect:?}, got {got:?}"),
            }
        }
    }

    #[test]
    fn tables_keep_file_order_and_header_lines() {
        let text = "[[op]]\nname = \"a\"\n\n[[allow]]\nwhy = \"w\"\n[[op]]\nname = \"b\"\n";
        let tables = read(text, "", SCHEMA).unwrap();
        let seen: Vec<(&str, usize)> = tables.iter().map(|t| (t.name.as_str(), t.line)).collect();
        assert_eq!(seen, [("op", 1), ("allow", 4), ("op", 6)]);
        assert_eq!(tables[2].get("name"), Some("b"));
        assert_eq!(tables[2].get("no_alloc"), None);
    }
}
