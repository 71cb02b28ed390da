//! The justified-findings baseline both checkers share.
//!
//! A finding that is *intentional* — a constructor publishing with
//! `Relaxed` before the object escapes, a cold-path CAS loop that needs no
//! backoff — gets a baseline entry in the lint's manifest instead of a
//! code change:
//!
//! ```toml
//! [[allow]]                 # `[[baseline]]` in progress.toml
//! rule = "ORD002"
//! file = "crates/lockfree/src/stack.rs"
//! function = "drop"
//! receiver = "self.top"     # `detail` in progress.toml
//! justification = "Drop takes &mut self: exclusive access, nothing to acquire."
//! ```
//!
//! The contract is the same for every lint: findings and entries match on
//! the 4-part key (rule, file, function, detail); every entry **must**
//! carry a non-empty `justification`; two entries with one key are
//! rejected; and an entry that matches no current finding is *stale* and
//! fails the run just like an unbaselined finding, so the committed
//! baseline always mirrors the tree's reviewed state. A lint states only
//! what differs — its table name, the name of the fourth key, its message
//! prefix — as a [`Lint`].

use std::fmt::Display;

use crate::manifest::{self, Table};

/// What one lint states about itself, as data.
#[derive(Debug, Clone, Copy)]
pub struct Lint {
    /// Tool name in front of diagnostics (`ordlint`).
    pub tool: &'static str,
    /// Manifest file name at the scan root (`ordlint.toml`).
    pub manifest: &'static str,
    /// The flag that points at another manifest (`baseline` → `--baseline`).
    pub manifest_flag: &'static str,
    /// Whether a missing manifest is an error rather than an empty baseline.
    pub manifest_required: bool,
    /// Goes in front of the line number of manifest parse errors.
    pub error_prefix: &'static str,
    /// Name of the baseline table (`allow`, `baseline`).
    pub table: &'static str,
    /// Name of the key's fourth part (`receiver`, `detail`).
    pub detail_key: &'static str,
}

impl Lint {
    /// The keys a baseline table carries — all of them required.
    pub fn baseline_keys(&self) -> [&'static str; 5] {
        ["rule", "file", "function", self.detail_key, "justification"]
    }
}

/// One baseline entry justifying a known finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule ID the entry silences.
    pub rule: String,
    /// File of the allowed finding (relative, `/` separators).
    pub file: String,
    /// Enclosing function of the allowed finding.
    pub function: String,
    /// Rule-specific discriminator: the key's fourth part.
    pub detail: String,
    /// Why the finding is intentional. Required, non-empty.
    pub justification: String,
    /// 1-based manifest line of the entry's header.
    pub line: usize,
}

impl Entry {
    fn key(&self) -> [&str; 4] {
        [&self.rule, &self.file, &self.function, &self.detail]
    }
}

/// Types the `lint.table` tables of a manifest as baseline entries.
///
/// # Errors
///
/// A `{prefix}{line}: message` string for an entry missing one of its
/// five keys, an empty justification, or a second entry for one key.
pub fn entries(tables: &[Table], lint: &Lint) -> Result<Vec<Entry>, String> {
    let mut out: Vec<Entry> = Vec::new();
    for t in tables.iter().filter(|t| t.name == lint.table) {
        let (at, table) = (format!("{}{}", lint.error_prefix, t.line), lint.table);
        let get = |key: &str| match t.get(key) {
            Some(value) => Ok(value.to_string()),
            None => Err(format!("{at}: [[{table}]] missing `{key}`")),
        };
        let entry = Entry {
            rule: get("rule")?,
            file: get("file")?,
            function: get("function")?,
            detail: get(lint.detail_key)?,
            justification: get("justification")?,
            line: t.line,
        };
        if entry.justification.trim().is_empty() {
            return Err(format!(
                "{at}: [[{table}]] entry for {} in {} has no justification — every \
                 baselined finding must say why it is intentional",
                entry.rule, entry.file
            ));
        }
        if out.iter().any(|e| e.key() == entry.key()) {
            let [rule, file, function, detail] = entry.key();
            let key = (rule, file, function, detail);
            return Err(format!("{at}: duplicate [[{table}]] entry for {key:?}"));
        }
        out.push(entry);
    }
    Ok(out)
}

/// Reads a manifest that holds nothing but `lint`'s baseline table.
///
/// # Errors
///
/// The reader's and [`entries`]' error strings.
pub fn parse(text: &str, lint: &Lint) -> Result<Vec<Entry>, String> {
    let schema: manifest::Schema<'_> = &[(lint.table, &lint.baseline_keys())];
    entries(&manifest::read(text, lint.error_prefix, schema)?, lint)
}

/// What the matcher and the report need from a lint's finding type. Its
/// `Display` is the one-line text form of an unbaselined finding.
pub trait Finding: Display {
    /// The baseline key: (rule, file, function, detail).
    fn key(&self) -> [&str; 4];
    /// 1-based line of the anchoring site.
    fn line(&self) -> usize;
    /// Human-readable explanation.
    fn message(&self) -> &str;
    /// Severity class, for lints that grade their rules.
    fn severity(&self) -> Option<&str> {
        None
    }
}

/// The outcome of matching findings against the baseline.
#[derive(Debug)]
pub struct MatchResult<F> {
    /// Findings covered by an entry, with the entry's justification.
    pub baselined: Vec<(F, String)>,
    /// Findings with no matching entry — these fail the run.
    pub unbaselined: Vec<F>,
    /// Entries matching no finding — these fail the run too.
    pub stale: Vec<Entry>,
}

impl<F> MatchResult<F> {
    /// Success only when nothing is unbaselined and nothing is stale.
    pub fn is_clean(&self) -> bool {
        self.unbaselined.is_empty() && self.stale.is_empty()
    }
}

/// Matches `findings` against `entries` on the 4-part key. One entry may
/// cover several findings at the same key (a rule firing twice in one
/// function on the same receiver); entries that cover nothing are stale.
pub fn apply<F: Finding>(findings: Vec<F>, entries: &[Entry]) -> MatchResult<F> {
    let (mut baselined, mut unbaselined) = (Vec::new(), Vec::new());
    let mut used = vec![false; entries.len()];
    for finding in findings {
        match entries.iter().position(|e| e.key() == finding.key()) {
            Some(i) => {
                used[i] = true;
                baselined.push((finding, entries[i].justification.clone()));
            }
            None => unbaselined.push(finding),
        }
    }
    let stale = entries.iter().zip(used).filter(|(_, used)| !used);
    MatchResult {
        baselined,
        unbaselined,
        stale: stale.map(|(e, _)| e.clone()).collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) const LINT: Lint = Lint {
        tool: "demo",
        manifest: "demo.toml",
        manifest_flag: "baseline",
        manifest_required: false,
        error_prefix: "demo.toml:",
        table: "allow",
        detail_key: "receiver",
    };

    /// A finding that is nothing but its key.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Probe(pub [&'static str; 4], pub usize);

    impl Display for Probe {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}:{}: {} fired", self.0[1], self.1, self.0[0])
        }
    }

    impl Finding for Probe {
        fn key(&self) -> [&str; 4] {
            self.0
        }
        fn line(&self) -> usize {
            self.1
        }
        fn message(&self) -> &str {
            "fired"
        }
    }

    pub(crate) fn parse(text: &str) -> Result<Vec<Entry>, String> {
        super::parse(text, &LINT)
    }

    pub(crate) fn entry_text(rule: &str, function: &str, justification: &str) -> String {
        format!(
            "[[allow]]\nrule = \"{rule}\"\nfile = \"a.rs\"\nfunction = \"{function}\"\n\
             receiver = \"self.top\"\njustification = \"{justification}\"\n"
        )
    }

    #[test]
    fn entries_need_every_key_a_justification_and_a_unique_key() {
        let good = entry_text("R1", "f", "exclusive access");
        let parsed = parse(&good).expect("valid");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].detail, "self.top");
        assert_eq!(parsed[0].line, 1);

        let no_why =
            "[[allow]]\nrule = \"R1\"\nfile = \"a.rs\"\nfunction = \"f\"\nreceiver = \"x\"\n";
        let err = parse(no_why).expect_err("missing key");
        assert_eq!(err, "demo.toml:1: [[allow]] missing `justification`");

        let err = parse(&entry_text("R1", "f", "  ")).expect_err("blank justification");
        assert!(err.contains("R1 in a.rs has no justification"), "{err}");

        let err = parse(&format!("{good}\n{good}")).expect_err("duplicate");
        assert_eq!(
            err,
            "demo.toml:8: duplicate [[allow]] entry for (\"R1\", \"a.rs\", \"f\", \"self.top\")"
        );
    }

    #[test]
    fn apply_splits_baselined_unbaselined_stale() {
        let text = entry_text("R1", "f", "known") + &entry_text("R2", "g", "stale one");
        let entries = parse(&text).unwrap();
        let result = apply(
            vec![
                Probe(["R1", "a.rs", "f", "self.top"], 3),
                Probe(["R1", "a.rs", "f", "self.top"], 9),
                Probe(["R3", "c.rs", "h", "p"], 1),
            ],
            &entries,
        );
        assert_eq!(result.baselined.len(), 2, "one entry covers both findings");
        assert_eq!(result.baselined[1].1, "known");
        assert_eq!(result.unbaselined, [Probe(["R3", "c.rs", "h", "p"], 1)]);
        assert_eq!(result.stale.len(), 1);
        assert_eq!(result.stale[0].rule, "R2");
        assert!(!result.is_clean());
        assert!(apply(Vec::<Probe>::new(), &[]).is_clean());
    }
}
