//! The progress manifest (`progress.toml`): declared guarantees + baseline.
//!
//! `[[op]]` tables declare the progress class of every public operation of
//! `crates/lockfree` and the vendored epoch API; `[[baseline]]` tables
//! justify known findings, with the same contract as `ordlint.toml`:
//! findings with no entry fail the run, and entries matching no finding
//! (stale) fail it too, so the committed manifest always mirrors the
//! tree's reviewed state.
//!
//! The text is read by `lfrt_srcscan::manifest` (the TOML subset both
//! lints share) and the `[[baseline]]` tables are typed by
//! `lfrt_srcscan::baseline`; this module types the `[[op]]` tables.

use std::fmt;

use lfrt_srcscan::baseline::{self, Entry};
use lfrt_srcscan::manifest::{self, Table};

use crate::LINT;

/// A declared progress guarantee, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Completes in a bounded number of own-thread steps, regardless of
    /// other threads.
    WaitFree,
    /// Some thread always completes in a bounded number of system steps
    /// (individual threads may retry unboundedly under contention).
    LockFree,
    /// May block on a lock or another thread's progress.
    Blocking,
}

impl Class {
    /// Parses the manifest spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "wait_free" => Class::WaitFree,
            "lock_free" => Class::LockFree,
            "blocking" => Class::Blocking,
            _ => return None,
        })
    }

    /// The manifest spelling.
    pub fn name(self) -> &'static str {
        match self {
            Class::WaitFree => "wait_free",
            Class::LockFree => "lock_free",
            Class::Blocking => "blocking",
        }
    }

    /// Whether the class promises at least lock-freedom.
    pub fn at_least_lock_free(self) -> bool {
        matches!(self, Class::WaitFree | Class::LockFree)
    }
}

impl fmt::Display for Class {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One `[[op]]` declaration.
#[derive(Debug, Clone)]
pub struct OpDecl {
    /// Qualified name: `Type::method` for associated fns, bare name for
    /// free fns.
    pub name: String,
    /// Declared progress class.
    pub class: Class,
    /// Whether the op additionally promises not to allocate.
    pub no_alloc: bool,
    /// 1-based manifest line of the `[[op]]` header (for error messages).
    pub line: usize,
}

/// The parsed manifest.
#[derive(Debug, Default)]
pub struct Manifest {
    /// Declared ops, in file order.
    pub ops: Vec<OpDecl>,
    /// Baseline entries, in file order.
    pub baseline: Vec<Entry>,
}

impl Manifest {
    /// Looks up a declared op by qualified name.
    pub fn op(&self, name: &str) -> Option<&OpDecl> {
        self.ops.iter().find(|o| o.name == name)
    }
}

/// Types one `[[op]]` table.
fn op_decl(t: &Table) -> Result<OpDecl, String> {
    let at = format!("{}{}", LINT.error_prefix, t.line);
    let name = t
        .get("name")
        .ok_or_else(|| format!("{at}: [[op]] missing `name`"))?;
    let class_s = t
        .get("class")
        .ok_or_else(|| format!("{at}: [[op]] `{name}` missing `class`"))?;
    let class = Class::parse(class_s).ok_or_else(|| {
        format!("{at}: unknown class `{class_s}` (wait_free | lock_free | blocking)")
    })?;
    let no_alloc = match t.get("no_alloc") {
        None | Some("false") => false,
        Some("true") => true,
        Some(v) => return Err(format!("{at}: no_alloc must be true or false, got `{v}`")),
    };
    Ok(OpDecl {
        name: name.to_string(),
        class,
        no_alloc,
        line: t.line,
    })
}

/// Parses manifest text.
///
/// # Errors
///
/// A human-readable message naming the offending line for: unknown table
/// headers or keys, keys outside a table, unquoted values (other than
/// bare booleans), unknown classes, duplicate op names or baseline keys,
/// and ops or baseline entries with required keys missing.
pub fn parse(text: &str) -> Result<Manifest, String> {
    let schema: manifest::Schema<'_> = &[
        ("op", &["name", "class", "no_alloc"]),
        (LINT.table, &LINT.baseline_keys()),
    ];
    let tables = manifest::read(text, LINT.error_prefix, schema)?;
    let mut ops: Vec<OpDecl> = Vec::new();
    for t in tables.iter().filter(|t| t.name == "op") {
        let op = op_decl(t)?;
        if ops.iter().any(|o| o.name == op.name) {
            return Err(format!(
                "{}{}: duplicate [[op]] `{}`",
                LINT.error_prefix, op.line, op.name
            ));
        }
        ops.push(op);
    }
    Ok(Manifest {
        ops,
        baseline: baseline::entries(&tables, &LINT)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ops_and_baseline() {
        let text = r#"
# header comment
[[op]]
name = "TreiberStack::push"
class = "lock_free"

[[op]]
name = "RingProducer::push" # trailing comment
class = "wait_free"
no_alloc = true

[[baseline]]
rule = "PRG001"
file = "vendor/crossbeam/src/epoch.rs"
function = "acquire_record"
detail = "REGISTRY"
justification = "cold path, once per thread"
"#;
        let m = parse(text).unwrap();
        assert_eq!(m.ops.len(), 2);
        assert_eq!(m.ops[0].class, Class::LockFree);
        assert!(!m.ops[0].no_alloc);
        assert!(m.ops[1].no_alloc);
        assert_eq!(m.baseline.len(), 1);
        assert_eq!(m.baseline[0].detail, "REGISTRY");
    }

    #[test]
    fn rejects_missing_class_duplicate_op_and_empty_justification() {
        assert!(parse("[[op]]\nname = \"X::y\"\n").is_err());
        assert!(parse(
            "[[op]]\nname = \"X::y\"\nclass = \"lock_free\"\n\
             [[op]]\nname = \"X::y\"\nclass = \"lock_free\"\n"
        )
        .is_err());
        assert!(parse(
            "[[baseline]]\nrule = \"PRG001\"\nfile = \"a.rs\"\nfunction = \"f\"\n\
             detail = \"d\"\njustification = \"  \"\n"
        )
        .is_err());
        assert!(parse("[[op]]\nname = \"X::y\"\nclass = \"mostly_fine\"\n").is_err());
        assert!(parse("name = \"orphan\"\n").is_err());
        assert!(parse("[[ops]]\n").is_err());
    }
}
