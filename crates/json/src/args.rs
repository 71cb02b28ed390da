//! The `--key value` flag parser.

use std::collections::HashMap;

/// A minimal `--key value` flag parser for the workspace's binaries.
///
/// Flags may appear after a literal `--` separator (as cargo passes them).
///
/// # Examples
///
/// ```
/// use lfrt_json::Args;
///
/// let args = Args::parse(["--load", "1.1", "--tufs", "hetero"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_f64("load", 0.4), 1.1);
/// assert_eq!(args.get_str("tufs", "step"), "hetero");
/// assert_eq!(args.get_u64("seed", 1), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses flags from an iterator of raw arguments.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Self {
        let mut values = HashMap::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if arg == "--" {
                continue;
            }
            if let Some(key) = arg.strip_prefix("--") {
                if let Some(value) = iter.peek() {
                    if !value.starts_with("--") {
                        values.insert(key.to_string(), iter.next().expect("peeked"));
                        continue;
                    }
                }
                values.insert(key.to_string(), String::from("true"));
            }
        }
        Self { values }
    }

    /// Parses the process's own command line.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// String flag with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A parsed flag with a default; `kind` names what the flag expects.
    fn get<T: std::str::FromStr>(&self, key: &str, default: T, kind: &str) -> T {
        self.values.get(key).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{key} expects {kind}, got {v}"))
        })
    }

    /// Float flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present but not a valid float.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key, default, "a number")
    }

    /// Integer flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present but not a valid integer.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key, default, "an integer")
    }

    /// `usize` flag with a default.
    ///
    /// # Panics
    ///
    /// Panics if the flag is present but not a valid integer.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key, default, "an integer")
    }

    /// Boolean flag: present without a value (or as `true`) means on.
    pub fn get_bool(&self, key: &str) -> bool {
        matches!(
            self.values.get(key).map(String::as_str),
            Some("true" | "1" | "yes")
        )
    }

    /// Whether `--quick` reduced-resolution mode is on (for CI smoke runs).
    pub fn quick(&self) -> bool {
        self.get_bool("quick")
    }

    /// Worker threads for a sweep (`lfrt_bench::runner::Sweep`): `--threads N`, defaulting to
    /// the host's available parallelism.
    pub fn threads(&self) -> usize {
        let default = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        self.get_usize("threads", default).max(1)
    }

    /// Destination for the JSON report, if `--json <path>` was given.
    pub fn json_path(&self) -> Option<std::path::PathBuf> {
        self.values.get("json").map(std::path::PathBuf::from)
    }

    /// Destination for the flight-recorder report, if `--trace <path>` was
    /// given. Presence of the flag also turns the recorder on (see
    /// `lfrt_bench::trace::Session`).
    pub fn trace_path(&self) -> Option<std::path::PathBuf> {
        self.values.get("trace").map(std::path::PathBuf::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_flags() {
        let args = Args::parse(
            ["--", "--load", "0.9", "--verbose", "--seed", "7"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(args.get_f64("load", 0.0), 0.9);
        assert_eq!(args.get_u64("seed", 0), 7);
        assert_eq!(args.get_str("verbose", "false"), "true");
        assert_eq!(args.get_str("missing", "x"), "x");
    }

    #[test]
    fn shared_runner_flags() {
        let args = Args::parse(
            ["--quick", "--threads", "3", "--json", "out/results.json"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(args.quick());
        assert!(args.get_bool("quick"));
        assert!(!args.get_bool("missing"));
        assert_eq!(args.threads(), 3);
        assert_eq!(args.get_usize("threads", 1), 3);
        assert_eq!(
            args.json_path(),
            Some(std::path::PathBuf::from("out/results.json"))
        );

        let bare = Args::parse(std::iter::empty());
        assert!(!bare.quick());
        assert!(bare.threads() >= 1);
        assert_eq!(bare.json_path(), None);
    }
}
