//! Deterministic source inventory.
//!
//! Both checkers must scan the same files in the same order on every
//! machine (findings are diffed against committed baselines, so ordering
//! and coverage are part of the contract). The walk sorts directory
//! entries and emits `/`-separated paths relative to the scan root.

use std::io;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Recursively collects every `.rs` file under `dir`, sorted.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk.
pub fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads `paths` as [`SourceFile`]s with paths relative to `root`.
///
/// # Errors
///
/// Propagates I/O errors from file reads.
pub fn load_files(root: &Path, paths: Vec<PathBuf>) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let raw = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::new(rel, raw));
    }
    Ok(files)
}

/// Loads every source file under `root`, with paths relative to it.
///
/// A workspace checkout (a `crates/` directory exists) is scanned through
/// the lint's `workspace_dirs`, skipping directories that do not exist;
/// any other root — a fixture directory in tests — is walked recursively
/// for `.rs` files.
///
/// # Errors
///
/// Propagates I/O errors from the walk and file reads.
pub fn collect_sources(root: &Path, workspace_dirs: &[PathBuf]) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    if root.join("crates").is_dir() {
        for dir in workspace_dirs.iter().filter(|d| d.is_dir()) {
            walk_rs(dir, &mut paths)?;
        }
    } else {
        walk_rs(root, &mut paths)?;
    }
    load_files(root, paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_workspace_dirs_are_skipped_not_errors() {
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let missing = workspace.join("definitely/not/a/real/dir");
        let files = collect_sources(&workspace, &[missing]).unwrap();
        assert!(files.is_empty());
    }

    #[test]
    fn a_root_without_crates_is_walked_recursively() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let files = collect_sources(&here, &[]).unwrap();
        assert!(files.iter().any(|f| f.rel_path == "walk.rs"));
    }
}
