//! Satellite contract: `progress.toml` and the public API can only move
//! together. This test enumerates the public fns of `crates/lockfree`
//! and the vendored epoch API straight from source and asserts the
//! manifest declares exactly that set — so adding a pub fn without
//! classifying its progress guarantee (or orphaning a declaration) fails
//! `cargo test` as well as the `progress` CI job.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use lfrt_progress::{enumerate_public_ops, manifest};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn manifest_ops() -> BTreeSet<String> {
    let text = std::fs::read_to_string(repo_root().join("progress.toml")).expect("progress.toml");
    let m = manifest::parse(&text).expect("progress.toml parses");
    m.ops.iter().map(|o| o.name.clone()).collect()
}

#[test]
fn manifest_covers_the_public_op_set_exactly() {
    let declared = manifest_ops();
    let public: BTreeSet<String> = enumerate_public_ops(&repo_root())
        .expect("source enumeration")
        .into_iter()
        .collect();
    let undeclared: Vec<&String> = public.difference(&declared).collect();
    let orphaned: Vec<&String> = declared.difference(&public).collect();
    assert!(
        undeclared.is_empty(),
        "public ops missing a progress.toml [[op]] declaration: {undeclared:?}"
    );
    assert!(
        orphaned.is_empty(),
        "progress.toml declares ops that no longer exist: {orphaned:?}"
    );
}

#[test]
fn the_op_inventory_does_not_shrink_silently() {
    // 97 lockfree ops + 21 vendored-epoch ops: the contention layer
    // (elimination exchanger + sharded MPMC) landed at 98, and
    // `OpStats::reset` was deleted on purpose (unsound against a
    // single-writer stripe, and it had no caller). Growing is fine (the
    // sync test above forces a classification); shrinking means public API
    // was deleted — update deliberately.
    assert!(
        manifest_ops().len() >= 118,
        "op inventory shrank below the seeded 118"
    );
}
