//! Keeps the interleave models' *declared* orderings in sync with the real
//! structures' orderings pinned in `ordering_pins.rs`.
//!
//! The weak-memory explorer (`lfrt-interleave` store-buffer and relaxed
//! modes) only checks what the models declare: a model whose `_ord` calls
//! drift from the real code's orderings silently verifies the wrong
//! algorithm. This suite pins each audited real site *together with* its
//! model mirror, so weakening either side — say, downgrading the real
//! stack's `Release` publication without touching `ModelTreiberStack`, or
//! vice versa — fails here and forces both edits (plus the restated
//! argument in `ordering_pins.rs`) to land together.
//!
//! Only structures that still *have* a mirror are listed: the ring, the
//! register and the snapshot are explored from their own source
//! (`explore_real.rs`); so is the MPMC queue, whose entry stays only while
//! its mirror survives as the sharded model's building block.
//!
//! Like `ordering_pins.rs`, the assertions are whitespace-insensitive
//! source-text checks: the same literal tokens `lfrt-ordlint` scans.

use std::path::{Path, PathBuf};

fn real(file: &str) -> String {
    read(Path::new(env!("CARGO_MANIFEST_DIR")).join("src").join(file))
}

fn model(file: &str) -> String {
    read(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../interleave/src/models")
            .join(file),
    )
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn squash(text: &str) -> String {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Asserts one real-site/model-site pair: both texts must contain their
/// respective needle, or the pair has drifted.
fn assert_pair(
    real_file: &str,
    real_needle: &str,
    model_file: &str,
    model_needle: &str,
    why: &str,
) {
    let real_text = squash(&real(real_file));
    let model_text = squash(&model(model_file));
    assert!(
        real_text.contains(&squash(real_needle)),
        "lockfree/src/{real_file}: expected `{real_needle}` ({why}); if the real \
         ordering changed, update models/{model_file} and ordering_pins.rs with it"
    );
    assert!(
        model_text.contains(&squash(model_needle)),
        "interleave/src/models/{model_file}: expected `{model_needle}` ({why}); \
         the model no longer declares the ordering lockfree/src/{real_file} uses"
    );
}

/// Treiber stack: Acquire top loads, Release/Relaxed CASes, and the
/// pre-publication next write (`Relaxed` in the real code, a non-step
/// `store_plain` in the model — both claim "no concurrent readers yet").
#[test]
fn stack_model_orderings_match_real() {
    assert_pair(
        "stack.rs",
        "self.top.load(Acquire, guard)",
        "stack.rs",
        "self.top.load_ord(Acquire)",
        "push/pop acquire the published top",
    );
    assert_pair(
        "stack.rs",
        "compare_exchange(top, new, Release, Relaxed, guard)",
        "stack.rs",
        "compare_exchange_ord(top, idx, Release, Relaxed)",
        "push publishes with Release, retries Relaxed",
    );
    assert_pair(
        "stack.rs",
        "compare_exchange(top, next, Release, Relaxed, guard)",
        "stack.rs",
        "compare_exchange_ord(top, next, Release, Relaxed)",
        "pop unlinks with Release, retries Relaxed",
    );
    assert_pair(
        "stack.rs",
        "new.next.store(top, Relaxed)",
        "stack.rs",
        "node.next.store_plain(top)",
        "pre-publication init carries no ordering obligation",
    );
}

/// Michael–Scott queue: Acquire head/tail/next loads, Release/Relaxed
/// CASes at all four publication sites.
#[test]
fn queue_model_orderings_match_real() {
    for (real_site, model_site, why) in [
        (
            "self.tail.load(Acquire, guard)",
            "self.tail.load_ord(Acquire)",
            "tail load acquires the last published node",
        ),
        (
            "compare_exchange(tail, next, Release, Relaxed, guard)",
            "compare_exchange_ord(tail, next, Release, Relaxed)",
            "tail swing publishes with Release",
        ),
        (
            "compare_exchange(Shared::null(), new, Release, Relaxed, guard)",
            "compare_exchange_ord(NIL, idx, Release, Relaxed)",
            "enqueue link-in publishes with Release",
        ),
        (
            "compare_exchange(head, next, Release, Relaxed, guard)",
            "compare_exchange_ord(head, next, Release, Relaxed)",
            "dequeue unlinks with Release",
        ),
    ] {
        assert_pair("queue.rs", real_site, "queue.rs", model_site, why);
    }
}

/// Vyukov MPMC: Relaxed ticket loads/CASes, Acquire sequence loads,
/// Release sequence hand-offs.
#[test]
fn mpmc_model_orderings_match_real() {
    assert_pair(
        "mpmc.rs",
        "slot.sequence.load(Ordering::Acquire)",
        "mpmc.rs",
        "slot.sequence.load_ord(Acquire)",
        "the sequence load is the slot's acquire edge",
    );
    assert_pair(
        "mpmc.rs",
        "slot.sequence.store(tail.wrapping_add(1), Ordering::Release)",
        "mpmc.rs",
        "slot.sequence.store_ord(tail.wrapping_add(1), Release)",
        "the producer hands the slot over with Release",
    );
    assert_pair(
        "mpmc.rs",
        "Ordering::Relaxed, Ordering::Relaxed,",
        "mpmc.rs",
        "tail.wrapping_add(1), Relaxed, Relaxed,",
        "ticket CAS needs no ordering: the sequence protocol synchronizes",
    );
}

/// NBW seqlock: the fence pairing is the whole algorithm — writer Release
/// fence + Release close, reader Acquire open + Acquire fence before the
/// recheck. The relaxed-mode explorer now exercises the reader fence for
/// real (`StaleNbwReader` is the model with it deleted).
#[test]
fn nbw_model_orderings_match_real() {
    assert_pair(
        "nbw.rs",
        "fence(Ordering::Release)",
        "nbw.rs",
        "fence(Release)",
        "writer: version bump must not sink below payload stores",
    );
    assert_pair(
        "nbw.rs",
        "shared.version.store(v + 2, Ordering::Release)",
        "nbw.rs",
        "self.version.store_ord(v + 2, Release)",
        "writer: closing version store publishes the payload",
    );
    assert_pair(
        "nbw.rs",
        "shared.version.load(Ordering::Acquire)",
        "nbw.rs",
        "self.version.load_ord(Acquire)",
        "reader: opening version load acquires the last publication",
    );
    assert_pair(
        "nbw.rs",
        "fence(Ordering::Acquire)",
        "nbw.rs",
        "fence(Acquire)",
        "reader: payload reads must not sink below the recheck",
    );
}
