//! Pins the memory orderings of audited atomic sites.
//!
//! The workspace's ordering audit (PR 3: `lfrt-ordlint` + the store-buffer
//! explorer) settled each of these sites deliberately; this test freezes
//! them as source-text assertions so a future edit that strengthens or
//! weakens an ordering has to touch this file and restate the argument.
//! The assertions are deliberately syntactic — the same literal tokens
//! `lfrt-ordlint` scans — so the pin and the lint can never drift apart.

use std::path::Path;

fn src(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Strips whitespace so multi-line call sites compare stably under rustfmt.
fn squash(text: &str) -> String {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

fn assert_site(file: &str, needle: &str, why: &str) {
    let haystack = squash(&src(file));
    assert!(
        haystack.contains(&squash(needle)),
        "{file}: expected pinned site `{needle}` ({why}); \
         if the ordering changed on purpose, restate the argument here"
    );
}

/// The audit's two downgrades: a CAS retry loop feeds the failure value
/// back as the next expectation and never dereferences it, so the failure
/// ordering carries no acquire obligation (ordlint ORD005). The pinned text
/// holds the success ordering too: `update`/`write` read the old value on
/// success (AcqRel = Acquire for the read, Release for the publication).
#[test]
fn cas_failure_orderings_stay_relaxed() {
    assert_site(
        "register.rs",
        "compare_exchange_weak(current, next, Ordering::AcqRel, Ordering::Relaxed,)",
        "update() retry loop: failure value only re-seeds `current`",
    );
    assert_site(
        "snapshot.rs",
        "compare_exchange_weak(current, next, Ordering::AcqRel, Ordering::Relaxed)",
        "write() retry loop: failure word only re-seeds `current`",
    );
}

/// Treiber stack hot path (push/pop): Acquire top load, Release/Relaxed
/// CAS — the publication edge the store-buffer explorer exercises through
/// `ModelTreiberStack`.
#[test]
fn stack_hot_path_orderings() {
    assert_site(
        "stack.rs",
        "self.top.load(Acquire, guard)",
        "push/pop must acquire the published top node",
    );
    assert_site(
        "stack.rs",
        "compare_exchange(top, new, Release, Relaxed, guard)",
        "push publishes the new node with Release",
    );
    assert_site(
        "stack.rs",
        "compare_exchange(top, next, Release, Relaxed, guard)",
        "pop unlinks with Release, Relaxed failure",
    );
    assert_site(
        "stack.rs",
        "new.next.store(top, Relaxed)",
        "pre-publication init of the new node needs no ordering",
    );
}

/// Michael–Scott queue hot path: every CAS publishes with Release and
/// retries with Relaxed failure; head/tail/next loads are Acquire.
#[test]
fn queue_hot_path_orderings() {
    let text = src("queue.rs");
    let squashed = squash(&text);
    for site in [
        "compare_exchange(tail, next, Release, Relaxed, guard)",
        "compare_exchange(Shared::null(), new, Release, Relaxed, guard)",
        "compare_exchange(tail, new, Release, Relaxed, guard)",
        "compare_exchange(head, next, Release, Relaxed, guard)",
    ] {
        assert!(
            squashed.contains(&squash(site)),
            "queue.rs: expected pinned site `{site}`"
        );
    }
    assert!(
        !text.contains("load(Relaxed, guard)") || text.contains("fn drop"),
        "queue.rs: Relaxed loads are only justified in Drop (exclusive access)"
    );
}

/// Vyukov MPMC queue: the ticket CAS is Relaxed/Relaxed on purpose — the
/// per-slot sequence hand-off synchronizes, the ticket is an index
/// (baselined ORD002). The hand-off's `Acquire` load and `Release` store are
/// not pinned as text any more: demoting either fails `explore_real.rs`
/// with a replayable schedule (CHANGES.md, PR 15).
#[test]
fn mpmc_ticket_cas_stays_relaxed() {
    assert_site(
        "mpmc.rs",
        "Ordering::Relaxed, Ordering::Relaxed,",
        "ticket CAS needs no ordering: the sequence protocol synchronizes",
    );
}

/// Node-pool overflow stack (a Treiber stack of spill segments, popped
/// only whole): the spiller publishes a pre-linked chain with Release; the
/// refiller detaches the entire chain with an Acquire `swap` *before*
/// reading any chain word, so no overflow step dereferences memory the
/// thread does not own — and no CAS needs an Acquire failure ordering or a
/// version tag.
#[test]
fn pool_overflow_orderings() {
    assert_site(
        "pool.rs",
        "compare_exchange(head, chain, Ordering::Release, Ordering::Relaxed)",
        "push_segments publishes the pre-linked chain with Release; failure value only re-seeds head",
    );
    assert_site(
        "pool.rs",
        "self.overflow.swap(ptr::null_mut(), Ordering::Acquire)",
        "refill/purge detach-all must acquire the spiller's chain writes before walking them",
    );
    assert_site(
        "pool.rs",
        "if self.overflow.load(Ordering::Relaxed).is_null()",
        "refill's empty probe synchronizes nothing: ownership comes from the swap, not the load",
    );
    assert_site(
        "pool.rs",
        "shard.hits.fetch_add(hits, Ordering::Relaxed)",
        "telemetry flushes carry no synchronization (per-op counts live in plain cells)",
    );
}

/// Elimination exchanger: the install CAS is the one Release publication
/// of the offered node; the claim CAS pairs it with Acquire; everything
/// else — the spin probe, the cancel CAS, the acknowledgment store, and
/// the width/hit/miss telemetry — is deliberately Relaxed, because after
/// a won claim the node is exclusively owned and the sentinels (EMPTY,
/// BUSY) carry no payload. The store-buffer explorer exercises this edge
/// through `ModelElimStack`.
#[test]
fn elimination_exchange_orderings() {
    assert_site(
        "elimination.rs",
        "compare_exchange(EMPTY, offer, Ordering::Release, Ordering::Relaxed)",
        "E1 install must publish the node's payload with Release",
    );
    assert_site(
        "elimination.rs",
        "if slot.load(Ordering::Relaxed) != offer",
        "E2 spin probe synchronizes nothing: the claim CAS does",
    );
    assert_site(
        "elimination.rs",
        "compare_exchange(offer, EMPTY, Ordering::Relaxed, Ordering::Relaxed)",
        "E3 cancel withdraws our own offer: EMPTY carries no payload, failure only proves the claim",
    );
    assert_site(
        "elimination.rs",
        "slot.store(EMPTY, Ordering::Relaxed)",
        "the post-claim acknowledgment publishes only the EMPTY sentinel",
    );
    assert_site(
        "elimination.rs",
        "compare_exchange(observed, BUSY, Ordering::Acquire, Ordering::Relaxed)",
        "D2 claim must acquire the installer's Release before the payload read",
    );
    assert_site(
        "elimination.rs",
        "self.width.load(Ordering::Relaxed).clamp(1, SLOTS)",
        "width adaptation is a racy hint: any torn update only respreads probes",
    );
}

/// NBW (Kopetz/Reisinger) seqlock: the version stores straddle the payload
/// with a Release fence + Release store; the reader pairs an Acquire load
/// with an Acquire fence before the recheck.
#[test]
fn nbw_fence_pairing_orderings() {
    assert_site(
        "nbw.rs",
        "fence(Ordering::Release)",
        "writer: version bump must not sink below payload stores",
    );
    assert_site(
        "nbw.rs",
        "shared.version.store(v + 2, Ordering::Release)",
        "writer: closing version store publishes the payload",
    );
    assert_site(
        "nbw.rs",
        "fence(Ordering::Acquire)",
        "reader: payload reads must not sink below the recheck",
    );
    assert_site(
        "nbw.rs",
        "shared.version.load(Ordering::Acquire)",
        "reader: opening version load acquires the last publication",
    );
}
