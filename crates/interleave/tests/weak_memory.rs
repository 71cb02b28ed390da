//! Store-buffer (weak-memory) exploration tests: the seeded reordering bugs
//! must be caught with a replayable schedule under
//! [`Config::store_buffer`] while (a) the *same* models pass every
//! sequentially consistent schedule — proving SC exploration alone cannot
//! see these bugs — and (b) their fixed counterparts pass the same
//! store-buffer bounds. The faithful mirrors of `crates/lockfree` re-run
//! under the orderings the real code declares and must stay green (ring,
//! register, bounded MPMC: `crates/lockfree/tests/explore_real.rs`).

use std::sync::{Arc, Mutex};

use lfrt_interleave::models::buggy::{FencelessNbw, RelaxedPubStack};
use lfrt_interleave::models::{ModelMsQueue, ModelNbw, ModelTreiberStack};
use lfrt_interleave::{explore, replay_in, Config, FailureKind, MemoryMode, Plan, FLUSH_BASE};

fn store_buffer_mode() -> MemoryMode {
    MemoryMode::StoreBuffer {
        bound: MemoryMode::DEFAULT_BOUND,
    }
}

/// One producer publishes a node, one reader dereferences whatever top it
/// sees. The reader must observe either "no node yet" or the fully
/// initialized payload — never the slot's stale zero sentinel.
fn pub_stack_scenario(make: fn(usize) -> RelaxedPubStack) -> Plan {
    let stack = Arc::new(make(1));
    let producer = Arc::clone(&stack);
    let reader = Arc::clone(&stack);
    Plan::new()
        .thread(move || producer.push(0, 42))
        .thread(move || {
            let seen = reader.peek();
            assert!(
                seen.is_none() || seen == Some(42),
                "dereferenced a published but uninitialized node: {seen:?}"
            );
        })
}

#[test]
fn relaxed_publication_passes_every_sc_schedule() {
    // The demonstrator that this bug is invisible to PR 2's checker: under
    // sequential consistency the publication cannot overtake the
    // initialization, so exhaustive SC exploration is green.
    explore(&Config::exhaustive("relaxed-pub-sc"), || {
        pub_stack_scenario(RelaxedPubStack::relaxed)
    })
    .assert_ok();
}

#[test]
fn relaxed_publication_caught_by_store_buffer_with_replayable_schedule() {
    let report = explore(&Config::store_buffer("relaxed-pub-weak"), || {
        pub_stack_scenario(RelaxedPubStack::relaxed)
    });
    let failure = report.assert_fails();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("uninitialized node"),
        "{failure:?}"
    );
    // The schedule is genuinely weak: it contains at least one flush
    // decision committing a buffered store out of line.
    assert!(
        failure.schedule.steps().iter().any(|&id| id >= FLUSH_BASE),
        "failing schedule {} has no flush decision",
        failure.schedule
    );
    // And it replays, deterministically, under the same memory mode.
    let err = std::panic::catch_unwind(|| {
        replay_in(store_buffer_mode(), &failure.schedule, || {
            pub_stack_scenario(RelaxedPubStack::relaxed)
        })
    })
    .expect_err("replay must reproduce the weak-memory failure");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("uninitialized node"), "{msg}");
}

#[test]
fn release_publication_passes_the_same_store_buffer_bounds() {
    explore(&Config::store_buffer("release-pub-weak"), || {
        pub_stack_scenario(RelaxedPubStack::release)
    })
    .assert_ok();
}

#[test]
fn weak_schedule_refuses_sc_replay() {
    let report = explore(&Config::store_buffer("relaxed-pub-weak-replay"), || {
        pub_stack_scenario(RelaxedPubStack::relaxed)
    });
    let failure = report.assert_fails();
    let err = std::panic::catch_unwind(|| {
        replay_in(MemoryMode::Sc, &failure.schedule, || {
            pub_stack_scenario(RelaxedPubStack::relaxed)
        })
    })
    .expect_err("a flush-bearing schedule must not replay under SC");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("MemoryMode::Sc"), "{msg}");
}

/// The store-buffer config shared by the NBW pair: the reader's retry loop
/// multiplied by flush decisions makes exhaustive weak exploration explode
/// (minutes per run), so the pair runs CHESS-bounded at 3 preemptions —
/// flush steps taken while another thread could continue count as
/// preemptions, and the seeded fence bug needs only 2, so the bound is
/// comfortable. Bug and fix run under the *same* bounds.
fn nbw_store_buffer(name: &'static str) -> Config {
    Config {
        preemption_bound: Some(3),
        ..Config::store_buffer(name)
    }
}

/// One writer, one reader; the reader must never return a torn pair.
fn nbw_scenario(fenced: bool) -> Plan {
    let nbw = Arc::new(if fenced {
        FencelessNbw::fixed(0, 0)
    } else {
        FencelessNbw::new(0, 0)
    });
    let writer = Arc::clone(&nbw);
    let reader = Arc::clone(&nbw);
    Plan::new()
        .thread(move || writer.write(1, 2))
        .thread(move || {
            let got = reader.read();
            assert!(got == (0, 0) || got == (1, 2), "torn NBW read: {got:?}");
        })
}

#[test]
fn fenceless_nbw_passes_every_sc_schedule() {
    explore(&Config::exhaustive("fenceless-nbw-sc"), || {
        nbw_scenario(false)
    })
    .assert_ok();
}

#[test]
fn fenceless_nbw_caught_by_store_buffer() {
    let report = explore(&nbw_store_buffer("fenceless-nbw-weak"), || {
        nbw_scenario(false)
    });
    let failure = report.assert_fails();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("torn NBW read"), "{failure:?}");
    assert!(
        failure.schedule.steps().iter().any(|&id| id >= FLUSH_BASE),
        "failing schedule {} has no flush decision",
        failure.schedule
    );
}

#[test]
fn fenced_nbw_passes_the_same_store_buffer_bounds() {
    explore(&nbw_store_buffer("fenced-nbw-weak"), || nbw_scenario(true)).assert_ok();
}

// ---------------------------------------------------------------------------
// The faithful mirrors, re-run under the orderings the real code declares.
// Scenarios are deliberately small: flush decisions multiply the tree.
// ---------------------------------------------------------------------------

#[test]
fn treiber_stack_sound_under_store_buffer() {
    explore(&Config::store_buffer("treiber-weak"), || {
        let stack = Arc::new(ModelTreiberStack::new());
        let pusher = Arc::clone(&stack);
        let popper = Arc::clone(&stack);
        let popped = Arc::new(Mutex::new(None));
        let result = Arc::clone(&popped);
        let check_stack = Arc::clone(&stack);
        let check_popped = Arc::clone(&popped);
        Plan::new()
            .thread(move || pusher.push(7))
            .thread(move || {
                *result.lock().unwrap() = popper.pop();
            })
            .check(move || {
                let popped = *check_popped.lock().unwrap();
                let remaining = check_stack.drain_plain();
                match popped {
                    Some(7) => assert!(remaining.is_empty(), "popped yet still present"),
                    None => assert_eq!(remaining, vec![7], "push lost"),
                    other => panic!("popped a value never pushed: {other:?}"),
                }
            })
    })
    .assert_ok();
}

#[test]
fn ms_queue_sound_under_store_buffer() {
    explore(&Config::store_buffer("ms-queue-weak"), || {
        let queue = Arc::new(ModelMsQueue::new());
        let producer = Arc::clone(&queue);
        let consumer = Arc::clone(&queue);
        let got = Arc::new(Mutex::new(None));
        let result = Arc::clone(&got);
        let check_queue = Arc::clone(&queue);
        let check_got = Arc::clone(&got);
        Plan::new()
            .thread(move || producer.enqueue(5))
            .thread(move || {
                *result.lock().unwrap() = consumer.dequeue();
            })
            .check(move || {
                let got = *check_got.lock().unwrap();
                let remaining = check_queue.drain_plain();
                match got {
                    Some(5) => assert!(remaining.is_empty(), "dequeued yet still queued"),
                    None => assert_eq!(remaining, vec![5], "enqueue lost"),
                    other => panic!("dequeued a value never enqueued: {other:?}"),
                }
            })
    })
    .assert_ok();
}

#[test]
fn nbw_register_sound_under_store_buffer() {
    // Same CHESS bound as the NBW bug/fix pair, for the same tree-size
    // reason; `fenceless_nbw_caught_by_store_buffer` is the evidence this
    // bound reaches the reorderings that matter for this shape.
    explore(&nbw_store_buffer("nbw-weak"), || {
        let nbw = Arc::new(ModelNbw::new(0, 0));
        let writer = Arc::clone(&nbw);
        let reader = Arc::clone(&nbw);
        Plan::new()
            .thread(move || writer.write(1, 2))
            .thread(move || {
                let got = reader.read();
                assert!(got == (0, 0) || got == (1, 2), "torn NBW read: {got:?}");
            })
    })
    .assert_ok();
}
