//! Relaxed-mode (ARM/POWER-class) exploration tests: the seeded
//! load-reordering bugs must be caught with a replayable schedule under
//! [`Config::relaxed`] while (a) the *same* models pass every sequentially
//! consistent schedule AND every store-buffer schedule within the same
//! bounds — proving both weaker modes cannot see these bugs — and (b) their
//! fixed counterparts pass the same relaxed bounds. The faithful mirrors of
//! `crates/lockfree` re-run under the relaxed mode and must stay green: the
//! orderings the real code declares are sufficient even once `Relaxed`
//! loads can read stale values (ring, register, bounded MPMC and the
//! repeat-count check: `crates/lockfree/tests/explore_real.rs`).

use std::sync::{Arc, Mutex};

use lfrt_interleave::models::buggy::{MsgPassing, StaleNbwReader, StalePubRing, MSG};
use lfrt_interleave::models::{ModelMsQueue, ModelNbw, ModelTreiberStack};
use lfrt_interleave::{
    explore, replay_in, Config, FailureKind, MemoryMode, Plan, Schedule, REORDER_BASE,
};

fn relaxed_mode() -> MemoryMode {
    MemoryMode::Relaxed {
        bound: MemoryMode::DEFAULT_BOUND,
        window: MemoryMode::DEFAULT_WINDOW,
    }
}

fn store_buffer_mode() -> MemoryMode {
    MemoryMode::StoreBuffer {
        bound: MemoryMode::DEFAULT_BOUND,
    }
}

/// Asserts the failing schedule carries at least one stale-read decision —
/// the witness that the failure genuinely needs load reordering, not just
/// store buffering.
fn assert_reorder_bearing(schedule: &Schedule) {
    assert!(
        schedule.steps().iter().any(|&id| id >= REORDER_BASE),
        "failing schedule {schedule} has no stale-read decision"
    );
}

/// Replays `schedule` under the relaxed mode and asserts the same panic
/// message reproduces — the determinism obligation for persisted failures.
fn assert_replays(schedule: &Schedule, needle: &str, scenario: impl Fn() -> Plan) {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        replay_in(relaxed_mode(), schedule, &scenario)
    }))
    .expect_err("replay must reproduce the relaxed-memory failure");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains(needle), "{msg}");
}

// ---------------------------------------------------------------------------
// Seeded bug 1: message passing with a load-buffering consumer.
// ---------------------------------------------------------------------------

/// Producer `Release`-publishes; consumer asserts a visible flag implies a
/// complete message.
fn msg_passing_scenario(make: fn() -> MsgPassing) -> Plan {
    let mp = Arc::new(make());
    let producer = Arc::clone(&mp);
    let consumer = Arc::clone(&mp);
    Plan::new()
        .thread(move || producer.publish())
        .thread(move || {
            if let Some(got) = consumer.consume() {
                assert_eq!(got, MSG, "flag visible but message incomplete: {got}");
            }
        })
}

#[test]
fn msg_passing_passes_every_sc_schedule() {
    explore(&Config::exhaustive("msg-passing-sc"), || {
        msg_passing_scenario(MsgPassing::relaxed)
    })
    .assert_ok();
}

#[test]
fn msg_passing_passes_every_store_buffer_schedule() {
    // The demonstrator that TSO exploration alone cannot see this bug: the
    // producer's release store commits in order, and store-buffer loads
    // always read the freshest committed value.
    explore(&Config::store_buffer("msg-passing-tso"), || {
        msg_passing_scenario(MsgPassing::relaxed)
    })
    .assert_ok();
}

#[test]
fn msg_passing_caught_by_relaxed_with_replayable_schedule() {
    let report = explore(&Config::relaxed("msg-passing-relaxed"), || {
        msg_passing_scenario(MsgPassing::relaxed)
    });
    let failure = report.assert_fails();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("message incomplete"),
        "{failure:?}"
    );
    assert_reorder_bearing(&failure.schedule);
    assert_replays(&failure.schedule, "message incomplete", || {
        msg_passing_scenario(MsgPassing::relaxed)
    });
}

#[test]
fn acquire_consumer_passes_the_same_relaxed_bounds() {
    explore(&Config::relaxed("msg-passing-fixed"), || {
        msg_passing_scenario(MsgPassing::acquire)
    })
    .assert_ok();
}

// ---------------------------------------------------------------------------
// Seeded bug 2: seqlock/NBW reader with the Acquire fence deleted.
// ---------------------------------------------------------------------------

/// The relaxed config shared by the NBW pair: as in `tests/weak_memory.rs`,
/// the reader's retry loop multiplied by flush *and* stale-read decisions
/// makes exhaustive exploration explode, so the pair runs CHESS-bounded at
/// 3 preemptions. The seeded fence bug needs exactly 3 (switch to the
/// writer, one payload flush mid-read, one more flush while the reader is
/// runnable), so the bound is tight but sufficient — and bug and fix run
/// under the *same* bounds.
fn nbw_relaxed(name: &'static str) -> Config {
    Config {
        preemption_bound: Some(3),
        ..Config::relaxed(name)
    }
}

fn nbw_store_buffer(name: &'static str) -> Config {
    Config {
        preemption_bound: Some(3),
        ..Config::store_buffer(name)
    }
}

/// One (correct, fenced) writer; the reader must never return a torn pair.
fn stale_nbw_scenario(fenced: bool) -> Plan {
    let nbw = Arc::new(if fenced {
        StaleNbwReader::fixed(0, 0)
    } else {
        StaleNbwReader::new(0, 0)
    });
    let writer = Arc::clone(&nbw);
    let reader = Arc::clone(&nbw);
    Plan::new()
        .thread(move || writer.write(1, 1))
        .thread(move || {
            let got = reader.read();
            assert!(got == (0, 0) || got == (1, 1), "torn NBW read: {got:?}");
        })
}

#[test]
fn stale_nbw_reader_passes_every_sc_schedule() {
    explore(&Config::exhaustive("stale-nbw-sc"), || {
        stale_nbw_scenario(false)
    })
    .assert_ok();
}

#[test]
fn stale_nbw_reader_passes_store_buffer_bounds() {
    // Under TSO the missing Acquire fence is a no-op (loads are never
    // reordered), so the buggy reader is step-identical to the fixed one
    // and passes the same bounds `fenced_nbw_passes...` pins green.
    explore(&nbw_store_buffer("stale-nbw-tso"), || {
        stale_nbw_scenario(false)
    })
    .assert_ok();
}

#[test]
fn stale_nbw_reader_caught_by_relaxed() {
    let report = explore(&nbw_relaxed("stale-nbw-relaxed"), || {
        stale_nbw_scenario(false)
    });
    let failure = report.assert_fails();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("torn NBW read"), "{failure:?}");
    assert_reorder_bearing(&failure.schedule);
    assert_replays(&failure.schedule, "torn NBW read", || {
        stale_nbw_scenario(false)
    });
}

#[test]
fn fenced_nbw_reader_passes_the_same_relaxed_bounds() {
    explore(&nbw_relaxed("fenced-nbw-relaxed"), || {
        stale_nbw_scenario(true)
    })
    .assert_ok();
}

// ---------------------------------------------------------------------------
// Seeded bug 3: publication pair observed out of order by a relaxed
// consumer.
// ---------------------------------------------------------------------------

/// Producer `Release`-publishes two entries; the consumer must never read a
/// sentinel from a slot the tail claims is published.
fn pub_ring_scenario(make: fn() -> StalePubRing) -> Plan {
    let ring = Arc::new(make());
    let producer = Arc::clone(&ring);
    let consumer = Arc::clone(&ring);
    Plan::new()
        .thread(move || producer.produce())
        .thread(move || {
            for (i, v) in consumer.consume().into_iter().enumerate() {
                assert_ne!(v, 0, "published slot {i} read as sentinel");
            }
        })
}

#[test]
fn stale_pub_ring_passes_every_sc_schedule() {
    explore(&Config::exhaustive("stale-pub-ring-sc"), || {
        pub_ring_scenario(StalePubRing::relaxed)
    })
    .assert_ok();
}

#[test]
fn stale_pub_ring_passes_every_store_buffer_schedule() {
    explore(&Config::store_buffer("stale-pub-ring-tso"), || {
        pub_ring_scenario(StalePubRing::relaxed)
    })
    .assert_ok();
}

#[test]
fn stale_pub_ring_caught_by_relaxed_with_replayable_schedule() {
    let report = explore(&Config::relaxed("stale-pub-ring-relaxed"), || {
        pub_ring_scenario(StalePubRing::relaxed)
    });
    let failure = report.assert_fails();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("read as sentinel"), "{failure:?}");
    assert_reorder_bearing(&failure.schedule);
    assert_replays(&failure.schedule, "read as sentinel", || {
        pub_ring_scenario(StalePubRing::relaxed)
    });
}

#[test]
fn acquire_ring_consumer_passes_the_same_relaxed_bounds() {
    explore(&Config::relaxed("stale-pub-ring-fixed"), || {
        pub_ring_scenario(StalePubRing::acquire)
    })
    .assert_ok();
}

// ---------------------------------------------------------------------------
// Replay refusal: a stale-read-bearing schedule is meaningless under any
// mode without a stale window, and must say so rather than diverge.
// ---------------------------------------------------------------------------

#[test]
fn reorder_schedule_refuses_sc_and_store_buffer_replay() {
    let report = explore(&Config::relaxed("msg-passing-refusal"), || {
        msg_passing_scenario(MsgPassing::relaxed)
    });
    let failure = report.assert_fails();
    assert_reorder_bearing(&failure.schedule);
    // Under SC the schedule's flush decisions are rejected first; under the
    // store-buffer mode flushes are legal, so the refusal must name the
    // stale-read decision specifically.
    let expected = [
        (MemoryMode::Sc, "flush decision"),
        (store_buffer_mode(), "stale-read decision"),
    ];
    for (mode, needle) in expected {
        let err = std::panic::catch_unwind(|| {
            replay_in(mode, &failure.schedule, || {
                msg_passing_scenario(MsgPassing::relaxed)
            })
        })
        .expect_err("a stale-read-bearing schedule must not replay under a windowless mode");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(needle), "{msg}");
    }
}

// ---------------------------------------------------------------------------
// The faithful mirrors, re-run under the relaxed mode: the orderings the
// real code declares must be sufficient even with stale-read decisions in
// play ([`Config::relaxed_extended`]: deeper on the nightly job). Scenarios
// mirror `tests/weak_memory.rs` exactly, bounds included.
// ---------------------------------------------------------------------------

#[test]
fn treiber_stack_sound_under_relaxed() {
    explore(&Config::relaxed_extended("treiber-relaxed"), || {
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
fn ms_queue_sound_under_relaxed() {
    explore(&Config::relaxed_extended("ms-queue-relaxed"), || {
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
fn nbw_register_sound_under_relaxed() {
    // Same CHESS bound as the bug/fix pair, for the same tree-size reason;
    // `stale_nbw_reader_caught_by_relaxed` is the evidence this bound
    // reaches the stale reads that matter for this shape.
    explore(&nbw_relaxed("nbw-relaxed"), || {
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
