//! Model-checked mirror of the recorder's ring protocol (`src/ring.rs`):
//! a capacity-2 ring, one writer publishing three events (so the ring
//! wraps), one drainer doing the h1/copy/h2 seqlock validation. Each
//! event's two slot words are related (`data == ts + 1` with `ts` derived
//! from the sequence), so any kept event whose words came from different
//! writes — or from an unwritten slot — fails the invariant.
//!
//! The faithful protocol (slot words *and* head stored `Release`) must pass
//! exhaustive SC exploration and the store-buffer model. Three seeded
//! demotions prove the harness has teeth, one per load-bearing ordering:
//!
//! * publishing the head before the slot words is caught already under SC;
//! * demoting the head publish to `Relaxed` passes every SC schedule and
//!   is caught only by the store-buffer model (unpublished slot observed);
//! * demoting the *slot words* to `Relaxed` — the protocol's original
//!   form — also passes SC but lets a later event's slot store overtake an
//!   older buffered head publish (PSO store–store reordering), so the
//!   drain keeps a torn event after wraparound. This exploration is what
//!   forced the `Release` slot stores in `ring.rs`.

use std::sync::Arc;

use lfrt_interleave::{
    explore, Atomic, Config, FailureKind, MemoryMode, Ordering, Plan, FLUSH_BASE, REORDER_BASE,
};

const CAP: u64 = 2;
const EVENTS: u64 = 3;

/// Store-buffer exploration of nine buffered stores explodes unbounded, so
/// the weak runs are CHESS-bounded (flushes taken while another thread
/// could continue count as preemptions). Bug and fix run under the *same*
/// bounds: the bound is honest because the seeded demotions below are
/// caught within it.
fn bounded_weak(name: &'static str) -> Config {
    Config {
        preemption_bound: Some(3),
        memory: MemoryMode::StoreBuffer {
            bound: MemoryMode::DEFAULT_BOUND,
        },
        ..Config::exhaustive(name)
    }
}

struct ModelRing {
    head: Atomic<u64>,
    ts: [Atomic<u64>; 2],
    data: [Atomic<u64>; 2],
}

impl ModelRing {
    fn new() -> Self {
        Self {
            head: Atomic::new(0),
            ts: [Atomic::new(0), Atomic::new(0)],
            data: [Atomic::new(0), Atomic::new(0)],
        }
    }

    /// Event `seq` carries `ts = 3*seq + 1`, `data = ts + 1`; zero-initialized
    /// slots (`ts = data = 0`) violate the relation just like mixed words.
    fn write(&self, seq: u64, slots: Ordering, publish: Ordering, slots_first: bool) {
        let slot = (seq % CAP) as usize;
        if slots_first {
            self.ts[slot].store_ord(3 * seq + 1, slots);
            self.data[slot].store_ord(3 * seq + 2, slots);
            self.head.store_ord(seq + 1, publish);
        } else {
            // Seeded bug: head published before the slot words exist.
            self.head.store_ord(seq + 1, publish);
            self.ts[slot].store_ord(3 * seq + 1, slots);
            self.data[slot].store_ord(3 * seq + 2, slots);
        }
    }

    /// The drain from `ring.rs`, verbatim in miniature: Acquire h1, Relaxed
    /// slot copies, re-read h2, keep only sequences the writer cannot have
    /// been overwriting (`seq + CAP > h2`). The h2 re-read ordering is a
    /// parameter so the relaxed-mode runs below can prove it load-bearing:
    /// demoted to `Relaxed`, a stale h2 un-discards a torn-suspect slot.
    fn drain_and_check(&self, h2_order: Ordering) {
        let h1 = self.head.load_ord(Ordering::Acquire);
        let start = h1.saturating_sub(CAP);
        let mut copied = Vec::new();
        for seq in start..h1 {
            let slot = (seq % CAP) as usize;
            copied.push((
                seq,
                self.ts[slot].load_ord(Ordering::Relaxed),
                self.data[slot].load_ord(Ordering::Relaxed),
            ));
        }
        let h2 = self.head.load_ord(h2_order);
        for (seq, ts, data) in copied {
            if seq + CAP <= h2 {
                continue; // torn-suspect: discarded, never inspected
            }
            assert!(
                data == ts + 1 && ts == 3 * seq + 1,
                "kept a torn or unpublished event: seq {seq} ts {ts} data {data}"
            );
        }
    }
}

fn scenario(slots: Ordering, publish: Ordering, slots_first: bool) -> Plan {
    scenario_h2(slots, publish, slots_first, Ordering::Acquire)
}

fn scenario_h2(slots: Ordering, publish: Ordering, slots_first: bool, h2: Ordering) -> Plan {
    let ring = Arc::new(ModelRing::new());
    let writer = Arc::clone(&ring);
    let drainer = Arc::clone(&ring);
    Plan::new()
        .thread(move || {
            for seq in 0..EVENTS {
                writer.write(seq, slots, publish, slots_first);
            }
        })
        .thread(move || drainer.drain_and_check(h2))
}

/// Runs an exploration that must fail with the torn/unpublished panic and
/// returns whether the failing schedule contains a flush (weak) decision.
fn assert_caught(config: &Config, slots: Ordering, publish: Ordering, slots_first: bool) -> bool {
    let report = explore(config, || scenario(slots, publish, slots_first));
    let failure = report.assert_fails();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("torn or unpublished"),
        "{failure:?}"
    );
    failure.schedule.steps().iter().any(|&id| id >= FLUSH_BASE)
}

#[test]
fn faithful_protocol_passes_exhaustive_sc() {
    explore(&Config::exhaustive("trace-ring-sc"), || {
        scenario(Ordering::Release, Ordering::Release, true)
    })
    .assert_ok();
}

#[test]
fn faithful_protocol_passes_store_buffer() {
    explore(&bounded_weak("trace-ring-weak"), || {
        scenario(Ordering::Release, Ordering::Release, true)
    })
    .assert_ok();
}

#[test]
fn publishing_head_before_slots_is_caught_under_sc() {
    assert_caught(
        &Config::exhaustive("trace-ring-head-first"),
        Ordering::Release,
        Ordering::Release,
        false,
    );
}

#[test]
fn relaxed_head_publish_passes_sc_but_store_buffer_catches_it() {
    // Under SC the store order is the program order, so the demoted publish
    // is invisible to PR 2-style exploration...
    explore(&Config::exhaustive("trace-ring-relaxed-pub-sc"), || {
        scenario(Ordering::Release, Ordering::Relaxed, true)
    })
    .assert_ok();
    // ...but a store buffer may commit the Relaxed head ahead of the older
    // slot-word stores, handing the drainer a published-but-empty slot.
    let weak = assert_caught(
        &bounded_weak("trace-ring-relaxed-pub-weak"),
        Ordering::Release,
        Ordering::Relaxed,
        true,
    );
    assert!(weak, "failure must involve a flush decision");
}

#[test]
fn relaxed_slot_words_pass_sc_but_store_buffer_catches_the_torn_keep() {
    // The protocol as first written: slot words Relaxed, head Release.
    // Correct under SC (and x86 TSO, where the store buffer is FIFO)...
    explore(&Config::exhaustive("trace-ring-relaxed-slots-sc"), || {
        scenario(Ordering::Relaxed, Ordering::Release, true)
    })
    .assert_ok();
    // ...but under PSO a later event's Relaxed slot store may overtake an
    // older buffered Release head publish: after wraparound the drain
    // copies the *newer* event's words while h2 still reads the old head,
    // so the seqlock validation keeps a torn event. This is the finding
    // that put Release on the slot stores in ring.rs.
    let weak = assert_caught(
        &bounded_weak("trace-ring-relaxed-slots-weak"),
        Ordering::Relaxed,
        Ordering::Release,
        true,
    );
    assert!(weak, "failure must involve a flush decision");
}

/// Relaxed-mode (ARM/POWER-class) runs: same CHESS bound as the
/// store-buffer explorations, now with stale-read decisions in the tree.
/// (Deeper window and buffer on the nightly job: `relaxed_extended`.)
fn bounded_relaxed(name: &'static str) -> Config {
    Config {
        preemption_bound: Some(3),
        ..Config::relaxed_extended(name)
    }
}

#[test]
fn faithful_protocol_passes_relaxed() {
    // The real drain's Acquire h1/h2 pair survives stale reads: h1 drains
    // the drainer's stale set before the copies, and the Acquire h2 re-read
    // cannot observe an old head, so every overwrite-raced slot is still
    // discarded.
    explore(&bounded_relaxed("trace-ring-relaxed"), || {
        scenario(Ordering::Release, Ordering::Release, true)
    })
    .assert_ok();
}

#[test]
fn relaxed_h2_recheck_passes_tso_but_relaxed_catches_the_stale_undiscard() {
    // Demote only the h2 re-read to `Relaxed`. Under SC and under TSO loads
    // always observe the freshest committed head, so the seqlock validation
    // still discards everything the writer might have been overwriting...
    explore(&Config::exhaustive("trace-ring-stale-h2-sc"), || {
        scenario_h2(
            Ordering::Release,
            Ordering::Release,
            true,
            Ordering::Relaxed,
        )
    })
    .assert_ok();
    explore(&bounded_weak("trace-ring-stale-h2-weak"), || {
        scenario_h2(
            Ordering::Release,
            Ordering::Release,
            true,
            Ordering::Relaxed,
        )
    })
    .assert_ok();
    // ...but a stale h2 can read a head from before the overwriting event
    // was published, un-discarding a torn slot copy. Only the relaxed
    // mode's stale-read decisions reach this — the load–load ordering the
    // Acquire re-read exists to provide.
    let report = explore(&bounded_relaxed("trace-ring-stale-h2-relaxed"), || {
        scenario_h2(
            Ordering::Release,
            Ordering::Release,
            true,
            Ordering::Relaxed,
        )
    });
    let failure = report.assert_fails();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("torn or unpublished"),
        "{failure:?}"
    );
    assert!(
        failure
            .schedule
            .steps()
            .iter()
            .any(|&id| id >= REORDER_BASE),
        "failing schedule {} has no stale-read decision",
        failure.schedule
    );
}
