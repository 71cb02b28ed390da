//! Bridges the deterministic interleaving harness (`lfrt-interleave`) to
//! the real structures in this crate that it still checks through *models*
//! (the Michael–Scott queue, the Treiber stack, NBW — DESIGN.md §6b says why
//! each is mirrored). The ring, register, bounded MPMC queue and snapshot
//! need no bridge: `explore_real.rs` explores their source.
//!
//! The harness's guarantees transfer to a mirrored structure only if the
//! mirror is faithful, so every model and its real counterpart must produce
//! identical results on the same operation sequence, including the empty
//! edge: a drift in semantics fails here before it can silently weaken the
//! exploration results. (Orderings: `ordering_sync.rs`. What reclamation
//! protects the real stack from — the ABA scenario, recycling variant caught,
//! append-only mirror safe — is `crates/interleave/tests/explorer.rs`.)

use lfrt_interleave::models::{ModelMsQueue, ModelNbw, ModelTreiberStack};
use lfrt_lockfree::{nbw_register, LockFreeQueue, TreiberStack};

/// A deterministic mixed push/pop pattern: `true` = push the next value,
/// `false` = pop. Front-loads pops to hit the empty edge.
fn op_pattern() -> Vec<bool> {
    let mut ops = vec![false, true, true, false, false, false, true];
    ops.extend([true, true, true, true, false, true, false, false]);
    ops
}

#[test]
fn model_queue_agrees_with_real_queue() {
    // Model steps are no-ops outside the exploration runtime, so the mirror
    // doubles as a plain sequential implementation here.
    let model = ModelMsQueue::new();
    let real: LockFreeQueue<u64> = LockFreeQueue::new();
    let mut next = 0u64;
    for push in op_pattern() {
        if push {
            next += 1;
            model.enqueue(next);
            real.enqueue(next);
        } else {
            assert_eq!(model.dequeue(), real.dequeue(), "after {next} pushes");
        }
    }
    let mut real_leftover = Vec::new();
    while let Some(v) = real.dequeue() {
        real_leftover.push(v);
    }
    assert_eq!(model.drain_plain(), real_leftover);
}

#[test]
fn model_stack_agrees_with_real_stack() {
    let model = ModelTreiberStack::new();
    let real: TreiberStack<u64> = TreiberStack::new();
    let mut next = 0u64;
    for push in op_pattern() {
        if push {
            next += 1;
            model.push(next);
            real.push(next);
        } else {
            assert_eq!(model.pop(), real.pop(), "after {next} pushes");
        }
    }
    let mut real_leftover = Vec::new();
    while let Some(v) = real.pop() {
        real_leftover.push(v);
    }
    assert_eq!(model.drain_plain(), real_leftover);
}

#[test]
fn model_nbw_agrees_with_real_nbw() {
    let model = ModelNbw::new(0, 0);
    let (mut writer, reader) = nbw_register((0u64, 0u64));
    for i in 1..=8u64 {
        assert_eq!(model.read_plain(), reader.read());
        model.write(i, 10 * i);
        writer.write((i, 10 * i));
    }
    assert_eq!(model.read_plain(), reader.read());
}
