//! Linearizability of every mirrored model: each scenario explores the
//! schedule tree while recording a [`History`], and the post-check of every
//! execution searches for a Wing–Gong sequential witness against the
//! matching reference spec. A single interleaving with no witness fails the
//! exploration with a replayable schedule. (Ring, register and bounded MPMC
//! run theirs on the real source: `crates/lockfree/tests/explore_real.rs`.)

use std::sync::Arc;

use lfrt_interleave::linear::assert_linearizable;
use lfrt_interleave::models::buggy::RacyStack;
use lfrt_interleave::models::{ModelMsQueue, ModelNbw, ModelTreiberStack};
use lfrt_interleave::spec::{
    PairOp, PairRet, PairSpec, QueueOp, QueueRet, QueueSpec, StackOp, StackRet, StackSpec,
};
use lfrt_interleave::{explore, Config, History, Plan};

#[test]
fn ms_queue_linearizes_under_bounded_preemption() {
    explore(&Config::preemptions("lin-ms-queue", 3), || {
        let queue = Arc::new(ModelMsQueue::new());
        let history: Arc<History<QueueOp, QueueRet>> = Arc::new(History::new());
        let (q0, h0) = (Arc::clone(&queue), Arc::clone(&history));
        let (q1, h1) = (Arc::clone(&queue), Arc::clone(&history));
        Plan::new()
            .thread(move || {
                for v in [1, 2] {
                    let t = h0.begin(0, QueueOp::Enqueue(v));
                    q0.enqueue(v);
                    h0.end(t, QueueRet::Pushed);
                }
            })
            .thread(move || {
                for _ in 0..2 {
                    let t = h1.begin(1, QueueOp::Dequeue);
                    let got = q1.dequeue();
                    h1.end(t, QueueRet::Popped(got));
                }
            })
            .check(move || assert_linearizable(&QueueSpec::new(), &history.completed()))
    })
    .assert_ok();
}

#[test]
fn treiber_stack_linearizes_under_bounded_preemption() {
    explore(&Config::preemptions("lin-treiber", 3), || {
        let stack = Arc::new(ModelTreiberStack::new());
        let history: Arc<History<StackOp, StackRet>> = Arc::new(History::new());
        let mk = |tid: usize, value: u64, s: Arc<ModelTreiberStack>, h: Arc<History<_, _>>| {
            move || {
                let t = h.begin(tid, StackOp::Push(value));
                s.push(value);
                h.end(t, StackRet::Pushed);
                let t = h.begin(tid, StackOp::Pop);
                let got = s.pop();
                h.end(t, StackRet::Popped(got));
            }
        };
        let plan = Plan::new()
            .thread(mk(0, 1, Arc::clone(&stack), Arc::clone(&history)))
            .thread(mk(1, 2, Arc::clone(&stack), Arc::clone(&history)));
        plan.check(move || assert_linearizable(&StackSpec::new(), &history.completed()))
    })
    .assert_ok();
}

#[test]
fn nbw_register_linearizes_as_atomic_pair() {
    // pb=2 keeps the 3-thread tree tractable: both readers can still fully
    // overlap the write (one preemption into it, one out). The torn-read bug
    // class itself is covered exhaustively with 2 threads in explorer.rs.
    explore(&Config::preemptions("lin-nbw", 2), || {
        let reg = Arc::new(ModelNbw::new(0, 0));
        let history: Arc<History<PairOp, PairRet>> = Arc::new(History::new());
        let (w, hw) = (Arc::clone(&reg), Arc::clone(&history));
        let mk_reader = |tid: usize, r: Arc<ModelNbw>, h: Arc<History<_, _>>| {
            move || {
                let t = h.begin(tid, PairOp::Read);
                let (a, b) = r.read();
                h.end(t, PairRet::Pair(a, b));
            }
        };
        Plan::new()
            .thread(move || {
                let t = hw.begin(0, PairOp::Write(1, 2));
                w.write(1, 2);
                hw.end(t, PairRet::Written);
            })
            .thread(mk_reader(1, Arc::clone(&reg), Arc::clone(&history)))
            .thread(mk_reader(2, Arc::clone(&reg), Arc::clone(&history)))
            .check(move || assert_linearizable(&PairSpec::new(0, 0), &history.completed()))
    })
    .assert_ok();
}

/// The checker is not a rubber stamp: the racy stack's duplicated pop has no
/// sequential witness, and the exploration reports the schedule that did it.
#[test]
fn racy_stack_history_has_no_witness() {
    let report = explore(&Config::exhaustive("lin-racy-stack"), || {
        let stack = Arc::new(RacyStack::new());
        stack.push(1);
        stack.push(2);
        let history: Arc<History<StackOp, StackRet>> = Arc::new(History::new());
        let mk = |tid: usize, s: Arc<RacyStack>, h: Arc<History<_, _>>| {
            move || {
                let t = h.begin(tid, StackOp::Pop);
                let got = s.pop();
                h.end(t, StackRet::Popped(got));
            }
        };
        Plan::new()
            .thread(mk(0, Arc::clone(&stack), Arc::clone(&history)))
            .thread(mk(1, Arc::clone(&stack), Arc::clone(&history)))
            .check(move || {
                // Seed the spec with the setup pushes so only the concurrent
                // part of the history is checked.
                let mut spec = StackSpec::new();
                use lfrt_interleave::SeqSpec;
                spec.apply(&StackOp::Push(1));
                spec.apply(&StackOp::Push(2));
                assert_linearizable(&spec, &history.completed());
            })
    });
    let failure = report.assert_fails();
    assert!(failure.message.contains("NOT linearizable"), "{failure:?}");
}
