//! `lfrt-interleave`: a deterministic concurrency-testing harness for the
//! lock-free object suite of `crates/lockfree`.
//!
//! The paper's correctness argument (lock-free retry loops linearize, and
//! Theorem 2 bounds how often they retry) is only as good as the
//! implementations being *actually* linearizable. Stress tests sample a
//! handful of interleavings per run; this crate instead **enumerates** them.
//! In the style of CHESS and loom, a scenario is rebuilt and re-run once per
//! schedule, with every shared-memory operation (an [`Atomic`] load, store,
//! swap, or CAS, or an [`Arena`] allocation) a scheduling decision point:
//!
//! ```
//! use lfrt_interleave::{explore, Atomic, Config, Plan};
//! use std::sync::Arc;
//!
//! let report = explore(&Config::exhaustive("cas-counter"), || {
//!     let counter = Arc::new(Atomic::new(0u64));
//!     let mut plan = Plan::new();
//!     for _ in 0..2 {
//!         let counter = Arc::clone(&counter);
//!         plan = plan.thread(move || {
//!             // One lock-free increment: load, then CAS, retried on
//!             // interference — two yield points per attempt.
//!             loop {
//!                 let seen = counter.load();
//!                 if counter.compare_exchange(seen, seen + 1).is_ok() {
//!                     break;
//!                 }
//!             }
//!         });
//!     }
//!     let counter = Arc::clone(&counter);
//!     plan.check(move || assert_eq!(counter.load_plain(), 2))
//! });
//! report.assert_ok(); // every interleaving of the two increments is sound
//! ```
//!
//! # What a failure looks like
//!
//! When a schedule makes a model panic (or livelock), the [`Report`] carries
//! a [`Schedule`] — a dot-joined list of thread ids, e.g. `"0.0.1.1.0"` —
//! and [`Report::assert_ok`] prints it before panicking. Feed that string to
//! [`replay_str`] with the same scenario factory to re-run the *exact*
//! failing interleaving under a debugger, deterministic every time.
//!
//! # Linearizability
//!
//! [`History`] timestamps each operation's invocation and response during a
//! run; [`linear::find_witness`] then searches for a sequential order of
//! the completed operations that (a) respects real time — an operation that
//! returned before another was invoked stays before it — and (b) replays
//! correctly against a [`SeqSpec`] reference model ([Wing & Gong's
//! algorithm][wg]). The specs in [`spec`] cover the queue, stack, register,
//! bounded-FIFO and pair-register families of `crates/lockfree` (none for the
//! snapshot, checked by an invariant instead, or the list, not explored).
//!
//! # Real code and mirrors
//!
//! [`sync`] offers the names `crates/lockfree/src/sync.rs` exports over
//! [`Atomic`]; a test crate that includes a structure's *source file* with
//! `crate::sync` bound to it explores the code the library compiles. The
//! SPSC ring, CAS register, bounded MPMC queue and atomic snapshot are
//! checked that way (`crates/lockfree/tests/explore_real.rs`); what cannot
//! be yet — anything on epoch reclamation, NBW, the sharded queue — has a
//! step-faithful mirror in [`models`], and the intentionally broken
//! variants the explorer must catch live in [`models::buggy`].
//!
//! [wg]: https://doi.org/10.1006/jpdc.1993.1015
//!
//! # Scope
//!
//! By default the model executes under **sequential consistency**:
//! exploration covers every interleaving of the instrumented steps but no
//! weak-memory reordering, and only schedules within the configured
//! preemption bound (see [`Config`]). [`Config::store_buffer`] adds a
//! TSO/PSO-style **store-buffer mode**: the `_ord` operations of [`Atomic`]
//! declare the orderings the mirrored real code uses, `Relaxed`/`Release`
//! stores commit at explicit flush steps the explorer enumerates, and a
//! failing weak-memory schedule replays with [`replay_in`].
//! [`Config::relaxed`] goes further to an ARM/POWER-class **relaxed mode**:
//! on top of the store buffers, each location keeps a bounded history of
//! superseded values and a `Relaxed` load may be granted a *stale-read*
//! decision (ids ≥ [`REORDER_BASE`]) returning one of them — modeling the
//! load–load/load–store reorderings TSO forbids — while `Acquire` loads and
//! fences drain the thread's stale set. IRIW / multi-copy atomicity remains
//! out of scope. See `DESIGN.md` ("What the interleaving checker does — and
//! does not — prove") for the full caveats.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arena;
mod atomic;
mod explore;
mod history;
mod runtime;
mod schedule;

pub mod linear;
pub mod models;
pub mod spec;
pub mod sync;

pub use arena::{Arena, NIL};
pub use atomic::{fence, Atomic};
pub use explore::{explore, replay, replay_in, replay_str, Config, Failure, FailureKind, Report};
pub use history::{CompletedOp, History, OpToken};
pub use linear::SeqSpec;
pub use runtime::{
    spin_hint, MemoryMode, Plan, FLUSH_BASE, FLUSH_STRIDE, MAX_THREADS, REORDER_BASE,
    REORDER_STRIDE,
};
pub use schedule::{ParseScheduleError, Schedule};

/// The memory-ordering vocabulary of the `_ord` operations — re-exported
/// from `std` so models and the mirrored real code name orderings
/// identically.
pub use std::sync::atomic::Ordering;
