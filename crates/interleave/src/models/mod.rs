//! Shim models mirroring `crates/lockfree`, step for step — for the
//! structures the explorer cannot yet run from their own source.
//!
//! The SPSC ring, CAS register, bounded MPMC queue and atomic snapshot have
//! no model here: `crates/lockfree/tests/explore_real.rs` explores their
//! source files over [`crate::sync`]. What remains is mirrored for a stated
//! reason (table in DESIGN.md §6b): epoch reclamation keeps process-global
//! state across executions, NBW's intended payload race needs a
//! word-granular cell, and the sharded queue's tree outgrows the budget once
//! slot accesses are steps — the only reason `models/mpmc.rs` is still
//! here, as the private building block of [`sharded`].
//!
//! Each model re-expresses one real algorithm over [`crate::Atomic`] cells
//! and an append-only [`crate::Arena`] (the stand-in for epoch
//! reclamation), with one instrumented step per atomic operation of the
//! real code. The "Step structure" doc section of each `crates/lockfree`
//! source file enumerates those steps; model code carries matching `S1`/
//! `E1`/`D1`-style comments, so a divergence between model and
//! implementation is a reviewable diff, not a guess.
//!
//! Each model declares the *real* code's memory orderings through the
//! `_ord` operations, so the same model explores soundly under sequential
//! consistency and under [`crate::Config::store_buffer`]'s weak-memory mode.
//!
//! [`buggy`] holds intentionally broken variants — the seeded bugs that
//! prove the explorer actually catches ABA, lost updates, torn reads, and
//! (under the store-buffer mode) `Relaxed`-publication reorderings.
//! [`pool`] carries its twins inline: the reuse-before-grace and
//! stale-pop-overflow bugs live beside the faithful pool models as
//! alternate constructors, since they differ only in reclamation policy.
//! [`elimination`] and [`sharded`] follow the same inline-twin pattern for
//! the contention layer: the exchange-slot ABA, the lost-elimination
//! double-return, and the shard-scan lost-item bug.

pub mod buggy;
pub mod elimination;
mod mpmc;
pub mod nbw;
pub mod pool;
pub mod queue;
pub mod sharded;
pub mod stack;

pub use elimination::ModelElimStack;
pub use nbw::ModelNbw;
pub use pool::{ModelOverflow, ModelPoolStack};
pub use queue::ModelMsQueue;
pub use sharded::ModelShardedQueue;
pub use stack::ModelTreiberStack;
