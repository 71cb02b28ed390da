//! Instrumented lock-free shared objects and their lock-based counterparts.
//!
//! The evaluation of *Lock-Free Synchronization for Dynamic Embedded
//! Real-Time Systems* (Cho, Ravindran, Jensen — DATE 2006) shares
//! Michael–Scott queues (Michael & Scott, JPDC'98 \[21\]) among tasks, and
//! measures the lock-free access time `s` against the lock-based access time
//! `r`. This crate provides real, CAS-based implementations of those objects
//! on `std::sync::atomic`, with epoch-based memory reclamation from
//! `crossbeam`, plus mutex-based counterparts on `parking_lot`:
//!
//! * [`LockFreeQueue`] — the Michael–Scott multi-producer/multi-consumer
//!   FIFO queue used throughout the paper's experiments;
//! * [`TreiberStack`] — Treiber's lock-free stack (IBM RJ 5118 \[25\]);
//! * [`CasRegister`] — a single-word read-modify-write register, the
//!   primitive form of the paper's "continuously access, check, and retry"
//!   loop;
//! * [`LockFreeList`] — a sorted lock-free linked list (Valois, PODC'95
//!   \[26\], with Harris's marked-pointer deletion);
//! * [`AtomicSnapshot`] — a lock-free multi-cell consistent snapshot
//!   (double-collect), the "snapshot abstraction" of the paper's §7 future
//!   work;
//! * [`BoundedMpmcQueue`] — a bounded lock-free multi-producer/
//!   multi-consumer queue (Vyukov's sequence-stamped ring) — no allocation
//!   after construction, the embedded-friendly sibling of the MS queue;
//! * [`ShardedMpmcQueue`] — N independent `BoundedMpmcQueue` shards with
//!   per-thread enqueue affinity and a stealing dequeue scan (FIFO per
//!   shard, not globally) — the contention-adaptive MPMC layer;
//! * [`elimination`] — the elimination-backoff exchanger behind
//!   [`TreiberStack::with_elimination`]: colliding push/pop pairs exchange
//!   directly instead of re-contending the stack head;
//! * [`spsc_ring`] — a bounded wait-free single-producer/single-consumer
//!   ring, the classic embedded ISR-to-task channel;
//! * [`nbw_register`] — the non-blocking write protocol (Kopetz &
//!   Reisinger, RTSS'93 \[16\]): wait-free single writer, retrying readers —
//!   the wait-free scheme the paper contrasts lock-free sharing against;
//! * [`LockedQueue`], [`LockedStack`] — mutual-exclusion counterparts;
//! * [`OpStats`] — per-object attempt/retry counters, the measured analogue
//!   of the retry count `f_i` bounded by the paper's Theorem 2;
//! * [`pool`] — epoch-recycling node pools (the paper's type-stable memory):
//!   stack/queue/list nodes are recycled through the epoch grace period
//!   instead of freed, making steady-state hot paths allocation-free.
//!
//! # Examples
//!
//! ```
//! use lfrt_lockfree::{ConcurrentQueue, LockFreeQueue};
//!
//! let q = LockFreeQueue::new();
//! q.enqueue(1);
//! q.enqueue(2);
//! assert_eq!(q.dequeue(), Some(1));
//! assert_eq!(q.dequeue(), Some(2));
//! assert_eq!(q.dequeue(), None);
//! ```

#![warn(missing_docs)]
// This crate contains the only `unsafe` code in the workspace: the epoch-based
// lock-free queue and stack. Every unsafe block carries a safety comment.

pub mod elimination;
mod list;
mod locked;
mod mpmc;
mod nbw;
mod object;
pub mod pool;
mod queue;
mod register;
mod ring;
pub mod sharded;
mod snapshot;
mod stack;
mod stats;
mod sync;

pub use elimination::EliminationArray;
pub use list::LockFreeList;
pub use locked::{LockedQueue, LockedStack};
pub use mpmc::BoundedMpmcQueue;
pub use nbw::{nbw_register, NbwReader, NbwWriter};
pub use object::{ConcurrentQueue, ConcurrentStack};
pub use pool::{PoolStats, RawPool};
pub use queue::LockFreeQueue;
pub use register::CasRegister;
pub use ring::{spsc_ring, RingConsumer, RingProducer};
pub use sharded::ShardedMpmcQueue;
pub use snapshot::AtomicSnapshot;
pub use stack::TreiberStack;
pub use stats::{OpStats, StatsSnapshot};
