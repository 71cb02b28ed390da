//! Sharded bounded MPMC queue: N independent [`BoundedMpmcQueue`]s behind
//! per-thread enqueue affinity and a stealing dequeue scan.
//!
//! The Vyukov queue's cost under contention is serialization on its two
//! ticket words: every producer CASes the same `tail`, every consumer the
//! same `head`, and the retry traffic grows with the thread count — the
//! very effect the paper's retry-bound analysis prices. Sharding splits
//! the structure into `shards` independent rings so that, with threads
//! spread across shards, producers (and consumers) mostly contend only
//! within their shard.
//!
//! * **Enqueue affinity**: a thread's home shard is its Fibonacci-hashed
//!   ordinal (`crate::stats::thread_hash` — the same lane hash the node
//!   pool's telemetry shards use) masked to the shard count. A full home
//!   shard falls through to a bounded scan of the others; `Err` is
//!   returned only when *every* shard is full.
//! * **Dequeue stealing**: a consumer drains its home shard first and
//!   steals from the others when home is empty (emitting one
//!   [`lfrt_trace::EventKind::ShardSteal`] event per successful steal), so
//!   no element is stranded by affinity.
//!
//! # Ordering semantics: FIFO **per shard**, not global
//!
//! Elements that land in the same shard dequeue in FIFO order (the
//! underlying ring's guarantee). Across shards there is **no order**: a
//! consumer may observe element B (its home shard) before an older A
//! (another shard). Uses that need a single total FIFO order must use
//! [`BoundedMpmcQueue`] directly — that serialization is exactly what a
//! total order costs. This is the standard sharded-queue contract
//! (documented here per the DESIGN.md §6d discussion); the interleave
//! mirror checks element conservation and per-shard FIFO, not global FIFO.
//!
//! Progress: push/pop are lock-free with the same argument as the
//! underlying ring — the scan adds a bounded number of shard attempts, and
//! a failed shard attempt means other threads completed operations.

use crate::mpmc::BoundedMpmcQueue;
use crate::stats::{thread_hash, StatsSnapshot};

/// Default shard count for [`ShardedMpmcQueue::with_default_shards`]: four
/// shards halve-twice the per-word contention at the 4-thread sweeps the
/// experiments run while keeping the full-scan cost (the worst-case pop on
/// an empty queue) trivial.
pub const DEFAULT_SHARDS: usize = 4;

/// A bounded MPMC queue sharded over independent [`BoundedMpmcQueue`]s.
///
/// # Examples
///
/// ```
/// use lfrt_lockfree::ShardedMpmcQueue;
///
/// let q = ShardedMpmcQueue::new(4, 64);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);
/// ```
/// (Single-threaded use stays globally FIFO — one thread has one home
/// shard. See the module docs for the cross-thread ordering contract.)
pub struct ShardedMpmcQueue<T> {
    shards: Box<[BoundedMpmcQueue<T>]>,
    /// `shards.len() - 1`; the count is a power of two.
    mask: usize,
}

impl<T: Send> ShardedMpmcQueue<T> {
    /// Creates a queue of `shards` rings (rounded up to a power of two,
    /// minimum 1) holding up to `per_shard_capacity` elements each.
    ///
    /// # Panics
    ///
    /// Panics if `per_shard_capacity` is zero (the underlying ring's
    /// contract).
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        let count = shards.next_power_of_two().max(1);
        let shards: Box<[BoundedMpmcQueue<T>]> = (0..count)
            .map(|_| BoundedMpmcQueue::new(per_shard_capacity))
            .collect();
        Self {
            mask: count - 1,
            shards,
        }
    }

    /// Creates a queue of [`DEFAULT_SHARDS`] shards whose total capacity is
    /// at least `capacity`.
    pub fn with_default_shards(capacity: usize) -> Self {
        Self::new(DEFAULT_SHARDS, capacity.div_ceil(DEFAULT_SHARDS).max(1))
    }

    /// The calling thread's home shard index.
    fn home(&self) -> usize {
        thread_hash() & self.mask
    }

    /// Appends `value` to the calling thread's home shard, scanning the
    /// other shards if it is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` only when every shard is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let home = self.home();
        let mut value = value;
        for i in 0..self.shards.len() {
            match self.shards[(home + i) & self.mask].push(value) {
                Ok(()) => return Ok(()),
                Err(v) => value = v,
            }
        }
        Err(value)
    }

    /// Removes the oldest element of the calling thread's home shard, or
    /// steals the oldest element of another shard when home is empty.
    /// Returns `None` only when every shard is observed empty.
    pub fn pop(&self) -> Option<T> {
        let home = self.home();
        for i in 0..self.shards.len() {
            let shard = (home + i) & self.mask;
            if let Some(value) = self.shards[shard].pop() {
                if i != 0 {
                    lfrt_trace::emit(
                        lfrt_trace::EventKind::ShardSteal,
                        lfrt_trace::Site::Sharded,
                        shard as u64,
                    );
                }
                return Some(value);
            }
        }
        None
    }

    /// Whether every shard is observed empty (a snapshot under
    /// concurrency, like the underlying ring's).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Attempt/retry counters summed over every shard's [`crate::OpStats`].
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for shard in self.shards.iter() {
            let snap = shard.stats().snapshot();
            total.attempts += snap.attempts;
            total.retries += snap.retries;
        }
        total
    }
}

impl<T> std::fmt::Debug for ShardedMpmcQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMpmcQueue")
            .field("shards", &(self.mask + 1))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_fifo_round_trip() {
        let q = ShardedMpmcQueue::new(4, 8);
        for i in 0..8 {
            assert!(q.push(i).is_ok());
        }
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedMpmcQueue::<u64>::new(3, 4).shard_count(), 4);
        assert_eq!(ShardedMpmcQueue::<u64>::new(1, 4).shard_count(), 1);
        assert_eq!(ShardedMpmcQueue::<u64>::new(0, 4).shard_count(), 1);
        assert!(ShardedMpmcQueue::<u64>::with_default_shards(100).shard_count() >= 1);
    }

    #[test]
    fn full_means_every_shard_full() {
        // 2 shards x 2 slots: a single thread must be able to place 4
        // elements (affinity overflow scans the sibling shard) and the
        // fifth must bounce.
        let q = ShardedMpmcQueue::new(2, 2);
        for i in 0..4 {
            assert!(q.push(i).is_ok(), "push {i} should overflow-scan");
        }
        assert_eq!(q.push(4), Err(4));
        let mut drained = Vec::new();
        while let Some(v) = q.pop() {
            drained.push(v);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }

    #[test]
    fn steal_scan_recovers_other_shards_elements() {
        // Fill every shard from this thread, then drain: the non-home
        // elements arrive via the steal scan.
        let q = ShardedMpmcQueue::new(4, 2);
        for i in 0..8 {
            assert!(q.push(i).is_ok());
        }
        let mut drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        drained.sort_unstable();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_element_conservation() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 5_000;
        let q = Arc::new(ShardedMpmcQueue::new(4, 1024));
        let producers: Vec<_> = (0..THREADS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let mut v = p * PER_THREAD + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => v = back,
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..THREADS)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while got.len() < PER_THREAD {
                        if let Some(v) = q.pop() {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        for h in producers {
            h.join().expect("producer panicked");
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|h| h.join().expect("consumer panicked"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..THREADS * PER_THREAD).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn per_shard_fifo_holds_for_one_producer_one_shard() {
        // One thread, one shard: degenerates to the plain ring, which is
        // exactly the per-shard FIFO contract.
        let q = ShardedMpmcQueue::new(1, 64);
        for i in 0..64 {
            assert!(q.push(i).is_ok());
        }
        for i in 0..64 {
            assert_eq!(q.pop(), Some(i));
        }
    }
}
