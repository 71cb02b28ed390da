//! Model of the sharded MPMC queue, mirroring
//! `crates/lockfree/src/sharded.rs`: N independent `ModelMpmcQueue`
//! shards, per-thread enqueue affinity, and a stealing dequeue scan.
//!
//! The real `ShardedMpmcQueue` computes a home shard from the caller's
//! thread hash; the model takes the home index as an explicit argument
//! (`push_from`/`pop_from`), since model threads are scheduled actors, not
//! OS threads. All scheduled steps belong to the underlying
//! `ModelMpmcQueue` ring protocol (P1–P5/C1–C5); the scan order itself
//! is thread-local control flow and takes no step, exactly like the real
//! `(home + i) & mask` loop.
//!
//! The seeded twin ([`ModelShardedQueue::steal_repush`]) encodes the
//! tempting-but-wrong "affinity restore": when the dequeue scan steals
//! from a remote shard, the twin moves the stolen element back into the
//! caller's home shard and reports the pop as empty, retrying later. The
//! re-push can meet a full home shard — and then the element is gone:
//! the shard-scan lost-item bug. The faithful scan returns the stolen
//! element directly and never re-publishes it.

use super::mpmc::ModelMpmcQueue;

/// A sharded bounded MPMC queue; see the module docs.
pub struct ModelShardedQueue {
    shards: Vec<ModelMpmcQueue>,
    /// Seeded bug: steals re-push into the home shard (lossy when full)
    /// instead of returning the stolen element.
    steal_repush: bool,
}

impl ModelShardedQueue {
    /// The faithful model: `shards` independent rings of `per_shard_capacity`
    /// (both rounded like the real constructor).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `per_shard_capacity` is zero.
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        Self::with_bug(shards, per_shard_capacity, false)
    }

    /// The shard-scan lost-item twin; see the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `per_shard_capacity` is zero.
    pub fn steal_repush(shards: usize, per_shard_capacity: usize) -> Self {
        Self::with_bug(shards, per_shard_capacity, true)
    }

    fn with_bug(shards: usize, per_shard_capacity: usize, steal_repush: bool) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let count = shards.next_power_of_two();
        Self {
            shards: (0..count)
                .map(|_| ModelMpmcQueue::new(per_shard_capacity))
                .collect(),
            steal_repush,
        }
    }

    fn mask(&self) -> usize {
        self.shards.len() - 1
    }

    /// Mirrors `ShardedMpmcQueue::push` with the caller's home shard made
    /// explicit: try `home`, then scan the remaining shards in order; `Err`
    /// only when every shard rejected the value as full.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when all shards are full.
    pub fn push_from(&self, home: usize, value: u64) -> Result<(), u64> {
        let mask = self.mask();
        let mut value = value;
        for i in 0..self.shards.len() {
            match self.shards[(home + i) & mask].push(value) {
                Ok(()) => return Ok(()),
                Err(v) => value = v,
            }
        }
        Err(value)
    }

    /// Mirrors `ShardedMpmcQueue::pop`: try `home`, then steal-scan the
    /// remaining shards; `None` only when every shard read empty.
    pub fn pop_from(&self, home: usize) -> Option<u64> {
        let mask = self.mask();
        for i in 0..self.shards.len() {
            let shard = (home + i) & mask;
            if let Some(value) = self.shards[shard].pop() {
                if i != 0 && self.steal_repush {
                    // Seeded bug: "restore affinity" by re-enqueueing the
                    // stolen element at home and reporting empty. The
                    // element now depends on home having room — when the
                    // re-push meets a full shard it is silently dropped.
                    let _ = self.shards[home & mask].push(value);
                    return None;
                }
                return Some(value);
            }
        }
        None
    }

    /// Post-check helper: remaining elements shard by shard, without
    /// scheduling (single-threaded use only).
    pub fn drain_plain(&self) -> Vec<u64> {
        self.shards
            .iter()
            .flat_map(|shard| shard.drain_plain())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_affinity_and_steal() {
        let q = ModelShardedQueue::new(2, 2);
        q.push_from(0, 1).unwrap();
        q.push_from(1, 2).unwrap();
        // Home hit first, then the steal finds the remote element.
        assert_eq!(q.pop_from(0), Some(1));
        assert_eq!(q.pop_from(0), Some(2));
        assert_eq!(q.pop_from(0), None);
    }

    #[test]
    fn push_overflows_to_next_shard() {
        // Per-shard capacity 1 rounds up to the ring's 2-slot minimum.
        let q = ModelShardedQueue::new(2, 1);
        for v in 0..4 {
            q.push_from(0, v).unwrap();
        }
        assert_eq!(q.push_from(0, 9), Err(9), "all shards full");
        let mut all = q.drain_plain();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn steal_repush_twin_relocates_and_reports_empty() {
        let q = ModelShardedQueue::steal_repush(2, 2);
        q.push_from(1, 7).unwrap();
        // The steal finds 7 but the twin re-homes it and reports empty.
        assert_eq!(q.pop_from(0), None);
        // Single-threaded, the home shard has room, so the element
        // survives relocation; the *loss* needs the home shard to fill
        // between the steal and the re-push — the interleave test's job.
        assert_eq!(q.pop_from(0), Some(7));
        assert_eq!(q.pop_from(0), None);
    }
}
