use std::fmt;
use std::mem::MaybeUninit;

use crossbeam::utils::{Backoff, CachePadded};

use crate::stats::OpStats;
use crate::sync::{AtomicUsize, Ordering, UnsafeCell};

/// A bounded lock-free multi-producer/multi-consumer queue (Vyukov's
/// sequence-stamped ring).
///
/// Each slot carries a sequence counter that encodes whose turn it is:
/// producers claim a slot by CAS on the tail, consumers by CAS on the head,
/// and the per-slot sequence hand-off makes the data transfer itself
/// wait-free once the index CAS is won. A failed CAS is one retry of the
/// kind the paper's Theorem 2 bounds for scheduled tasks; retries are
/// counted in [`BoundedMpmcQueue::stats`].
///
/// Unlike the unbounded [`LockFreeQueue`](crate::LockFreeQueue), this queue
/// allocates once at construction — the usual choice for embedded systems
/// that forbid dynamic allocation after initialization.
///
/// This file is what `lfrt-interleave` explores (`tests/explore_real.rs`);
/// exploring a single-slot ring is what surfaced the capacity-1 defect
/// fixed in [`BoundedMpmcQueue::new`] (regression: the same test crate).
///
/// # Examples
///
/// ```
/// use lfrt_lockfree::BoundedMpmcQueue;
///
/// let q = BoundedMpmcQueue::new(4);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);
/// ```
pub struct BoundedMpmcQueue<T> {
    /// Each slot is cache-line padded: a producer publishing slot `i` and a
    /// consumer draining slot `i ± 1` must not invalidate each other's
    /// lines (8 unpadded `u64` slots would share one line).
    slots: Box<[CachePadded<Slot<T>>]>,
    /// Enqueue/dequeue tickets live on separate lines from each other and
    /// from the slots — the two most contended words in the structure.
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    stats: OpStats,
}

struct Slot<T> {
    sequence: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

// SAFETY: slot access is handed off through the per-slot sequence protocol;
// exactly one thread touches a slot's value between sequence transitions.
unsafe impl<T: Send> Send for BoundedMpmcQueue<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for BoundedMpmcQueue<T> {}

impl<T: Send> BoundedMpmcQueue<T> {
    /// Creates a queue holding up to `capacity` elements (rounded up to the
    /// next power of two internally, with a minimum of 2).
    ///
    /// The minimum matters: the sequence protocol needs at least two slots
    /// to tell "free for this lap" from "published by this lap". With a
    /// single slot, a producer's published sequence `t + 1` equals the next
    /// ticket, so a second push would claim the slot and overwrite the
    /// unconsumed element — and the skipped sequence then livelocks `pop`.
    /// The deterministic interleaving model caught exactly that history
    /// (`crates/interleave`); the same floor is applied there.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        let slots: Box<[CachePadded<Slot<T>>]> = (0..cap)
            .map(|i| {
                CachePadded::new(Slot {
                    sequence: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
            })
            .collect();
        Self {
            slots,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            stats: OpStats::new(),
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Appends `value`, or hands it back if the queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when the queue is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut trace = lfrt_trace::CasOp::start(lfrt_trace::Site::MpmcPush);
        let mask = self.mask();
        let backoff = Backoff::new();
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            self.stats.attempt();
            trace.attempt();
            let slot = &self.slots[tail & mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            match seq as isize - tail as isize {
                0 => {
                    // The slot is free for this ticket; claim it.
                    match self.tail.compare_exchange_weak(
                        tail,
                        tail.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the tail CAS grants exclusive
                            // write access to this slot until the sequence
                            // store below hands it to a consumer.
                            slot.value.with_mut(|v| unsafe { (*v).write(value) });
                            slot.sequence.store(tail.wrapping_add(1), Ordering::Release);
                            trace.success();
                            return Ok(());
                        }
                        Err(actual) => {
                            self.stats.retry();
                            trace.retry();
                            backoff.spin();
                            tail = actual;
                        }
                    }
                }
                d if d < 0 => {
                    trace.success(); // completed: observed full
                    return Err(value); // a full lap behind: full
                }
                _ => {
                    // Another producer advanced; reload and retry.
                    self.stats.retry();
                    trace.retry();
                    backoff.spin();
                    tail = self.tail.load(Ordering::Relaxed);
                }
            }
        }
    }

    /// Removes the oldest element, or `None` if the queue is empty.
    pub fn pop(&self) -> Option<T> {
        let mut trace = lfrt_trace::CasOp::start(lfrt_trace::Site::MpmcPop);
        let mask = self.mask();
        let backoff = Backoff::new();
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            self.stats.attempt();
            trace.attempt();
            let slot = &self.slots[head & mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            match seq as isize - (head.wrapping_add(1)) as isize {
                0 => {
                    match self.head.compare_exchange_weak(
                        head,
                        head.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the head CAS grants exclusive
                            // read access; the producer initialized the slot
                            // before its Release store of this sequence.
                            let value = slot.value.with(|v| unsafe { (*v).assume_init_read() });
                            slot.sequence
                                .store(head.wrapping_add(mask + 1), Ordering::Release);
                            trace.success();
                            return Some(value);
                        }
                        Err(actual) => {
                            self.stats.retry();
                            trace.retry();
                            backoff.spin();
                            head = actual;
                        }
                    }
                }
                d if d < 0 => {
                    trace.success(); // completed: observed empty
                    return None; // nothing published yet: empty
                }
                _ => {
                    self.stats.retry();
                    trace.retry();
                    backoff.spin();
                    head = self.head.load(Ordering::Relaxed);
                }
            }
        }
    }

    /// Whether the queue is observed empty (racy under concurrency).
    pub fn is_empty(&self) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[head & self.mask()];
        (slot.sequence.load(Ordering::Acquire) as isize) - (head.wrapping_add(1) as isize) < 0
    }

    /// The attempt/retry counters of this queue.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }
}

impl<T> fmt::Debug for BoundedMpmcQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedMpmcQueue")
            .field("capacity", &self.slots.len())
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl<T> Drop for BoundedMpmcQueue<T> {
    fn drop(&mut self) {
        // Drain remaining initialized elements: a slot holds a value iff its
        // sequence equals position + 1 (published, unconsumed).
        let mask = self.slots.len() - 1;
        let mut head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while head != tail {
            let slot = &mut self.slots[head & mask];
            if *slot.sequence.get_mut() == head.wrapping_add(1) {
                // SAFETY: published and never consumed; both endpoints are
                // gone (`&mut self`).
                unsafe { slot.value.get_mut().assume_init_drop() };
            }
            head = head.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_and_capacity() {
        let q = BoundedMpmcQueue::new(4);
        for i in 0..4 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.push(99), Err(99), "full at power-of-two capacity");
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_one_gets_two_slots_and_conserves_elements() {
        // Regression: with a single slot, the second push used to claim the
        // slot of the still-unconsumed first element (sequence t + 1 equals
        // the next ticket), losing it and livelocking the next pop.
        let q = BoundedMpmcQueue::new(1);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok(), "rounded up to two slots");
        assert_eq!(q.push(3), Err(3), "full at two");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let q = BoundedMpmcQueue::new(3);
        for i in 0..4 {
            assert!(q.push(i).is_ok(), "rounded capacity admits 4");
        }
        assert!(q.push(4).is_err());
    }

    #[test]
    fn drop_frees_unconsumed_elements() {
        let q = BoundedMpmcQueue::new(8);
        for i in 0..5 {
            q.push(Box::new(i)).expect("room");
        }
        let _ = q.pop();
        drop(q); // 4 remaining boxes freed exactly once
    }

    #[test]
    fn wraparound_reuses_slots() {
        let q = BoundedMpmcQueue::new(2);
        for lap in 0..100u64 {
            assert!(q.push(lap).is_ok());
            assert_eq!(q.pop(), Some(lap));
        }
    }

    #[test]
    fn concurrent_element_conservation() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        let q = Arc::new(BoundedMpmcQueue::new(64));
        let producers: Vec<_> = (0..THREADS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let mut v = p * PER_THREAD + i;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::hint::spin_loop();
                                }
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
                        } else {
                            std::hint::spin_loop();
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
}
