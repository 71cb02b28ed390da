//! Model of the bounded MPMC queue (Vyukov's sequence-stamped ring),
//! mirroring `crates/lockfree/src/mpmc.rs`.
//!
//! The real queue is explored from its own source; this private mirror stays
//! only as the shard of [`super::sharded::ModelShardedQueue`], whose scenarios
//! fit the schedule budget only while slot accesses are *not* steps (DESIGN.md
//! §6b). `crates/lockfree/tests/ordering_sync.rs` pins its orderings.

use crate::atomic::Atomic;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

struct Slot {
    sequence: Atomic<usize>,
    value: Atomic<u64>,
}

/// Bounded multi-producer/multi-consumer queue: each slot's sequence
/// counter encodes whose turn it is, producers claim slots by CAS on the
/// tail ticket, consumers by CAS on the head ticket.
///
/// The reload branches (`seq` ahead of the ticket) deliberately do **not**
/// call [`crate::spin_hint`]: a reload re-reads an index another thread
/// already advanced, so the retry makes progress on its own — parking
/// there would report false livelocks.
pub struct ModelMpmcQueue {
    slots: Vec<Slot>,
    head: Atomic<usize>,
    tail: Atomic<usize>,
}

impl ModelMpmcQueue {
    /// A queue holding up to `capacity` elements (rounded up to the next
    /// power of two with a minimum of 2, like the real queue).
    ///
    /// The minimum-2 floor is load-bearing: exploring this model at a
    /// single slot produced the non-linearizable history (second push
    /// claims the unconsumed first element's slot) that revealed the same
    /// defect in `crates/lockfree`'s `BoundedMpmcQueue::new`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        Self {
            // Construction runs on the controller: the initial sequence
            // stamps are not scheduled steps, matching the real `new`.
            slots: (0..cap)
                .map(|i| Slot {
                    sequence: Atomic::new(i),
                    value: Atomic::new(0),
                })
                .collect(),
            head: Atomic::new(0),
            tail: Atomic::new(0),
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Mirrors `BoundedMpmcQueue::push`.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when the queue is full.
    pub fn push(&self, value: u64) -> Result<(), u64> {
        let mask = self.mask();
        // P1: `self.tail.load(Relaxed)` — the ticket guess.
        let mut tail = self.tail.load_ord(Relaxed);
        loop {
            let slot = &self.slots[tail & mask];
            // P2: `slot.sequence.load(Acquire)`.
            let seq = slot.sequence.load_ord(Acquire);
            match seq as isize - tail as isize {
                0 => {
                    // P3: `self.tail.compare_exchange_weak(tail, tail + 1,
                    // Relaxed, Relaxed)` — claim the slot (the model CAS
                    // never fails spuriously).
                    match self.tail.compare_exchange_ord(
                        tail,
                        tail.wrapping_add(1),
                        Relaxed,
                        Relaxed,
                    ) {
                        Ok(_) => {
                            // Slot write: exclusive by the ticket hand-off
                            // (like the queue's post-CAS data take) — not a
                            // step.
                            slot.value.store_plain(value);
                            // P4: `slot.sequence.store(tail + 1, Release)` —
                            // hand the slot to consumers.
                            slot.sequence.store_ord(tail.wrapping_add(1), Release);
                            return Ok(());
                        }
                        Err(actual) => tail = actual,
                    }
                }
                d if d < 0 => return Err(value), // a full lap behind: full
                _ => {
                    // P5: another producer advanced; reload and retry.
                    tail = self.tail.load_ord(Relaxed);
                }
            }
        }
    }

    /// Mirrors `BoundedMpmcQueue::pop`.
    pub fn pop(&self) -> Option<u64> {
        let mask = self.mask();
        // C1: `self.head.load(Relaxed)` — the ticket guess.
        let mut head = self.head.load_ord(Relaxed);
        loop {
            let slot = &self.slots[head & mask];
            // C2: `slot.sequence.load(Acquire)`.
            let seq = slot.sequence.load_ord(Acquire);
            match seq as isize - (head.wrapping_add(1)) as isize {
                0 => {
                    // C3: `self.head.compare_exchange_weak(head, head + 1,
                    // Relaxed, Relaxed)`.
                    match self.head.compare_exchange_ord(
                        head,
                        head.wrapping_add(1),
                        Relaxed,
                        Relaxed,
                    ) {
                        Ok(_) => {
                            // Slot read: exclusive by the hand-off — not a
                            // step.
                            let value = slot.value.load_plain();
                            // C4: `slot.sequence.store(head + mask + 1,
                            // Release)` — free the slot for the next lap.
                            slot.sequence
                                .store_ord(head.wrapping_add(mask + 1), Release);
                            return Some(value);
                        }
                        Err(actual) => head = actual,
                    }
                }
                d if d < 0 => return None, // nothing published yet: empty
                _ => {
                    // C5: another consumer advanced; reload and retry.
                    head = self.head.load_ord(Relaxed);
                }
            }
        }
    }

    /// Post-check helper: remaining published elements oldest-first,
    /// without scheduling (single-threaded use only).
    pub fn drain_plain(&self) -> Vec<u64> {
        let mask = self.mask();
        let mut out = Vec::new();
        let mut head = self.head.load_plain();
        let tail = self.tail.load_plain();
        while head != tail {
            let slot = &self.slots[head & mask];
            if slot.sequence.load_plain() == head.wrapping_add(1) {
                out.push(slot.value.load_plain());
            }
            head = head.wrapping_add(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_capacity() {
        // Capacity 1 rounds up to the 2-slot minimum (see `new`).
        let q = ModelMpmcQueue::new(1);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.drain_plain(), vec![1, 2]);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(()));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let q = ModelMpmcQueue::new(2);
        for lap in 0..20 {
            assert_eq!(q.push(lap), Ok(()));
            assert_eq!(q.pop(), Some(lap));
        }
    }
}
