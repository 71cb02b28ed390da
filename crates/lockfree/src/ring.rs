use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

use crossbeam::utils::CachePadded;

use crate::sync::{AtomicUsize, Ordering, UnsafeCell};

/// Creates a bounded single-producer/single-consumer ring of the given
/// capacity, split into its two endpoints.
///
/// Both operations are **wait-free**: a push or pop completes in a constant
/// number of steps with no retry loop at all — the strongest non-blocking
/// guarantee the paper's §1.1 taxonomy discusses, achievable here because
/// each index has exactly one writer. Bounded rings like this are the
/// bread-and-butter of embedded ISR-to-task communication.
///
/// This file is what `lfrt-interleave` explores (`tests/explore_real.rs`
/// includes it over instrumented atomics): linearizable over its exhaustive
/// small-bound schedule space, and sound under the store-buffer and relaxed
/// memory modes with exactly the orderings written below.
///
/// The usable capacity is `capacity` elements (one extra internal slot
/// distinguishes full from empty).
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Examples
///
/// ```
/// use lfrt_lockfree::spsc_ring;
///
/// let (mut tx, mut rx) = spsc_ring(2);
/// assert!(tx.push(1).is_ok());
/// assert!(tx.push(2).is_ok());
/// assert_eq!(tx.push(3), Err(3)); // full
/// assert_eq!(rx.pop(), Some(1));
/// assert_eq!(rx.pop(), Some(2));
/// assert_eq!(rx.pop(), None);
/// ```
pub fn spsc_ring<T: Send>(capacity: usize) -> (RingProducer<T>, RingConsumer<T>) {
    assert!(capacity > 0, "capacity must be positive");
    let slots = capacity + 1;
    let shared = Arc::new(Shared {
        buffer: (0..slots)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
        },
        RingConsumer { shared },
    )
}

struct Shared<T> {
    buffer: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop (owned by the consumer). Padded onto its own cache
    /// line: the producer re-reads `head` on every push, and an unpadded
    /// pair would put the consumer's store and the producer's store on the
    /// same line — steady-state SPSC streaming would then ping-pong that
    /// line on every element instead of only when an index is re-read.
    head: CachePadded<AtomicUsize>,
    /// Next slot to push (owned by the producer); padded likewise.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: head is written only by the consumer, tail only by the producer;
// each slot is accessed by exactly one side at a time under the index
// protocol; `T: Send` lets elements cross threads.
unsafe impl<T: Send> Sync for Shared<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Send for Shared<T> {}

impl<T> Shared<T> {
    fn next(&self, i: usize) -> usize {
        (i + 1) % self.buffer.len()
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Drain remaining initialized elements.
        let mut head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        while head != tail {
            // SAFETY: slots in [head, tail) hold initialized values that no
            // endpoint will touch again (both handles are gone).
            unsafe { self.buffer[head].get_mut().assume_init_drop() };
            head = (head + 1) % self.buffer.len();
        }
    }
}

/// The producing endpoint of an SPSC ring. `!Clone`: single producer by
/// construction.
pub struct RingProducer<T> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> RingProducer<T> {
    /// Appends `value`, or returns it back if the ring is full. Wait-free.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when the ring is full.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        // Wait-free: no retry loop, so the trace guard only ever records a
        // zero-retry completion (its latency).
        let trace = lfrt_trace::CasOp::start(lfrt_trace::Site::RingPush);
        let shared = &*self.shared;
        let tail = shared.tail.load(Ordering::Relaxed);
        let next = shared.next(tail);
        if next == shared.head.load(Ordering::Acquire) {
            trace.success(); // completed: observed full
            return Err(value);
        }
        // SAFETY: slot `tail` is outside [head, tail), so the consumer will
        // not read it until the store below publishes it.
        shared.buffer[tail].with_mut(|slot| unsafe { (*slot).write(value) });
        shared.tail.store(next, Ordering::Release);
        trace.success();
        Ok(())
    }

    /// Whether a push would currently fail.
    pub fn is_full(&self) -> bool {
        let shared = &*self.shared;
        shared.next(shared.tail.load(Ordering::Relaxed)) == shared.head.load(Ordering::Acquire)
    }
}

impl<T> fmt::Debug for RingProducer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingProducer").finish_non_exhaustive()
    }
}

/// The consuming endpoint of an SPSC ring. `!Clone`: single consumer by
/// construction.
pub struct RingConsumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> RingConsumer<T> {
    /// Removes the oldest element, or `None` if the ring is empty.
    /// Wait-free.
    pub fn pop(&mut self) -> Option<T> {
        let trace = lfrt_trace::CasOp::start(lfrt_trace::Site::RingPop);
        let shared = &*self.shared;
        let head = shared.head.load(Ordering::Relaxed);
        if head == shared.tail.load(Ordering::Acquire) {
            trace.success(); // completed: observed empty
            return None;
        }
        // SAFETY: slot `head` is inside [head, tail): initialized by the
        // producer and published by its Release store; the producer will not
        // reuse it until our store below frees it.
        let value = shared.buffer[head].with(|slot| unsafe { (*slot).assume_init_read() });
        shared.head.store(shared.next(head), Ordering::Release);
        trace.success();
        Some(value)
    }

    /// Whether a pop would currently return `None`.
    pub fn is_empty(&self) -> bool {
        let shared = &*self.shared;
        shared.head.load(Ordering::Relaxed) == shared.tail.load(Ordering::Acquire)
    }
}

impl<T> fmt::Debug for RingConsumer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingConsumer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_until_full() {
        let (mut tx, mut rx) = spsc_ring(3);
        assert!(tx.push(1).is_ok());
        assert!(tx.push(2).is_ok());
        assert!(tx.push(3).is_ok());
        assert!(tx.is_full());
        assert_eq!(tx.push(4), Err(4));
        assert_eq!(rx.pop(), Some(1));
        assert!(tx.push(4).is_ok(), "slot freed");
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), None);
        assert!(rx.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = spsc_ring::<u8>(0);
    }

    #[test]
    fn drop_frees_unconsumed_elements() {
        let (mut tx, rx) = spsc_ring(8);
        for i in 0..5 {
            tx.push(Box::new(i)).expect("room");
        }
        drop(tx);
        drop(rx); // remaining boxes freed exactly once
    }

    #[test]
    fn cross_thread_stream_preserves_order_and_content() {
        const N: u64 = 30_000;
        let (mut tx, mut rx) = spsc_ring(64);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                loop {
                    match tx.push(i) {
                        Ok(()) => break,
                        Err(_) => std::hint::spin_loop(),
                    }
                }
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, expected, "order violated");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().expect("producer panicked");
        assert!(rx.is_empty());
    }

    #[test]
    fn capacity_one_alternates() {
        let (mut tx, mut rx) = spsc_ring(1);
        for i in 0..10 {
            assert!(tx.push(i).is_ok());
            assert_eq!(tx.push(99), Err(99));
            assert_eq!(rx.pop(), Some(i));
        }
    }
}
