use crossbeam::utils::Backoff;

use crate::stats::OpStats;
use crate::sync::{AtomicU64, Ordering};

/// A single-word lock-free read-modify-write register.
///
/// This is the primitive form of the paper's lock-free access pattern:
/// "instead of acquiring locks, a lock-free operation continuously accesses
/// the object, checks, and retries until it becomes successful" (§1.1). Each
/// [`CasRegister::update`] is a read–compute–CAS loop; a failed CAS is one
/// retry of the kind bounded per job by Theorem 2.
///
/// This file is what `lfrt-interleave` explores (`tests/explore_real.rs`):
/// the load→CAS loop is checked linearizable over every interleaving of
/// concurrent updates.
///
/// # Examples
///
/// ```
/// use lfrt_lockfree::CasRegister;
///
/// let counter = CasRegister::new(0);
/// counter.update(|v| v + 1);
/// counter.update(|v| v + 10);
/// assert_eq!(counter.load(), 11);
/// ```
#[derive(Debug, Default)]
pub struct CasRegister {
    value: AtomicU64,
    stats: OpStats,
}

impl CasRegister {
    /// Creates a register holding `initial`.
    pub fn new(initial: u64) -> Self {
        Self {
            value: AtomicU64::new(initial),
            stats: OpStats::new(),
        }
    }

    /// Reads the current value.
    #[inline]
    pub fn load(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Unconditionally stores `value`.
    #[inline]
    pub fn store(&self, value: u64) {
        self.value.store(value, Ordering::Release);
    }

    /// Atomically replaces the value with `f(current)`, retrying on
    /// interference. Returns the value that was replaced.
    ///
    /// `f` may run multiple times and must be a pure function of its input.
    pub fn update<F: FnMut(u64) -> u64>(&self, mut f: F) -> u64 {
        let backoff = Backoff::new();
        let mut current = self.value.load(Ordering::Acquire);
        loop {
            self.stats.attempt();
            let next = f(current);
            // Relaxed failure ordering: the observed value is only fed back
            // as the next expected value, never dereferenced, so the retry
            // needs no acquire edge (ordlint ORD005; pinned by
            // tests/ordering_pins.rs).
            match self.value.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(prev) => return prev,
                Err(actual) => {
                    self.stats.retry();
                    current = actual;
                    backoff.spin();
                }
            }
        }
    }

    /// The attempt/retry counters of this register.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn load_store_round_trip() {
        let r = CasRegister::new(5);
        assert_eq!(r.load(), 5);
        r.store(9);
        assert_eq!(r.load(), 9);
    }

    #[test]
    fn update_returns_previous() {
        let r = CasRegister::new(3);
        assert_eq!(r.update(|v| v * 2), 3);
        assert_eq!(r.load(), 6);
    }

    #[test]
    fn concurrent_increments_all_land() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let r = Arc::new(CasRegister::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        r.update(|v| v + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("incrementer panicked");
        }
        assert_eq!(r.load(), THREADS * PER_THREAD);
        // attempts = successes + retries, successes = all increments.
        let snap = r.stats().snapshot();
        assert_eq!(snap.successes(), THREADS * PER_THREAD);
    }
}
