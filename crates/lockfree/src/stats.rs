//! Attempt/retry counters that cost no `lock`-prefixed instruction.
//!
//! Counting is not synchronisation: an [`OpStats`] sits inside every CAS
//! retry loop of every lock-free object, between the read of `top`/`tail`
//! and the CAS, so an atomic read-modify-write there lengthens the very
//! window in which a competitor invalidates the read. Each thread therefore
//! **owns** one counter lane for its whole lifetime and bumps it with a
//! plain load and a plain store; only a thread that finds every lane taken
//! shares one extra stripe through `fetch_add`.
//!
//! What is exact when: a count is in the object the moment
//! [`OpStats::attempt`]/[`OpStats::retry`] returns — there is no per-thread
//! buffer and nothing to flush — so every reader that synchronises with the
//! writer (a `join`, the end of a `std::thread::scope`, a barrier) reads
//! totals equal to the ground truth, for any number of threads. A reader
//! racing live writers sees each lane at some recent value and never
//! `retries > attempts` (see [`OpStats::snapshot`]).

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::CachePadded;

/// Exclusively owned stripes per [`OpStats`], and so the number of threads
/// that can count without an atomic read-modify-write at the same time. An
/// object costs `(16 + 1) * 128` bytes of counters.
const STRIPES: usize = 16;

/// [`LANE`] of a thread that counts on the shared fallback stripe.
const SHARED: usize = STRIPES;

/// [`LANE`] of a thread that has not counted anything yet.
const UNCLAIMED: usize = usize::MAX;

/// Bit `i` is set while stripe `i` — of every [`OpStats`] in the process —
/// belongs to one live thread.
static CLAIMED: AtomicU32 = AtomicU32::new(0);

/// Monotone thread counter backing [`thread_hash`].
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's Fibonacci-hashed ordinal, computed once (see
    /// [`thread_hash`]).
    static HASH: Cell<usize> = const { Cell::new(usize::MAX) };

    /// The stripe this thread counts on: an owned index below [`STRIPES`],
    /// [`SHARED`], or [`UNCLAIMED`]. It has no destructor, so the hot path
    /// reads it without a liveness check and it stays readable while the
    /// thread's other thread-locals are being destroyed.
    static LANE: Cell<usize> = const { Cell::new(UNCLAIMED) };

    /// Hands the owned lane back when the thread exits.
    static LANE_GUARD: LaneGuard = const { LaneGuard };
}

/// The calling thread's Fibonacci-hashed process-wide ordinal, the
/// lane-selection hash of the crate's *hashed* striping layers: the node
/// pool's telemetry shards (`crate::pool`) mask it to their shard count,
/// the sharded MPMC queue (`crate::sharded`) masks it to its shard count
/// for enqueue affinity, and the elimination array starts its slot probe
/// from it. Hashing one monotone ordinal — instead of, say, a per-layer
/// round-robin counter — keeps the layers consistent (a thread occupies the
/// *same relative lane* everywhere) and spreads consecutive ordinals across
/// any power-of-two lane count (Fibonacci hashing), with no global counter
/// drifting on thread churn. [`OpStats`] does not use it: a hashed lane can
/// collide, and its stripes must have one writer each.
#[inline]
pub(crate) fn thread_hash() -> usize {
    HASH.with(|s| {
        let cached = s.get();
        if cached != usize::MAX {
            return cached;
        }
        let ordinal = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        let hashed = (ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as usize)) >> 7;
        s.set(hashed);
        hashed
    })
}

struct LaneGuard;

impl Drop for LaneGuard {
    fn drop(&mut self) {
        // Whatever this thread still counts (from a later thread-local
        // destructor) goes to the shared stripe: the lane may have a new
        // owner by then.
        let lane = LANE.replace(SHARED);
        if lane < STRIPES {
            // Release: pairs with the Acquire claim in `claim_lane`, so the
            // next owner's first load of a stripe sees this thread's last
            // store to it.
            CLAIMED.fetch_and(!(1 << lane), Ordering::Release);
        }
    }
}

/// First count on this thread: claims a free lane, or settles for the
/// shared stripe when all [`STRIPES`] are taken. A bounded scan — one RMW
/// per lane, never a retry — so the callers stay wait-free.
#[cold]
fn claim_lane() -> usize {
    // Touching the guard registers its destructor. If that has already run,
    // this thread is tearing down its thread-locals and nothing would give
    // a claimed lane back.
    let lane = match LANE_GUARD.try_with(|_| ()) {
        Ok(()) => (0..STRIPES)
            .find(|&lane| {
                let bit = 1 << lane;
                CLAIMED.fetch_or(bit, Ordering::Acquire) & bit == 0
            })
            .unwrap_or(SHARED),
        Err(_) => SHARED,
    };
    LANE.set(lane);
    lane
}

/// One cache line of counters. Stripes `0..STRIPES` have a single writer,
/// the thread owning that lane; stripe [`SHARED`] is written by everyone
/// else.
#[derive(Default)]
struct Stripe {
    attempts: AtomicU64,
    retries: AtomicU64,
}

/// Attempt/retry counters for a lock-free object.
///
/// A *retry* is a failed pass through an operation's CAS loop — the quantity
/// the paper bounds per job in Theorem 2. An *attempt* counts every pass, so
/// `attempts == successes + retries` and a contention-free run has
/// `retries == 0`.
///
/// Counters are **owned by lane**: on its first count a thread claims one of
/// [`STRIPES`] lanes process-wide and keeps it until it exits, and stripe
/// `i` of every `OpStats` is written only by the owner of lane `i`. A count
/// is then a `Relaxed` load and a `Relaxed` store of a cache line no other
/// core writes — no `lock` prefix inside the CAS loop. A thread that finds
/// every lane taken (more than [`STRIPES`] counting threads alive at once)
/// counts on one extra shared stripe with `fetch_add`. Reads
/// ([`OpStats::attempts`], [`OpStats::snapshot`], …) sum over all stripes
/// and are exact for every writer the reader has synchronised with; there
/// is no reset — take [`OpStats::snapshot`] deltas to window a count.
///
/// Counters use relaxed atomics: they are monotone statistics, not
/// synchronization.
pub struct OpStats {
    stripes: Box<[CachePadded<Stripe>; STRIPES + 1]>,
}

impl Default for OpStats {
    fn default() -> Self {
        Self {
            stripes: Box::new(std::array::from_fn(|_| CachePadded::default())),
        }
    }
}

impl fmt::Debug for OpStats {
    /// The totals, and how many of the attempts took the shared fallback
    /// stripe (non-zero only if more than [`STRIPES`] threads counted at
    /// once).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("OpStats")
            .field("attempts", &snap.attempts)
            .field("retries", &snap.retries)
            .field(
                "shared_attempts",
                &self.stripes[SHARED].attempts.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl OpStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to the calling thread's `counter`.
    #[inline]
    fn count(&self, counter: impl Fn(&Stripe) -> &AtomicU64) {
        let mut lane = LANE.get();
        if lane == UNCLAIMED {
            lane = claim_lane();
        }
        if lane < STRIPES {
            // Sole writer of this stripe: nothing can land between the load
            // and the store.
            let counter = counter(&self.stripes[lane]);
            counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        } else {
            counter(&self.stripes[SHARED]).fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one pass through an operation loop.
    #[inline]
    pub fn attempt(&self) {
        self.count(|stripe| &stripe.attempts);
    }

    /// Records one failed pass (the operation will retry).
    #[inline]
    pub fn retry(&self) {
        self.count(|stripe| &stripe.retries);
    }

    /// Total passes through operation loops so far.
    pub fn attempts(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.attempts.load(Ordering::Relaxed))
            .sum()
    }

    /// Total failed passes (retries) so far.
    pub fn retries(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.retries.load(Ordering::Relaxed))
            .sum()
    }

    /// Total successful operations so far.
    pub fn successes(&self) -> u64 {
        let snap = self.snapshot();
        snap.successes()
    }

    /// Takes a consistent-enough snapshot for reporting.
    ///
    /// All retry stripes are read **before** any attempt stripe. Every
    /// `retry()` is preceded by an `attempt()` on the same stripe (a thread
    /// changes lane only between operations), so attempts read later can
    /// only be larger: a snapshot can never report
    /// `retries > attempts`, no matter how many operations race with it.
    /// (Reading attempts first had exactly that torn-read bug: an
    /// attempt+retry pair landing between the two loads inflated retries
    /// past the already-read attempts. Regression test:
    /// `stats::tests::snapshot_never_tears_under_concurrency`.)
    pub fn snapshot(&self) -> StatsSnapshot {
        let retries = self.retries();
        let attempts = self.attempts();
        StatsSnapshot { attempts, retries }
    }
}

/// A point-in-time copy of [`OpStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Total passes through operation loops.
    pub attempts: u64,
    /// Total failed passes.
    pub retries: u64,
}

impl StatsSnapshot {
    /// Successful operations in this snapshot.
    pub fn successes(&self) -> u64 {
        self.attempts.saturating_sub(self.retries)
    }

    /// Mean retries per successful operation, or zero if none succeeded.
    pub fn retries_per_op(&self) -> f64 {
        let ok = self.successes();
        if ok == 0 {
            0.0
        } else {
            self.retries as f64 / ok as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let s = OpStats::new();
        s.attempt();
        s.attempt();
        s.retry();
        assert_eq!(s.attempts(), 2);
        assert_eq!(s.retries(), 1);
        assert_eq!(s.successes(), 1);
    }

    #[test]
    fn snapshot_copies_the_totals() {
        let s = OpStats::new();
        s.attempt();
        s.retry();
        let snap = s.snapshot();
        assert_eq!(
            snap,
            StatsSnapshot {
                attempts: 1,
                retries: 1
            }
        );
        assert_eq!(snap.successes(), 0);
        assert_eq!(snap.retries_per_op(), 0.0);
    }

    #[test]
    fn retries_per_op() {
        let snap = StatsSnapshot {
            attempts: 30,
            retries: 10,
        };
        assert!((snap.retries_per_op() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stripes_from_many_threads_sum_exactly() {
        const THREADS: usize = 8;
        const OPS: u64 = 10_000;
        let s = Arc::new(OpStats::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        s.attempt();
                        if i % 3 == 0 {
                            s.retry();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("counter thread panicked");
        }
        assert_eq!(s.attempts(), THREADS as u64 * OPS);
        assert_eq!(s.retries(), THREADS as u64 * OPS.div_ceil(3));
    }

    /// Regression test for the snapshot torn read: retries must be loaded
    /// before attempts, otherwise an `attempt(); retry();` pair landing
    /// between the two loads yields a snapshot with `retries > attempts`
    /// (i.e. `successes()` silently saturating at zero).
    #[test]
    fn snapshot_never_tears_under_concurrency() {
        let s = Arc::new(OpStats::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        s.attempt();
                        s.retry();
                    }
                })
            })
            .collect();
        for _ in 0..50_000 {
            let snap = s.snapshot();
            assert!(
                snap.retries <= snap.attempts,
                "torn snapshot: {} retries > {} attempts",
                snap.retries,
                snap.attempts
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().expect("writer panicked");
        }
    }
}
