//! The exactness contract of [`OpStats`] under every way a thread can come
//! to count: on a lane it owns, on the shared fallback stripe once all lanes
//! are taken, after a predecessor handed its lane back, and from a
//! thread-local destructor after its own lane is gone.
//!
//! Lanes are claimed process-wide, so which stripe a thread lands on depends
//! on every other live thread. This binary runs nothing but these tests and
//! serializes them on [`serial`], which makes "all sixteen lanes are free"
//! a fact the tests can rely on. The one thing they need to see that the
//! public API does not return — how many counts took the shared stripe — is
//! read from the `Debug` output.

use std::cell::RefCell;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use lfrt_lockfree::{OpStats, StatsSnapshot};

/// Lanes an `OpStats` has (`stats::STRIPES`, which is private).
const LANES: u64 = 16;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Attempts counted on the shared fallback stripe, from `{stats:?}`.
fn shared_attempts(stats: &OpStats) -> u64 {
    let text = format!("{stats:?}");
    text.split("shared_attempts: ")
        .nth(1)
        .and_then(|tail| tail.trim_end_matches([' ', '}']).parse().ok())
        .unwrap_or_else(|| panic!("no shared_attempts field in {text}"))
}

/// `ops` attempts with a retry on every third, the pattern of
/// `stats::tests::stripes_from_many_threads_sum_exactly`.
fn count(stats: &OpStats, ops: u64) {
    for i in 0..ops {
        stats.attempt();
        if i % 3 == 0 {
            stats.retry();
        }
    }
}

fn expected(threads: u64, ops: u64) -> StatsSnapshot {
    StatsSnapshot {
        attempts: threads * ops,
        retries: threads * ops.div_ceil(3),
    }
}

#[test]
fn more_live_threads_than_lanes_still_sum_exactly() {
    let _guard = serial();
    const THREADS: u64 = 40;
    const OPS: u64 = 10_000;
    let stats = OpStats::new();
    // Nobody exits (and frees a lane) before everybody has counted: all
    // forty hold their lane, or the shared stripe, at the same time.
    let all_counted = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                count(&stats, OPS);
                all_counted.wait();
            });
        }
    });
    assert_eq!(stats.snapshot(), expected(THREADS, OPS));
    assert!(
        shared_attempts(&stats) >= (THREADS - LANES) * OPS,
        "at most {LANES} threads can own a lane, the rest share: {stats:?}"
    );
}

#[test]
fn short_lived_threads_hand_their_lane_on() {
    let _guard = serial();
    const THREADS: u64 = 200;
    const OPS: u64 = 100;
    let stats = Arc::new(OpStats::new());
    for _ in 0..THREADS {
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || count(&stats, OPS))
            .join()
            .expect("counting thread panicked");
    }
    assert_eq!(stats.snapshot(), expected(THREADS, OPS));
    assert_eq!(
        shared_attempts(&stats),
        0,
        "a lane leaked by an exiting thread pushes its successors onto the \
         shared stripe after {LANES} of them"
    );
}

/// The shape of `tests/theorem2_opstats.rs`: `std::thread::scope` returns
/// once the closures have, which can be before the workers' thread-local
/// destructors run — a count buffered per thread and flushed at exit would
/// be missing here.
#[test]
fn counts_are_complete_when_a_scope_ends() {
    let _guard = serial();
    const THREADS: u64 = 4;
    const OPS: u64 = 1_000;
    for _ in 0..100 {
        let stats = OpStats::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| count(&stats, OPS));
            }
        });
        assert_eq!(stats.snapshot(), expected(THREADS, OPS));
    }
}

/// Counts one attempt and one retry when its thread tears it down.
struct CountOnExit(Arc<OpStats>);

impl Drop for CountOnExit {
    fn drop(&mut self) {
        self.0.attempt();
        self.0.retry();
    }
}

thread_local! {
    static BEFORE_FIRST_COUNT: RefCell<Option<CountOnExit>> = const { RefCell::new(None) };
    static AFTER_FIRST_COUNT: RefCell<Option<CountOnExit>> = const { RefCell::new(None) };
}

/// Thread-local destructors run in (or against) registration order, so of
/// two values registered around the thread's first count — which registers
/// the lane's own guard — exactly one is destroyed after the lane is gone.
#[test]
fn counting_from_a_destructor_after_the_lane_is_gone_is_kept() {
    let _guard = serial();
    let stats = Arc::new(OpStats::new());
    let worker = Arc::clone(&stats);
    std::thread::spawn(move || {
        BEFORE_FIRST_COUNT.set(Some(CountOnExit(Arc::clone(&worker))));
        worker.attempt();
        AFTER_FIRST_COUNT.set(Some(CountOnExit(worker)));
    })
    .join()
    .expect("a destructor that counts must not panic");
    assert_eq!(
        stats.snapshot(),
        StatsSnapshot {
            attempts: 3,
            retries: 2
        }
    );
    assert_eq!(
        shared_attempts(&stats),
        1,
        "the late destructor must not write a lane it no longer owns"
    );
}
