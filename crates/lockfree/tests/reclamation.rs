//! Reclamation- and *reuse*-safety tests. Since the node pools landed, a
//! retired node is no longer freed — it is **recycled** into its pool after
//! the same grace period. The properties under test become:
//!
//! 1. retired nodes are eventually recycled (bounded memory under traffic);
//! 2. a node is *never* pooled while any guard taken before its retirement
//!    is still pinned (reuse-before-grace is the pool's ABA hazard);
//! 3. the payload's `Drop` runs exactly once — on the popping thread, never
//!    again when the node body recycles.
//!
//! Strategy: payloads carry a counting `Drop` (an `Arc<AtomicUsize>` bumped
//! on drop), so "the payload was dropped" is observable without touching the
//! allocator; node-level reclamation is observed through the collector's
//! global `retired`/`destroyed`/`recycle_retired`/`recycled` telemetry.
//! Because those counters are process-global, every test here serializes on
//! [`serial`]. Forward progress of the collector is driven explicitly with
//! `epoch::pin().flush()` cycles — production code gets the same effect a
//! constant amount at a time: each retirement reclaims at most two expired
//! nodes, and the epoch advances on a cadence of ordinary pins.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use crossbeam::epoch;
use lfrt_lockfree::{LockFreeList, LockFreeQueue, TreiberStack};

/// Serializes tests in this binary (the epoch telemetry is process-global).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A payload whose drop is observable.
#[derive(Debug)]
struct CountOnDrop(Arc<AtomicUsize>);

impl Drop for CountOnDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drives the collector until `done()` holds or a generous bound is hit.
/// Returns whether `done()` held.
fn collect_until(done: impl Fn() -> bool) -> bool {
    for _ in 0..10_000 {
        if done() {
            return true;
        }
        epoch::pin().flush();
        std::thread::yield_now();
    }
    done()
}

/// Reclaims every node already retired on either path — destroy *or*
/// recycle (all racing threads must have quiesced). Used to reach a clean
/// baseline before taking deltas.
fn drain_backlog() -> bool {
    collect_until(|| {
        epoch::destroyed_count() >= epoch::retired_count()
            && epoch::recycled_count() >= epoch::recycle_retired_count()
    })
}

#[test]
fn stack_recycles_popped_nodes_after_quiescence() {
    let _guard = serial();
    let drops = Arc::new(AtomicUsize::new(0));
    let stack = TreiberStack::new();
    const N: usize = 100;
    for _ in 0..N {
        stack.push(CountOnDrop(Arc::clone(&drops)));
    }
    let before_recycled = epoch::recycled_count();
    for _ in 0..N {
        // The popped payload is dropped here; what the epoch collector owes
        // us is the *node body* — recycling it must not double-drop the
        // payload (the popper moved it out of the `ManuallyDrop` slot).
        drop(stack.pop().expect("stack has elements"));
    }
    assert_eq!(
        drops.load(Ordering::Relaxed),
        N,
        "each payload dropped exactly once by the popper"
    );
    // Retired nodes must eventually recycle into the pool, and recycling
    // must not re-drop payloads (the counter stays at N through collection).
    assert!(
        collect_until(|| epoch::recycled_count() >= before_recycled + N),
        "popped stack nodes were never recycled"
    );
    assert_eq!(
        drops.load(Ordering::Relaxed),
        N,
        "node recycling must not drop payloads a second time"
    );
}

#[test]
fn queue_recycles_dequeued_sentinels_after_quiescence() {
    let _guard = serial();
    let drops = Arc::new(AtomicUsize::new(0));
    let queue = LockFreeQueue::new();
    const N: usize = 100;
    for _ in 0..N {
        queue.enqueue(CountOnDrop(Arc::clone(&drops)));
    }
    let before_recycled = epoch::recycled_count();
    for _ in 0..N {
        drop(queue.dequeue().expect("queue has elements"));
    }
    assert_eq!(drops.load(Ordering::Relaxed), N);
    // Each dequeue retires the *old* sentinel (whose data slot is already
    // `None`), so N dequeues owe the pool N recycled node bodies.
    assert!(
        collect_until(|| epoch::recycled_count() >= before_recycled + N),
        "dequeued queue sentinels were never recycled"
    );
    assert_eq!(
        drops.load(Ordering::Relaxed),
        N,
        "sentinel recycling must not drop payloads a second time"
    );
}

#[test]
fn list_recycles_removed_nodes_after_quiescence() {
    let _guard = serial();
    let list = LockFreeList::new();
    const N: u64 = 100;
    for k in 0..N {
        assert!(list.insert(k));
    }
    let before_recycled = epoch::recycled_count();
    for k in 0..N {
        assert!(list.remove(k));
    }
    assert!(
        collect_until(|| epoch::recycled_count() >= before_recycled + N as usize),
        "removed list nodes were never recycled"
    );
}

/// The "never reused early" half — the pool's ABA safety argument. While
/// this thread holds a guard pinned at epoch `e`, the global epoch can
/// advance at most once (to `e + 2`), so a node retired at `e` or later sits
/// at numeric distance ≤ 2 — short of the two-advance (distance 4) grace
/// period — for as long as the guard lives. Nodes retired *after* the guard
/// was taken therefore must neither be destroyed **nor pooled for reuse**,
/// no matter how hard other threads drive the collector. A node that
/// reached the pool here could be re-acquired and overwritten while this
/// guard still holds a pre-retirement pointer to it — the classic
/// reuse-before-grace ABA. This is deterministic, not timing-dependent.
#[test]
fn no_recycling_while_a_reader_is_pinned() {
    let _guard = serial();
    // Reach a clean baseline first: anything retired by earlier tests gets
    // reclaimed now, so the strict equalities below can only be broken by an
    // early free/reuse of *our* nodes.
    assert!(drain_backlog(), "could not drain pre-existing garbage");

    let drops = Arc::new(AtomicUsize::new(0));
    let stack = Arc::new(TreiberStack::new());
    const N: usize = 50;

    let reader_pin = epoch::pin();

    for _ in 0..N {
        stack.push(CountOnDrop(Arc::clone(&drops)));
    }
    let destroyed_at_pin = epoch::destroyed_count();
    let recycled_at_pin = epoch::recycled_count();
    let recycle_retired_at_pin = epoch::recycle_retired_count();

    // Other threads pop everything and hammer the collector.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let stack = Arc::clone(&stack);
            std::thread::spawn(move || {
                while stack.pop().is_some() {}
                for _ in 0..1_000 {
                    epoch::pin().flush();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("popper panicked");
    }

    assert_eq!(drops.load(Ordering::Relaxed), N, "all payloads popped");
    assert!(
        epoch::recycle_retired_count() >= recycle_retired_at_pin + N,
        "popped nodes were retired onto the recycle path"
    );
    assert_eq!(
        epoch::recycled_count(),
        recycled_at_pin,
        "nodes retired while a guard is pinned must not be pooled for reuse"
    );
    assert_eq!(
        epoch::destroyed_count(),
        destroyed_at_pin,
        "nodes retired while a guard is pinned must not be destroyed"
    );

    // Unpinning releases the grace period; everything becomes recyclable.
    drop(reader_pin);
    assert!(
        collect_until(|| epoch::recycled_count() >= recycled_at_pin + N),
        "nodes stayed unrecycled after the last guard unpinned"
    );
}

/// Nodes on the recycle path still waiting for their grace period.
fn recycle_backlog() -> usize {
    epoch::recycle_retired_count() - epoch::recycled_count()
}

/// Retirements are counted in a per-thread cell and only flushed into the
/// process-wide total by an advance attempt, but the reader folds the
/// calling thread's cell in: on the retiring thread the backlog is the bag
/// length after every single pop, with no `flush` in between.
#[test]
fn retiring_thread_reads_its_own_backlog_exactly_between_collects() {
    let _guard = serial();
    assert!(drain_backlog(), "could not drain pre-existing garbage");
    assert_eq!(recycle_backlog(), 0);

    let stack = TreiberStack::new();
    const N: usize = 40; // below the retirement cadence of an advance attempt
    for v in 0..N {
        stack.push(v);
    }
    // Pinned across the pops: every pop's own pin is nested (no pin
    // cadence runs) and nothing retired here can expire.
    let pinned = epoch::pin();
    for popped in 1..=N {
        stack.pop().expect("stack has elements");
        assert_eq!(recycle_backlog(), popped, "one bagged node per pop");
    }
    drop(pinned);
    assert!(drain_backlog(), "the bag drains once unpinned");
}

/// The thread-exit path, alone: a fresh thread retires five stack nodes
/// without reaching an advance cadence (11 outermost pins, the cadence is
/// 128) and exits, which flushes its retirement count and orphans its bag
/// whole. After the join the count is fully visible, and the orphans are
/// recycled by an advance attempt on *this* thread — an attempt skips the
/// orphan list's lock while the list is known to be empty, so this is the
/// other side of that shortcut: it must notice the list no longer is.
#[test]
fn an_exited_threads_count_is_visible_and_its_orphans_are_recycled_elsewhere() {
    let _guard = serial();
    assert!(drain_backlog(), "could not drain pre-existing garbage");
    let retired = epoch::recycle_retired_count();
    let recycled = epoch::recycled_count();
    const N: usize = 5;
    std::thread::spawn(|| {
        let stack = TreiberStack::new();
        for v in 0..N {
            stack.push(v);
        }
        while stack.pop().is_some() {}
    })
    .join()
    .expect("retiring thread panicked");

    assert_eq!(
        epoch::recycle_retired_count(),
        retired + N,
        "thread exit flushes the per-thread retirement count"
    );
    assert_eq!(
        epoch::recycled_count(),
        recycled,
        "nothing expired before the thread exited: its bag was orphaned whole"
    );
    assert!(
        collect_until(|| epoch::recycled_count() == recycled + N),
        "orphaned nodes were never scavenged: {} recycled, expected {}",
        epoch::recycled_count(),
        recycled + N
    );
    assert_eq!(recycle_backlog(), 0);
}

/// The collector's private constants, restated: one retirement reclaims at
/// most two expired nodes, and an unblocked thread attempts an advance every
/// 64 retirements. A backlog of `n` needs its two advances — at most two
/// cadences — and then `n / 2` retirements.
fn retirements_to_drain(n: usize) -> usize {
    n / 2 + 2 * 64
}

/// Push/pop pairs on a fresh stack — one retirement each, no `flush` —
/// until `recycled_count()` reaches `target`. Returns the pairs it took
/// (giving up, for the caller's bound to fail, at a million).
fn pairs_until_recycled(target: usize) -> usize {
    let stack = TreiberStack::new();
    let mut pairs = 0;
    while epoch::recycled_count() < target && pairs < 1_000_000 {
        stack.push(pairs);
        assert_eq!(stack.pop(), Some(pairs));
        pairs += 1;
    }
    pairs
}

/// The blocked epoch: a second thread parks while pinned (channels, no
/// sleeps), so the epoch can advance once and never twice. The retiring
/// thread must neither reclaim anything early — its backlog equals its
/// retirements exactly — nor stop: every operation completes, whatever the
/// bag holds. Once the straggler unpins, ordinary operations with no
/// `flush` recycle the whole blocked backlog, oldest first, within
/// [`retirements_to_drain`].
#[test]
fn a_parked_pinned_straggler_delays_reclamation_but_never_an_operation() {
    let _guard = serial();
    assert!(drain_backlog(), "could not drain pre-existing garbage");
    assert_eq!(recycle_backlog(), 0);
    let recycled = epoch::recycled_count();

    let (pinned_tx, pinned_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let straggler = std::thread::spawn(move || {
        let pinned = epoch::pin();
        pinned_tx.send(()).expect("test thread gone");
        release_rx.recv().expect("test thread gone");
        drop(pinned);
    });
    pinned_rx.recv().expect("straggler panicked");

    const N: usize = 1_000; // well past the collector's high-water mark
    let stack = TreiberStack::new();
    for op in 1..=N {
        stack.push(op);
        assert_eq!(stack.pop(), Some(op), "a blocked epoch delays no operation");
        assert_eq!(recycle_backlog(), op, "nothing retired here may expire");
    }
    assert_eq!(epoch::recycled_count(), recycled);

    release_tx.send(()).expect("straggler gone");
    straggler.join().expect("straggler panicked");
    let pairs = pairs_until_recycled(recycled + N);
    assert!(
        pairs <= retirements_to_drain(N),
        "the blocked backlog of {N} took {pairs} further operations to drain"
    );
}

/// One pin, many retirements: `dequeue_batch`/`pop_n` retire a node per
/// element under a single guard, which pins the thread in their retirement
/// epoch — the whole batch stays bagged. Later pairs drain it with no
/// `flush`, within [`retirements_to_drain`].
#[test]
fn a_batch_under_one_pin_leaves_a_backlog_that_later_pairs_drain() {
    let _guard = serial();
    const N: usize = 10_000;

    assert!(drain_backlog(), "could not drain pre-existing garbage");
    let recycled = epoch::recycled_count();
    let queue = LockFreeQueue::new();
    queue.enqueue_batch(0..N);
    assert_eq!(queue.dequeue_batch(N).len(), N);
    assert_eq!(
        recycle_backlog(),
        N,
        "a batch reclaims none of its own nodes"
    );
    let pairs = pairs_until_recycled(recycled + N);
    assert!(
        pairs <= retirements_to_drain(N),
        "dequeue_batch({N})'s backlog took {pairs} pairs to drain"
    );

    assert!(drain_backlog(), "could not drain the pairs' own garbage");
    let recycled = epoch::recycled_count();
    let stack = TreiberStack::new();
    stack.push_n(0..N);
    assert_eq!(stack.pop_n(N).len(), N);
    assert_eq!(
        recycle_backlog(),
        N,
        "a batch reclaims none of its own nodes"
    );
    let pairs = pairs_until_recycled(recycled + N);
    assert!(
        pairs <= retirements_to_drain(N),
        "pop_n({N})'s backlog took {pairs} pairs to drain"
    );
}

/// Multi-threaded churn: concurrent producers/consumers with collection
/// interleaved; afterwards every payload was dropped exactly once and the
/// retired-node backlog drains to zero — the bounded-memory property the
/// paper needs for long-running embedded workloads. With the pool, "drains"
/// means recycled, not freed: blocks park in thread caches and the overflow
/// stack instead of going back to the allocator.
#[test]
fn concurrent_churn_reclaims_everything_exactly_once() {
    let _guard = serial();
    const THREADS: usize = 4;
    const PER_THREAD: usize = 5_000;
    let drops = Arc::new(AtomicUsize::new(0));
    let queue = Arc::new(LockFreeQueue::new());

    let producers: Vec<_> = (0..THREADS)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    queue.enqueue(CountOnDrop(Arc::clone(&drops)));
                }
            })
        })
        .collect();
    let consumed = Arc::new(AtomicUsize::new(0));
    let consumers: Vec<_> = (0..THREADS)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let consumed = Arc::clone(&consumed);
            std::thread::spawn(move || {
                while consumed.load(Ordering::Relaxed) < THREADS * PER_THREAD {
                    if let Some(v) = queue.dequeue() {
                        drop(v);
                        consumed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        })
        .collect();
    for h in producers {
        h.join().expect("producer panicked");
    }
    for h in consumers {
        h.join().expect("consumer panicked");
    }

    assert_eq!(
        drops.load(Ordering::Relaxed),
        THREADS * PER_THREAD,
        "every payload dropped exactly once despite deferred node recycling"
    );
    // The backlog of retired-but-unreclaimed nodes must drain completely
    // once all threads are quiescent: bounded memory, not a slow leak.
    assert!(
        drain_backlog(),
        "retired-node backlog failed to drain: {} retired / {} destroyed, {} recycle-retired / {} recycled",
        epoch::retired_count(),
        epoch::destroyed_count(),
        epoch::recycle_retired_count(),
        epoch::recycled_count()
    );
}
