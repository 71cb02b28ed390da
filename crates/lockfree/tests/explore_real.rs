//! The interleaving explorer over this crate's *own source files*.
//!
//! `ring.rs`, `register.rs`, `mpmc.rs` and `snapshot.rs` take their atomics
//! and their unsynchronised cell from `crate::sync`. Here the same files are
//! included with `crate::sync` bound to `lfrt_interleave::sync`, so every
//! atomic and slot access of the code the library ships is one scheduled
//! step under the ordering it names — no mirror to keep faithful. (The
//! files' own unit tests run here too: real threads over the instrumented
//! types, outside any model.) Demoting an ordering in `ring.rs`/`mpmc.rs`
//! fails these tests with a replayable schedule (CHANGES.md, PR 15, lists
//! each one tried); the last test keeps that mode hierarchy as a control.

mod sync {
    pub use lfrt_interleave::sync::*;
}
mod stats {
    pub use lfrt_lockfree::OpStats;
}
// The whole of each file is compiled; the scenarios drive part of it.
#[allow(dead_code)]
#[path = "../src/mpmc.rs"]
mod mpmc;
#[allow(dead_code)]
#[path = "../src/register.rs"]
mod register;
#[allow(dead_code)]
#[path = "../src/ring.rs"]
mod ring;
#[allow(dead_code)]
#[path = "../src/snapshot.rs"]
mod snapshot;

use std::sync::{Arc, Mutex};

use lfrt_interleave::linear::assert_linearizable;
use lfrt_interleave::spec::{
    BoundedOp, BoundedQueueSpec, BoundedRet, RegisterOp, RegisterRet, RegisterSpec,
};
use lfrt_interleave::{explore, Config, History, Plan};

use mpmc::BoundedMpmcQueue;
use register::CasRegister;
use ring::spsc_ring;
use snapshot::AtomicSnapshot;
use sync::{AtomicUsize, Ordering, UnsafeCell};

/// The store-buffer config and the relaxed one (deeper on the nightly job).
fn weak_modes(weak: &'static str, relaxed: &'static str) -> [Config; 2] {
    [
        Config::store_buffer(weak),
        Config::relaxed_extended(relaxed),
    ]
}

/// Explores `scenario`, which must pass and visit at least `floor`
/// schedules — the count of the hand-written mirror this replaced, so the
/// real code is never checked over a smaller space than its copy was.
fn passes(config: &Config, floor: usize, scenario: impl FnMut() -> Plan) -> (usize, usize) {
    let report = explore(config, scenario);
    report.assert_ok();
    assert!(
        report.schedules >= floor,
        "{}: {} schedules, the mirror explored {floor}",
        config.name,
        report.schedules
    );
    (report.schedules, report.pruned)
}

/// Two pushes on one thread against two pops on another, recorded for the
/// Wing–Gong check against a bounded FIFO of `capacity`.
fn bounded_fifo_history(
    capacity: usize,
    mut push: impl FnMut(u64) -> bool + Send + 'static,
    mut pop: impl FnMut() -> Option<u64> + Send + 'static,
) -> Plan {
    let history: Arc<History<BoundedOp, BoundedRet>> = Arc::new(History::new());
    let (hp, hc) = (Arc::clone(&history), Arc::clone(&history));
    Plan::new()
        .thread(move || {
            for v in [1, 2] {
                let t = hp.begin(0, BoundedOp::Push(v));
                let fit = push(v);
                hp.end(t, BoundedRet::Pushed(fit));
            }
        })
        .thread(move || {
            for _ in 0..2 {
                let t = hc.begin(1, BoundedOp::Pop);
                let got = pop();
                hc.end(t, BoundedRet::Popped(got));
            }
        })
        .check(move || assert_linearizable(&BoundedQueueSpec::new(capacity), &history.completed()))
}

/// One thread pushes `values` (each must fit), another pops as many times;
/// what was popped plus what the post-check drains is `values`, each exactly
/// once — and no slot access was a data race.
fn conserves(
    values: &'static [u64],
    mut push: impl FnMut(u64) -> bool + Send + 'static,
    pop: impl FnMut() -> Option<u64> + Send + 'static,
) -> Plan {
    let pop = Arc::new(Mutex::new(pop));
    let popped = Arc::new(Mutex::new(Vec::new()));
    let (consumer, out) = (Arc::clone(&pop), Arc::clone(&popped));
    Plan::new()
        .thread(move || {
            values
                .iter()
                .for_each(|&v| assert!(push(v), "{v} must fit"))
        })
        .thread(move || {
            let mut pop = consumer.lock().unwrap();
            let got: Vec<u64> = values.iter().filter_map(|_| (*pop)()).collect();
            *out.lock().unwrap() = got;
        })
        .check(move || {
            let mut seen = popped.lock().unwrap().clone();
            let mut pop = pop.lock().unwrap();
            seen.extend(std::iter::from_fn(|| (*pop)()));
            seen.sort_unstable();
            assert_eq!(seen, values, "elements lost, duplicated or torn");
        })
}

fn ring_conserves_one() -> Plan {
    let (mut tx, mut rx) = spsc_ring::<u64>(1);
    conserves(&[7], move |v| tx.push(v).is_ok(), move || rx.pop())
}

#[test]
fn spsc_ring_linearizes_and_is_sound_under_weak_memory() {
    passes(&Config::exhaustive("lin-spsc-ring"), 654, || {
        let (mut tx, mut rx) = spsc_ring::<u64>(1);
        bounded_fifo_history(1, move |v| tx.push(v).is_ok(), move || rx.pop())
    });
    for config in weak_modes("spsc-ring-weak", "spsc-ring-relaxed") {
        passes(&config, 56, ring_conserves_one);
    }
}

/// The schedule tree is a pure function of the decisions: repeats visit the
/// same number of schedules (and CI diffs a `taskset -c 0` run's count lines
/// against an unpinned one). Both threads *start* with a `Relaxed` load of an
/// untouched cell, the shape that once made location numbering depend on
/// real-thread timing (ROADMAP item 1).
#[test]
fn spsc_ring_exploration_is_schedule_determined() {
    let config = Config::relaxed_extended("spsc-ring-repeat");
    let counts: Vec<_> = (0..20)
        .map(|_| passes(&config, 56, ring_conserves_one))
        .collect();
    assert!(
        counts.iter().all(|c| *c == counts[0]),
        "schedule counts differ across repeats: {counts:?}"
    );
}

fn register_two_increments() -> Plan {
    let reg = Arc::new(CasRegister::new(0));
    let mut plan = Plan::new();
    for _ in 0..2 {
        let reg = Arc::clone(&reg);
        plan = plan.thread(move || {
            reg.update(|v| v + 1);
        });
    }
    plan.check(move || assert_eq!(reg.load(), 2, "lost update"))
}

#[test]
fn cas_register_linearizes_and_is_sound_under_weak_memory() {
    passes(&Config::exhaustive("lin-register"), 34, || {
        let reg = Arc::new(CasRegister::new(0));
        let history: Arc<History<RegisterOp, RegisterRet>> = Arc::new(History::new());
        let mut plan = Plan::new();
        for (tid, k) in [(0, 1), (1, 2)] {
            let (r, h) = (Arc::clone(&reg), Arc::clone(&history));
            plan = plan.thread(move || {
                let t = h.begin(tid, RegisterOp::Add(k));
                let prev = r.update(|v| v + k);
                h.end(t, RegisterRet::Replaced(prev));
            });
        }
        let h = Arc::clone(&history);
        plan.thread(move || {
            let t = h.begin(2, RegisterOp::Load);
            let v = reg.load();
            h.end(t, RegisterRet::Value(v));
        })
        .check(move || assert_linearizable(&RegisterSpec::new(0), &history.completed()))
    });
    for config in weak_modes("cas-register-weak", "cas-register-relaxed") {
        passes(&config, 6, register_two_increments);
    }
}

/// `values` through a `BoundedMpmcQueue::new(capacity)`.
fn mpmc_conserves(capacity: usize, values: &'static [u64]) -> Plan {
    let queue = Arc::new(BoundedMpmcQueue::new(capacity));
    let consumer = Arc::clone(&queue);
    conserves(
        values,
        move |v| queue.push(v).is_ok(),
        move || consumer.pop(),
    )
}

#[test]
fn bounded_mpmc_linearizes_and_is_sound_under_weak_memory() {
    passes(&Config::preemptions("lin-mpmc", 3), 182, || {
        // Internal capacity 2 (the algorithm's minimum); the spec matches.
        let queue = Arc::new(BoundedMpmcQueue::new(2));
        let consumer = Arc::clone(&queue);
        bounded_fifo_history(2, move |v| queue.push(v).is_ok(), move || consumer.pop())
    });
    for config in weak_modes("mpmc-weak", "mpmc-relaxed") {
        passes(&config, 21, || mpmc_conserves(2, &[9]));
    }
}

/// The regression the explorer earned its keep on: `BoundedMpmcQueue::new(1)`
/// used to build a single-slot ring, where the second push claims the
/// unconsumed first element's slot (its published sequence equals the next
/// ticket), losing the element and then livelocking `pop`. `new` floors the
/// ring at two slots: push/push against pop/pop on the real queue fits both
/// elements and conserves them in every interleaving.
#[test]
fn mpmc_capacity_one_conserves_both_elements() {
    let config = Config::preemptions("mpmc-cap1-regression", 3);
    passes(&config, 1, || mpmc_conserves(1, &[1, 2]));
}

/// Never had a mirror. The writer sets cell 0, then cell 1; a scan that
/// returned `[0, 1]` would show the second write without the first — a view
/// that never existed.
#[test]
fn snapshot_scan_never_shows_the_second_write_alone() {
    for config in [
        Config::exhaustive("snapshot-sc"),
        Config::store_buffer("snapshot-weak"),
        Config::relaxed_extended("snapshot-relaxed"),
    ] {
        passes(&config, 1, || {
            let snap = Arc::new(AtomicSnapshot::new(2));
            let writer = Arc::clone(&snap);
            Plan::new()
                .thread(move || {
                    writer.write(0, 1);
                    writer.write(1, 1);
                })
                .thread(move || assert_ne!(snap.scan(), [0, 1], "a view that never existed"))
        });
    }
}

/// A cell and the flag that hands it over.
struct Handoff(UnsafeCell<u64>, AtomicUsize);

// SAFETY: the claim under test — the flag orders every access of the cell.
// Where it does not, the cell panics before the closure touches the payload.
unsafe impl Sync for Handoff {}

/// One thread fills the cell and raises the flag with `publish`; the other
/// reads the cell once it has seen the flag with `observe`.
fn handoff(publish: Ordering, observe: Ordering) -> Plan {
    let writer = Arc::new(Handoff(UnsafeCell::new(0), AtomicUsize::new(0)));
    let reader = Arc::clone(&writer);
    Plan::new()
        .thread(move || {
            // SAFETY: nobody reads the cell before the flag is up.
            writer.0.with_mut(|p| unsafe { *p = 42 });
            writer.1.store(1, publish);
        })
        .thread(move || {
            if reader.1.load(observe) == 1 {
                // SAFETY: the flag is up, the writer is done with the cell.
                assert_eq!(reader.0.with(|p| unsafe { *p }), 42);
            }
        })
}

/// The facade's negative control: a cell read fails exactly where the mode
/// allows a stale one — `Relaxed` publication under store-buffer and
/// relaxed, a `Relaxed` observer under relaxed only, neither under SC.
#[test]
fn cell_reads_fail_exactly_where_the_mode_allows_a_stale_one() {
    use Ordering::{Acquire, Relaxed, Release};
    for (publish, observe, caught) in [
        (Release, Acquire, [false, false, false]),
        (Relaxed, Acquire, [false, true, true]),
        (Release, Relaxed, [false, false, true]),
    ] {
        let modes = [Config::exhaustive, Config::store_buffer, Config::relaxed];
        for (config, caught) in modes.map(|mode| mode("cell-handoff")).iter().zip(caught) {
            let report = explore(config, || handoff(publish, observe));
            if !caught {
                report.assert_ok();
                continue;
            }
            let failure = report.assert_fails();
            assert!(failure.message.contains("data race"), "{failure:?}");
        }
    }
}
