//! The one-operation cost ledger: micro-loops over the tolls a push or pop
//! pays on top of its CAS, each measured from outside through the toll's
//! own public function, on one thread.
//!
//! `stack_ns = bare_cas_ns + tolls_sum_ns + unaccounted_ns` by
//! construction. The tolls that *can* be called from outside are the epoch
//! pin, the `OpStats` attempt and the disabled `CasOp`; the pool's recycle
//! path and the reclaimer's defer are crate-private, so their cost stays in
//! `unaccounted_ns` — reported, not hidden — until in-program tracing
//! (a later change) can see them.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam::epoch;
use lfrt_lockfree::{OpStats, TreiberStack};
use lfrt_trace::{CasOp, EventKind, Site};
use lfrt_tuf::Tuf;

use crate::obj::RESIDENT;
use crate::stats::Estimate;

/// Calls per timed batch of a micro-loop.
const CALLS: usize = 20_000;
/// Batches a micro-loop takes however little time it was given.
const MIN_BATCHES: usize = 3;
const NIL: usize = usize::MAX;

/// Undisturbed ns per call of `call`, from batches of `calls` for `seconds`.
fn micro_batched(seconds: f64, calls: usize, mut call: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0;
    while samples.len() < MIN_BATCHES || started.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        for _ in 0..calls {
            call(i);
            i += 1;
        }
        samples.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    Estimate::Undisturbed.of(&samples)
}

fn micro(seconds: f64, call: impl FnMut(u64)) -> f64 {
    micro_batched(seconds, CALLS, call)
}

/// A Treiber stack with nothing but the CAS: nodes are slots of a fixed
/// arena linked by index, free slots sit in a plain `Vec`. No epoch, no
/// pool, no counters, no trace hooks. One thread only (a slot is reused at
/// once, which a concurrent pop could not tolerate).
struct BareStack {
    head: AtomicUsize,
    next: Vec<AtomicUsize>,
    value: Vec<AtomicU64>,
    free: Vec<usize>,
}

impl BareStack {
    fn new(slots: usize) -> Self {
        Self {
            head: AtomicUsize::new(NIL),
            next: (0..slots).map(|_| AtomicUsize::new(NIL)).collect(),
            value: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            free: (0..slots).collect(),
        }
    }

    fn push(&mut self, value: u64) {
        let slot = self.free.pop().expect("arena sized for the loop");
        self.value[slot].store(value, Ordering::Relaxed);
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            self.next[slot].store(head, Ordering::Relaxed);
            match self
                .head
                .compare_exchange(head, slot, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => head = seen,
            }
        }
    }

    fn pop(&mut self) -> Option<u64> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            if head == NIL {
                return None;
            }
            let next = self.next[head].load(Ordering::Relaxed);
            match self
                .head
                .compare_exchange(head, next, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => {
                    self.free.push(head);
                    return Some(self.value[head].load(Ordering::Relaxed));
                }
                Err(seen) => head = seen,
            }
        }
    }
}

/// Every toll, in ns per call unless the name says otherwise.
#[derive(Debug)]
pub struct Ledger {
    /// Per push or pop (pair time / 2), like `stack_ns`.
    pub bare_cas_ns: f64,
    pub pin_ns: f64,
    pub pin_nested_ns: f64,
    pub attempt_ns: f64,
    pub snapshot_ns: f64,
    pub flag_check_ns: f64,
    pub casop_off_ns: f64,
    pub now_ns: f64,
    pub emit_on_ns: f64,
    /// Pooled-stack pair time with the recorder on over off.
    pub stack_on_over_off: f64,
    /// Per element moved by `push_n` / `pop_n` of 16.
    pub stack_batch_ns: f64,
    pub tuf_utility_ns: f64,
}

impl Ledger {
    /// The tolls one uncontended push or pop pays once each.
    pub fn tolls_sum_ns(&self) -> f64 {
        self.pin_ns + self.attempt_ns + self.casop_off_ns
    }

    /// Runs every micro-loop, `seconds` in total. Turns the flight recorder
    /// on for the two loops that measure it and leaves it off and drained.
    pub fn measure(seconds: f64) -> Self {
        let each = seconds / 13.0;

        let mut bare = BareStack::new(RESIDENT as usize + 1);
        let stack = TreiberStack::new();
        let batched = TreiberStack::new();
        for i in 0..RESIDENT {
            bare.push(i);
            stack.push(i);
            batched.push(i);
        }
        let bare_pair = micro(each, |i| {
            bare.push(i);
            black_box(bare.pop());
        });
        let stack_pair = |seconds| {
            micro(seconds, |i| {
                stack.push(i);
                black_box(stack.pop());
            })
        };
        let stack_off = stack_pair(each);

        let outer = epoch::pin();
        let pin_nested_ns = micro(each, |_| drop(black_box(epoch::pin())));
        drop(outer);
        let stats = OpStats::new();
        let tuf = Tuf::parabolic(10.0, 100_000).expect("positive peak and critical time");

        let mut ledger = Self {
            bare_cas_ns: bare_pair / 2.0,
            pin_ns: micro(each, |_| drop(black_box(epoch::pin()))),
            pin_nested_ns,
            attempt_ns: micro(each, |_| stats.attempt()),
            snapshot_ns: micro(each, |_| {
                black_box(stats.snapshot());
            }),
            flag_check_ns: micro(each, |_| {
                black_box(lfrt_trace::enabled());
            }),
            casop_off_ns: micro(each, |_| {
                let mut op = CasOp::start(black_box(Site::StackPush));
                op.attempt();
                op.success();
            }),
            now_ns: micro(each, |_| {
                black_box(lfrt_trace::now_ns());
            }),
            emit_on_ns: 0.0,
            stack_on_over_off: 0.0,
            // 32 operations a call, so 1/16 of the calls a batch.
            stack_batch_ns: micro_batched(each, CALLS / 16, |i| {
                batched.push_n((0..16).map(|k| i + k));
                black_box(batched.pop_n(16));
            }) / 32.0,
            tuf_utility_ns: micro(each, |i| {
                black_box(tuf.utility(black_box(i % 120_000)));
            }),
        };

        lfrt_trace::set_enabled(true);
        ledger.emit_on_ns = micro(each, |i| {
            lfrt_trace::emit(EventKind::CasAttempt, Site::StackPush, i);
        });
        ledger.stack_on_over_off = stack_pair(each) / stack_off;
        lfrt_trace::set_enabled(false);
        // The rings overwrite their oldest events; empty them so nothing of
        // this phase outlives it.
        drop(lfrt_trace::drain());
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_stack_is_a_stack() {
        let mut stack = BareStack::new(3);
        assert_eq!(stack.pop(), None);
        stack.push(1);
        stack.push(2);
        assert_eq!(stack.pop(), Some(2));
        stack.push(3);
        stack.push(4);
        assert_eq!(
            [stack.pop(), stack.pop(), stack.pop(), stack.pop()],
            [Some(4), Some(3), Some(1), None]
        );
    }

    #[test]
    fn micro_reports_a_positive_cost_and_calls_in_sequence() {
        let mut seen = 0;
        let ns = micro(0.0, |i| {
            assert_eq!(i, seen);
            seen += 1;
        });
        assert!(ns >= 0.0);
        assert_eq!(seen, (MIN_BATCHES * CALLS) as u64);
    }
}
