//! The shared-object measurements: every structure of `lfrt-lockfree` driven
//! from outside through its public push/pop (enqueue/dequeue,
//! insert/remove) functions, by one thread or by `T` worker threads on one
//! shared instance.
//!
//! All loops are closed: a worker issues its next operation when the
//! previous one returned. Each structure holds [`RESIDENT`] pre-filled
//! elements, so a pop never finds it empty and no operation of the
//! workload can fail; a `None`, an `Err`, a broken FIFO/LIFO order or a
//! payload that is not conserved is a counted failure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crossbeam::epoch;
use lfrt_lockfree::{
    spsc_ring, BoundedMpmcQueue, LockFreeList, LockFreeQueue, LockedQueue, LockedStack, PoolStats,
    RawPool, ShardedMpmcQueue, StatsSnapshot, TreiberStack,
};

use crate::alloc_count::thread_allocs;
use crate::rng::SplitMix64;
use crate::stats::percentile_sorted;

/// Elements resident in every structure while it is measured.
pub const RESIDENT: u64 = 64;
/// Push/pop pairs per timed batch.
pub const BATCH_PAIRS: usize = 10_000;
/// Untimed pairs a thread runs before its first timed batch, so its pool
/// cache, epoch record and stripe index exist.
const WARM_PAIRS: usize = 2_000;
/// Tail percentiles are taken per block of this many individually timed
/// operations, and the blocks estimated like any other samples: one
/// descheduled block moves nothing.
const TAIL_BLOCK: usize = 50_000;
/// Fill depth of the burst pattern (beyond the resident elements).
const BURST_DEPTH: usize = 4_096;
/// Ring capacity of the bounded queues.
const BOUNDED_CAPACITY: usize = 1_024;

/// What a single thread may assert about the order of its pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    Fifo,
    Lifo,
    Unordered,
}

/// A structure under test, seen through push and pop.
pub trait Subject: Sync {
    const ORDER: Order;
    fn push(&self, value: u64) -> bool;
    /// `pushed` is the value the caller's matching push inserted; only the
    /// keyed list needs it (to remove the key it inserted).
    fn pop(&self, pushed: u64) -> Option<u64>;
    fn counters(&self) -> Option<StatsSnapshot> {
        None
    }
    fn pool(&self) -> Option<&'static RawPool> {
        None
    }
    /// Makes [`RESIDENT`] elements resident and returns the payloads that
    /// a later [`Subject::drain`] will hand back.
    fn prefill(&self, base: u64) -> Tally {
        let mut resident = Tally::default();
        for i in 0..RESIDENT {
            let value = base.wrapping_add(i);
            assert!(self.push(value), "pre-fill refused");
            resident.add(value);
        }
        resident
    }
    /// Empties the structure (called once no worker is running) and
    /// returns the payloads found, or `None` if what was left is not what
    /// a correct structure leaves.
    fn drain(&self) -> Option<Tally> {
        drain_with(|| self.pop(0))
    }
}

/// Pops until `pop` finds nothing; `None` unless exactly the resident
/// elements were left.
fn drain_with(mut pop: impl FnMut() -> Option<u64>) -> Option<Tally> {
    let mut left = Tally::default();
    while let Some(value) = pop() {
        left.add(value);
        if left.count > RESIDENT {
            return None;
        }
    }
    (left.count == RESIDENT).then_some(left)
}

impl Subject for LockFreeQueue<u64> {
    const ORDER: Order = Order::Fifo;
    #[inline]
    fn push(&self, value: u64) -> bool {
        self.enqueue(value);
        true
    }
    #[inline]
    fn pop(&self, _pushed: u64) -> Option<u64> {
        self.dequeue()
    }
    fn counters(&self) -> Option<StatsSnapshot> {
        Some(self.stats().snapshot())
    }
    fn pool(&self) -> Option<&'static RawPool> {
        Some(self.node_pool())
    }
}

impl Subject for TreiberStack<u64> {
    const ORDER: Order = Order::Lifo;
    #[inline]
    fn push(&self, value: u64) -> bool {
        TreiberStack::push(self, value);
        true
    }
    #[inline]
    fn pop(&self, _pushed: u64) -> Option<u64> {
        TreiberStack::pop(self)
    }
    fn counters(&self) -> Option<StatsSnapshot> {
        Some(self.stats().snapshot())
    }
    fn pool(&self) -> Option<&'static RawPool> {
        Some(self.node_pool())
    }
}

impl Subject for LockedQueue<u64> {
    const ORDER: Order = Order::Fifo;
    #[inline]
    fn push(&self, value: u64) -> bool {
        self.enqueue(value);
        true
    }
    #[inline]
    fn pop(&self, _pushed: u64) -> Option<u64> {
        self.dequeue()
    }
}

impl Subject for LockedStack<u64> {
    const ORDER: Order = Order::Lifo;
    #[inline]
    fn push(&self, value: u64) -> bool {
        LockedStack::push(self, value);
        true
    }
    #[inline]
    fn pop(&self, _pushed: u64) -> Option<u64> {
        LockedStack::pop(self)
    }
}

/// Attempts a bounded queue gets before an operation counts as refused.
const INSIST_LIMIT: usize = 1_000_000;

/// Repeats a bounded-queue operation until it is accepted. The sequence-
/// stamped ring reports "empty" (or "full") while a peer that has claimed
/// a slot is preempted before publishing it — with two workers on two CPUs
/// that happens every few milliseconds — so a closed-loop client retries;
/// only [`INSIST_LIMIT`] refusals in a row are a failure, never a hang.
#[inline]
fn insist<T>(mut attempt: impl FnMut() -> Option<T>) -> Option<T> {
    for tries in 0..INSIST_LIMIT {
        if let Some(done) = attempt() {
            return Some(done);
        }
        if tries < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    None
}

impl Subject for BoundedMpmcQueue<u64> {
    const ORDER: Order = Order::Fifo;
    #[inline]
    fn push(&self, value: u64) -> bool {
        insist(|| BoundedMpmcQueue::push(self, value).ok()).is_some()
    }
    #[inline]
    fn pop(&self, _pushed: u64) -> Option<u64> {
        insist(|| BoundedMpmcQueue::pop(self))
    }
    /// Empty is the expected end of a drain, not a refusal to wait out.
    fn drain(&self) -> Option<Tally> {
        drain_with(|| BoundedMpmcQueue::pop(self))
    }
    fn counters(&self) -> Option<StatsSnapshot> {
        Some(self.stats().snapshot())
    }
}

impl Subject for ShardedMpmcQueue<u64> {
    /// One thread always hits its home shard, so it sees FIFO.
    const ORDER: Order = Order::Fifo;
    #[inline]
    fn push(&self, value: u64) -> bool {
        insist(|| ShardedMpmcQueue::push(self, value).ok()).is_some()
    }
    #[inline]
    fn pop(&self, _pushed: u64) -> Option<u64> {
        insist(|| ShardedMpmcQueue::pop(self))
    }
    fn drain(&self) -> Option<Tally> {
        drain_with(|| ShardedMpmcQueue::pop(self))
    }
    fn counters(&self) -> Option<StatsSnapshot> {
        Some(self.stats_snapshot())
    }
}

/// The sorted list as a push/pop subject: the resident elements are the
/// even keys below `2 * RESIDENT`; a push inserts an odd key between them
/// and the matching pop removes it again. Each worker owns a disjoint set
/// of odd keys, visited in seed order.
pub struct KeyedList {
    list: LockFreeList,
    base: u64,
    threads: u64,
    /// Seed-shuffled `0..RESIDENT`: position → which odd key.
    order: Vec<u64>,
}

impl KeyedList {
    fn key(&self, value: u64) -> u64 {
        // `value - base - RESIDENT` is `worker + k * threads` (see `Rig::new`).
        let ticket = value.wrapping_sub(self.base).wrapping_sub(RESIDENT);
        let (round, worker) = (ticket / self.threads, ticket % self.threads);
        let slot = (round % (RESIDENT / self.threads)) * self.threads + worker;
        2 * self.order[slot as usize] + 1
    }
}

impl Subject for KeyedList {
    const ORDER: Order = Order::Lifo;
    #[inline]
    fn push(&self, value: u64) -> bool {
        self.list.insert(self.key(value))
    }
    #[inline]
    fn pop(&self, pushed: u64) -> Option<u64> {
        self.list.remove(self.key(pushed)).then_some(pushed)
    }
    fn counters(&self) -> Option<StatsSnapshot> {
        Some(self.list.stats().snapshot())
    }
    fn pool(&self) -> Option<&'static RawPool> {
        Some(self.list.node_pool())
    }
    /// The residents are keys, not payloads a pop can return.
    fn prefill(&self, _base: u64) -> Tally {
        for key in 0..RESIDENT {
            assert!(self.list.insert(2 * key), "list pre-fill refused");
        }
        Tally::default()
    }
    fn drain(&self) -> Option<Tally> {
        let residents: Vec<u64> = (0..RESIDENT).map(|key| 2 * key).collect();
        (self.list.to_vec() == residents).then_some(Tally::default())
    }
}

/// Count, wrapping sum and xor of a multiset of payloads.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub count: u64,
    sum: u64,
    xor: u64,
}

impl Tally {
    #[inline]
    fn add(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.xor ^= value;
    }

    fn merge(&mut self, other: Tally) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
    }
}

/// One worker's place in a structure's payload sequence: it pushes
/// `next, next + stride, …`; with one worker the sequence continues the
/// pre-fill, which is what makes the FIFO check exact.
#[derive(Debug)]
struct Driver {
    next: u64,
    stride: u64,
    /// The payload a FIFO pop must return next (single-threaded only).
    expect: u64,
    order: Order,
    pushed: Tally,
    popped: Tally,
    refused: u64,
    misordered: u64,
}

impl Driver {
    #[inline(always)]
    fn pair<S: Subject>(&mut self, subject: &S) {
        let value = self.next;
        self.next = value.wrapping_add(self.stride);
        self.push(subject, value);
        self.pop(subject, value);
    }

    #[inline(always)]
    fn push<S: Subject>(&mut self, subject: &S, value: u64) {
        if subject.push(value) {
            self.pushed.add(value);
        } else {
            self.refused += 1;
        }
    }

    #[inline(always)]
    fn pop<S: Subject>(&mut self, subject: &S, pushed: u64) {
        let Some(got) = subject.pop(pushed) else {
            self.refused += 1;
            return;
        };
        self.popped.add(got);
        match self.order {
            Order::Fifo => {
                self.misordered += u64::from(got != self.expect);
                self.expect = got.wrapping_add(1);
            }
            Order::Lifo => self.misordered += u64::from(got != pushed),
            Order::Unordered => {}
        }
    }

    fn pairs<S: Subject>(&mut self, subject: &S, count: usize) {
        for _ in 0..count {
            self.pair(subject);
        }
    }

    /// Fills `depth` elements, then drains as many. A LIFO drain returns
    /// the fill in reverse, so only FIFO order is checked here.
    fn burst<S: Subject>(&mut self, subject: &S, depth: usize) {
        let lifo = self.order == Order::Lifo;
        if lifo {
            self.order = Order::Unordered;
        }
        let first = self.next;
        for _ in 0..depth {
            let value = self.next;
            self.next = value.wrapping_add(self.stride);
            self.push(subject, value);
        }
        for _ in 0..depth {
            self.pop(subject, first);
        }
        if lifo {
            self.order = Order::Lifo;
        }
    }
}

/// The access pattern of a timed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// [`BATCH_PAIRS`] push/pop pairs.
    Pairs,
    /// Fill [`BURST_DEPTH`], then drain it: the pool's spill/refill path.
    Burst,
}

impl Pattern {
    fn ops_per_batch(self) -> usize {
        match self {
            Pattern::Pairs => 2 * BATCH_PAIRS,
            Pattern::Burst => 2 * BURST_DEPTH,
        }
    }
}

/// What one timed pass over a structure produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// ns per operation, one sample per batch, all workers.
    pub ns_per_op: Vec<f64>,
    /// (worker, batch start, batch end) for the span log.
    pub batches: Vec<(u32, Instant, Instant)>,
    pub ops: u64,
    /// Global-allocator calls made by the workers inside timed batches.
    pub allocs: u64,
    pub attempts: u64,
    pub retries: u64,
    pub pool: PoolDelta,
    /// Nodes handed to the epoch reclaimer during the pass.
    pub retired: u64,
    /// Largest retired-but-not-yet-recycled count seen at a batch end.
    pub backlog_peak: u64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct PoolDelta {
    pub hits: u64,
    pub misses: u64,
    pub spills: u64,
    pub refills: u64,
}

impl PoolDelta {
    fn between(before: PoolStats, after: PoolStats) -> Self {
        Self {
            hits: (after.hits - before.hits) as u64,
            misses: (after.misses - before.misses) as u64,
            spills: (after.spills - before.spills) as u64,
            refills: (after.refills - before.refills) as u64,
        }
    }
}

/// A structure, its workers' drivers and the payloads it was pre-filled
/// with: everything needed to measure it and then prove nothing was lost.
pub struct Rig<S> {
    subject: S,
    drivers: Vec<Driver>,
    prefill: Tally,
}

impl<S: Subject> Rig<S> {
    /// Pre-fills `subject` with `base, base + 1, …` and gives each of
    /// `threads` workers its lane of the payloads that follow: worker `w`
    /// pushes `base + RESIDENT + w + k * threads`.
    pub fn new(subject: S, threads: usize, base: u64) -> Self {
        let prefill = subject.prefill(base);
        let drivers = (0..threads as u64)
            .map(|worker| Driver {
                next: base.wrapping_add(RESIDENT + worker),
                stride: threads as u64,
                expect: base,
                order: if threads == 1 {
                    S::ORDER
                } else {
                    Order::Unordered
                },
                pushed: Tally::default(),
                popped: Tally::default(),
                refused: 0,
                misordered: 0,
            })
            .collect();
        Self {
            subject,
            drivers,
            prefill,
        }
    }

    pub fn subject(&self) -> &S {
        &self.subject
    }

    /// Runs `work` once per driver: on the calling thread for one driver,
    /// on one scoped worker thread each otherwise (the caller only joins).
    /// A fresh thread starts with an empty pool cache, so each worker warms
    /// up first and they begin `work` together.
    fn on_workers<R: Send>(
        &mut self,
        work: impl Fn(&S, &mut Driver, u32, &Barrier) -> R + Sync,
    ) -> Vec<R> {
        let subject = &self.subject;
        let barrier = &Barrier::new(self.drivers.len());
        if let [driver] = self.drivers.as_mut_slice() {
            return vec![work(subject, driver, 0, barrier)];
        }
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .drivers
                .iter_mut()
                .enumerate()
                .map(|(worker, driver)| {
                    scope.spawn(move || {
                        driver.pairs(subject, WARM_PAIRS);
                        barrier.wait();
                        work(subject, driver, worker as u32, barrier)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("benchmark worker panicked"))
                .collect()
        })
    }

    /// Untimed warm-up on every worker (part of set-up).
    pub fn warm(&mut self) {
        self.on_workers(|subject, driver, _, _| driver.pairs(subject, WARM_PAIRS));
    }

    /// Timed batches of `pattern` for `seconds`, all workers at once.
    pub fn timed(&mut self, pattern: Pattern, seconds: f64) -> Pass {
        let workers = self.drivers.len();
        let counters = self.subject.counters();
        let pool = self.subject.pool().map(RawPool::stats);
        let retired = retired_nodes();

        let budget = Duration::from_secs_f64(seconds);
        let per_worker = self.on_workers(|subject, driver, worker, _| {
            let mut batches = Vec::with_capacity(1 << 14);
            let (mut allocs, mut backlog_peak) = (0, 0);
            let deadline = Instant::now() + budget;
            loop {
                let allocs_before = thread_allocs();
                let start = Instant::now();
                match pattern {
                    Pattern::Pairs => driver.pairs(subject, BATCH_PAIRS),
                    Pattern::Burst => driver.burst(subject, BURST_DEPTH),
                }
                let end = Instant::now();
                allocs += thread_allocs() - allocs_before;
                if worker == 0 {
                    let backlog =
                        epoch::recycle_retired_count().saturating_sub(epoch::recycled_count());
                    backlog_peak = backlog_peak.max(backlog as u64);
                }
                batches.push((worker, start, end));
                if end >= deadline {
                    return (batches, allocs, backlog_peak);
                }
            }
        });

        let mut pass = Pass::default();
        for (mut batches, allocs, backlog_peak) in per_worker {
            // Workers stop up to one batch apart; a worker's last batch may
            // have run with fewer competitors than the workload states.
            if workers > 1 && batches.len() > 1 {
                batches.pop();
            }
            pass.allocs += allocs;
            pass.backlog_peak = pass.backlog_peak.max(backlog_peak);
            pass.batches.extend(batches);
        }
        let ops_per_batch = pattern.ops_per_batch();
        pass.ops = (pass.batches.len() * ops_per_batch) as u64;
        pass.ns_per_op = pass
            .batches
            .iter()
            .map(|(_, start, end)| (*end - *start).as_nanos() as f64 / ops_per_batch as f64)
            .collect();
        if let (Some(before), Some(after)) = (counters, self.subject.counters()) {
            pass.attempts = after.attempts - before.attempts;
            pass.retries = after.retries - before.retries;
        }
        if let (Some(before), Some(pool)) = (pool, self.subject.pool()) {
            pass.pool = PoolDelta::between(before, pool.stats());
        }
        pass.retired = retired_nodes() - retired;
        pass
    }

    /// The tail pass: every operation timed on its own, `floor_ns` (the
    /// cost of reading the clock) subtracted, for `seconds`. Percentiles are
    /// taken per block of [`TAIL_BLOCK`] operations; the workers start each
    /// block together and sort it together, so no worker measures while a
    /// peer is busy with its bookkeeping.
    pub fn tail(&mut self, floor_ns: u64, seconds: f64) -> Tail {
        let budget = Duration::from_secs_f64(seconds);
        let stop = AtomicBool::new(false);
        let per_worker = self.on_workers(|subject, driver, worker, barrier| {
            let mut tail = Tail::default();
            let mut block: Vec<u32> = Vec::with_capacity(TAIL_BLOCK);
            let started = Instant::now();
            let mut ended = started;
            // Worker 0 raises `stop` before it arrives at the barrier, so
            // every worker reads the same answer after it.
            while {
                barrier.wait();
                !stop.load(Ordering::Relaxed)
            } {
                let mut before = Instant::now();
                while block.len() < TAIL_BLOCK {
                    let value = driver.next;
                    driver.next = value.wrapping_add(driver.stride);
                    driver.push(subject, value);
                    let between = Instant::now();
                    driver.pop(subject, value);
                    let after = Instant::now();
                    for nanos in [(between - before).as_nanos(), (after - between).as_nanos()] {
                        block.push((nanos as u64).saturating_sub(floor_ns) as u32);
                    }
                    before = after;
                }
                ended = before;
                block.sort_unstable();
                tail.p50.push(f64::from(percentile_sorted(&block, 0.5)));
                tail.p99.push(f64::from(percentile_sorted(&block, 0.99)));
                tail.p999.push(f64::from(percentile_sorted(&block, 0.999)));
                tail.ops += block.len() as u64;
                block.clear();
                if worker == 0 && ended - started >= budget {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            tail.spans.push((worker, started, ended));
            tail
        });

        let mut merged = Tail::default();
        for tail in per_worker {
            merged.p50.extend(tail.p50);
            merged.p99.extend(tail.p99);
            merged.p999.extend(tail.p999);
            merged.ops += tail.ops;
            merged.spans.extend(tail.spans);
        }
        merged
    }

    /// Drains the structure and checks that what went in came out.
    pub fn finish(self, name: &'static str) -> Verdict {
        let (mut pushed, mut popped) = (self.prefill, Tally::default());
        let mut verdict = Verdict {
            name,
            ..Verdict::default()
        };
        for driver in &self.drivers {
            pushed.merge(driver.pushed);
            popped.merge(driver.popped);
            verdict.refused += driver.refused;
            verdict.misordered += driver.misordered;
        }
        verdict.ops = pushed.count + popped.count;
        verdict.conserved = self.subject.drain().is_some_and(|left| {
            popped.merge(left);
            pushed == popped
        });
        verdict
    }
}

/// Nodes handed to the epoch reclaimer so far, pooled and boxed.
fn retired_nodes() -> u64 {
    (epoch::recycle_retired_count() + epoch::retired_count()) as u64
}

/// Per-block tail percentiles of individually timed operations.
#[derive(Debug, Default)]
pub struct Tail {
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    pub p999: Vec<f64>,
    pub ops: u64,
    /// (worker, first operation's start, last operation's end).
    pub spans: Vec<(u32, Instant, Instant)>,
}

/// The output check of one structure.
#[derive(Debug, Default)]
pub struct Verdict {
    pub name: &'static str,
    /// Pushes and pops checked.
    pub ops: u64,
    /// Pops that returned `None` or bounded pushes that returned `Err`.
    pub refused: u64,
    /// Pops that broke FIFO/LIFO order (single-threaded rigs only).
    pub misordered: u64,
    /// Pushed payloads == popped payloads as (count, sum, xor), with
    /// exactly the resident elements left at the end.
    pub conserved: bool,
}

impl Verdict {
    /// Failed checks, each named on stderr.
    pub fn failures(&self) -> u64 {
        if self.refused > 0 {
            eprintln!("FAILED {}: {} operations refused", self.name, self.refused);
        }
        if self.misordered > 0 {
            eprintln!(
                "FAILED {}: {} pops out of order",
                self.name, self.misordered
            );
        }
        if !self.conserved {
            eprintln!("FAILED {}: payloads not conserved", self.name);
        }
        self.refused + self.misordered + u64::from(!self.conserved)
    }
}

/// The seed-derived inputs of the object measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjInputs {
    /// First payload of each structure's sequence.
    pub base: u64,
    /// The order in which the list workload visits its keys.
    pub list_order: Vec<u64>,
}

impl ObjInputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::fork(seed, 1);
        let mut list_order: Vec<u64> = (0..RESIDENT).collect();
        rng.shuffle(&mut list_order);
        Self {
            base: rng.next_u64(),
            list_order,
        }
    }

    pub fn keyed_list(&self, threads: usize) -> KeyedList {
        KeyedList {
            list: LockFreeList::new(),
            base: self.base,
            threads: threads as u64,
            order: self.list_order.clone(),
        }
    }
}

/// The wait-free SPSC ring. One thread pushes and pops in pairs over
/// [`RESIDENT`] elements; with more, one producer and one consumer stream
/// through it, each spinning while the ring is full or empty (that is the
/// ring's contract, not a failure). Returns ns/op samples and the check.
pub fn spsc(threads: usize, base: u64, seconds: f64) -> (Vec<f64>, Verdict) {
    let (mut producer, mut consumer) = spsc_ring::<u64>(BOUNDED_CAPACITY);
    let mut verdict = Verdict {
        name: "spsc",
        ..Verdict::default()
    };
    let mut samples = Vec::new();
    let mut expect = base;
    let mut check = |got: Option<u64>, verdict: &mut Verdict| {
        match got {
            Some(value) => verdict.misordered += u64::from(value != expect),
            None => verdict.refused += 1,
        }
        expect = expect.wrapping_add(1);
        verdict.ops += 2;
    };

    if threads == 1 {
        let mut next = base;
        let mut push = |verdict: &mut Verdict| {
            verdict.refused += u64::from(producer.push(next).is_err());
            next = next.wrapping_add(1);
        };
        for _ in 0..RESIDENT {
            push(&mut verdict);
        }
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        loop {
            let start = Instant::now();
            for _ in 0..BATCH_PAIRS {
                push(&mut verdict);
                check(consumer.pop(), &mut verdict);
            }
            let end = Instant::now();
            samples.push((end - start).as_nanos() as f64 / (2 * BATCH_PAIRS) as f64);
            if end >= deadline {
                break;
            }
        }
        let left = std::iter::from_fn(|| consumer.pop()).count() as u64;
        verdict.conserved = left == RESIDENT;
        return (samples, verdict);
    }

    // Both sides stream a batch count fixed up front from a short
    // calibration, so neither needs a stop flag.
    let probe = Instant::now();
    for i in 0..BATCH_PAIRS as u64 {
        let _ = producer.push(i);
        let _ = consumer.pop();
    }
    let per_batch = probe.elapsed().as_secs_f64().max(1e-6);
    let batches = ((seconds / per_batch) as usize).clamp(3, 1 << 16);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..(batches * BATCH_PAIRS) as u64 {
                while producer.is_full() {
                    std::hint::spin_loop();
                }
                producer
                    .push(base.wrapping_add(i))
                    .expect("ring not full: this is its only producer");
            }
        });
        let (consumer, verdict, samples) = (&mut consumer, &mut verdict, &mut samples);
        scope.spawn(move || {
            for _ in 0..batches {
                let start = Instant::now();
                for _ in 0..BATCH_PAIRS {
                    while consumer.is_empty() {
                        std::hint::spin_loop();
                    }
                    check(consumer.pop(), verdict);
                }
                // One push and one pop complete per element streamed.
                samples.push(start.elapsed().as_nanos() as f64 / (2 * BATCH_PAIRS) as f64);
            }
        });
    });
    verdict.conserved = consumer.pop().is_none();
    (samples, verdict)
}

/// Constructors of the structures, by the name their metrics carry.
pub mod subjects {
    use super::*;

    pub fn queue() -> LockFreeQueue<u64> {
        LockFreeQueue::new()
    }
    pub fn queue_boxed() -> LockFreeQueue<u64> {
        LockFreeQueue::new_boxed()
    }
    pub fn stack() -> TreiberStack<u64> {
        TreiberStack::new()
    }
    pub fn stack_boxed() -> TreiberStack<u64> {
        TreiberStack::new_boxed()
    }
    pub fn stack_elim() -> TreiberStack<u64> {
        TreiberStack::with_elimination()
    }
    pub fn locked_queue() -> LockedQueue<u64> {
        LockedQueue::new()
    }
    pub fn locked_stack() -> LockedStack<u64> {
        LockedStack::new()
    }
    pub fn mpmc() -> BoundedMpmcQueue<u64> {
        BoundedMpmcQueue::new(BOUNDED_CAPACITY)
    }
    pub fn mpmc_sharded() -> ShardedMpmcQueue<u64> {
        ShardedMpmcQueue::new(lfrt_lockfree::sharded::DEFAULT_SHARDS, BOUNDED_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        assert_eq!(ObjInputs::generate(11), ObjInputs::generate(11));
        assert_ne!(ObjInputs::generate(11), ObjInputs::generate(12));
    }

    #[test]
    fn a_correct_queue_passes_every_check() {
        let mut rig = Rig::new(subjects::queue(), 1, 1_000);
        rig.warm();
        let pass = rig.timed(Pattern::Pairs, 0.01);
        assert!(pass.ops >= 2 * BATCH_PAIRS as u64);
        assert_eq!(pass.retries, 0, "one thread never loses a CAS");
        assert_eq!(rig.finish("queue").failures(), 0);
    }

    #[test]
    fn shared_rigs_conserve_payloads_across_threads() {
        let mut rig = Rig::new(subjects::stack(), 2, u64::MAX - 5);
        rig.timed(Pattern::Pairs, 0.01);
        rig.timed(Pattern::Burst, 0.01);
        assert_eq!(rig.finish("stack").failures(), 0);
    }

    /// A queue that returns its elements in the wrong order and loses one.
    struct Broken(LockedStack<u64>);
    impl Subject for Broken {
        const ORDER: Order = Order::Fifo;
        fn push(&self, value: u64) -> bool {
            self.0.push(value);
            true
        }
        fn pop(&self, _pushed: u64) -> Option<u64> {
            self.0.pop().map(|v| v | 1)
        }
    }

    #[test]
    fn a_broken_structure_is_caught() {
        let mut rig = Rig::new(Broken(LockedStack::new()), 1, 0);
        rig.warm();
        let verdict = rig.finish("broken");
        assert!(verdict.misordered > 0);
        assert!(!verdict.conserved);
        assert!(verdict.failures() >= 2);
    }

    #[test]
    fn list_workers_own_disjoint_keys_and_leave_the_residents() {
        let inputs = ObjInputs::generate(5);
        for threads in [1, 2, 3, 4] {
            let mut rig = Rig::new(inputs.keyed_list(threads), threads, inputs.base);
            rig.timed(Pattern::Pairs, 0.01);
            assert_eq!(rig.finish("list").failures(), 0, "{threads} threads");
        }
    }

    #[test]
    fn spsc_streams_in_order_with_one_and_two_threads() {
        for threads in [1, 2] {
            let (samples, verdict) = spsc(threads, 77, 0.01);
            assert!(!samples.is_empty());
            assert_eq!(verdict.failures(), 0, "{threads} threads");
        }
    }
}
