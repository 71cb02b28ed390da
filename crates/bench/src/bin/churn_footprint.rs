//! **Memory footprint under sustained churn** — the observable difference
//! between real epoch-based reclamation and the leak-forever stand-in it
//! replaced.
//!
//! A counting global allocator tracks live heap bytes while worker threads
//! push/pop through a [`LockFreeQueue`] and a [`TreiberStack`] for millions
//! of operations. With the old stand-in every retired node stayed allocated,
//! so live bytes grew linearly with operation count (~24 B/op: this run's
//! default churn would leak tens of megabytes). With epoch reclamation the
//! footprint must stay *flat*: bounded by the in-flight elements plus the
//! per-thread deferred-garbage bags, independent of how long the run lasts.
//!
//! `--check` turns the bound into an exit code for CI: peak live growth over
//! the pre-churn baseline must stay under `--bound-bytes` (default 4 MiB —
//! two orders of magnitude below what the leak would produce, two above
//! normal jitter from thread stacks and collector bags).
//!
//! **Pool churn (PR 9):** a second, single-threaded phase measures
//! *allocator calls per operation* in steady state for each structure in
//! both its pooled mode (nodes recycle through `lfrt_lockfree::pool`) and
//! the boxed passthrough baseline. The boxed mode pays ~1 allocation per
//! push/pop pair; the pooled mode must be allocation-free once its caches
//! are warm — `--check` asserts `allocs_per_op < 0.05` for the pooled
//! structures. Both are absolute bounds, a safety check and not a timing
//! gate: nothing compares these numbers with an earlier run's.
//!
//! `--json <path>` writes the footprint as a report document whose numbers
//! all live under `timing` (live-heap peaks and allocator-call rates are
//! host-dependent).
//!
//! Usage: `cargo run -p lfrt-bench --release --bin churn_footprint --
//! [--ops 250000] [--threads 4] [--bound-bytes 4194304] [--check] [--quick]
//! [--json <path>]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lfrt_bench::json::{self, Point, Report};
use lfrt_bench::Args;
use lfrt_lockfree::{LockFreeQueue, TreiberStack};

/// Wraps the system allocator and tracks the current live byte count.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counters are
// pure bookkeeping on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn alloc_calls() -> usize {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Runs `threads` workers doing `ops` push+pop pairs each against both
/// structures, sampling peak live bytes from the main thread. Returns
/// `(total_ops, peak_live_bytes)`.
fn churn(threads: usize, ops: usize) -> (usize, usize) {
    let queue = Arc::new(LockFreeQueue::new());
    let stack = Arc::new(TreiberStack::new());
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = (0..threads)
        .map(|w| {
            let queue = Arc::clone(&queue);
            let stack = Arc::clone(&stack);
            std::thread::spawn(move || {
                for i in 0..ops {
                    let v = (w * ops + i) as u64;
                    queue.enqueue(v);
                    let _ = queue.dequeue();
                    stack.push(v);
                    let _ = stack.pop();
                }
            })
        })
        .collect();

    // Sample the footprint while the workers churn.
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0usize;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(live());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak.max(live())
        })
    };

    for h in workers {
        h.join().expect("churn worker panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let peak = sampler.join().expect("sampler panicked");
    // 2 structures × ops per worker × workers push/pop pairs.
    (2 * threads * ops, peak)
}

/// Steady-state allocator calls per operation: run `warmup` push/pop pairs
/// to heat the pool's per-thread cache (each pop recycles up to two
/// expired nodes back into it, two epoch advances after they were retired),
/// then count allocator calls
/// across `pairs` more. One "op" is one push+pop pair — one node lifecycle
/// — so the boxed baseline lands at ~1.0 and the warm pool at ~0.0.
fn steady_state_allocs(warmup: usize, pairs: usize, mut pair: impl FnMut(u64)) -> f64 {
    for i in 0..warmup {
        pair(i as u64);
    }
    let before = alloc_calls();
    for i in 0..pairs {
        pair((warmup + i) as u64);
    }
    (alloc_calls() - before) as f64 / pairs as f64
}

/// The pooled-vs-boxed allocator-call rates: `(label, allocs_per_op)` for
/// the stack and queue in both node-sourcing modes.
fn pool_churn(warmup: usize, pairs: usize) -> Vec<(&'static str, f64)> {
    let stack = TreiberStack::new();
    let stack_boxed = TreiberStack::new_boxed();
    let queue = LockFreeQueue::new();
    let queue_boxed = LockFreeQueue::new_boxed();
    vec![
        (
            "stack_pooled",
            steady_state_allocs(warmup, pairs, |i| {
                stack.push(i);
                let _ = stack.pop();
            }),
        ),
        (
            "stack_boxed",
            steady_state_allocs(warmup, pairs, |i| {
                stack_boxed.push(i);
                let _ = stack_boxed.pop();
            }),
        ),
        (
            "queue_pooled",
            steady_state_allocs(warmup, pairs, |i| {
                queue.enqueue(i);
                let _ = queue.dequeue();
            }),
        ),
        (
            "queue_boxed",
            steady_state_allocs(warmup, pairs, |i| {
                queue_boxed.enqueue(i);
                let _ = queue_boxed.dequeue();
            }),
        ),
    ]
}

fn main() {
    let started = std::time::Instant::now();
    let args = Args::from_env();
    let quick = args.quick();
    let trace = lfrt_bench::trace::Session::from_args(&args, "churn_footprint");
    let threads = args.get_usize("threads", 4);
    let ops = args.get_usize("ops", if quick { 50_000 } else { 250_000 });
    let bound = args.get_usize("bound-bytes", 4 * 1024 * 1024);
    let check = args.get_bool("check");

    println!("# Live-heap footprint under sustained lock-free churn");
    println!("# {threads} threads x {ops} push/pop pairs on LockFreeQueue + TreiberStack");

    // Warm up thread-local epoch records and take the baseline afterwards so
    // one-time allocations (thread stacks cached by the runtime, collector
    // registry) don't count against the churn.
    let (_, _) = churn(threads, 100);
    let baseline = live();

    let (total_ops, peak) = churn(threads, ops);
    let growth = peak.saturating_sub(baseline);
    let final_live = live();

    // The leak-forever stand-in grew ~24 B per queue/stack op pair.
    let leak_estimate = total_ops.saturating_mul(24);

    // Pool churn: steady-state allocator calls per node lifecycle, pooled
    // vs boxed. Single-threaded on purpose — the question is whether the
    // warm hot path touches the allocator at all, not how it scales.
    let churn_pairs = args.get_usize("pool-pairs", if quick { 5_000 } else { 20_000 });
    let churn_warmup = args.get_usize("pool-warmup", if quick { 2_000 } else { 4_000 });
    let pool_rows = pool_churn(churn_warmup, churn_pairs);

    println!("baseline_live_bytes = {baseline}");
    println!("peak_live_bytes     = {peak}");
    println!("final_live_bytes    = {final_live}");
    println!("peak_growth_bytes   = {growth}");
    println!("total_ops           = {total_ops}");
    println!("old_leak_estimate   = {leak_estimate} (linear growth before epoch reclamation)");
    println!("# pool churn: allocator calls per push+pop pair, steady state ({churn_pairs} pairs after {churn_warmup} warmup)");
    for (label, apo) in &pool_rows {
        println!("allocs_per_op[{label}] = {apo:.4}");
    }
    println!(
        "{{\"bench\":\"churn_footprint\",\"threads\":{threads},\"ops_per_thread\":{ops},\
         \"total_ops\":{total_ops},\"baseline_bytes\":{baseline},\"peak_bytes\":{peak},\
         \"growth_bytes\":{growth},\"bound_bytes\":{bound}}}"
    );

    if let Some(path) = args.json_path() {
        let mut report = Report::new(
            "churn_footprint",
            "table:churn",
            "Live-heap growth under sustained lock-free churn",
        )
        .config("bound_bytes", bound);
        // Worker count and op count go under `timing`, not `params`: both
        // follow the forwarded `--threads`/`--quick` flags, and the payload
        // of a report must be identical across worker counts (the CI
        // determinism check diffs `--threads 1` against `--threads 8`).
        report.points.push(Point {
            params: vec![("structures".into(), "queue+stack".into())],
            timing: vec![
                ("workers".into(), threads.into()),
                ("ops_per_worker".into(), ops.into()),
                ("baseline_live_bytes".into(), baseline.into()),
                ("peak_live_bytes".into(), peak.into()),
                ("final_live_bytes".into(), final_live.into()),
                ("peak_growth_bytes".into(), growth.into()),
                ("total_ops".into(), total_ops.into()),
            ],
            ..Default::default()
        });
        // One point per pool-churn row. `pool_churn` (not `structure`) is
        // the param key so the gate can tell these rows from the footprint
        // point above; `allocs_per_op` is gated (floored at 0.05 by the
        // gate so near-zero pooled rates compare stably).
        for (label, apo) in &pool_rows {
            report.points.push(Point {
                params: vec![("pool_churn".into(), (*label).into())],
                timing: vec![
                    ("allocs_per_op".into(), (*apo).into()),
                    ("pairs".into(), churn_pairs.into()),
                    ("warmup_pairs".into(), churn_warmup.into()),
                ],
                ..Default::default()
            });
        }
        let meta = json::RunMeta::capture(threads, quick);
        json::write_reports(&path, &[report], meta, started).expect("write json report");
    }
    trace.finish(threads, quick);

    if check {
        if growth > bound {
            eprintln!(
                "FAIL: peak live growth {growth} B exceeds bound {bound} B — \
                 retired nodes are accumulating instead of being reclaimed"
            );
            std::process::exit(1);
        }
        println!("OK: peak live growth {growth} B within bound {bound} B");
        // The pooled structures must be allocation-free in steady state:
        // a warm cache that still reaches the allocator means recycling
        // broke (nodes leak out of the pool and every op pays a miss).
        const POOLED_ALLOCS_BOUND: f64 = 0.05;
        for (label, apo) in &pool_rows {
            if label.ends_with("_pooled") && *apo >= POOLED_ALLOCS_BOUND {
                eprintln!(
                    "FAIL: {label} makes {apo:.4} allocator calls per op in steady \
                     state (bound {POOLED_ALLOCS_BOUND}) — the node pool is not recycling"
                );
                std::process::exit(1);
            }
        }
        println!("OK: pooled steady-state allocs/op below {POOLED_ALLOCS_BOUND} (boxed ~1.0)");
    }
}
