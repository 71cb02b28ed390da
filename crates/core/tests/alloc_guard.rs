//! Steady-state heap use of the schedulers, under a counting allocator.
//!
//! A scheduler keeps its scratch (dependency tables, chains, schedule
//! buffers, completion times, sort keys) between invocations, so once one
//! call has grown the buffers, an invocation on a context of the same size
//! asks the allocator for exactly one thing: the `order` vector it returns
//! in its `Decision`. This is the deterministic stand-in for a timing test: a
//! per-candidate schedule clone or a per-job chain `Vec` shows up here as a
//! count, on any host.
//!
//! The contexts have 64 jobs because std's stable sort merges through a
//! 4 KiB stack buffer and only allocates beyond it: 64 ranked chains fit,
//! 256 would not, and the comparison counts charged as `ops` pin the
//! schedulers to that sort.
//!
//! The counter is per thread, so the test harness's own threads do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lfrt_core::{Edf, RuaLockBased, RuaLockFree, RuaLockFreeSampled};
use lfrt_sim::{JobId, JobView, ObjectId, SchedulerContext, TaskId, UaScheduler};
use lfrt_tuf::Tuf;

struct CountingAlloc;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

fn count_request() {
    // `try_with`: a thread may still free memory while its locals go away.
    let _ = REQUESTS.try_with(|requests| requests.set(requests.get() + 1));
}

// SAFETY: defers entirely to `System`; the counter is a plain thread-local
// cell without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_request();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_request();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const JOBS: usize = 64;

/// 64 jobs with scattered ids; `chained` ties them into blocking chains of
/// 16 (job `i` holds object `i` and waits for object `i + 1`).
fn context(tufs: &[Tuf], chained: bool) -> SchedulerContext<'_> {
    let jobs = tufs
        .iter()
        .enumerate()
        .map(|(i, tuf)| {
            let in_chain = i % 16;
            let waits = chained && in_chain < 15;
            let holds = chained && in_chain > 0;
            JobView {
                id: JobId::new(1_000 + 37 * ((i * 29) % JOBS)),
                task: TaskId::new(i % 10),
                arrival: (i as u64 * 131) % 1_000,
                absolute_critical_time: 40_000 + (i as u64 * 7_919) % 200_000,
                window: tuf.critical_time(),
                tuf,
                remaining: 100 + (i as u64 * 53) % 400,
                blocked_on: waits.then(|| ObjectId::new(i + 1)),
                holds: holds.then(|| ObjectId::new(i)).into_iter().collect(),
            }
        })
        .collect();
    SchedulerContext { now: 0, jobs }
}

/// Allocator requests of one `schedule` call after a warm-up call.
fn steady_state_requests(mut scheduler: impl UaScheduler, ctx: &SchedulerContext<'_>) -> u64 {
    let warm_up = scheduler.schedule(ctx);
    let before = REQUESTS.get();
    let decision = scheduler.schedule(ctx);
    let requests = REQUESTS.get() - before;
    assert_eq!(decision.order, warm_up.order, "{}", scheduler.name());
    assert_eq!(
        decision.order.len(),
        JOBS,
        "{}: underloaded",
        scheduler.name()
    );
    assert!(decision.aborts.is_empty(), "{}", scheduler.name());
    requests
}

#[test]
fn a_warm_scheduler_allocates_only_the_order_it_returns() {
    let tufs: Vec<Tuf> = (0..JOBS)
        .map(|i| Tuf::step(1.0 + (i % 9) as f64, 250_000).expect("valid"))
        .collect();
    let independent = context(&tufs, false);
    let chained = context(&tufs, true);
    assert_eq!(steady_state_requests(RuaLockFree::new(), &independent), 1);
    assert_eq!(
        steady_state_requests(RuaLockFreeSampled::new(4, 1), &independent),
        1
    );
    assert_eq!(steady_state_requests(RuaLockBased::new(), &chained), 1);
    assert_eq!(steady_state_requests(RuaLockBased::new(), &independent), 1);
    assert_eq!(steady_state_requests(Edf::new(), &independent), 1);
}
