//! The execution engine: model threads as step-wise coroutines.
//!
//! Each model thread is a real OS thread, but only one runs at a time: every
//! instrumented shared-memory access ([`crate::Atomic`] operations,
//! [`crate::Arena::alloc`]) parks the thread at a *yield point* and waits for
//! the controller to grant it the next step. One scheduling decision
//! therefore equals "this thread performs its next shared-memory operation
//! (and whatever thread-local code follows it)" — the granularity at which
//! interleavings of CAS loops differ.
//!
//! Thread-local code before a thread's first yield point runs unscheduled;
//! by construction it cannot touch shared state (all sharing goes through
//! the instrumented cells), so it cannot introduce nondeterminism.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Maximum model threads per execution. Exploration cost is exponential in
/// thread count; this is a sanity rail, not a tuning knob.
pub const MAX_THREADS: usize = 8;

/// The memory model an execution runs under.
///
/// Under [`MemoryMode::Sc`] (the default) every instrumented operation takes
/// effect at its scheduled step — sequential consistency, the model PR 2
/// shipped. Under [`MemoryMode::StoreBuffer`] each thread owns a FIFO store
/// buffer in the style of TSO/PSO hardware: `Relaxed` and `Release` stores
/// (made through the `_ord` operations of [`crate::Atomic`]) are *buffered*
/// at their step and become globally visible only when a separate **flush**
/// step commits them. Flushes are ordinary scheduling decisions, so the
/// explorer enumerates exactly which reorderings other threads can observe:
///
/// * per-location coherence always holds (stores to one location commit in
///   program order);
/// * a `Relaxed` store may commit *before* an older buffered store to a
///   different location — the store–store reordering that breaks
///   publish-before-initialize bugs loose;
/// * a `Release` store commits only once the issuing thread's buffer holds
///   nothing older, so everything written before it is visible first;
/// * `SeqCst` stores, read-modify-writes with a `Release`-or-stronger
///   success ordering, and `Release`-or-stronger fences drain the issuing
///   thread's buffer at their step (hardware RMWs and SC fences do not
///   overtake the store buffer), while a `Relaxed`/`Acquire` RMW leaves
///   older stores to *other* locations buffered;
/// * loads forward from the issuing thread's own newest buffered store to
///   that location (store-to-load forwarding), and other threads never see
///   buffered values.
///
/// Load–load reordering is **not** modeled by [`MemoryMode::StoreBuffer`]
/// (see DESIGN.md §6b): that mode catches the store-side ordering bugs
/// (`Relaxed` publication), not missing-`Acquire` loads.
///
/// [`MemoryMode::Relaxed`] closes that gap with an ARM/POWER-class model: it
/// keeps the TSO/PSO store buffers above and *additionally* gives every
/// location a bounded history of superseded values (`window` deep) from
/// which a `Relaxed` load may read — the operational analogue of an
/// invalidate queue that has not yet been processed. Each stale read is its
/// own explorer-chosen decision (ids ≥ [`REORDER_BASE`]), so schedules stay
/// deterministic and replayable:
///
/// * per-location coherence still holds: each thread tracks a monotone
///   *floor* per location (the newest version it has observed) and never
///   reads older than its floor — reads of one location never go backwards,
///   and a thread always sees its own committed stores;
/// * a `Relaxed` load may return any value between its floor and the
///   current value, at most `window` versions old — modeling the load–load
///   and load–store reorderings TSO forbids;
/// * an `Acquire` (or `SeqCst`) load, `Acquire`-class fence, or
///   `Acquire`-class RMW outcome *drains the stale set*: every location's
///   floor rises to its current version, so nothing older is observable
///   afterwards — the invalidate-queue drain a real acquire performs;
/// * read-modify-writes always act on the latest value (hardware RMWs are
///   coherent), and store-to-load forwarding still wins over staleness;
/// * `Release` stores keep their store-buffer semantics (commit only from
///   the front of the buffer), so everything written before them is
///   globally visible first.
///
/// The acquire model is deliberately a *strengthening*: an `Acquire` load
/// reads the newest committed value rather than merely a
/// release-synchronized one, so some real ARM outcomes are not explored
/// (IRIW / multi-copy-atomicity is out of scope; see DESIGN.md §6b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryMode {
    /// Sequentially consistent: every step takes effect immediately.
    Sc,
    /// TSO/PSO-style per-thread store buffers with explicit flush steps.
    StoreBuffer {
        /// Maximum buffered stores per thread; a store issued against a full
        /// buffer commits the oldest entry as part of its own step.
        bound: usize,
    },
    /// ARM/POWER-class: store buffers *plus* stale `Relaxed` loads drawn
    /// from a bounded per-location version history, each an explicit
    /// reorder decision (ids ≥ [`REORDER_BASE`]).
    Relaxed {
        /// Store-buffer depth, as in [`MemoryMode::StoreBuffer`].
        bound: usize,
        /// How many superseded values per location stay readable. `0`
        /// degenerates to [`MemoryMode::StoreBuffer`] behavior.
        window: usize,
    },
}

impl MemoryMode {
    /// The default store-buffer depth used by
    /// [`crate::Config::store_buffer`].
    pub const DEFAULT_BOUND: usize = 4;
    /// The default stale-value window used by [`crate::Config::relaxed`]:
    /// two versions deep, enough to read past a full seqlock-style
    /// odd/even version bump.
    pub const DEFAULT_WINDOW: usize = 2;
}

/// Scheduling-decision ids at or above this value denote *flush* steps, not
/// thread steps: `FLUSH_BASE + tid * FLUSH_STRIDE + loc` commits thread
/// `tid`'s oldest buffered store to location `loc`. Thread ids stay below
/// [`MAX_THREADS`], so the two ranges never collide and schedule strings
/// remain plain dot-joined numbers that replay byte-for-byte.
pub const FLUSH_BASE: usize = 100;
/// Stride between threads in the flush-id encoding; also the per-execution
/// cap on distinct buffered locations.
pub const FLUSH_STRIDE: usize = 100;

fn encode_flush(tid: usize, loc: usize) -> usize {
    assert!(
        loc < FLUSH_STRIDE,
        "model uses more than {FLUSH_STRIDE} buffered atomic locations"
    );
    FLUSH_BASE + tid * FLUSH_STRIDE + loc
}

fn decode_flush(id: usize) -> (usize, usize) {
    debug_assert!((FLUSH_BASE..REORDER_BASE).contains(&id));
    (
        (id - FLUSH_BASE) / FLUSH_STRIDE,
        (id - FLUSH_BASE) % FLUSH_STRIDE,
    )
}

/// Scheduling-decision ids at or above this value denote *stale-read* steps
/// under [`MemoryMode::Relaxed`]: `REORDER_BASE + tid * REORDER_STRIDE +
/// age` grants thread `tid` its pending `Relaxed` load, reading the value
/// `age` versions older than the location's current one (`age` ≥ 1; the
/// plain thread id remains the fresh-read decision). Flush ids top out at
/// `FLUSH_BASE + MAX_THREADS * FLUSH_STRIDE`, far below this base, so all
/// three id ranges stay disjoint and schedule strings remain plain
/// dot-joined numbers.
pub const REORDER_BASE: usize = 10_000;
/// Stride between threads in the reorder-id encoding; also the cap on the
/// stale-value window.
pub const REORDER_STRIDE: usize = 100;

fn encode_reorder(tid: usize, age: usize) -> usize {
    debug_assert!((1..REORDER_STRIDE).contains(&age));
    REORDER_BASE + tid * REORDER_STRIDE + age
}

fn decode_reorder(id: usize) -> (usize, usize) {
    debug_assert!(id >= REORDER_BASE);
    (
        (id - REORDER_BASE) / REORDER_STRIDE,
        (id - REORDER_BASE) % REORDER_STRIDE,
    )
}

/// The model thread a decision id grants a step to: the id itself for a
/// thread step, the issuing thread for a stale-read (reorder) decision, and
/// `None` for a flush (performed by the controller). Used by the CHESS
/// preemption accounting: continuing the last-run thread via a stale read
/// is not a preemption, while a flush taken where that thread could have
/// continued is.
pub(crate) fn decision_thread(id: usize) -> Option<usize> {
    if id < FLUSH_BASE {
        Some(id)
    } else if id >= REORDER_BASE {
        Some(decode_reorder(id).0)
    } else {
        None
    }
}

/// Distinguishes executions so an [`crate::Atomic`]'s cached location id is
/// never reused across runs.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(1);

/// An [`crate::Atomic`]'s cached `(run id, location id)`: the id this
/// execution numbered the cell with, if it has touched it yet. Shared with
/// the runtime so a thread parked on a `Relaxed` load can name its cell
/// before the cell has an id.
pub(crate) type LocCache = Arc<Mutex<Option<(u64, usize)>>>;

/// One store sitting in a thread's buffer: enough metadata to decide when it
/// may commit, plus the type-erased commit action (the typed value lives in
/// the owning `Atomic`'s own pending queue).
struct BufferedStore {
    loc: usize,
    /// `Release`-or-stronger: may only commit from the front of the buffer.
    release: bool,
    commit: Box<dyn FnOnce() + Send>,
}

struct WeakState {
    bound: usize,
    /// Stale-value window depth; `0` under [`MemoryMode::StoreBuffer`]
    /// (no load reordering — exactly the pre-Relaxed behavior).
    window: usize,
    next_loc: usize,
    pending: Vec<VecDeque<BufferedStore>>,
    /// Per location: how many stores have committed to it this execution
    /// (the location's current *version*; the initial value is version 0).
    latest: Vec<u64>,
    /// Per thread, per location: the newest version that thread has
    /// observed — the coherence *floor* below which it may not read.
    /// Monotone; raised by fresh reads, own commits, and acquire drains.
    floors: Vec<Vec<u64>>,
    /// Per thread: the cell of a `Relaxed` load the thread is parked on,
    /// eligible for stale-read (reorder) decisions once it has a location
    /// id (an untouched cell has no older version to read).
    pending_load: Vec<Option<LocCache>>,
}

/// One execution of a concurrency scenario: the model threads to run and an
/// optional single-threaded post-condition check.
///
/// Built fresh by the scenario factory for every explored interleaving, so
/// each execution starts from identical initial state.
#[derive(Default)]
pub struct Plan {
    pub(crate) threads: Vec<Box<dyn FnOnce() + Send>>,
    pub(crate) check: Option<Box<dyn FnOnce()>>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a model thread. Threads get ids `0, 1, ...` in registration
    /// order; those ids appear in [`crate::Schedule`] strings.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] threads are registered.
    #[must_use]
    pub fn thread(mut self, body: impl FnOnce() + Send + 'static) -> Self {
        assert!(
            self.threads.len() < MAX_THREADS,
            "at most {MAX_THREADS} model threads per plan"
        );
        self.threads.push(Box::new(body));
        self
    }

    /// Registers a post-condition: runs single-threaded on the controller
    /// after every model thread has finished. Panic here fails the execution
    /// exactly like a panic inside a model thread.
    #[must_use]
    pub fn check(mut self, check: impl FnOnce() + 'static) -> Self {
        self.check = Some(Box::new(check));
        self
    }
}

/// How one execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// All threads completed and the post-check passed.
    Ok,
    /// A model thread or the post-check panicked.
    Failed(String),
    /// All unfinished threads were spin-parked with nobody left to make
    /// progress: a livelock under this schedule.
    Livelock,
    /// The per-execution step budget ran out — an unfair schedule (e.g. a
    /// reader spinning against a paused writer); pruned, not a failure.
    Pruned,
}

/// The result of running one interleaving.
pub(crate) struct RunResult {
    pub outcome: Outcome,
    /// One entry per scheduling decision, in order. The explorer rebuilds
    /// schedules from its own DFS stack; this trace exists for the runtime's
    /// tests and debugging.
    #[cfg_attr(not(test), allow(dead_code))]
    pub decisions: Vec<Decision>,
}

/// One scheduling decision: which thread stepped, out of which enabled set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Decision {
    pub chosen: usize,
    pub enabled: Vec<usize>,
}

/// What the pending operation at a yield point does to shared state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StepKind {
    /// Pure observation (`load`): cannot unblock a spinning thread.
    Read,
    /// Mutation (`store`, `swap`, CAS, `fetch_add`, arena alloc).
    Write,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Spawned; running toward its first yield point.
    Launching,
    /// Parked at a yield point, eligible for the next grant.
    Parked(StepKind),
    /// Parked after [`spin_hint`]: disabled until another thread performs a
    /// *write* step. Under the sequentially-consistent model, nothing a
    /// spinner re-reads can change until someone writes, so read steps
    /// leave spinners disabled — otherwise two spinning readers could
    /// re-enable each other with pure loads forever, making the schedule
    /// tree infinite.
    Spinning,
    /// Granted; executing its step and trailing local code.
    Running,
    /// Returned or unwound.
    Done,
}

struct RtState {
    status: Vec<Status>,
    /// The thread currently allowed to run, if any.
    granted: Option<usize>,
    /// When the grant came from a reorder decision: how many versions stale
    /// the granted thread's pending `Relaxed` load must read. Consumed by
    /// the thread as it wakes.
    granted_stale: Option<usize>,
    /// Set when an execution must unwind early (panic, livelock, prune).
    abort: bool,
    /// First real panic message observed, if any.
    failure: Option<String>,
}

struct Runtime {
    state: Mutex<RtState>,
    cv: Condvar,
    /// Store-buffer bookkeeping; `None` under [`MemoryMode::Sc`].
    weak: Option<Mutex<WeakState>>,
    /// Unique per execution; guards cached location ids in `Atomic`s.
    run_id: u64,
}

/// Panic payload used to unwind model threads when an execution aborts.
/// Filtered out of panic reporting; never treated as a model failure.
struct AbortToken;

thread_local! {
    /// `(runtime, thread id)` of the model thread running on this OS thread.
    static CURRENT: RefCell<Option<(Arc<Runtime>, usize)>> = const { RefCell::new(None) };
}

/// Ignore mutex poisoning: the runtime's own invariants never break on a
/// model-thread panic (we abort and unwind deliberately).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs (once per process) a panic hook that silences the expected
/// panics of exploration — [`AbortToken`] unwinds and model-thread failures,
/// which the explorer reports itself with a schedule attached — and forwards
/// everything else to the previous hook.
fn install_panic_filter() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_model = CURRENT
                .try_with(|c| c.try_borrow().map(|b| b.is_some()).unwrap_or(true))
                .unwrap_or(false);
            if !in_model && info.payload().downcast_ref::<AbortToken>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Read yield point: called by instrumented loads *before* they read shared
/// state. No-op outside a model execution.
pub(crate) fn step_read() {
    if let Some((rt, tid)) = current() {
        rt.arrive(tid, Some(StepKind::Read));
    }
}

/// Write yield point: called by instrumented mutations (`store`, `swap`,
/// CAS, `fetch_add`, arena allocation) *before* they touch shared state.
/// No-op outside a model execution.
pub(crate) fn step_write() {
    if let Some((rt, tid)) = current() {
        rt.arrive(tid, Some(StepKind::Write));
    }
}

/// Declares that this thread cannot make progress until *another* thread
/// writes shared state — the model analogue of `std::hint::spin_loop()` in a
/// retry loop that waits out a concurrent in-flight operation (e.g. an NBW
/// reader seeing an odd version).
///
/// Under exploration the thread is disabled until some other thread performs
/// a write step, which (a) keeps the schedule tree finite — read steps can't
/// wake a spinner, so spinners can't ping-pong each other — and (b) lets the
/// explorer report a *livelock* when every unfinished thread is spin-parked
/// with no writer left to wake it. No-op outside a model execution.
pub fn spin_hint() {
    if let Some((rt, tid)) = current() {
        rt.arrive(tid, None);
    }
}

fn current() -> Option<(Arc<Runtime>, usize)> {
    CURRENT
        .try_with(|c| c.try_borrow().ok().and_then(|b| b.clone()))
        .ok()
        .flatten()
}

impl Runtime {
    fn new(threads: usize, memory: MemoryMode) -> Self {
        let weak_state = |bound: usize, window: usize| {
            assert!(
                window < REORDER_STRIDE,
                "stale-value window must stay below {REORDER_STRIDE}"
            );
            Mutex::new(WeakState {
                bound: bound.max(1),
                window,
                next_loc: 0,
                pending: (0..threads).map(|_| VecDeque::new()).collect(),
                latest: Vec::new(),
                floors: (0..threads).map(|_| Vec::new()).collect(),
                pending_load: vec![None; threads],
            })
        };
        Self {
            state: Mutex::new(RtState {
                status: vec![Status::Launching; threads],
                granted: None,
                granted_stale: None,
                abort: false,
                failure: None,
            }),
            cv: Condvar::new(),
            weak: match memory {
                MemoryMode::Sc => None,
                MemoryMode::StoreBuffer { bound } => Some(weak_state(bound, 0)),
                MemoryMode::Relaxed { bound, window } => Some(weak_state(bound, window)),
            },
            run_id: RUN_COUNTER.fetch_add(1, AtomicOrdering::Relaxed),
        }
    }

    /// The flush decisions currently available: for each thread and each
    /// location, the oldest buffered store that per-location FIFO and the
    /// release-from-front rule allow to commit. Sorted, so the enabled set
    /// handed to the scheduler is deterministic.
    fn flushable(&self) -> Vec<usize> {
        let Some(weak) = &self.weak else {
            return Vec::new();
        };
        let weak = lock(weak);
        let mut out = Vec::new();
        for (tid, queue) in weak.pending.iter().enumerate() {
            let mut seen = Vec::new();
            for (i, entry) in queue.iter().enumerate() {
                let blocked = seen.contains(&entry.loc) || (entry.release && i != 0);
                if !blocked {
                    out.push(encode_flush(tid, entry.loc));
                }
                seen.push(entry.loc);
            }
        }
        out.sort_unstable();
        out
    }

    /// The stale-read decisions currently available: for each thread parked
    /// on a `Relaxed` load, one decision per readable older version of the
    /// loaded location — ages `1..=k` where `k` is bounded by the window
    /// depth and the thread's coherence floor. Sorted, like [`flushable`].
    ///
    /// [`flushable`]: Runtime::flushable
    fn reorderable(&self) -> Vec<usize> {
        let Some(weak) = &self.weak else {
            return Vec::new();
        };
        let weak = lock(weak);
        if weak.window == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (tid, pending) in weak.pending_load.iter().enumerate() {
            let Some(loc) = pending.as_ref().and_then(|c| self.cached_loc(c)) else {
                continue;
            };
            let latest = weak.latest[loc];
            let oldest = weak.floors[tid][loc].max(latest.saturating_sub(weak.window as u64));
            for age in 1..=(latest - oldest) as usize {
                out.push(encode_reorder(tid, age));
            }
        }
        out.sort_unstable();
        out
    }

    /// Records that a store just became globally visible at `loc`, issued by
    /// `tid`: the location's version advances and the writer's floor rises
    /// to it (a thread always reads its own committed stores). No-op when
    /// the mode keeps no version history.
    fn committed(&self, tid: usize, loc: usize) {
        let Some(weak) = &self.weak else { return };
        let mut weak = lock(weak);
        if weak.window == 0 {
            return;
        }
        weak.latest[loc] += 1;
        let v = weak.latest[loc];
        weak.floors[tid][loc] = v;
    }

    /// Raises `tid`'s floor at `loc` to the current version: the thread just
    /// observed the latest value (fresh read, RMW, or CAS failure load).
    fn observed_latest(&self, tid: usize, loc: usize) {
        let Some(weak) = &self.weak else { return };
        let mut weak = lock(weak);
        if weak.window == 0 {
            return;
        }
        let v = weak.latest[loc];
        let floor = &mut weak.floors[tid][loc];
        *floor = (*floor).max(v);
    }

    /// Acquire drain: raises every floor of `tid` to the current version of
    /// its location — the model's invalidate-queue flush. Nothing stale is
    /// observable by `tid` afterwards.
    fn drain_stale(&self, tid: usize) {
        let Some(weak) = &self.weak else { return };
        let mut weak = lock(weak);
        if weak.window == 0 {
            return;
        }
        let latest = std::mem::take(&mut weak.latest);
        for (floor, v) in weak.floors[tid].iter_mut().zip(latest.iter()) {
            *floor = (*floor).max(*v);
        }
        weak.latest = latest;
    }

    /// Commits the buffered store named by an encoded flush decision: the
    /// oldest entry of that thread for that location. Performed by the
    /// controller between grants; wakes spin-parked threads, since global
    /// memory just changed.
    fn perform_flush(&self, id: usize) {
        let (tid, loc) = decode_flush(id);
        let commit = {
            let weak = self.weak.as_ref().expect("flush decision under SC mode");
            let mut weak = lock(weak);
            let queue = &mut weak.pending[tid];
            let pos = queue
                .iter()
                .position(|e| e.loc == loc)
                .unwrap_or_else(|| panic!("no buffered store for flush decision {id}"));
            queue.remove(pos).expect("position just found").commit
        };
        commit();
        self.committed(tid, loc);
        let mut st = lock(&self.state);
        for s in st.status.iter_mut() {
            if *s == Status::Spinning {
                *s = Status::Parked(StepKind::Read);
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Commits every buffered store of `tid` in program order. Used by
    /// `SeqCst`/`Release`-class operations (which do not overtake the store
    /// buffer) and when a thread finishes (joining a thread synchronizes
    /// with everything it did).
    fn drain_thread(&self, tid: usize) -> usize {
        let Some(weak) = &self.weak else {
            return 0;
        };
        let mut drained = 0;
        loop {
            let entry = {
                let mut weak = lock(weak);
                weak.pending[tid].pop_front()
            };
            match entry {
                Some(e) => {
                    let loc = e.loc;
                    (e.commit)();
                    self.committed(tid, loc);
                    drained += 1;
                }
                None => return drained,
            }
        }
    }

    /// Commits `tid`'s buffered stores *to one location* in program order —
    /// per-location coherence for a `Relaxed`/`Acquire` RMW, which acts on
    /// coherent memory without draining stores to other locations.
    fn drain_location(&self, tid: usize, loc: usize) {
        let Some(weak) = &self.weak else {
            return;
        };
        loop {
            let entry = {
                let mut weak = lock(weak);
                let queue = &mut weak.pending[tid];
                match queue.iter().position(|e| e.loc == loc) {
                    Some(pos) => queue.remove(pos),
                    None => None,
                }
            };
            match entry {
                Some(e) => {
                    (e.commit)();
                    self.committed(tid, loc);
                }
                None => return,
            }
        }
    }

    /// Buffers one store of `tid`, committing the oldest entry first if the
    /// buffer is at its bound (so a runaway writer cannot grow state
    /// unboundedly — mirroring a finite hardware buffer).
    fn buffer_store(
        &self,
        tid: usize,
        loc: usize,
        release: bool,
        commit: Box<dyn FnOnce() + Send>,
    ) {
        let weak = self.weak.as_ref().expect("buffer_store under SC mode");
        loop {
            let evicted = {
                let mut weak = lock(weak);
                if weak.pending[tid].len() < weak.bound {
                    weak.pending[tid].push_back(BufferedStore {
                        loc,
                        release,
                        commit,
                    });
                    return;
                }
                weak.pending[tid].pop_front().expect("bound is at least 1")
            };
            let evicted_loc = evicted.loc;
            (evicted.commit)();
            self.committed(tid, evicted_loc);
        }
    }

    /// Commits every thread's remaining buffered stores, program order per
    /// thread, ascending tid. Used only past the decision budget, where the
    /// commit order is no longer being explored.
    fn drain_all(&self) {
        let Some(weak) = &self.weak else {
            return;
        };
        let threads = lock(weak).pending.len();
        for tid in 0..threads {
            self.drain_thread(tid);
        }
    }

    /// The location id this execution gave the cell behind `cache`, if any.
    fn cached_loc(&self, cache: &LocCache) -> Option<usize> {
        match *lock(cache) {
            Some((run, loc)) if run == self.run_id => Some(loc),
            _ => None,
        }
    }

    fn alloc_loc(&self) -> usize {
        let weak = self.weak.as_ref().expect("alloc_loc under SC mode");
        let mut weak = lock(weak);
        let loc = weak.next_loc;
        weak.next_loc += 1;
        weak.latest.push(0);
        for floors in weak.floors.iter_mut() {
            floors.push(0);
        }
        loc
    }

    /// Parks the calling model thread at a yield point and blocks until the
    /// controller grants it the next step (or the execution aborts).
    /// `kind` is the pending operation's effect, or `None` for a spin park.
    /// Returns the stale-read age when the grant came from a reorder
    /// decision (`None` for ordinary grants).
    fn arrive(&self, tid: usize, kind: Option<StepKind>) -> Option<usize> {
        let mut st = lock(&self.state);
        if st.granted == Some(tid) {
            st.granted = None;
        }
        st.status[tid] = match kind {
            Some(k) => Status::Parked(k),
            None => Status::Spinning,
        };
        self.cv.notify_all();
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(AbortToken);
            }
            if st.granted == Some(tid) {
                st.status[tid] = Status::Running;
                return st.granted_stale.take();
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks `tid` finished; a non-[`AbortToken`] panic aborts the execution
    /// and records the first message. Buffered stores of the finished thread
    /// deliberately stay buffered: a hardware store buffer drains
    /// asynchronously, so a store issued by a thread's *last* instruction
    /// can still be reordered against other threads' observations. The
    /// controller keeps offering them as flush decisions and commits any
    /// remainder before the post-check (joining synchronizes with the
    /// execution as a whole).
    fn finish(&self, tid: usize, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = lock(&self.state);
        if st.granted == Some(tid) {
            st.granted = None;
        }
        st.status[tid] = Status::Done;
        if let Some(payload) = panic {
            if payload.downcast_ref::<AbortToken>().is_none() {
                st.abort = true;
                if st.failure.is_none() {
                    st.failure = Some(panic_message(&payload));
                }
            }
        }
        self.cv.notify_all();
    }

    /// Blocks until every thread is parked or done (no one launching or
    /// running, nothing granted). Returns the enabled set and whether any
    /// thread is spin-parked, or `None` once all threads are done.
    fn await_quiescent(&self) -> Option<(Vec<usize>, bool)> {
        let mut st = lock(&self.state);
        loop {
            let busy = st.granted.is_some()
                || st
                    .status
                    .iter()
                    .any(|s| matches!(s, Status::Launching | Status::Running));
            if !busy {
                if st.status.iter().all(|s| *s == Status::Done) {
                    return None;
                }
                if st.abort {
                    // Aborting: parked threads will unwind on wake-up.
                    self.cv.notify_all();
                } else {
                    let enabled: Vec<usize> = st
                        .status
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| matches!(s, Status::Parked(_)))
                        .map(|(i, _)| i)
                        .collect();
                    let spinning = st.status.contains(&Status::Spinning);
                    return Some((enabled, spinning));
                }
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Grants the next step to `tid`. When the pending step is a write, the
    /// shared state is about to change, so spin-parked threads are
    /// re-enabled (their next re-check happens strictly after the write —
    /// grants are serialized). Read grants leave spinners disabled: nothing
    /// they could re-observe has changed. `stale` carries the age of a
    /// reorder decision — the granted thread's pending `Relaxed` load reads
    /// that many versions behind (always a read step).
    fn grant(&self, tid: usize, stale: Option<usize>) {
        let mut st = lock(&self.state);
        let kind = match st.status[tid] {
            Status::Parked(kind) => kind,
            other => unreachable!("granting thread {tid} in state {other:?}"),
        };
        if kind == StepKind::Write {
            for s in st.status.iter_mut() {
                if *s == Status::Spinning {
                    *s = Status::Parked(StepKind::Read);
                }
            }
        }
        st.granted = Some(tid);
        st.granted_stale = stale;
        self.cv.notify_all();
    }

    /// Aborts the execution: all parked threads unwind with [`AbortToken`].
    fn abort(&self) {
        let mut st = lock(&self.state);
        st.abort = true;
        self.cv.notify_all();
    }

    /// Blocks until every model thread has finished.
    fn await_all_done(&self) {
        let mut st = lock(&self.state);
        while !st.status.iter().all(|s| *s == Status::Done) {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Handle that lets an [`crate::Atomic`] talk to the store-buffer machinery
/// of the model execution running on this OS thread. Obtainable only inside
/// a model thread of a [`MemoryMode::StoreBuffer`] execution — `None`
/// everywhere else, so SC runs and plain (un-modeled) usage pay nothing.
pub(crate) struct WeakSession {
    rt: Arc<Runtime>,
    tid: usize,
}

/// The store-buffer session of the calling model thread, if any.
pub(crate) fn weak_session() -> Option<WeakSession> {
    let (rt, tid) = current()?;
    rt.weak.as_ref()?;
    Some(WeakSession { rt, tid })
}

impl WeakSession {
    /// The model-thread id this session belongs to.
    pub(crate) fn tid(&self) -> usize {
        self.tid
    }

    /// Resolves the stable per-execution location id for an atomic cell,
    /// allocating one on first use. The cell-side cache is keyed by run id so
    /// an id from a previous execution is never reused.
    ///
    /// Must only be called inside a granted step: grants are serialized, so
    /// first-touch numbering is then a pure function of the schedule. (Ids
    /// appear in flush decisions; numbering cells while two threads are
    /// still launching made the enabled sets depend on real-thread timing.)
    pub(crate) fn loc(&self, cache: &LocCache) -> usize {
        self.rt.cached_loc(cache).unwrap_or_else(|| {
            let loc = self.rt.alloc_loc();
            *lock(cache) = Some((self.rt.run_id, loc));
            loc
        })
    }

    /// Buffers a store of the calling thread; `release` stores only ever
    /// commit from the front of the buffer.
    pub(crate) fn buffer_store(&self, loc: usize, release: bool, commit: Box<dyn FnOnce() + Send>) {
        self.rt.buffer_store(self.tid, loc, release, commit);
    }

    /// Commits every buffered store of the calling thread, in program order.
    pub(crate) fn drain(&self) {
        self.rt.drain_thread(self.tid);
    }

    /// Commits the calling thread's buffered stores to one location only.
    pub(crate) fn drain_location(&self, loc: usize) {
        self.rt.drain_location(self.tid, loc);
    }

    /// The stale-value window of the execution's memory mode (`0` unless
    /// running under [`MemoryMode::Relaxed`] with a nonzero window).
    pub(crate) fn window(&self) -> usize {
        self.rt.weak.as_ref().map_or(0, |w| lock(w).window)
    }

    /// Parks the calling thread on a `Relaxed` load of the cell behind
    /// `cache`, offering the explorer stale-read decisions alongside the
    /// fresh one. Returns the chosen stale age (`None` = fresh), with the
    /// thread's coherence floor already raised to the version it is about
    /// to observe. The cell's location id is resolved only after the grant
    /// (see [`WeakSession::loc`]).
    pub(crate) fn relaxed_load(&self, cache: &LocCache) -> Option<usize> {
        let weak = self.rt.weak.as_ref().expect("relaxed_load under SC mode");
        lock(weak).pending_load[self.tid] = Some(Arc::clone(cache));
        let stale = self.rt.arrive(self.tid, Some(StepKind::Read));
        let loc = self.loc(cache);
        let mut st = lock(weak);
        st.pending_load[self.tid] = None;
        let observed = st.latest[loc] - stale.unwrap_or(0) as u64;
        let floor = &mut st.floors[self.tid][loc];
        *floor = (*floor).max(observed);
        stale
    }

    /// Records a store of the calling thread becoming globally visible at
    /// `loc` outside the flush path (`SeqCst` stores, RMW commits).
    pub(crate) fn committed(&self, loc: usize) {
        self.rt.committed(self.tid, loc);
    }

    /// Raises the calling thread's floor at `loc` to the current version
    /// (it just observed the latest value, e.g. through a failed CAS).
    pub(crate) fn observed_latest(&self, loc: usize) {
        self.rt.observed_latest(self.tid, loc);
    }

    /// Acquire drain: nothing stale stays observable by the calling thread.
    pub(crate) fn drain_stale(&self) {
        self.rt.drain_stale(self.tid);
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked with a non-string payload".to_string()
    }
}

/// Runs one execution of `plan` under the scheduling decisions of `choose`.
///
/// `choose(enabled, last)` is called at each quiescent point with the sorted
/// enabled decision ids — thread ids, plus encoded flush ids (≥
/// [`FLUSH_BASE`]) when `memory` buffers stores, plus encoded stale-read ids
/// (≥ [`REORDER_BASE`]) when it keeps a version window — and the previously
/// chosen thread; it must return a member of `enabled`. `max_steps` bounds
/// the number of decisions; beyond it the execution is pruned as unfair.
pub(crate) fn run_once(
    plan: Plan,
    max_steps: usize,
    memory: MemoryMode,
    choose: &mut dyn FnMut(&[usize], Option<usize>) -> usize,
) -> RunResult {
    install_panic_filter();
    let n = plan.threads.len();
    let rt = Arc::new(Runtime::new(n, memory));
    let mut decisions = Vec::new();
    let mut outcome: Option<Outcome> = None;

    std::thread::scope(|scope| {
        for (tid, body) in plan.threads.into_iter().enumerate() {
            let rt = Arc::clone(&rt);
            scope.spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&rt), tid)));
                let result = catch_unwind(AssertUnwindSafe(body));
                CURRENT.with(|c| *c.borrow_mut() = None);
                rt.finish(tid, result.err());
            });
        }

        // A panic in the controller (the explorer's nondeterminism assert
        // in `choose`, a runtime invariant) must not unwind out of the
        // scope while model threads are parked in `arrive`: the scope's
        // implicit join would wait for them forever and the failure would
        // become a hang. Catch it, abort the execution so every thread
        // unwinds, join, then resume the panic.
        let controller = catch_unwind(AssertUnwindSafe(|| {
            let mut last: Option<usize> = None;
            loop {
                let quiescent = rt.await_quiescent();
                let (mut enabled, spinning) = quiescent.clone().unwrap_or((Vec::new(), false));
                if quiescent.is_none() && outcome.is_some() {
                    // Aborted (livelock/prune) and every thread has unwound:
                    // discard whatever is still buffered, nobody observes it.
                    break;
                }
                // Pending flushes are decisions too: committing a buffered store
                // is exactly the visibility choice weak hardware makes for us.
                // They remain on offer after their thread finishes — and once
                // *all* threads are done, they are the only decisions left, so
                // the final commit order is explored rather than assumed.
                // Stale-read (reorder) decisions follow: a thread parked on a
                // Relaxed load may be granted an older readable version instead
                // of the fresh one. Ids are disjoint and each range is sorted,
                // so the combined enabled set stays sorted and deterministic.
                enabled.extend(rt.flushable());
                enabled.extend(rt.reorderable());
                if enabled.is_empty() {
                    if quiescent.is_none() {
                        break; // all threads done, all stores committed
                    }
                    // Every unfinished thread is spin-parked, no store is waiting
                    // to commit, and nobody can unblock them: livelock.
                    debug_assert!(spinning);
                    outcome = Some(Outcome::Livelock);
                    rt.abort();
                    continue;
                }
                if decisions.len() >= max_steps {
                    if quiescent.is_none() {
                        // Only flushes remain; committing them cannot spin.
                        // Flush in program order without recording decisions so
                        // an execution at its budget still terminates.
                        rt.drain_all();
                        break;
                    }
                    outcome = Some(Outcome::Pruned);
                    rt.abort();
                    continue;
                }
                let chosen = choose(&enabled, last);
                assert!(
                    enabled.contains(&chosen),
                    "scheduler chose thread {chosen} outside enabled set {enabled:?}"
                );
                decisions.push(Decision { chosen, enabled });
                if chosen >= REORDER_BASE {
                    // A stale read: grant the issuing thread its pending Relaxed
                    // load at the decoded age. It is that thread's step, so the
                    // default continuation keeps preferring it.
                    let (tid, age) = decode_reorder(chosen);
                    last = Some(tid);
                    rt.grant(tid, Some(age));
                } else if chosen >= FLUSH_BASE {
                    // A flush is performed by the controller; `last` keeps
                    // pointing at the previously running thread so the default
                    // continuation still prefers it.
                    rt.perform_flush(chosen);
                } else {
                    last = Some(chosen);
                    rt.grant(chosen, None);
                }
            }
        }));
        if controller.is_err() {
            rt.abort();
        }
        rt.await_all_done();
        if let Err(payload) = controller {
            resume_unwind(payload);
        }
    });

    let failure = lock(&rt.state).failure.take();
    let outcome = match (failure, outcome) {
        // A real panic wins over livelock/prune bookkeeping.
        (Some(msg), _) => Outcome::Failed(msg),
        (None, Some(o)) => o,
        (None, None) => match plan.check {
            Some(check) => match catch_unwind(AssertUnwindSafe(check)) {
                Ok(()) => Outcome::Ok,
                Err(payload) => Outcome::Failed(panic_message(&payload)),
            },
            None => Outcome::Ok,
        },
    };
    RunResult { outcome, decisions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::Atomic;
    use std::sync::Arc as StdArc;

    /// Scheduler: always pick the lowest enabled tid.
    fn lowest(enabled: &[usize], _last: Option<usize>) -> usize {
        enabled[0]
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let cell = StdArc::new(Atomic::new(0u64));
        let c = StdArc::clone(&cell);
        let plan = Plan::new().thread(move || {
            c.store(1);
            c.store(2);
        });
        let result = run_once(plan, 100, MemoryMode::Sc, &mut lowest);
        assert_eq!(result.outcome, Outcome::Ok);
        assert_eq!(result.decisions.len(), 2);
        assert_eq!(cell.load(), 2);
    }

    #[test]
    fn decisions_record_enabled_sets() {
        let cell = StdArc::new(Atomic::new(0u64));
        let mk = |c: StdArc<Atomic<u64>>| move || c.store(1);
        let plan = Plan::new()
            .thread(mk(StdArc::clone(&cell)))
            .thread(mk(StdArc::clone(&cell)));
        let result = run_once(plan, 100, MemoryMode::Sc, &mut lowest);
        assert_eq!(result.outcome, Outcome::Ok);
        assert_eq!(result.decisions.len(), 2);
        assert_eq!(result.decisions[0].enabled, vec![0, 1]);
        assert_eq!(result.decisions[0].chosen, 0);
        assert_eq!(result.decisions[1].enabled, vec![1]);
    }

    #[test]
    fn panic_in_model_thread_fails_with_message() {
        let cell = StdArc::new(Atomic::new(0u64));
        let c = StdArc::clone(&cell);
        let c2 = StdArc::clone(&cell);
        let plan = Plan::new()
            .thread(move || {
                c.store(1);
                panic!("seeded failure");
            })
            .thread(move || {
                // This thread gets aborted mid-run without failing the test
                // runner.
                c2.store(2);
                c2.store(3);
                c2.store(4);
            });
        let result = run_once(plan, 100, MemoryMode::Sc, &mut lowest);
        assert_eq!(result.outcome, Outcome::Failed("seeded failure".into()));
    }

    #[test]
    fn check_runs_after_threads_and_can_fail() {
        let cell = StdArc::new(Atomic::new(0u64));
        let c = StdArc::clone(&cell);
        let c2 = StdArc::clone(&cell);
        let plan = Plan::new()
            .thread(move || c.store(7))
            .check(move || assert_eq!(c2.load(), 8, "post-check sees 7"));
        let result = run_once(plan, 100, MemoryMode::Sc, &mut lowest);
        match result.outcome {
            Outcome::Failed(msg) => assert!(msg.contains("post-check sees 7"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn spin_only_threads_report_livelock() {
        let cell = StdArc::new(Atomic::new(0u64));
        let c = StdArc::clone(&cell);
        let plan = Plan::new().thread(move || loop {
            if c.load() == 1 {
                return;
            }
            spin_hint();
        });
        let result = run_once(plan, 100, MemoryMode::Sc, &mut lowest);
        assert_eq!(result.outcome, Outcome::Livelock);
    }

    #[test]
    fn step_budget_prunes_unfair_schedules() {
        let cell = StdArc::new(Atomic::new(0u64));
        let c = StdArc::clone(&cell);
        // A retry loop without spin_hint: the budget backstop catches it.
        let plan = Plan::new().thread(move || while c.load() != 1 {});
        let result = run_once(plan, 50, MemoryMode::Sc, &mut lowest);
        assert_eq!(result.outcome, Outcome::Pruned);
    }
}
