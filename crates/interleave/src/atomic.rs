//! Instrumented atomic cells: every operation is a scheduling yield point.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::runtime::{step_read, step_write, weak_session, LocCache, WeakSession, MAX_THREADS};

/// What the ordering-less operations pass to their `_ord` forms. A constant,
/// not the literal: those delegations are not atomic sites, and `lfrt-ordlint`
/// inventories every call that names an ordering literally.
const SC: Ordering = Ordering::SeqCst;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared storage behind an [`Atomic`]. Kept behind an `Arc` so the
/// type-erased commit closures handed to the runtime's store buffers can
/// outlive the borrow of the cell that issued them.
struct Inner<T> {
    /// The globally visible value.
    main: Mutex<T>,
    /// Per model thread: values of this cell sitting in that thread's store
    /// buffer, oldest first. The runtime's `BufferedStore` entries for this
    /// cell correspond 1:1 and in order, so each commit pops the front.
    pending: Mutex<Vec<VecDeque<T>>>,
    /// Superseded values, oldest first, kept `window` deep under
    /// [`crate::MemoryMode::Relaxed`] (empty otherwise): `history[len - a]`
    /// is the value `a` versions older than `main`. Tracks the runtime's
    /// per-location version counter in lockstep — every commit is
    /// serialized through the controller, and exploration factories build
    /// fresh cells per execution, so entries never leak across runs.
    history: Mutex<Vec<T>>,
    /// `(run id, location id)` assigned by the current store-buffer
    /// execution; the run id guard stops ids leaking across executions.
    loc: LocCache,
}

/// A model atomic cell. Each `load`/`store`/`swap`/`compare_exchange`/
/// `fetch_add` is one *step* of the owning model thread: the scheduler
/// decides the interleaving of these operations across threads, which is
/// exactly the granularity at which lock-free algorithms differ.
///
/// The ordering-less operations are the `_ord` ones at `SeqCst`. The `_ord`
/// variants declare the `std::sync::atomic::Ordering` the mirrored real code
/// uses; under [`crate::MemoryMode::Sc`] the declaration is recorded but
/// changes nothing, while under [`crate::MemoryMode::StoreBuffer`] `Relaxed`
/// and `Release` stores sit in a per-thread store buffer until a flush step
/// commits them (see `MemoryMode`'s docs for the full visibility rules).
///
/// Outside a model execution the operations behave like ordinary
/// sequentially-consistent atomics with no yielding, so models remain usable
/// from plain unit tests.
pub struct Atomic<T> {
    inner: Arc<Inner<T>>,
}

impl<T: Copy> Atomic<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: Arc::new(Inner {
                main: Mutex::new(value),
                pending: Mutex::new((0..MAX_THREADS).map(|_| VecDeque::new()).collect()),
                history: Mutex::new(Vec::new()),
                loc: LocCache::default(),
            }),
        }
    }

    /// The value this thread observes: its own newest buffered store to this
    /// cell if one exists (store-to-load forwarding), else global memory.
    fn observe(&self, session: Option<&WeakSession>) -> T {
        if let Some(session) = session {
            let pending = lock(&self.inner.pending);
            if let Some(v) = pending[session.tid()].back() {
                return *v;
            }
        }
        *lock(&self.inner.main)
    }

    /// Replaces the value behind `main`'s guard, pushing the superseded one
    /// into the bounded stale-value history when the mode keeps one
    /// (`window` > 0, i.e. [`crate::MemoryMode::Relaxed`]). An associated
    /// function so the type-erased flush closures can commit through the `Arc`.
    fn set(inner: &Inner<T>, main: &mut T, value: T, window: usize) {
        let old = std::mem::replace(main, value);
        if window > 0 {
            let mut history = lock(&inner.history);
            history.push(old);
            if history.len() > window {
                history.remove(0);
            }
        }
    }

    /// One read-modify-write of the globally visible value: `next` sees it
    /// and returns its replacement, or `None` to leave it (a failed CAS).
    /// The lock is held across read, compare and write, so this is atomic
    /// between real threads too, not only between serialized model steps.
    /// Visible at this step; records the version bump when the mode keeps a
    /// stale window. Returns the value read.
    fn rmw(&self, session: Option<&WeakSession>, next: impl FnOnce(T) -> Option<T>) -> T {
        let window = session.map_or(0, |s| s.window());
        let mut main = lock(&self.inner.main);
        let prev = *main;
        if let Some(value) = next(prev) {
            Self::set(&self.inner, &mut main, value, window);
            drop(main);
            if window > 0 {
                let session = session.expect("a stale window implies a session");
                session.committed(session.loc(&self.inner.loc));
            }
        }
        prev
    }

    /// Applies the stale-set effect of an RMW's outcome ordering: an
    /// `Acquire`-class outcome drains the calling thread's stale set, like
    /// an acquire load.
    fn rmw_stale(session: Option<&WeakSession>, outcome: Ordering) {
        if let Some(s) = session {
            if s.window() > 0
                && matches!(
                    outcome,
                    Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
                )
            {
                s.drain_stale();
            }
        }
    }

    /// Non-yielding read, for code that owns the cell exclusively by
    /// protocol: post-CAS payload reads, post-join invariant checks, drains.
    /// Mirrors the real implementations' non-atomic accesses to memory they
    /// have just won exclusive ownership of. Reads global memory only —
    /// never another thread's buffered stores.
    pub fn load_plain(&self) -> T {
        *lock(&self.inner.main)
    }

    /// Non-yielding write, for pre-publication initialization: stores that
    /// other threads cannot observe until a later release/CAS step publishes
    /// them (e.g. setting a new node's `next` before the push CAS). Writes
    /// global memory directly, bypassing any store buffer — a model that
    /// wants initialization to be *reorderable* must use
    /// [`Atomic::store_ord`] with `Relaxed` instead.
    pub fn store_plain(&self, value: T) {
        *lock(&self.inner.main) = value;
    }

    /// The globally visible value through exclusive access, as `std`'s
    /// `get_mut` (what `Drop` impls read). Never a step. Stores still in a
    /// store buffer hold the shared storage and commit into it later; the
    /// exclusively borrowed cell moves to fresh storage and leaves them.
    pub fn get_mut(&mut self) -> &mut T {
        if Arc::get_mut(&mut self.inner).is_none() {
            *self = Self::new(self.load_plain());
        }
        let inner = Arc::get_mut(&mut self.inner).expect("storage is unshared");
        inner.main.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The scheduled operations buffer typed values inside runtime-owned
/// closures, hence the extra `Send + 'static` bounds (model values are `Copy`
/// ids and counters, so this costs nothing in practice).
impl<T: Copy + Send + 'static> Atomic<T> {
    /// Buffers one store of `value` in the issuing thread's store buffer.
    fn buffer(&self, session: &WeakSession, value: T, release: bool) {
        let loc = session.loc(&self.inner.loc);
        let tid = session.tid();
        let window = session.window();
        lock(&self.inner.pending)[tid].push_back(value);
        let inner = Arc::clone(&self.inner);
        session.buffer_store(
            loc,
            release,
            Box::new(move || {
                let v = lock(&inner.pending)[tid]
                    .pop_front()
                    .expect("runtime flushed a store this cell never buffered");
                Self::set(&inner, &mut lock(&inner.main), v, window);
            }),
        );
    }

    /// Drains per the success-ordering class of a read-modify-write: a
    /// `Release`-or-stronger RMW does not overtake the store buffer (full
    /// drain); a `Relaxed`/`Acquire` RMW acts on coherent memory, so only
    /// this cell's own buffered stores must land first.
    fn rmw_drain(&self, session: &WeakSession, success: Ordering) {
        match success {
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => session.drain(),
            Ordering::Relaxed | Ordering::Acquire => {
                session.drain_location(session.loc(&self.inner.loc));
            }
            _ => unreachable!(),
        }
    }

    /// Reads the value. One step. `load_ord(SeqCst)`.
    pub fn load(&self) -> T {
        self.load_ord(SC)
    }

    /// Writes the value. One step. `store_ord(value, SeqCst)`.
    pub fn store(&self, value: T) {
        self.store_ord(value, SC);
    }

    /// Replaces the value, returning the previous one. One step, `SeqCst`.
    pub fn swap(&self, value: T) -> T {
        self.swap_ord(value, SC)
    }

    /// Compare-and-swap: if the cell equals `current`, writes `new` and
    /// returns `Ok(current)`; otherwise returns `Err(actual)`. One step,
    /// whether it succeeds or fails — mirroring a hardware CAS. `SeqCst`.
    pub fn compare_exchange(&self, current: T, new: T) -> Result<T, T>
    where
        T: PartialEq,
    {
        self.compare_exchange_ord(current, new, SC, SC)
    }

    /// Adds `rhs`, returning the previous value. One step, `SeqCst`.
    pub fn fetch_add(&self, rhs: T) -> T
    where
        T: std::ops::Add<Output = T>,
    {
        self.fetch_add_ord(rhs, SC)
    }

    /// Reads the value with a declared load ordering. One step.
    ///
    /// Under [`crate::MemoryMode::Sc`] and [`crate::MemoryMode::StoreBuffer`]
    /// the ordering does not change what the load returns (no load–load
    /// reordering there — see DESIGN.md §6b); the declaration exists so
    /// models document the real code faithfully. Under
    /// [`crate::MemoryMode::Relaxed`] a `Relaxed` load is eligible for
    /// stale-read decisions (it may return a value up to `window` versions
    /// old, within the thread's coherence floor), while an
    /// `Acquire`/`SeqCst` load drains the stale set and returns the
    /// freshest committed value. Loads always forward from the issuing
    /// thread's own buffered stores first.
    ///
    /// # Panics
    ///
    /// Panics on `Release`/`AcqRel`, which are invalid for loads (as in
    /// `std`).
    pub fn load_ord(&self, order: Ordering) -> T {
        assert!(
            !matches!(order, Ordering::Release | Ordering::AcqRel),
            "there is no such thing as a release load"
        );
        let session = weak_session();
        if let Some(s) = &session {
            if s.window() > 0 {
                if order == Ordering::Relaxed {
                    // Store-to-load forwarding wins over staleness: with an
                    // own buffered store pending, the load returns it.
                    let forwards = !lock(&self.inner.pending)[s.tid()].is_empty();
                    if !forwards {
                        // The park itself: the explorer picks fresh (plain
                        // thread id) or one of the readable stale ages.
                        return match s.relaxed_load(&self.inner.loc) {
                            Some(age) => {
                                let history = lock(&self.inner.history);
                                history[history.len() - age]
                            }
                            None => *lock(&self.inner.main),
                        };
                    }
                } else {
                    // Acquire/SeqCst: drain the stale set, read fresh.
                    step_read();
                    s.drain_stale();
                    return self.observe(session.as_ref());
                }
            }
        }
        step_read();
        self.observe(session.as_ref())
    }

    /// Writes the value with a declared store ordering. One step.
    ///
    /// Under a store-buffer mode, `Relaxed` and `Release` stores are
    /// *buffered*: globally invisible until a later flush step commits them
    /// (`Release` only from the front of the buffer). `SeqCst` drains the
    /// buffer and commits immediately.
    ///
    /// # Panics
    ///
    /// Panics on `Acquire`/`AcqRel`, which are invalid for stores (as in
    /// `std`).
    pub fn store_ord(&self, value: T, order: Ordering) {
        assert!(
            !matches!(order, Ordering::Acquire | Ordering::AcqRel),
            "there is no such thing as an acquire store"
        );
        step_write();
        match weak_session() {
            Some(session) => match order {
                Ordering::SeqCst => {
                    session.drain();
                    self.rmw(Some(&session), |_| Some(value));
                }
                Ordering::Release => self.buffer(&session, value, true),
                Ordering::Relaxed => self.buffer(&session, value, false),
                _ => unreachable!(),
            },
            None => *lock(&self.inner.main) = value,
        }
    }

    /// Replaces the value, returning the previous one, with a declared RMW
    /// ordering. One step; the written value is globally visible at this
    /// step (hardware RMWs do not sit in the store buffer, and always act
    /// on the latest value — RMWs are coherent even under
    /// [`crate::MemoryMode::Relaxed`]).
    pub fn swap_ord(&self, value: T, order: Ordering) -> T {
        step_write();
        let session = weak_session();
        if let Some(s) = &session {
            self.rmw_drain(s, order);
        }
        let prev = self.rmw(session.as_ref(), |_| Some(value));
        Self::rmw_stale(session.as_ref(), order);
        prev
    }

    /// Compare-and-swap with declared success and failure orderings. One
    /// step either way. The failure ordering affects only the returned
    /// load's synchronization, which the store-buffer mode does not model;
    /// it is declared so the mirror matches the real call site (and so the
    /// lint layer can check the pair).
    ///
    /// # Panics
    ///
    /// Panics on a `Release`/`AcqRel` failure ordering (invalid, as in
    /// `std`).
    pub fn compare_exchange_ord(
        &self,
        current: T,
        new: T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<T, T>
    where
        T: PartialEq,
    {
        assert!(
            !matches!(failure, Ordering::Release | Ordering::AcqRel),
            "there is no such thing as a release failure ordering"
        );
        step_write();
        let session = weak_session();
        if let Some(s) = &session {
            self.rmw_drain(s, success);
        }
        let actual = self.rmw(session.as_ref(), |seen| (seen == current).then_some(new));
        let result = if actual == current {
            Ok(current)
        } else {
            // The failed CAS still observed the latest value (RMWs are
            // coherent), so the thread's floor here rises to it.
            if let Some(s) = &session {
                if s.window() > 0 {
                    s.observed_latest(s.loc(&self.inner.loc));
                }
            }
            Err(actual)
        };
        let outcome = if result.is_ok() { success } else { failure };
        Self::rmw_stale(session.as_ref(), outcome);
        result
    }

    /// Adds `rhs`, returning the previous value, with a declared RMW
    /// ordering. One step; globally visible at this step.
    pub fn fetch_add_ord(&self, rhs: T, order: Ordering) -> T
    where
        T: std::ops::Add<Output = T>,
    {
        step_write();
        let session = weak_session();
        if let Some(s) = &session {
            self.rmw_drain(s, order);
        }
        let prev = self.rmw(session.as_ref(), |seen| Some(seen + rhs));
        Self::rmw_stale(session.as_ref(), order);
        prev
    }
}

/// A model memory fence with a declared ordering.
///
/// Under [`crate::MemoryMode::Sc`] (and outside model executions) this is a
/// no-op — sequential consistency already orders everything. Under a
/// store-buffer mode a `Release`-or-stronger fence is one write step that
/// drains the issuing thread's store buffer: everything stored before the
/// fence is globally visible before anything stored after it, which is the
/// guarantee the real fence provides (the model commits eagerly at the
/// fence, a conservative subset of the orderings real hardware allows — see
/// DESIGN.md §6b). Under [`crate::MemoryMode::StoreBuffer`] an `Acquire`
/// fence is a no-op because load–load reordering is not modeled there;
/// under [`crate::MemoryMode::Relaxed`] it is one read step that drains the
/// issuing thread's stale set (nothing read after the fence may be older
/// than what was current at it — the invalidate-queue flush). `AcqRel` and
/// `SeqCst` fences apply both effects in a single write step.
///
/// # Panics
///
/// Panics on `Relaxed`, which is invalid for fences (as in `std`).
pub fn fence(order: Ordering) {
    assert!(
        order != Ordering::Relaxed,
        "fence with Relaxed ordering is a no-op and invalid"
    );
    if let Some(session) = weak_session() {
        let releases = matches!(
            order,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        );
        let acquires = matches!(
            order,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        ) && session.window() > 0;
        if releases {
            step_write();
            session.drain();
            if acquires {
                session.drain_stale();
            }
        } else if acquires {
            step_read();
            session.drain_stale();
        }
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Atomic").field(&self.load_plain()).finish()
    }
}

impl<T: Copy + Default> Default for Atomic<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_plain_cell_outside_models() {
        let a = Atomic::new(5u64);
        assert_eq!(a.load(), 5);
        a.store(6);
        assert_eq!(a.swap(7), 6);
        assert_eq!(a.compare_exchange(7, 8), Ok(7));
        assert_eq!(a.compare_exchange(7, 9), Err(8));
        assert_eq!(a.fetch_add(10), 8);
        assert_eq!(a.load(), 18);
    }

    #[test]
    fn plain_accessors_bypass_scheduling() {
        let a = Atomic::new(1u32);
        a.store_plain(2);
        assert_eq!(a.load_plain(), 2);
    }

    #[test]
    fn works_with_option_values() {
        let a = Atomic::new(None::<u64>);
        assert_eq!(a.swap(Some(3)), None);
        assert_eq!(a.load(), Some(3));
    }

    #[test]
    fn ord_variants_match_outside_models() {
        let a = Atomic::new(1u64);
        assert_eq!(a.load_ord(Ordering::Acquire), 1);
        a.store_ord(2, Ordering::Release);
        assert_eq!(a.swap_ord(3, Ordering::AcqRel), 2);
        assert_eq!(
            a.compare_exchange_ord(3, 4, Ordering::AcqRel, Ordering::Acquire),
            Ok(3)
        );
        assert_eq!(
            a.compare_exchange_ord(3, 5, Ordering::Relaxed, Ordering::Relaxed),
            Err(4)
        );
        assert_eq!(a.fetch_add_ord(6, Ordering::Relaxed), 4);
        assert_eq!(a.load_ord(Ordering::Relaxed), 10);
        fence(Ordering::SeqCst); // no-op outside models, must not panic
    }

    /// Regression: the RMWs read `main` under one lock acquisition and
    /// committed under another, so real threads lost updates (2 x 200,000
    /// `fetch_add(1)` ended at 332,733).
    #[test]
    fn rmws_are_atomic_between_real_threads() {
        let mut counter = Atomic::new(0u64);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..100_000 {
                        counter.fetch_add(1);
                    }
                });
            }
        });
        assert_eq!(*counter.get_mut(), 200_000, "lost update");
    }

    #[test]
    #[should_panic(expected = "release load")]
    fn release_load_is_rejected() {
        Atomic::new(0u64).load_ord(Ordering::Release);
    }

    #[test]
    #[should_panic(expected = "acquire store")]
    fn acquire_store_is_rejected() {
        Atomic::new(0u64).store_ord(1, Ordering::Acquire);
    }
}
