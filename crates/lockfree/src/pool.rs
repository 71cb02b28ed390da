//! Epoch-recycling node pools: allocation-free steady-state hot paths.
//!
//! Every mutating hot path in this crate used to pay a global-allocator
//! round trip per operation (`Owned::new` on push/enqueue/insert, a
//! deferred `Box::from_raw` free on pop/dequeue/remove). The paper's QNX
//! prototype avoided exactly that with *type-stable node pools*; this
//! module is the epoch-integrated equivalent:
//!
//! * **Per-thread bounded caches.** Each thread keeps up to [`LOCAL_CAP`]
//!   free blocks per pool in a plain `Vec` (capacity reserved once, so the
//!   hot path never reallocates). An acquire pops from it; a recycle pushes
//!   to it. No atomics, no sharing, no allocator.
//! * **Shared overflow for asymmetric workloads.** When a cache fills
//!   (a consumer thread recycling nodes it never acquires), it spills a
//!   [`SPILL_CHUNK`]-block *segment* to a per-pool Treiber stack with one
//!   CAS; a producer thread whose cache runs dry refills from it. The
//!   refill protocol is **detach-all**: one atomic `swap` takes the whole
//!   segment chain, the refiller keeps the first segment and re-pushes the
//!   rest with one CAS. No overflow operation ever dereferences a block it
//!   does not exclusively own — a pop-one-segment protocol would have to
//!   read the popped segment's chain link *before* winning the pop CAS,
//!   racing a concurrent refiller that already took the segment, handed
//!   its blocks out, and let their new owner overwrite (or even free —
//!   `acquire`'s contract permits direct dealloc, and the structures'
//!   `Drop` impls use it) that very word. Detach-all removes the stale
//!   read instead of trying to tolerate it, and makes a version-tagged
//!   head unnecessary: Treiber *push* has no ABA hazard, and the swap
//!   compares nothing.
//! * **ABA safety via the epoch grace period.** Blocks enter a pool only
//!   through `Guard::defer_recycle`, which runs the recycler after the same
//!   two-epoch-advance grace period that gates `defer_destroy`'s free. A
//!   block can therefore never be handed out again while any thread pinned
//!   before its retirement could still dereference it — reuse is gated on
//!   the exact advance that makes the free safe today.
//!
//! Pools are keyed by `(size, align, pooled)` layout in a global lock-free
//! registry and leaked (`&'static`), like the epoch registry's thread
//! records: the set of node layouts is small and fixed. A layout too small
//! to carry the two free-list link words (size < 16 or align < 8) — and any
//! pool requested with `pooled = false` — degrades to *passthrough* mode,
//! where acquire is a plain allocation and recycle a plain free: the
//! measured "boxed" baseline the benches compare against.
//!
//! Telemetry: per-pool hit/miss/spill/refill/recycle counters and
//! `lfrt-trace` events (`PoolHit`/`PoolMiss`/`PoolSpill`/`PoolRefill` at
//! `Site::Pool`). The per-op counters (hits, recycles) accumulate in plain
//! per-thread cells — an atomic RMW per op costs more than the pool saves
//! over `malloc` — and flush into the shared cache-padded shards on the
//! cold events (spill, refill, thread exit). [`RawPool::stats`] folds the
//! calling thread's unflushed cells in, so same-thread observers are exact
//! and cross-thread observers lag by at most one cache's accumulation.

use std::alloc::Layout;
use std::cell::{Cell, RefCell};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use crossbeam::utils::{Backoff, CachePadded};
use lfrt_trace as trace;

/// Maximum free blocks a thread caches per pool before spilling.
pub const LOCAL_CAP: usize = 64;
/// Blocks per overflow segment: a full cache spills this many in one CAS,
/// and a dry cache refills this many in one CAS.
pub const SPILL_CHUNK: usize = 32;
/// Telemetry stripes; each thread picks one at cache creation.
const SHARDS: usize = 8;

/// A block must hold two link words while free: `word0` links blocks within
/// a segment, `word1` (head block only) links segments.
const MIN_BLOCK_SIZE: usize = 2 * std::mem::size_of::<*mut u8>();
const MIN_BLOCK_ALIGN: usize = std::mem::align_of::<*mut u8>();

/// Reads/writes of a free block's link words. `word0` is the intra-segment
/// next-block link; `word1` (meaningful on a segment's head block only) is
/// the next-segment link.
///
/// # Safety (all four)
///
/// `block` must point to a live allocation of at least [`MIN_BLOCK_SIZE`]
/// bytes aligned to [`MIN_BLOCK_ALIGN`], exclusively owned by the caller
/// for writes.
unsafe fn read_word0(block: *mut u8) -> *mut u8 {
    unsafe { block.cast::<*mut u8>().read() }
}

unsafe fn write_word0(block: *mut u8, next: *mut u8) {
    unsafe { block.cast::<*mut u8>().write(next) }
}

unsafe fn read_word1(block: *mut u8) -> *mut u8 {
    unsafe { block.cast::<*mut u8>().add(1).read() }
}

unsafe fn write_word1(block: *mut u8, next_seg: *mut u8) {
    unsafe { block.cast::<*mut u8>().add(1).write(next_seg) }
}

/// One telemetry stripe. Summed into a [`PoolStats`] by [`RawPool::stats`].
#[derive(Default)]
struct Shard {
    hits: AtomicUsize,
    misses: AtomicUsize,
    spills: AtomicUsize,
    refills: AtomicUsize,
    recycles: AtomicUsize,
}

/// Lifetime telemetry totals of one pool, summed over its stripes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Whether this pool actually caches blocks (false = passthrough).
    pub pooled: bool,
    /// Acquires served from the thread cache (steady-state fast path).
    pub hits: usize,
    /// Acquires that fell through to the global allocator because the
    /// cache *and* overflow were dry.
    ///
    /// Only meaningful in pooled mode. A passthrough pool hits the
    /// allocator on *every* acquire by construction and deliberately does
    /// not count them: it exists to measure the boxed baseline, and an
    /// atomic RMW per acquire would distort the very path it measures —
    /// so `misses` reads 0 there, as do all the other counters.
    pub misses: usize,
    /// Cache-full spills of a segment to the shared overflow.
    pub spills: usize,
    /// Cache-empty refills of a segment from the shared overflow.
    pub refills: usize,
    /// Blocks recycled into a thread cache after their grace period.
    pub recycles: usize,
}

/// A per-layout, process-global node pool. Obtained with
/// [`RawPool::for_layout`] and never dropped (`&'static`).
pub struct RawPool {
    /// Index into each thread's cache vector.
    id: usize,
    layout: Layout,
    /// False = passthrough: acquire allocates, recycle frees.
    pooled: bool,
    /// Treiber stack of spilled segments, linked through each segment head
    /// block's `word1`. Popped only whole (detach-all swap), so no ABA tag
    /// is needed and nothing is ever dereferenced before it is owned.
    overflow: CachePadded<AtomicPtr<u8>>,
    shards: [CachePadded<Shard>; SHARDS],
}

/// One entry of the global pool registry (a lock-free prepend-only list,
/// like the epoch thread-record registry).
struct PoolReg {
    pool: RawPool,
    next: AtomicPtr<PoolReg>,
}

static REGISTRY: AtomicPtr<PoolReg> = AtomicPtr::new(ptr::null_mut());
static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

/// One thread's bounded free-block cache for one pool.
struct Cache {
    pool: &'static RawPool,
    /// This thread's telemetry stripe in `pool.shards`: the Fibonacci-
    /// hashed thread ordinal (`crate::stats::thread_hash`) masked to
    /// [`SHARDS`]. Shards are flushed into with `fetch_add`, so two
    /// threads hashing to one shard is harmless. The round-robin counter
    /// this replaced (`NEXT_SHARD.fetch_add % SHARDS`) drifted under
    /// thread churn: exits never decremented it, so long-running processes
    /// walked the assignment around the ring.
    shard: usize,
    /// Per-op counters, accumulated without atomics and flushed to the
    /// shard on cold events (see [`Cache::flush_stats`]).
    hits: Cell<usize>,
    recycles: Cell<usize>,
    /// Free blocks, LIFO. Capacity reserved once; `len` never exceeds
    /// [`LOCAL_CAP`] (spill runs first), so pushes never reallocate.
    blocks: Vec<*mut u8>,
}

impl Cache {
    fn new(pool: &'static RawPool) -> Cache {
        Cache {
            pool,
            shard: crate::stats::thread_hash() & (SHARDS - 1),
            hits: Cell::new(0),
            recycles: Cell::new(0),
            blocks: Vec::with_capacity(LOCAL_CAP),
        }
    }

    /// Publishes the accumulated per-op counts into the shared shard.
    /// Called on spill/refill (once per [`SPILL_CHUNK`] ops) and on thread
    /// exit, never on the per-op path.
    fn flush_stats(&self) {
        let shard = &self.pool.shards[self.shard];
        let hits = self.hits.replace(0);
        if hits > 0 {
            shard.hits.fetch_add(hits, Ordering::Relaxed);
        }
        let recycles = self.recycles.replace(0);
        if recycles > 0 {
            shard.recycles.fetch_add(recycles, Ordering::Relaxed);
        }
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        self.flush_stats();
        // Thread exit: hand every cached block to the shared overflow so
        // surviving threads keep recycling them.
        while self.blocks.len() >= SPILL_CHUNK {
            self.pool.spill(&mut self.blocks, self.shard);
        }
        let n = self.blocks.len();
        if n > 0 {
            let mut chain: *mut u8 = ptr::null_mut();
            for b in self.blocks.drain(..) {
                // SAFETY: cached blocks are live, exclusively owned, and at
                // least MIN_BLOCK-sized (pooled mode guarantees it).
                unsafe { write_word0(b, chain) };
                chain = b;
            }
            self.pool.push_segment(chain, n, self.shard);
        }
    }
}

thread_local! {
    /// Per-thread caches, indexed by pool id.
    static CACHES: RefCell<Vec<Option<Cache>>> = const { RefCell::new(Vec::new()) };
}

impl RawPool {
    /// The process-global pool for `layout`, creating and publishing it on
    /// first use. `pooled = false` requests a passthrough pool (the boxed
    /// baseline); a layout too small for the free-list link words degrades
    /// to passthrough regardless.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized layouts (nothing to pool, nothing to allocate).
    pub fn for_layout(layout: Layout, pooled: bool) -> &'static RawPool {
        assert!(layout.size() > 0, "zero-sized layouts are not supported");
        let pooled = pooled && layout.size() >= MIN_BLOCK_SIZE && layout.align() >= MIN_BLOCK_ALIGN;
        let key = (layout.size(), layout.align(), pooled);
        let mut spare: Option<Box<PoolReg>> = None;
        let backoff = Backoff::new();
        loop {
            let mut cursor = REGISTRY.load(Ordering::Acquire);
            while let Some(reg) = unsafe { cursor.as_ref() } {
                if (
                    reg.pool.layout.size(),
                    reg.pool.layout.align(),
                    reg.pool.pooled,
                ) == key
                {
                    return &reg.pool;
                }
                cursor = reg.next.load(Ordering::Acquire);
            }
            let node = spare.take().unwrap_or_else(|| {
                Box::new(PoolReg {
                    pool: RawPool {
                        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                        layout,
                        pooled,
                        overflow: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
                        shards: std::array::from_fn(|_| CachePadded::new(Shard::default())),
                    },
                    next: AtomicPtr::new(ptr::null_mut()),
                })
            });
            let head = REGISTRY.load(Ordering::Acquire);
            node.next.store(head, Ordering::Relaxed);
            let raw = Box::into_raw(node);
            // Failure ordering Relaxed: the failed value is discarded — the
            // retry re-walks from a fresh Acquire load at the loop top.
            match REGISTRY.compare_exchange(head, raw, Ordering::Release, Ordering::Relaxed) {
                // SAFETY: just published and never unpublished — 'static.
                Ok(_) => return unsafe { &(*raw).pool },
                Err(_) => {
                    // Lost the publish race; reclaim the box and re-walk —
                    // the winner may have published this very key.
                    spare = Some(unsafe { Box::from_raw(raw) });
                    backoff.spin();
                }
            }
        }
    }

    /// The pool for `T`'s layout (pooled mode).
    pub fn of<T>() -> &'static RawPool {
        RawPool::for_layout(Layout::new::<T>(), true)
    }

    /// The passthrough pool for `T`'s layout: acquire allocates, recycle
    /// frees — the measured boxed baseline.
    pub fn of_boxed<T>() -> &'static RawPool {
        RawPool::for_layout(Layout::new::<T>(), false)
    }

    /// The context word for [`crossbeam::epoch::Guard::defer_recycle`]:
    /// this pool's address, handed back to [`recycle_raw`].
    pub fn ctx(&'static self) -> usize {
        self as *const RawPool as usize
    }

    /// Hands out one uninitialized block of this pool's layout.
    ///
    /// Steady state this is a thread-cache `Vec::pop` (or one overflow CAS
    /// per [`SPILL_CHUNK`] blocks); only a genuinely dry pool — or
    /// passthrough mode — falls through to the global allocator.
    ///
    /// The caller owns the block exclusively and must eventually return it
    /// via [`recycle_raw`] (through `defer_recycle`) or free it with the
    /// global allocator under this pool's layout.
    #[inline]
    pub fn acquire(&'static self) -> *mut u8 {
        if self.pooled {
            match CACHES.try_with(|caches| self.cache_pop(&mut caches.borrow_mut())) {
                Ok(Some(block)) => return block,
                // Cache and overflow dry, or TLS already torn down.
                _ => self.count_miss(),
            }
        }
        self.alloc_block()
    }

    /// Lifetime telemetry totals: the shared stripes plus the calling
    /// thread's unflushed per-op cells. Exact for everything the calling
    /// thread did and for exited threads; another *live* thread's hits and
    /// recycles appear once its cache flushes (on a spill, a refill, or
    /// thread exit), so cross-thread reads can lag by one accumulation.
    pub fn stats(&self) -> PoolStats {
        let mut s = PoolStats {
            pooled: self.pooled,
            hits: 0,
            misses: 0,
            spills: 0,
            refills: 0,
            recycles: 0,
        };
        for shard in &self.shards {
            s.hits += shard.hits.load(Ordering::Relaxed);
            s.misses += shard.misses.load(Ordering::Relaxed);
            s.spills += shard.spills.load(Ordering::Relaxed);
            s.refills += shard.refills.load(Ordering::Relaxed);
            s.recycles += shard.recycles.load(Ordering::Relaxed);
        }
        let _ = CACHES.try_with(|caches| {
            if let Some(Some(cache)) = caches.borrow().get(self.id) {
                s.hits += cache.hits.get();
                s.recycles += cache.recycles.get();
            }
        });
        s
    }

    /// Returns every block in the shared overflow *and the calling thread's
    /// cache* to the global allocator, reporting how many were freed. The
    /// teardown lever for leak accounting — pools themselves are `'static`
    /// and never drop.
    ///
    /// # Safety
    ///
    /// No other thread may be operating on this pool concurrently (acquire,
    /// recycle, or purge): a racing refill would take blocks this purge
    /// promises to have freed, and a racing recycle could repopulate the
    /// overflow behind the single detach below.
    pub unsafe fn purge(&'static self) -> usize {
        let mut freed = 0;
        let _ = CACHES.try_with(|caches| {
            let mut caches = caches.borrow_mut();
            if let Some(Some(cache)) = caches.get_mut(self.id) {
                for b in cache.blocks.drain(..) {
                    // SAFETY: cached blocks came from this pool's layout and
                    // are exclusively owned.
                    unsafe { std::alloc::dealloc(b, self.layout) };
                    freed += 1;
                }
            }
        });
        // Detach the whole chain in one swap; the quiescence contract means
        // nothing is pushed concurrently, so one swap takes everything.
        let mut seg = self.overflow.swap(ptr::null_mut(), Ordering::Acquire);
        while !seg.is_null() {
            // SAFETY: the swap detached the chain — it is exclusively ours.
            let next_seg = unsafe { read_word1(seg) };
            let mut b = seg;
            while !b.is_null() {
                // SAFETY: as above; each block freed once.
                let next = unsafe { read_word0(b) };
                unsafe { std::alloc::dealloc(b, self.layout) };
                freed += 1;
                b = next;
            }
            seg = next_seg;
        }
        freed
    }

    /// Fast path: pop from (or refill) the calling thread's cache. The
    /// steady-state branch is a bounds-checked index and a `Vec::pop`; the
    /// first touch per (thread, pool) takes the `#[cold]` detour once.
    #[inline]
    fn cache_pop(&'static self, caches: &mut Vec<Option<Cache>>) -> Option<*mut u8> {
        let cache = match caches.get_mut(self.id) {
            Some(Some(cache)) => cache,
            _ => Self::cache_init(caches, self),
        };
        if let Some(block) = cache.blocks.pop() {
            cache.hits.set(cache.hits.get() + 1);
            trace::emit(trace::EventKind::PoolHit, trace::Site::Pool, self.id as u64);
            return Some(block);
        }
        let taken = self.refill(&mut cache.blocks);
        if taken > 0 {
            cache.flush_stats();
            self.shards[cache.shard]
                .refills
                .fetch_add(1, Ordering::Relaxed);
            trace::emit(
                trace::EventKind::PoolRefill,
                trace::Site::Pool,
                taken as u64,
            );
            return cache.blocks.pop();
        }
        None
    }

    /// First touch of this pool by this thread: grow the cache vector and
    /// build the cache. Out of line so the per-op path stays branch+pop.
    #[cold]
    fn cache_init<'a>(caches: &'a mut Vec<Option<Cache>>, pool: &'static RawPool) -> &'a mut Cache {
        if caches.len() <= pool.id {
            caches.resize_with(pool.id + 1, || None);
        }
        caches[pool.id].get_or_insert_with(|| Cache::new(pool))
    }

    /// Returns a block to the calling thread's cache (spilling a segment
    /// first if the cache is full), or straight to the overflow when the
    /// thread's TLS is already torn down.
    fn recycle(&'static self, block: *mut u8) {
        if !self.pooled {
            // SAFETY: passthrough — the block is exclusively ours, came from
            // the global allocator under this layout, and is freed once.
            unsafe { std::alloc::dealloc(block, self.layout) };
            return;
        }
        let cached = CACHES.try_with(|caches| {
            let mut caches = caches.borrow_mut();
            let cache = match caches.get_mut(self.id) {
                Some(Some(cache)) => cache,
                _ => Self::cache_init(&mut caches, self),
            };
            if cache.blocks.len() >= LOCAL_CAP {
                cache.flush_stats();
                self.spill(&mut cache.blocks, cache.shard);
            }
            cache.blocks.push(block);
            cache.recycles.set(cache.recycles.get() + 1);
        });
        if cached.is_err() {
            // Thread teardown: publish the lone block as a one-block segment.
            // SAFETY: exclusively owned, MIN_BLOCK-sized (pooled mode).
            unsafe { write_word0(block, ptr::null_mut()) };
            self.push_segment(block, 1, 0);
        }
    }

    /// Links [`SPILL_CHUNK`] blocks from `blocks` into a segment and pushes
    /// it to the shared overflow with one CAS.
    fn spill(&'static self, blocks: &mut Vec<*mut u8>, shard: usize) {
        debug_assert!(blocks.len() >= SPILL_CHUNK);
        let mut chain: *mut u8 = ptr::null_mut();
        for _ in 0..SPILL_CHUNK {
            let b = blocks.pop().expect("spill on an under-full cache");
            // SAFETY: cached blocks are live, exclusively owned, and at
            // least MIN_BLOCK-sized.
            unsafe { write_word0(b, chain) };
            chain = b;
        }
        self.push_segment(chain, SPILL_CHUNK, shard);
    }

    /// Pushes an exclusively owned segment (blocks chained via `word0`,
    /// null-terminated) onto the overflow stack.
    fn push_segment(&'static self, seg: *mut u8, blocks: usize, shard: usize) {
        self.push_segments(seg, seg);
        self.shards[shard].spills.fetch_add(1, Ordering::Relaxed);
        trace::emit(
            trace::EventKind::PoolSpill,
            trace::Site::Pool,
            blocks as u64,
        );
    }

    /// Publishes an exclusively owned chain of segments (`chain` first,
    /// `tail` last, linked via `word1` in between — `tail`'s own `word1` is
    /// overwritten here) onto the overflow with one CAS. Treiber push needs
    /// no ABA tag: the CAS writes nothing derived from a pre-CAS read of
    /// shared memory, only `chain`, which the caller owns.
    fn push_segments(&'static self, chain: *mut u8, tail: *mut u8) {
        let backoff = Backoff::new();
        let mut head = self.overflow.load(Ordering::Relaxed);
        loop {
            // SAFETY: the chain (tail included) is still exclusively ours
            // until the CAS publishes it.
            unsafe { write_word1(tail, head) };
            match self
                .overflow
                .compare_exchange(head, chain, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => {
                    head = actual;
                    backoff.spin();
                }
            }
        }
    }

    /// Refills `into` with one segment's blocks from the overflow; returns
    /// the number taken (0 = overflow empty).
    ///
    /// Protocol: **detach-all, keep one, push the rest back.** One `swap`
    /// takes the entire chain; only then — owning it exclusively — do we
    /// read any link word. A pop-one protocol would read the head segment's
    /// chain link before winning its CAS, racing the block's next owner
    /// (who may overwrite or legally free it); no version tag fixes the
    /// read itself, so the protocol avoids it entirely. The cost is a small
    /// window where a concurrent refiller sees an empty overflow (between
    /// our swap and push-back) and falls through to the allocator — a miss
    /// on a cold path, not a safety event.
    fn refill(&'static self, into: &mut Vec<*mut u8>) -> usize {
        debug_assert!(into.is_empty(), "refill into a non-empty cache");
        if self.overflow.load(Ordering::Relaxed).is_null() {
            return 0;
        }
        let seg = self.overflow.swap(ptr::null_mut(), Ordering::Acquire);
        if seg.is_null() {
            // Lost the race to another refiller between the check and swap.
            return 0;
        }
        // SAFETY: the swap detached the whole chain; every segment and
        // block reachable from `seg` is exclusively ours.
        let rest = unsafe { read_word1(seg) };
        let mut taken = 0;
        let mut b = seg;
        // Bounded: segments hold at most SPILL_CHUNK blocks.
        while !b.is_null() {
            // SAFETY: as above.
            let next = unsafe { read_word0(b) };
            into.push(b);
            taken += 1;
            b = next;
        }
        if !rest.is_null() {
            // Walk to the tail (exclusively owned, plain reads) and re-push
            // the remainder as one pre-linked chain.
            let mut tail = rest;
            loop {
                // SAFETY: as above.
                let next_seg = unsafe { read_word1(tail) };
                if next_seg.is_null() {
                    break;
                }
                tail = next_seg;
            }
            self.push_segments(rest, tail);
        }
        taken
    }

    fn count_miss(&'static self) {
        // No cache at hand on this path; stripe 0 absorbs the (cold) count.
        self.shards[0].misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Cold path: one global-allocator block of this pool's layout.
    fn alloc_block(&'static self) -> *mut u8 {
        // SAFETY: `for_layout` rejected zero-sized layouts.
        let block = unsafe { std::alloc::alloc(self.layout) };
        if block.is_null() {
            std::alloc::handle_alloc_error(self.layout);
        }
        trace::emit(
            trace::EventKind::PoolMiss,
            trace::Site::Pool,
            self.id as u64,
        );
        block
    }
}

/// The recycler passed to `Guard::defer_recycle`: runs after the block's
/// grace period and returns it to the pool identified by `ctx`.
///
/// # Safety
///
/// `ptr` must be an exclusively owned, unreachable block allocated under
/// the layout of the pool whose [`RawPool::ctx`] produced `ctx`, with any
/// non-trivially-droppable payload already moved out.
pub(crate) unsafe fn recycle_raw(ptr: *mut u8, ctx: usize) {
    // SAFETY: `ctx` came from `RawPool::ctx` on a leaked, never-freed pool.
    let pool: &'static RawPool = unsafe { &*(ctx as *const RawPool) };
    pool.recycle(ptr);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layout no other test (or structure) uses, so the pool's counters
    /// are isolated even across parallel tests.
    #[repr(align(8))]
    struct TestBlock {
        _bytes: [u8; 40],
    }

    #[test]
    fn acquire_recycle_round_trip_hits_the_cache() {
        let pool = RawPool::of::<TestBlock>();
        let a = pool.acquire();
        // SAFETY: `a` is exclusively ours and unreachable.
        unsafe { recycle_raw(a, pool.ctx()) };
        let before = pool.stats();
        let b = pool.acquire();
        assert_eq!(a, b, "LIFO cache hands the recycled block back");
        let after = pool.stats();
        assert_eq!(after.hits, before.hits + 1);
        // SAFETY: exclusively ours; return it so the test leaks nothing.
        unsafe { std::alloc::dealloc(b, Layout::new::<TestBlock>()) };
    }

    #[test]
    fn same_layout_same_pool_different_mode_different_pool() {
        let a = RawPool::of::<TestBlock>();
        let b = RawPool::of::<TestBlock>();
        assert!(std::ptr::eq(a, b));
        let pass = RawPool::of_boxed::<TestBlock>();
        assert!(!std::ptr::eq(a, pass));
        assert!(!pass.stats().pooled);
        assert!(a.stats().pooled);
    }

    #[test]
    fn tiny_layouts_degrade_to_passthrough() {
        let pool = RawPool::for_layout(Layout::new::<u8>(), true);
        assert!(!pool.stats().pooled, "one-byte blocks cannot hold links");
    }

    #[test]
    fn passthrough_recycle_frees_immediately() {
        #[repr(align(8))]
        struct PassBlock {
            _bytes: [u8; 48],
        }
        let pool = RawPool::of_boxed::<PassBlock>();
        let a = pool.acquire();
        // SAFETY: exclusively ours, correct layout.
        unsafe { recycle_raw(a, pool.ctx()) };
        let s = pool.stats();
        assert_eq!((s.hits, s.recycles), (0, 0), "passthrough never caches");
    }

    #[test]
    fn spill_and_refill_move_segments_through_the_overflow() {
        // A unique layout so LOCAL_CAP arithmetic is exact.
        #[repr(align(8))]
        struct SpillBlock {
            _bytes: [u8; 56],
        }
        let pool = RawPool::of::<SpillBlock>();
        let blocks: Vec<*mut u8> = (0..LOCAL_CAP + 1).map(|_| pool.acquire()).collect();
        for b in &blocks {
            // SAFETY: each block exclusively ours.
            unsafe { recycle_raw(*b, pool.ctx()) };
        }
        let s = pool.stats();
        assert_eq!(s.spills, 1, "recycle #65 overflows the cache once");
        assert_eq!(s.recycles, LOCAL_CAP + 1);
        let cold_misses = s.misses;
        // Drain the cache dry: 33 cached blocks, then a refill kicks in.
        let mut got = Vec::new();
        for _ in 0..blocks.len() {
            got.push(pool.acquire());
        }
        let s = pool.stats();
        assert_eq!(s.refills, 1, "the spilled segment comes back in one CAS");
        assert_eq!(
            s.misses, cold_misses,
            "no allocator round trip in steady state"
        );
        got.sort_unstable();
        let mut want = blocks.clone();
        want.sort_unstable();
        assert_eq!(got, want, "exactly the recycled blocks come back");
        for b in got {
            // SAFETY: exclusively ours; free to end the test leak-clean.
            unsafe { std::alloc::dealloc(b, Layout::new::<SpillBlock>()) };
        }
    }

    #[test]
    fn purge_drains_overflow_and_cache() {
        #[repr(align(8))]
        struct PurgeBlock {
            _bytes: [u8; 64],
        }
        let pool = RawPool::of::<PurgeBlock>();
        let blocks: Vec<*mut u8> = (0..LOCAL_CAP + SPILL_CHUNK)
            .map(|_| pool.acquire())
            .collect();
        let n = blocks.len();
        for b in blocks {
            // SAFETY: exclusively ours.
            unsafe { recycle_raw(b, pool.ctx()) };
        }
        // SAFETY: this test's unique layout means no other thread touches
        // this pool.
        let freed = unsafe { pool.purge() };
        assert_eq!(freed, n, "every cached and spilled block is freed");
        // SAFETY: as above.
        assert_eq!(unsafe { pool.purge() }, 0, "second purge finds nothing");
    }
}
