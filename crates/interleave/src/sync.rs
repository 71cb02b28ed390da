//! The names `crates/lockfree/src/sync.rs` exports, instrumented: a test
//! crate that `#[path]`-includes a structure's source file with `crate::sync`
//! bound to this module explores the file the library compiles, not a mirror
//! of it (`crates/lockfree/tests/explore_real.rs`).
//!
//! [`AtomicUsize`]/[`AtomicU64`] carry `std`'s method signatures over
//! [`Atomic`]'s `_ord` operations, so every atomic access of the included
//! file is one scheduled step under the ordering it names; [`UnsafeCell`]
//! does the same for the non-atomic accesses.

use std::sync::atomic::{AtomicU64 as Count, Ordering::Relaxed};

pub use crate::atomic::fence;
use crate::atomic::Atomic;
pub use std::sync::atomic::Ordering;

/// `std::sync::atomic::AtomicUsize`, instrumented.
pub type AtomicUsize = AtomicInt<usize>;
/// `std::sync::atomic::AtomicU64`, instrumented.
pub type AtomicU64 = AtomicInt<u64>;

/// An integer atomic with `std`'s signatures; each operation is one step.
#[derive(Debug, Default)]
pub struct AtomicInt<T: Copy>(Atomic<T>);

impl<T: Copy + PartialEq + std::ops::Add<Output = T> + Send + 'static> AtomicInt<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        Self(Atomic::new(value))
    }

    /// As `std`'s `load`.
    pub fn load(&self, order: Ordering) -> T {
        self.0.load_ord(order)
    }

    /// As `std`'s `store`.
    pub fn store(&self, value: T, order: Ordering) {
        self.0.store_ord(value, order);
    }

    /// As `std`'s `swap`.
    pub fn swap(&self, value: T, order: Ordering) -> T {
        self.0.swap_ord(value, order)
    }

    /// As `std`'s `compare_exchange`: `Err(actual)` on a mismatch.
    pub fn compare_exchange(
        &self,
        current: T,
        new: T,
        ok: Ordering,
        err: Ordering,
    ) -> Result<T, T> {
        self.0.compare_exchange_ord(current, new, ok, err)
    }

    /// As `std`'s `compare_exchange_weak`, minus the spurious failures —
    /// which only removes schedules the caller's loop would retry at once.
    pub fn compare_exchange_weak(
        &self,
        current: T,
        new: T,
        ok: Ordering,
        err: Ordering,
    ) -> Result<T, T> {
        self.compare_exchange(current, new, ok, err)
    }

    /// As `std`'s `fetch_add` (overflow panics instead of wrapping).
    pub fn fetch_add(&self, value: T, order: Ordering) -> T {
        self.0.fetch_add_ord(value, order)
    }

    /// As `std`'s `get_mut`: exclusive access, no step.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

/// `crates/lockfree`'s `sync::UnsafeCell`, instrumented: each access is one
/// scheduled step, a `Relaxed` access of the cell's *write stamp*.
///
/// A write buffers the stamp like any `Relaxed` store, so only a later
/// `Release` store (or fence) forces it to commit first; a read loads it
/// like any `Relaxed` load, so only an earlier `Acquire` rules out a stale
/// one. A read whose stamp is not the cell's newest lacks the happens-before
/// edge an unsynchronised access needs — hardware could hand it the
/// superseded payload — and panics, failing the run with a replayable
/// schedule. (A write overtaking a *read* is not seen: reads are not
/// buffered events.) The payload itself is written at once. Like `std`'s
/// cell it is `Send` but never `Sync`: the including file's own
/// `unsafe impl Sync` carries that claim, as it does in the library.
pub struct UnsafeCell<T> {
    data: std::cell::UnsafeCell<T>,
    /// What the memory model lets a thread see of `writes`.
    stamp: Atomic<u64>,
    /// Writes issued so far — ground truth, outside the memory model.
    writes: Count,
}

impl<T> UnsafeCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            data: std::cell::UnsafeCell::new(value),
            stamp: Atomic::new(0),
            writes: Count::new(0),
        }
    }

    /// Shared access to the payload: one read step, which panics when the
    /// calling thread's view of the cell is stale.
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        let (seen, written) = (self.stamp.load_ord(Relaxed), self.writes.load(Relaxed));
        assert!(
            seen == written,
            "data race: unsynchronised read observed write {seen} of a cell written {written} times"
        );
        f(self.data.get())
    }

    /// Exclusive access to the payload: one write step.
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        let stamp = self.writes.load(Relaxed) + 1;
        self.stamp.store_ord(stamp, Relaxed);
        self.writes.store(stamp, Relaxed);
        f(self.data.get())
    }

    /// As `std`'s `get_mut`: exclusive access, no step.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomics_keep_std_semantics_outside_models() {
        let mut a = AtomicUsize::new(1);
        a.store(2, Ordering::Release);
        assert_eq!(a.swap(3, Ordering::AcqRel), 2);
        assert_eq!(
            a.compare_exchange_weak(3, 4, Ordering::AcqRel, Relaxed),
            Ok(3)
        );
        assert_eq!(a.compare_exchange(3, 5, Relaxed, Relaxed), Err(4));
        assert_eq!(a.fetch_add(6, Relaxed), 4);
        assert_eq!((a.load(Ordering::Acquire), *a.get_mut()), (10, 10));
        assert_eq!(
            format!("{a:?} {:?}", AtomicU64::default()),
            "AtomicInt(Atomic(10)) AtomicInt(Atomic(0))"
        );
    }
}
