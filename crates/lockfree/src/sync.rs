//! The one place the epoch-free structures (`ring`, `register`, `mpmc`,
//! `snapshot`) name their atomics and their unsynchronised cell.
//!
//! Here the names are `std`'s, at no cost. `tests/explore_real.rs` includes
//! those same source files with `crate::sync` bound to
//! `lfrt_interleave::sync`, whose types have the same signatures but make
//! every access a scheduled step — so what is model-checked is the file the
//! library compiles, not a mirror of it. Nothing here is `pub`: these are
//! not operations of the crate, and `progress.toml` declares none for them.

pub(crate) use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `std::cell::UnsafeCell` behind closure accessors, so that an
/// instrumented stand-in can see where each access begins. Dereferencing
/// the pointer is the caller's `unsafe` claim that nothing conflicts.
#[repr(transparent)]
pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

impl<T> UnsafeCell<T> {
    #[inline(always)]
    pub(crate) fn new(value: T) -> Self {
        Self(std::cell::UnsafeCell::new(value))
    }

    /// Runs `f` on a pointer for reading.
    #[inline(always)]
    pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    /// Runs `f` on a pointer for writing.
    #[inline(always)]
    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }

    /// Exclusive access through `&mut self` (for `Drop`).
    #[inline(always)]
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}
