//! A counting global allocator: the outside view of "allocation-free in
//! steady state" (`pool.allocs_per_op`).
//!
//! The count is per thread, in a const-initialised `Cell` with no
//! destructor, so counting costs one non-atomic add and shares no cache
//! line — a process-wide atomic here would itself be a contended write in
//! the boxed-baseline rows it is meant to observe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches only a thread-local `Cell`
// and never allocates (const-initialised, no lazy registration).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during thread teardown are not counted.
        let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_nothing_else() {
        let before = thread_allocs();
        let boxed = std::hint::black_box(Box::new(17u64));
        let after_box = thread_allocs();
        assert_eq!(after_box, before + 1);
        let sum: u64 = (0..100u64).map(std::hint::black_box).sum();
        assert_eq!(thread_allocs(), after_box, "arithmetic allocates nothing");
        assert_eq!(sum + *boxed, 4950 + 17);
    }
}
