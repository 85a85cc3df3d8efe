//! A counting `#[global_allocator]` for the allocation pins: each test
//! binary that includes this module installs [`Counting`] as its global
//! allocator. The counters are the calling thread's own, so what other
//! threads allocate meanwhile (the test harness, another test) is not
//! counted against the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reading them allocates
    // nothing and works at any point of the thread's life.
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = BYTES.try_with(|b| b.set(b.get() + size));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// thread-local cells that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(bytes, allocator calls)` this thread made while `f` ran.
pub fn heap_use<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (bytes, calls) = (BYTES.with(Cell::get), CALLS.with(Cell::get));
    let out = f();
    (
        BYTES.with(Cell::get) - bytes,
        CALLS.with(Cell::get) - calls,
        out,
    )
}
