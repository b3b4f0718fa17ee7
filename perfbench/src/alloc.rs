//! Allocation counter for the traced run.
//!
//! Wraps the system allocator and counts `alloc`/`realloc` calls while
//! [`counting`] is on. It is off by default and switched on only around
//! single calls in the traced run, so untraced runs pay one relaxed
//! load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` with counting on and returns its result with the number of
/// allocations made meanwhile (by any thread).
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.load(Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let r = f();
    ON.store(false, Ordering::SeqCst);
    (r, COUNT.load(Ordering::SeqCst) - before)
}

/// Allocations counted so far (only while counting is on).
pub fn count_now() -> u64 {
    COUNT.load(Ordering::Relaxed)
}
