//! A counting global allocator for the allocation audits
//! (`framing_hotpath`, `client_hotpath`): each includes this file, and
//! with it the `#[global_allocator]`, as a module.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Per thread, so a measurement sees
    /// only its own work — not the harness reporting another test's
    /// result, nor another test measuring at the same time.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

pub fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // `try_with`: the allocator also runs while a thread is being
        // torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the arguments it was
// given; the counter is a plain thread-local integer with no destructor
// and does not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;
