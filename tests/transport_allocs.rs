//! Allocations per warm call, by transport: an in-process connection
//! (`qemu+memory://`) takes the same socket path through the daemon as a
//! Unix socket, so a `lookup_by_name` over it allocates no more than one
//! over `qemu+unix://`.
//!
//! The count is process-wide — the calling thread, the daemon's event
//! threads and its workers — which is why this is a binary of its own:
//! no other test shares the counter. Once warm, a call allocates an exact
//! integer number of times, so the test warms each connection up until
//! consecutive batches agree and compares those batches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use virt_core::xmlfmt::DomainConfig;
use virt_core::Connect;
use virt_rpc::transport::UnixSocketListener;
use virtd::Virtd;

/// Allocations made by every thread of this process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the arguments it was
// given; the counter is a plain atomic integer and does not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Calls per batch.
const BATCH: u64 = 100;
/// Consecutive batches that must agree before a count is taken.
const AGREEING: usize = 4;
/// Batches after which a connection that never settled fails the test.
const MAX_BATCHES: usize = 200;

/// Process allocations per `lookup_by_name` over `conn`, once
/// [`AGREEING`] consecutive batches of [`BATCH`] calls allocated alike.
fn allocations_per_lookup(conn: &Connect, name: &str) -> f64 {
    let mut totals: Vec<u64> = Vec::new();
    while totals.len() < MAX_BATCHES {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..BATCH {
            let domain = conn.domain_lookup_by_name(name).expect("lookup");
            drop(domain);
        }
        totals.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
        if let Some(last) = totals.windows(AGREEING).last() {
            if last.iter().all(|&total| total == last[0]) {
                return last[0] as f64 / BATCH as f64;
            }
        }
    }
    panic!("no {AGREEING} batches of {BATCH} lookups agreed: {totals:?}");
}

#[test]
fn a_warm_lookup_allocates_no_more_over_memory_than_over_unix() {
    let name = format!("allocs-{}", std::process::id());
    let daemon = Virtd::builder(&name).with_quiet_hosts().build().unwrap();
    let path = format!("/tmp/{name}.sock");
    daemon.serve(Box::new(UnixSocketListener::bind(&path).unwrap()));
    daemon.register_memory_endpoint(&name).unwrap();
    let memory = Connect::builder(format!("qemu+memory://{name}/system"))
        .open()
        .unwrap();
    let unix = Connect::builder(format!("qemu+unix:///system?socket={path}"))
        .open()
        .unwrap();
    unix.define_domain(&DomainConfig::new("alloc-vm", 256, 1))
        .unwrap();

    let over_memory = allocations_per_lookup(&memory, "alloc-vm");
    let over_unix = allocations_per_lookup(&unix, "alloc-vm");
    eprintln!("allocations per warm lookup: memory {over_memory}, unix {over_unix}");
    assert!(
        over_memory <= over_unix,
        "a lookup allocates {over_memory} times over memory, {over_unix} over unix"
    );

    memory.close();
    unix.close();
    daemon.shutdown();
    let _ = std::fs::remove_file(&path);
}
