//! Counting global allocator: allocations, bytes, live/peak heap, and
//! allocations made off the main thread, read by the benchmark around each
//! phase. Counters are statistics only, so every access is `Relaxed`;
//! nothing else is published through them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static OFF_MAIN_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free, so reading it never allocates.
    static ON_MAIN: Cell<bool> = const { Cell::new(false) };
}

fn grow(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if !ON_MAIN.try_with(Cell::get).unwrap_or(false) {
        OFF_MAIN_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged; the bookkeeping around the calls touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation totals at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl Snapshot {
    pub fn now() -> Snapshot {
        Snapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Restart the high-water mark from the heap live right now, and return
/// that live heap in bytes.
pub fn rebase_peak() -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Highest live heap since the last [`rebase_peak`], in bytes.
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Mark the calling thread as the main one: allocations from every other
/// thread count in [`off_main_allocs`].
pub fn mark_main_thread() {
    ON_MAIN.with(|m| m.set(true));
}

/// Allocations made so far by threads other than the main one (the
/// sharded executor's workers).
pub fn off_main_allocs() -> u64 {
    OFF_MAIN_ALLOCS.load(Ordering::Relaxed)
}
