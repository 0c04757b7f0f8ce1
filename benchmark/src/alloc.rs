//! A counting global allocator: a wrapper around [`System`] that, while a
//! relaxed flag is set, counts allocation calls, requested bytes and the
//! live-byte high-water mark. The flag is set only during the traced run,
//! so the end-to-end numbers pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The allocator installed in the benchmark binary.
pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed` is
// enough; totals are read after the threads that allocated were joined.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    // Blocks allocated before counting began are freed while it is on;
    // saturate so the live gauge never wraps.
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state
// and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            on_free(layout.size());
        }
        // SAFETY: `ptr` and `layout` are the caller's pair from a prior
        // allocation by this allocator, i.e. by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            on_free(layout.size());
            on_alloc(new_size);
        }
        // SAFETY: as in `dealloc`; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Totals since the last [`start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocTotals {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// High-water mark of bytes allocated and not yet freed.
    pub peak_live: u64,
}

/// Zeroes the counters and starts counting.
pub fn start() {
    for c in [&COUNT, &BYTES, &LIVE, &PEAK] {
        c.store(0, Relaxed);
    }
    ON.store(true, Relaxed);
}

/// Stops counting and returns the totals.
pub fn stop() -> AllocTotals {
    ON.store(false, Relaxed);
    AllocTotals {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed),
    }
}

/// Counts the allocations `f` makes on this thread's behalf (and on any
/// thread it spawns and joins).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocTotals) {
    start();
    let out = f();
    (out, stop())
}
