//! A counting global allocator: live and peak heap bytes, exact for every
//! allocation routed through the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct PeakAlloc;

// Statistics only: neither counter publishes other data, so `Relaxed`
// suffices.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counters
// are plain atomics and never touch the allocated memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: forwarded with the caller's layout (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: forwarded with the caller's layout (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        on_alloc(new_size);
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Live heap bytes now.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed) as usize
}

/// `bytes` in MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Restarts peak tracking from the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The peak live heap since the last [`reset_peak`], in bytes.
pub fn peak() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Sets the peak back to `saved` (or the live heap, if larger), leaving
/// out whatever was allocated and freed since `saved` was read.
pub fn restore_peak(saved: u64) {
    PEAK.store(saved.max(LIVE.load(Ordering::Relaxed)), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MiB, less `own`
/// bytes the benchmark itself held throughout (its round log).
pub fn peak_mib(own: usize) -> f64 {
    mib((PEAK.load(Ordering::Relaxed) as usize).saturating_sub(own))
}
