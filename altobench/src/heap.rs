//! Peak live heap bytes of the process.
//!
//! The process's peak resident set (`VmHWM`) of the same run moved by 14%
//! between hours on a shared host, with file-backed pages coming and going.
//! Live heap bytes depend only on what the program allocates, so their
//! peak repeats exactly for the same input.

// A global allocator is the only way to observe every allocation.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
pub struct PeakAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl PeakAlloc {
    pub const fn new() -> Self {
        PeakAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Highest number of live heap bytes so far, in MB.
    pub fn peak_mb(&self) -> f64 {
        self.peak.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }

    fn grow(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from `System`
        // with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees for this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_follows_the_largest_live_allocation() {
        let before = crate::HEAP.peak_mb();
        let big = vec![0u8; 64 << 20];
        let during = crate::HEAP.peak_mb();
        drop(big);
        assert!(during - before >= 63.0, "{before} -> {during}");
        assert!(crate::HEAP.peak_mb() >= during, "peak never falls");
    }
}
