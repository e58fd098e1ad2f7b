//! Heap accounting for the bench binary: a counting global allocator and
//! a reader for the process's resident high-water mark.
//!
//! The counters are process-wide atomics, so a count taken around a call
//! includes every thread that call spawns. They count requests, not live
//! memory: a `realloc` counts as one allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every request.
pub struct Counting;

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and
// never allocates, so it cannot recurse into the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocation requests.
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
}

impl AllocCount {
    /// The totals so far.
    pub fn now() -> Self {
        AllocCount {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated since `self` was taken.
    pub fn elapsed(self) -> Self {
        let now = AllocCount::now();
        AllocCount {
            allocs: now.allocs - self.allocs,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}
