//! Peak-tracking global allocator for memory experiments.
//!
//! [`PeakAlloc`] forwards every allocation to the system allocator while
//! maintaining two process-wide counters: the current live byte count and
//! the high-water mark. The `exp` binary installs it with
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: metaprep_bench::allocpeak::PeakAlloc =
//!     metaprep_bench::allocpeak::PeakAlloc;
//! ```
//!
//! and call [`mark_installed`] in `main` so library code can tell whether
//! the numbers it reads are live ([`installed`]). The counters measure the
//! whole process — the useful signal for an experiment is the *delta* of
//! [`peak_bytes`] across [`reset_peak`] around the measured region.
//!
//! This in-process view is complemented by [`metaprep_obs::vm_hwm_bytes`],
//! the kernel's monotone peak-RSS reading from `/proc/self/status` (Linux
//! only); the allocator delta is the primary, resettable measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

// ORDERING: Relaxed everywhere — the counters are statistics, not
// synchronization. Readers only run after the measured region joins its
// threads, so the values they observe are already ordered by those joins.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A system-allocator wrapper that tracks live bytes and their peak.
pub struct PeakAlloc;

// SAFETY: `alloc`/`dealloc` delegate directly to `System`, which upholds
// the `GlobalAlloc` contract; the added atomic bookkeeping performs no
// allocation and cannot unwind.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: forwards to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            // ORDERING: Relaxed — see the counter comment above.
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    // SAFETY: forwards to `System.dealloc` with the caller's pointer/layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        // ORDERING: Relaxed — see the counter comment above.
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Record that [`PeakAlloc`] is this process's global allocator.
pub fn mark_installed() {
    // ORDERING: Relaxed — a write-once flag read long after `main` begins.
    INSTALLED.store(true, Ordering::Relaxed);
}

/// Whether the counters below reflect real allocations.
pub fn installed() -> bool {
    // ORDERING: Relaxed — see `mark_installed`.
    INSTALLED.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed.
pub fn current_bytes() -> usize {
    // ORDERING: Relaxed — statistics only.
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark of [`current_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    // ORDERING: Relaxed — statistics only.
    PEAK.load(Ordering::Relaxed)
}

/// Reset the high-water mark to the current live byte count, so the next
/// [`peak_bytes`] reading isolates the region that follows.
pub fn reset_peak() {
    // ORDERING: Relaxed — statistics only; callers reset between phases,
    // not concurrently with the measured region.
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install PeakAlloc, so only the pure
    // bookkeeping is testable here; the experiment binary exercises the
    // live counters.

    #[test]
    fn not_installed_in_test_harness() {
        assert!(!installed());
        assert_eq!(current_bytes(), 0);
    }

    #[test]
    fn reset_clamps_peak_to_current() {
        PEAK.store(12345, Ordering::Relaxed);
        reset_peak();
        assert_eq!(peak_bytes(), current_bytes());
    }
}
