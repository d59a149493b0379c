//! Synchronization-free scatter into one shared buffer: every writer owns a
//! precomputed, disjoint window of it, exactly as METAPREP precomputes
//! offsets from the `FASTQPart` table instead of locking a shared cursor.
//! KmerGen's emit and [`crate::parallel_lsb_sort`] write through it.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// Recyclable home of the debug-build scatter "written" flags.
///
/// [`SharedSlice`] asserts its disjoint-writers contract in debug builds
/// with one `AtomicBool` per destination slot. The flags live here so that
/// a caller scattering more than once can *reset* them instead of
/// reallocating them — [`crate::parallel_lsb_sort`] keeps one tracker for
/// all its passes. In release builds this is a zero-sized no-op.
#[derive(Default)]
pub struct ScatterTracker {
    #[cfg(debug_assertions)]
    flags: Vec<crate::sync::AtomicBool>,
}

impl ScatterTracker {
    /// An empty tracker; flags grow lazily to the largest scatter seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear (and if needed grow) the first `len` flags. `&mut self` means
    /// no scatter is in flight, so plain `get_mut` stores suffice.
    fn prepare(&mut self, len: usize) {
        #[cfg(debug_assertions)]
        {
            for f in self.flags.iter_mut().take(len) {
                *f.get_mut() = false;
            }
            while self.flags.len() < len {
                self.flags.push(crate::sync::AtomicBool::new(false));
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = len;
    }
}

/// A shareable mutable slice for disjoint concurrent writes.
///
/// Safety contract: every index is written by at most one thread. The
/// callers guarantee this by construction — each writer (a KmerGen chunk's
/// slot, a radix pass's chunk and digit) owns a precomputed,
/// non-overlapping destination window.
///
/// The slice may be uninitialised ([`SharedSlice::uninit`], over a `Vec`'s
/// `spare_capacity_mut()`): nothing is ever read through the wrapper, so a
/// scatter that writes every slot it later claims with `set_len` needs no
/// zero-fill first. `T: Copy` because a write overwrites without dropping.
pub struct SharedSlice<'a, T> {
    cell: &'a [UnsafeCell<MaybeUninit<T>>],
    /// Debug-build scatter tracker: one "written" flag per slot, so the
    /// disjointness contract is *asserted* under `cfg(debug_assertions)`
    /// instead of merely trusted (two writers on one slot trip it in
    /// whatever order they interleave). Borrowed from a [`ScatterTracker`]
    /// so pooled callers reuse one allocation across scatters.
    #[cfg(debug_assertions)]
    written: &'a [crate::sync::AtomicBool],
}

// SAFETY: the only mutation path is `write`, whose contract (enforced in
// debug builds by the `written` flags) is that each index is written by
// at most one thread and never read during the scatter; `T: Send` makes
// moving the values across threads sound. No `&T` to a cell is ever
// handed out while the scatter runs.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
// SAFETY: as above — concurrent `&SharedSlice` use only touches disjoint
// cells, so sharing the wrapper across threads is sound.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T: Copy> SharedSlice<'a, T> {
    /// Wrap `slice` for a scatter tracked by `tracker`. The tracker stays
    /// mutably borrowed for the slice's lifetime, so one tracker can't be
    /// shared by two concurrent scatters.
    pub fn new(slice: &'a mut [T], tracker: &'a mut ScatterTracker) -> Self {
        // SAFETY: [T] and [MaybeUninit<T>] have identical layout, and the
        // only thing ever stored through the wrapper is an initialised `T`,
        // so `slice` is still fully initialised when the borrow ends.
        Self::uninit(
            unsafe { &mut *(slice as *mut [T] as *mut [MaybeUninit<T>]) },
            tracker,
        )
    }

    /// [`SharedSlice::new`] over memory that need not be initialised — a
    /// `Vec`'s spare capacity. The caller may `set_len` over exactly the
    /// slots that were written; [`SharedSlice::assert_prefix_written`]
    /// checks that claim in debug builds.
    pub fn uninit(slice: &'a mut [MaybeUninit<T>], tracker: &'a mut ScatterTracker) -> Self {
        tracker.prepare(slice.len());
        #[cfg(debug_assertions)]
        let written = &tracker.flags[..slice.len()];
        // SAFETY: [MaybeUninit<T>] and [UnsafeCell<MaybeUninit<T>>] have
        // identical layout, and the exclusive borrow of `slice` is held by
        // `self` for 'a, so no other access to the underlying memory exists.
        let cell =
            unsafe { &*(slice as *mut [MaybeUninit<T>] as *const [UnsafeCell<MaybeUninit<T>>]) };
        Self {
            cell,
            #[cfg(debug_assertions)]
            written,
        }
    }

    /// Write `value` at `i`.
    ///
    /// # Safety
    ///
    /// The caller must ensure no other thread reads or writes index `i`
    /// during the scatter. Debug builds verify the "at most one writer per
    /// slot" half of the contract (and bounds) at runtime.
    // SAFETY: contract stated in the `# Safety` section above.
    #[inline(always)]
    pub unsafe fn write(&self, i: usize, value: T) {
        #[cfg(debug_assertions)]
        {
            assert!(i < self.cell.len(), "scatter write out of bounds");
            // ORDERING: Relaxed — the flag carries no data, it only has
            // to make two swaps on the same slot observe each other,
            // which a single RMW cell guarantees at any ordering.
            let prior = self.written[i].swap(true, crate::sync::Ordering::Relaxed);
            assert!(!prior, "two scatter writers hit slot {i}: windows overlap");
        }
        // SAFETY: per the caller contract, this thread exclusively owns
        // slot `i` for the duration of the scatter; `cell[i]` bounds-checks.
        (*self.cell[i].get()).write(value);
    }

    /// Debug builds: assert that of the slots `window`, exactly the first
    /// `kept` were written (each at most once, by `write`'s own check) —
    /// what a caller about to compact the written prefixes together and
    /// `set_len` over them relies on. Call after every writer has joined.
    /// A no-op in release builds.
    pub fn assert_prefix_written(&self, window: std::ops::Range<usize>, kept: usize) {
        #[cfg(debug_assertions)]
        for (i, flag) in self.written[window.clone()].iter().enumerate() {
            // ORDERING: Relaxed — read after the writers joined; the join
            // is the synchronisation.
            let was = flag.load(crate::sync::Ordering::Relaxed);
            let slot = window.start + i;
            assert_eq!(
                was,
                i < kept,
                "slot {slot}: written {was}, kept {}",
                i < kept
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = (window, kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninit_scatter_claims_exactly_what_it_wrote() {
        let mut out: Vec<u64> = Vec::with_capacity(5);
        let mut tracker = ScatterTracker::new();
        let shared = SharedSlice::uninit(&mut out.spare_capacity_mut()[..5], &mut tracker);
        for (i, v) in [(0, 7u64), (1, 8), (3, 9)] {
            // SAFETY: single thread, distinct slots.
            unsafe { shared.write(i, v) };
        }
        shared.assert_prefix_written(0..3, 2);
        shared.assert_prefix_written(3..5, 1);
        out.spare_capacity_mut().copy_within(3..4, 2);
        // SAFETY: slots 0, 1 were written and slot 3's value moved to 2.
        unsafe { out.set_len(3) };
        assert_eq!(out, vec![7, 8, 9]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot 1: written false")]
    fn claiming_an_unwritten_slot_trips_the_prefix_check() {
        let mut out: Vec<u64> = Vec::with_capacity(2);
        let mut tracker = ScatterTracker::new();
        let shared = SharedSlice::uninit(&mut out.spare_capacity_mut()[..2], &mut tracker);
        // SAFETY: single thread, one slot.
        unsafe { shared.write(0, 1) };
        shared.assert_prefix_written(0..2, 2);
    }
}
