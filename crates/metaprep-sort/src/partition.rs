//! Parallel range partitioning (stage 1 of LocalSort, paper §3.4).
//!
//! Tuples are scattered into `T` disjoint, contiguous key sub-ranges of an
//! output buffer so that stage 2 can sort each sub-range concurrently. The
//! scatter is synchronization-free: per-(chunk, range) write offsets are
//! precomputed from per-chunk histograms, exactly as METAPREP precomputes
//! offsets from the `FASTQPart` table instead of locking a shared cursor.

use crate::radix::Keyed;
use rayon::prelude::*;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// Recyclable home of the debug-build scatter "written" flags.
///
/// [`SharedSlice`] asserts its disjoint-writers contract in debug builds
/// with one `AtomicBool` per destination slot. Allocating those flags per
/// scatter made debug-build proptests over the fused path quadratic in
/// allocations, so the flags live here and are *reset* (not reallocated)
/// between scatters — a [`crate::fused::PassBuffers`] pool keeps one
/// tracker alive for a whole run. In release builds this is a zero-sized
/// no-op.
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
/// partitioning code guarantees this by construction — each (chunk, range)
/// pair owns a precomputed, non-overlapping destination window.
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

/// Index of the range that `key` falls into, given sorted exclusive upper
/// `boundaries` (range `r` holds keys `< boundaries[r]`, the last range is
/// unbounded). `boundaries.len() + 1` ranges.
#[inline]
fn range_of<K: Ord>(key: &K, boundaries: &[K]) -> usize {
    boundaries.partition_point(|b| b <= key)
}

/// Scatter `src` into `dst` grouped by key range.
///
/// `boundaries` are `T-1` sorted keys splitting the key space into `T`
/// ranges. Returns the `T + 1` offsets of the ranges within `dst`. Order
/// *within* a range preserves `src` order (the scatter is stable), which
/// stage 2's stable sort then preserves through to LocalCC.
pub fn partition_by_ranges<T: Keyed>(
    src: &[T],
    dst: &mut [T],
    boundaries: &[T::Key],
) -> Vec<usize> {
    assert_eq!(src.len(), dst.len());
    assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "boundaries must be sorted"
    );
    let ranges = boundaries.len() + 1;
    let chunk_size = src
        .len()
        .div_ceil(rayon::current_num_threads().max(1))
        .max(1);
    let chunks: Vec<&[T]> = src.chunks(chunk_size).collect();

    // Per-chunk histograms.
    let hists: Vec<Vec<usize>> = chunks
        .par_iter()
        .map(|chunk| {
            let mut h = vec![0usize; ranges];
            for t in chunk.iter() {
                h[range_of(&t.key(), boundaries)] += 1;
            }
            h
        })
        .collect();

    // Range totals and exclusive prefix sum -> range offsets.
    let mut range_offsets = vec![0usize; ranges + 1];
    for r in 0..ranges {
        let total: usize = hists.iter().map(|h| h[r]).sum();
        range_offsets[r + 1] = range_offsets[r] + total;
    }

    // Per-(chunk, range) write cursors: chunk c writes range r at
    // range_offsets[r] + sum of hists[c'][r] for c' < c.
    let mut cursors: Vec<Vec<usize>> = Vec::with_capacity(chunks.len());
    let mut running = range_offsets[..ranges].to_vec();
    for h in &hists {
        cursors.push(running.clone());
        for r in 0..ranges {
            running[r] += h[r];
        }
    }

    let mut tracker = ScatterTracker::new();
    let shared = SharedSlice::new(dst, &mut tracker);
    chunks
        .par_iter()
        .zip(cursors.into_par_iter())
        .for_each(|(chunk, mut cur)| {
            for t in chunk.iter() {
                let r = range_of(&t.key(), boundaries);
                // SAFETY: cursor windows are disjoint by construction.
                unsafe { shared.write(cur[r], *t) };
                cur[r] += 1;
            }
        });

    range_offsets
}

/// Pick `ranges - 1` boundaries that split `data` into roughly equal-count
/// key ranges, from a sample of at most `sample_cap` keys.
///
/// The real pipeline derives boundaries from the m-mer histogram (the
/// `merHist` index); this sampling fallback serves standalone sorting.
pub fn equal_boundaries_by_sample<T: Keyed>(
    data: &[T],
    ranges: usize,
    sample_cap: usize,
) -> Vec<T::Key> {
    assert!(ranges >= 1);
    if ranges == 1 || data.is_empty() {
        return Vec::new();
    }
    let step = (data.len() / sample_cap.max(1)).max(1);
    let mut sample: Vec<T::Key> = data.iter().step_by(step).map(|t| t.key()).collect();
    sample.sort_unstable();
    (1..ranges)
        .map(|r| sample[(r * sample.len()) / ranges])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn range_of_boundaries() {
        let b = vec![10u64, 20, 30];
        assert_eq!(range_of(&5u64, &b), 0);
        assert_eq!(range_of(&10u64, &b), 1); // boundaries are exclusive uppers
        assert_eq!(range_of(&19u64, &b), 1);
        assert_eq!(range_of(&30u64, &b), 3);
        assert_eq!(range_of(&u64::MAX, &b), 3);
    }

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

    #[test]
    fn partition_groups_and_preserves_order() {
        let src: Vec<u64> = vec![15, 3, 25, 7, 18, 40, 1];
        let mut dst = vec![0u64; src.len()];
        let offs = partition_by_ranges(&src, &mut dst, &[10, 20]);
        assert_eq!(offs, vec![0, 3, 5, 7]);
        assert_eq!(&dst[0..3], &[3, 7, 1]); // stable within range
        assert_eq!(&dst[3..5], &[15, 18]);
        assert_eq!(&dst[5..7], &[25, 40]);
    }

    #[test]
    fn empty_boundaries_is_identity_copy() {
        let src: Vec<u64> = vec![5, 4, 3];
        let mut dst = vec![0u64; 3];
        let offs = partition_by_ranges(&src, &mut dst, &[]);
        assert_eq!(offs, vec![0, 3]);
        assert_eq!(dst, src);
    }

    #[test]
    fn empty_input() {
        let src: Vec<u64> = vec![];
        let mut dst: Vec<u64> = vec![];
        let offs = partition_by_ranges(&src, &mut dst, &[10]);
        assert_eq!(offs, vec![0, 0, 0]);
    }

    #[test]
    fn large_random_partition_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(7);
        let src: Vec<u64> = (0..100_000).map(|_| rng.gen()).collect();
        let mut dst = vec![0u64; src.len()];
        let boundaries = equal_boundaries_by_sample(&src, 8, 1024);
        let offs = partition_by_ranges(&src, &mut dst, &boundaries);
        // Every element lands in its range.
        for r in 0..8 {
            for &x in &dst[offs[r]..offs[r + 1]] {
                assert_eq!(range_of(&x, &boundaries), r);
            }
        }
        // Multiset preserved.
        let mut a = src.clone();
        let mut b = dst.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn equal_boundaries_balance_counts() {
        let mut rng = SmallRng::seed_from_u64(8);
        let src: Vec<u64> = (0..50_000).map(|_| rng.gen()).collect();
        let boundaries = equal_boundaries_by_sample(&src, 4, 4096);
        let mut counts = [0usize; 4];
        for x in &src {
            counts[range_of(x, &boundaries)] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / src.len() as f64;
            assert!((frac - 0.25).abs() < 0.05, "counts={counts:?}");
        }
    }

    #[test]
    fn boundaries_for_single_range_are_empty() {
        let src: Vec<u64> = vec![1, 2, 3];
        assert!(equal_boundaries_by_sample(&src, 1, 10).is_empty());
    }

    #[test]
    #[should_panic]
    fn unsorted_boundaries_rejected() {
        let src: Vec<u64> = vec![1];
        let mut dst = vec![0u64];
        partition_by_ranges(&src, &mut dst, &[20, 10]);
    }

    proptest! {
        #[test]
        fn prop_partition_then_concat_sorted_ranges_equals_sort(
            src in proptest::collection::vec(any::<u64>(), 0..2000),
            nb in 0usize..6,
        ) {
            let boundaries = equal_boundaries_by_sample(&src, nb + 1, 256);
            let mut dst = vec![0u64; src.len()];
            let offs = partition_by_ranges(&src, &mut dst, &boundaries);
            let mut rebuilt = Vec::new();
            for r in 0..offs.len() - 1 {
                let mut part = dst[offs[r]..offs[r + 1]].to_vec();
                part.sort_unstable();
                rebuilt.extend(part);
            }
            let mut want = src;
            want.sort_unstable();
            prop_assert_eq!(rebuilt, want);
        }
    }
}
