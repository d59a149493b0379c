//! Count-min sketch over k-mer values.
//!
//! A `d x w` matrix of saturating `u16` counters with `d` pairwise
//! independent multiply-shift hashes. Estimates never under-count
//! (conservative update keeps over-counting small), which is the right
//! bias for digital normalization: over-estimating abundance only makes
//! the filter drop a redundant read slightly early.

/// Count-min sketch for `u64`-packed k-mers.
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    width: usize,
    rows: Vec<Vec<u16>>,
    salts: Vec<u64>,
}

/// `(width, depth, seed)` triple describing a sketch's hash family and
/// shape. Two sketches built from the same params are mergeable; the
/// pipeline threads this through the IndexCreate scan so every worker
/// sketches into the same family.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SketchParams {
    /// Counters per row (rounded up to a power of two at build time).
    pub width: usize,
    /// Number of hash rows.
    pub depth: usize,
    /// Seed for the multiply-shift salt family.
    pub seed: u64,
}

impl SketchParams {
    /// Instantiate an empty sketch with this shape.
    pub fn build(&self) -> CountMinSketch {
        CountMinSketch::new(self.width, self.depth, self.seed)
    }
}

impl Default for SketchParams {
    /// 2^18 x 4 u16 counters = 2 MiB. Not exact at benchmark scale: on
    /// `hg_k63_budget` this sketch is 99.1 % full (`SketchFillPermille`
    /// 991), and presolve drops ≈ 0.27 M k-mers that a 16× wider sketch
    /// keeps, so the run's partition differs from the exact `--kf` one
    /// (ROADMAP "Presolve: exact or gone").
    fn default() -> Self {
        SketchParams {
            width: 1 << 18,
            depth: 4,
            seed: 0x5EED_C0DE,
        }
    }
}

/// Frequency filter over a frozen count-min sketch: `drops(key)` is true
/// when the *estimated* count exceeds the threshold. Because estimates
/// never under-count, every k-mer whose true count exceeds the threshold
/// is dropped; a k-mer at or under the threshold survives unless it
/// collides into an over-estimate (the sketch is sized so that is rare).
/// Decisions are all-or-nothing per k-mer value — the sketch is not
/// mutated after the filter is built — so surviving k-mer groups reach
/// the sorter intact.
#[derive(Clone, Debug)]
pub struct HighFreqFilter {
    sketch: CountMinSketch,
    threshold: u32,
}

impl HighFreqFilter {
    /// Wrap a fully-populated sketch with a drop threshold.
    pub fn new(sketch: CountMinSketch, threshold: u32) -> Self {
        Self { sketch, threshold }
    }

    /// True when the estimated count of `key` exceeds the threshold.
    #[inline]
    pub fn drops(&self, key: u64) -> bool {
        self.sketch.estimate(key) > u64::from(self.threshold)
    }

    /// The drop threshold (estimated count strictly above this drops).
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The underlying frozen sketch.
    pub fn sketch(&self) -> &CountMinSketch {
        &self.sketch
    }
}

impl CountMinSketch {
    /// Create a sketch with `depth` rows of `width` counters each.
    /// `width` is rounded up to a power of two for mask indexing.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width >= 16 && depth >= 1);
        let width = width.next_power_of_two();
        let salts = (0..depth)
            .map(|i| {
                // SplitMix64 over (seed, i) — odd constants for the
                // multiply-shift family.
                let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) | 1
            })
            .collect();
        Self {
            width,
            rows: vec![vec![0u16; width]; depth],
            salts,
        }
    }

    #[inline]
    fn index(&self, row: usize, item: u64) -> usize {
        let h = item.wrapping_mul(self.salts[row]);
        (h >> (64 - self.width.trailing_zeros())) as usize & (self.width - 1)
    }

    /// Add one occurrence of `item` with conservative update: only the
    /// rows currently holding the minimum are incremented.
    pub fn add(&mut self, item: u64) {
        let est = self.estimate(item);
        for row in 0..self.rows.len() {
            let i = self.index(row, item);
            let c = &mut self.rows[row][i];
            if u64::from(*c) == est {
                *c = c.saturating_add(1);
            }
        }
    }

    /// Estimated count of `item` (never an under-estimate).
    pub fn estimate(&self, item: u64) -> u64 {
        (0..self.rows.len())
            .map(|row| u64::from(self.rows[row][self.index(row, item)]))
            .min()
            .unwrap_or(0)
    }

    /// Counter width per row (after power-of-two rounding).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Fold another sketch into this one, counter-wise, with saturating
    /// addition. Both sketches must share `(width, depth, seed)` — i.e.
    /// the same hash family — otherwise the cell positions of an item
    /// differ between the two matrices and the sum is meaningless.
    ///
    /// Because each per-stream conservative-update cell is `>=` that
    /// stream's true count of every item hashing into it, the summed cell
    /// is `>=` the combined true count: merged estimates still never
    /// under-count. (They can exceed what one conservative sketch fed the
    /// concatenated stream would report — merging forfeits cross-stream
    /// conservative updates — but stay `<=` the plain count-min value.)
    pub fn merge(&mut self, other: &CountMinSketch) {
        assert_eq!(self.width, other.width, "count-min merge: width mismatch");
        assert_eq!(
            self.rows.len(),
            other.rows.len(),
            "count-min merge: depth mismatch"
        );
        assert_eq!(
            self.salts, other.salts,
            "count-min merge: sketches use different hash seeds"
        );
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            for (c, &o) in mine.iter_mut().zip(theirs) {
                *c = c.saturating_add(o);
            }
        }
    }

    /// Fraction of non-zero counters, in permille (0..=1000). A fill
    /// ratio near 1000 means the sketch is saturated with distinct items
    /// and over-estimation error grows; callers surface this as a
    /// telemetry counter to size `width` for the workload.
    pub fn fill_ratio_permille(&self) -> u64 {
        let cells = (self.rows.len() * self.width) as u64;
        if cells == 0 {
            return 0;
        }
        let occupied: u64 = self
            .rows
            .iter()
            .map(|r| r.iter().filter(|&&c| c != 0).count() as u64)
            .sum();
        occupied * 1000 / cells
    }

    /// Total memory held by the counters, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * self.width * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn width_rounds_to_power_of_two() {
        let s = CountMinSketch::new(1000, 2, 0);
        assert_eq!(s.width, 1024);
        assert_eq!(s.memory_bytes(), 2 * 1024 * 2);
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = CountMinSketch::new(64, 3, 1);
        assert_eq!(s.estimate(42), 0);
    }

    #[test]
    fn single_item_counts_exactly() {
        let mut s = CountMinSketch::new(1024, 3, 2);
        for _ in 0..7 {
            s.add(99);
        }
        assert_eq!(s.estimate(99), 7);
    }

    #[test]
    fn never_undercounts() {
        let mut s = CountMinSketch::new(256, 4, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for _ in 0..2000 {
            let x = rng.gen_range(0..500u64);
            s.add(x);
            *truth.entry(x).or_insert(0) += 1;
        }
        for (&x, &c) in &truth {
            assert!(
                s.estimate(x) >= c,
                "item {x}: est {} < true {c}",
                s.estimate(x)
            );
        }
    }

    #[test]
    fn large_sketch_is_nearly_exact() {
        let mut s = CountMinSketch::new(1 << 16, 4, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let items: Vec<u64> = (0..300).map(|_| rng.gen()).collect();
        for (i, &x) in items.iter().enumerate() {
            for _ in 0..=(i % 5) {
                s.add(x);
            }
        }
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(s.estimate(x), (i % 5) as u64 + 1, "item {i}");
        }
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = CountMinSketch::new(64, 1, 7);
        for _ in 0..70_000 {
            s.add(1);
        }
        assert_eq!(s.estimate(1), u16::MAX as u64);
    }

    #[test]
    fn merge_sums_counts_and_keeps_lower_bound() {
        let mut a = CountMinSketch::new(1024, 3, 9);
        let mut b = CountMinSketch::new(1024, 3, 9);
        for _ in 0..4 {
            a.add(7);
        }
        for _ in 0..5 {
            b.add(7);
        }
        b.add(8);
        a.merge(&b);
        assert_eq!(a.estimate(7), 9);
        assert_eq!(a.estimate(8), 1);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = CountMinSketch::new(64, 1, 10);
        let mut b = CountMinSketch::new(64, 1, 10);
        for _ in 0..40_000 {
            a.add(3);
            b.add(3);
        }
        a.merge(&b);
        assert_eq!(a.estimate(3), u16::MAX as u64);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_width_mismatch() {
        let mut a = CountMinSketch::new(64, 2, 0);
        let b = CountMinSketch::new(128, 2, 0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "depth mismatch")]
    fn merge_rejects_depth_mismatch() {
        let mut a = CountMinSketch::new(64, 2, 0);
        let b = CountMinSketch::new(64, 3, 0);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different hash seeds")]
    fn merge_rejects_seed_mismatch() {
        let mut a = CountMinSketch::new(64, 2, 0);
        let b = CountMinSketch::new(64, 2, 1);
        a.merge(&b);
    }

    #[test]
    fn sketch_params_build_matching_mergeable_sketches() {
        let p = SketchParams {
            width: 100,
            depth: 2,
            seed: 13,
        };
        let mut a = p.build();
        let mut b = p.build();
        assert_eq!(a.width(), 128);
        a.add(5);
        b.add(5);
        a.merge(&b); // same params -> same hash family -> merge is legal
        assert_eq!(a.estimate(5), 2);
    }

    #[test]
    fn high_freq_filter_drops_strictly_above_threshold() {
        let mut s = CountMinSketch::new(1 << 12, 4, 14);
        for _ in 0..3 {
            s.add(10);
        }
        for _ in 0..4 {
            s.add(11);
        }
        let f = HighFreqFilter::new(s, 3);
        assert!(!f.drops(10), "count == threshold survives");
        assert!(f.drops(11), "count > threshold drops");
        assert!(!f.drops(12), "unseen key survives");
        assert_eq!(f.threshold(), 3);
    }

    #[test]
    fn high_freq_filter_never_passes_a_truly_frequent_kmer() {
        // Estimates never under-count, so true > threshold implies
        // estimate > threshold: no false negatives, ever.
        let mut s = CountMinSketch::new(64, 2, 15);
        let mut rng = SmallRng::seed_from_u64(16);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for _ in 0..3000 {
            let x = rng.gen_range(0..200u64);
            s.add(x);
            *truth.entry(x).or_insert(0) += 1;
        }
        let tau = 12u32;
        let f = HighFreqFilter::new(s, tau);
        for (&x, &c) in &truth {
            if c > u64::from(tau) {
                assert!(f.drops(x), "item {x} with true count {c} survived");
            }
        }
    }

    #[test]
    fn fill_ratio_tracks_occupancy() {
        let mut s = CountMinSketch::new(16, 1, 11);
        assert_eq!(s.fill_ratio_permille(), 0);
        s.add(1);
        // One row of 16 cells, one occupied -> 62 permille.
        assert_eq!(s.fill_ratio_permille(), 1000 / 16);
        for x in 0..1000u64 {
            s.add(x);
        }
        assert_eq!(s.fill_ratio_permille(), 1000);
    }

    /// Plain (non-conservative) count-min insert: every row increments.
    /// The classic upper bound merge() is compared against.
    fn plain_add(s: &mut CountMinSketch, item: u64) {
        for row in 0..s.rows.len() {
            let i = s.index(row, item);
            s.rows[row][i] = s.rows[row][i].saturating_add(1);
        }
    }

    proptest! {
        #[test]
        fn prop_estimate_at_least_truth(
            adds in proptest::collection::vec(0u64..64, 0..500),
        ) {
            let mut s = CountMinSketch::new(128, 3, 8);
            let mut truth = HashMap::new();
            for &x in &adds {
                s.add(x);
                *truth.entry(x).or_insert(0u64) += 1;
            }
            for (&x, &c) in &truth {
                prop_assert!(s.estimate(x) >= c);
            }
        }

        /// Merge-equivalence vs a single sketch: split a random stream at
        /// a random point, sketch each half independently, merge. For
        /// every item the merged estimate is sandwiched between the true
        /// combined count (conservative cells never under-count their
        /// items) and the plain count-min estimate over the concatenated
        /// stream (merged cells are counter-wise <= the plain cells).
        #[test]
        fn prop_merge_equivalent_to_single_sketch(
            adds in proptest::collection::vec(0u64..48, 1..400),
            cut_pct in 0usize..101,
        ) {
            let cut = adds.len() * cut_pct / 100;
            let (left, right) = adds.split_at(cut.min(adds.len()));
            let mut a = CountMinSketch::new(64, 3, 12);
            let mut b = CountMinSketch::new(64, 3, 12);
            let mut plain = CountMinSketch::new(64, 3, 12);
            let mut truth = HashMap::new();
            for &x in left {
                a.add(x);
            }
            for &x in right {
                b.add(x);
            }
            for &x in &adds {
                plain_add(&mut plain, x);
                *truth.entry(x).or_insert(0u64) += 1;
            }
            a.merge(&b);
            for (&x, &c) in &truth {
                let merged = a.estimate(x);
                prop_assert!(merged >= c, "item {x}: merged {merged} < true {c}");
                prop_assert!(
                    merged <= plain.estimate(x),
                    "item {x}: merged {merged} > plain {}",
                    plain.estimate(x)
                );
            }
        }
    }
}
