//! Count-min sketch over k-mer values, filled by IndexCreate's sketched
//! scan ([`crate::streaming`]) for the probabilistic presolve.
//!
//! A `d x w` matrix of saturating `u8` counters with `d` pairwise
//! independent multiply-shift hashes. Estimates never under-count
//! (conservative update keeps over-counting small), which is the right
//! bias for the presolve filter: over-estimating abundance only makes it
//! drop a high-frequency k-mer slightly early.
//!
//! The `d` rows lie back to back in one flat slice, so an item's `d` cells
//! are independent loads the CPU can have in flight together; an update
//! hashes each row once and touches each cell once, with no branch on the
//! counts. [`CountMinSketch::add_batch`] applies a run of keys in order,
//! with no call per key. [`HighFreqFilter`]
//! freezes a filled sketch into one bit per counter, 8x smaller than the
//! counters it replaces.
//!
//! Counters stop at [`COUNTER_MAX`] = 255. That loses no decision the
//! sketch is used for: under conservative update a counter capped at any
//! `C` holds `min(count, C)` of the uncapped counter (while the uncapped
//! minimum is below `C` the same cells hold it and are bumped; once it
//! reaches `C` every capped cell reads `C` and stays there), a saturating
//! merge of capped counters is the cap of the uncapped sum, and so
//! `counter > t` and `estimate >= t` decide as uncapped counters do for
//! every `t < COUNTER_MAX` and `t <= COUNTER_MAX` respectively.

/// The most hash rows a sketch may have: an update keeps its cells on the
/// stack. Past a handful of rows a count-min sketch gains nothing.
pub const MAX_DEPTH: usize = 8;

/// The value a counter saturates at. A [`HighFreqFilter`] threshold must
/// be below it; past that a capped counter can no longer tell the counts
/// apart.
pub const COUNTER_MAX: u32 = u8::MAX as u32;

/// The multiply-shift family of one sketch shape: row `r` sends `item` to
/// cell `(item * salts[r]) >> shift` of its `width` counters. The cells of
/// all rows are numbered `r * width + i`, the layout of the flat counters
/// and of the filter's bit-plane alike.
#[derive(Clone, Debug)]
struct RowHash {
    width: usize,
    /// `64 - log2(width)`: the top `log2(width)` bits of the product.
    shift: u32,
    salts: Vec<u64>,
}

impl RowHash {
    fn new(width: usize, depth: usize, seed: u64) -> Self {
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
            shift: 64 - width.trailing_zeros(),
            salts,
        }
    }

    /// The cell of `item` in row `row`, whose salt is `salt`.
    #[inline]
    fn cell(&self, row: usize, salt: u64, item: u64) -> usize {
        row * self.width + (item.wrapping_mul(salt) >> self.shift) as usize
    }

    /// The cell of `item` in each row, row by row.
    #[inline]
    fn cells(&self, item: u64) -> impl Iterator<Item = usize> + '_ {
        self.salts
            .iter()
            .enumerate()
            .map(move |(row, &salt)| self.cell(row, salt, item))
    }
}

/// Count-min sketch for `u64`-packed k-mers.
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    hash: RowHash,
    /// Row `r` is `counters[r * width..(r + 1) * width]`.
    counters: Vec<u8>,
}

/// `(width, depth, seed)` triple describing a sketch's hash family and
/// shape. Two sketches built from the same params are mergeable; the
/// pipeline threads this through the IndexCreate scan so every worker
/// sketches into the same family.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SketchParams {
    /// Counters per row (rounded up to a power of two at build time).
    pub width: usize,
    /// Number of hash rows (`1..=MAX_DEPTH`).
    pub depth: usize,
    /// Seed for the multiply-shift salt family.
    pub seed: u64,
}

impl SketchParams {
    /// Instantiate an empty sketch with this shape.
    pub fn build(&self) -> CountMinSketch {
        CountMinSketch::new(self.width, self.depth, self.seed)
    }

    /// Bytes of counters a sketch of this shape holds: what
    /// [`CountMinSketch::memory_bytes`] reports for [`Self::build`]'s.
    pub fn memory_bytes(&self) -> usize {
        self.depth * self.width.next_power_of_two()
    }
}

impl Default for SketchParams {
    /// 2^18 x 4 u8 counters = 1 MiB per IndexCreate worker. Not exact at
    /// benchmark scale: on `hg_k63_budget` this sketch is 99.1 % full
    /// (`SketchFillPermille` 991), and presolve drops ≈ 0.27 M k-mers that
    /// a 16× wider sketch keeps, so the run's partition differs from the
    /// exact `--kf` one (ROADMAP "Presolve: exact or gone").
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
/// Decisions are all-or-nothing per k-mer value — the sketch is frozen
/// before the first probe — so surviving k-mer groups reach the sorter
/// intact.
///
/// Freezing keeps one bit per counter, `counter > threshold`, and drops
/// the counters: the minimum over the rows exceeds the threshold exactly
/// when every row's counter does, so `d` bit tests decide what the
/// estimate did. At the default 2^18 x 4 shape the bit-plane is 128 KiB
/// against 1 MiB of counters.
#[derive(Clone, Debug)]
pub struct HighFreqFilter {
    hash: RowHash,
    /// Bit `r * width + i` is set when counter `i` of row `r` exceeded the
    /// threshold.
    plane: Vec<u64>,
    threshold: u32,
    fill_permille: u64,
}

impl HighFreqFilter {
    /// Freeze a fully-populated sketch with a drop threshold. The bits
    /// are those of uncapped counters only for `threshold <`
    /// [`COUNTER_MAX`]: at or above it no counter exceeds the threshold
    /// and nothing drops (`PipelineConfig::validate` rejects such a
    /// presolve threshold).
    pub fn new(sketch: CountMinSketch, threshold: u32) -> Self {
        let plane = sketch
            .counters
            .chunks(64)
            .map(|word| {
                word.iter().enumerate().fold(0u64, |bits, (b, &c)| {
                    bits | u64::from(u32::from(c) > threshold) << b
                })
            })
            .collect();
        Self {
            fill_permille: sketch.fill_ratio_permille(),
            hash: sketch.hash,
            plane,
            threshold,
        }
    }

    /// True when the estimated count of `key` exceeds the threshold: its
    /// bit is set in every row. No branch on the bits.
    #[inline]
    pub fn drops(&self, key: u64) -> bool {
        self.hash.cells(key).fold(true, |all, at| {
            all & (self.plane[at / 64] >> (at % 64) & 1 != 0)
        })
    }

    /// The drop threshold (estimated count strictly above this drops).
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The frozen sketch's fill ratio, in permille (see
    /// [`CountMinSketch::fill_ratio_permille`]).
    pub fn fill_ratio_permille(&self) -> u64 {
        self.fill_permille
    }
}

impl CountMinSketch {
    /// Create a sketch with `depth` rows of `width` counters each.
    /// `width` is rounded up to a power of two for shift indexing.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width >= 16, "count-min sketch: width {width} is below 16");
        assert!(
            (1..=MAX_DEPTH).contains(&depth),
            "count-min sketch: depth {depth} is outside 1..={MAX_DEPTH} (MAX_DEPTH)"
        );
        let hash = RowHash::new(width.next_power_of_two(), depth, seed);
        Self {
            counters: vec![0u8; depth * hash.width],
            hash,
        }
    }

    /// Add one occurrence of `item` with conservative update: only the
    /// rows currently holding the minimum are incremented.
    /// [`Self::add_batch`] of the one key.
    pub fn add(&mut self, item: u64) {
        self.add_batch(std::slice::from_ref(&item));
    }

    /// Add one occurrence of each key, in order, with conservative update:
    /// the counters end as `keys.len()` calls of [`Self::add`] leave them,
    /// for any split of a stream into batches. Each row is hashed once per
    /// key and its counter read once and written once; the increment is
    /// the comparison's outcome, so nothing branches on the counts. The
    /// row loop has the sketch's depth as a constant: with the depth read
    /// at run time the sketched IndexCreate scan ran about a sixth slower.
    pub fn add_batch(&mut self, keys: &[u64]) {
        match self.depth() {
            1 => self.add_rows::<1>(keys),
            2 => self.add_rows::<2>(keys),
            3 => self.add_rows::<3>(keys),
            4 => self.add_rows::<4>(keys),
            5 => self.add_rows::<5>(keys),
            6 => self.add_rows::<6>(keys),
            7 => self.add_rows::<7>(keys),
            // `new` holds the depth to 1..=MAX_DEPTH.
            _ => self.add_rows::<MAX_DEPTH>(keys),
        }
    }

    /// [`Self::add_batch`] for a sketch of depth `D`.
    fn add_rows<const D: usize>(&mut self, keys: &[u64]) {
        let hash = &self.hash;
        let salts: &[u64; D] = hash.salts[..]
            .try_into()
            // EXPECT: `add_batch` dispatches on the sketch's own depth.
            .expect("D is the sketch depth");
        let counters = &mut self.counters[..];
        for &key in keys {
            let at = std::array::from_fn::<usize, D, _>(|r| hash.cell(r, salts[r], key));
            let c = at.map(|at| counters[at]);
            let min = c.iter().fold(u8::MAX, |m, &c| m.min(c));
            for (&at, &c) in at.iter().zip(&c) {
                counters[at] = c.saturating_add(u8::from(c == min));
            }
        }
    }

    /// Estimated count of `item` (never an under-estimate).
    pub fn estimate(&self, item: u64) -> u64 {
        self.hash
            .cells(item)
            .map(|at| u64::from(self.counters[at]))
            .min()
            .unwrap_or(0)
    }

    /// Counter width per row (after power-of-two rounding).
    pub fn width(&self) -> usize {
        self.hash.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.hash.salts.len()
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
        assert_eq!(
            self.width(),
            other.width(),
            "count-min merge: width mismatch"
        );
        assert_eq!(
            self.depth(),
            other.depth(),
            "count-min merge: depth mismatch"
        );
        assert_eq!(
            self.hash.salts, other.hash.salts,
            "count-min merge: sketches use different hash seeds"
        );
        for (c, &o) in self.counters.iter_mut().zip(&other.counters) {
            *c = c.saturating_add(o);
        }
    }

    /// Fraction of non-zero counters, in permille (0..=1000). A fill
    /// ratio near 1000 means the sketch is saturated with distinct items
    /// and over-estimation error grows; callers surface this as a
    /// telemetry counter to size `width` for the workload.
    pub fn fill_ratio_permille(&self) -> u64 {
        let occupied = self.counters.iter().filter(|&&c| c != 0).count() as u64;
        occupied * 1000 / self.counters.len() as u64
    }

    /// Total memory held by the counters, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.counters.len()
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
        assert_eq!(s.width(), 1024);
        assert_eq!(s.memory_bytes(), 2 * 1024);
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
        for _ in 0..300 {
            s.add(1);
        }
        assert_eq!(s.estimate(1), u64::from(COUNTER_MAX));
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
        for _ in 0..200 {
            a.add(3);
            b.add(3);
        }
        a.merge(&b);
        assert_eq!(a.estimate(3), u64::from(COUNTER_MAX));
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
        assert_eq!(p.memory_bytes(), a.memory_bytes());
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

    #[test]
    fn add_batch_over_any_split_equals_sequential_add() {
        let mut rng = SmallRng::seed_from_u64(17);
        // A few hot keys that saturate their cells among many cold ones.
        let stream: Vec<u64> = (0..3000)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..3u64),
                _ => rng.gen_range(0..200u64),
            })
            .collect();
        for depth in 1..=MAX_DEPTH {
            let mut sequential = CountMinSketch::new(64, depth, 18);
            stream.iter().for_each(|&x| sequential.add(x));
            assert!(sequential.counters.contains(&u8::MAX), "depth {depth}");
            for size in [1, 2, 8, 9, 100, stream.len()] {
                let mut batched = CountMinSketch::new(64, depth, 18);
                stream.chunks(size).for_each(|b| batched.add_batch(b));
                assert_eq!(
                    batched.counters, sequential.counters,
                    "depth {depth} size {size}"
                );
            }
            // Uneven cuts, an empty batch among them.
            let mut batched = CountMinSketch::new(64, depth, 18);
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(rng.gen_range(0..=rest.len().min(40)));
                batched.add_batch(head);
                rest = tail;
            }
            assert_eq!(
                batched.counters, sequential.counters,
                "depth {depth} uneven"
            );
        }
    }

    /// Plain (non-conservative) count-min insert: every row increments.
    /// The classic upper bound merge() is compared against.
    fn plain_add(s: &mut CountMinSketch, item: u64) {
        for at in s.hash.cells(item).collect::<Vec<_>>() {
            s.counters[at] = s.counters[at].saturating_add(1);
        }
    }

    /// The row-of-rows sketch the flat one replaced: every row its own
    /// vector of `u16` counters, `add` estimating first and then re-hashing
    /// each row to bump the minimal ones. The reference the flat layout
    /// and its 8-bit counters are held to: the flat counters are the
    /// reference's capped at [`COUNTER_MAX`].
    #[derive(Clone, Debug)]
    struct RefSketch {
        width: usize,
        rows: Vec<Vec<u16>>,
        salts: Vec<u64>,
    }

    impl RefSketch {
        fn new(width: usize, depth: usize, seed: u64) -> Self {
            let width = width.next_power_of_two();
            Self {
                width,
                rows: vec![vec![0u16; width]; depth],
                salts: RowHash::new(width, depth, seed).salts,
            }
        }

        fn index(&self, row: usize, item: u64) -> usize {
            let h = item.wrapping_mul(self.salts[row]);
            (h >> (64 - self.width.trailing_zeros())) as usize & (self.width - 1)
        }

        fn add(&mut self, item: u64) {
            let est = self.estimate(item);
            for row in 0..self.rows.len() {
                let i = self.index(row, item);
                let c = &mut self.rows[row][i];
                if u64::from(*c) == est {
                    *c = c.saturating_add(1);
                }
            }
        }

        fn estimate(&self, item: u64) -> u64 {
            (0..self.rows.len())
                .map(|row| u64::from(self.rows[row][self.index(row, item)]))
                .min()
                .unwrap_or(0)
        }

        fn merge(&mut self, other: &RefSketch) {
            for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
                for (c, &o) in mine.iter_mut().zip(theirs) {
                    *c = c.saturating_add(o);
                }
            }
        }

        fn fill_ratio_permille(&self) -> u64 {
            let cells = (self.rows.len() * self.width) as u64;
            let occupied: u64 = self
                .rows
                .iter()
                .map(|r| r.iter().filter(|&&c| c != 0).count() as u64)
                .sum();
            occupied * 1000 / cells
        }

        /// The reference's counters, row after row, capped at
        /// [`COUNTER_MAX`]: what the flat sketch must hold.
        fn capped(&self) -> Vec<u8> {
            let cap = |c: u16| u8::try_from(c).unwrap_or(u8::MAX);
            self.rows.iter().flatten().map(|&c| cap(c)).collect()
        }

        /// The flat sketch of the same family holding these counters.
        fn flat(&self, seed: u64) -> CountMinSketch {
            let mut s = CountMinSketch::new(self.width, self.rows.len(), seed);
            s.counters = self.capped();
            s
        }
    }

    /// A sketch shape (depth 1-6, width 16 to 2^12) and a seed.
    fn shape() -> impl Strategy<Value = (usize, usize, u64)> {
        (1usize..=6, 4u32..=12, any::<u64>()).prop_map(|(d, w, seed)| (d, 1 << w, seed))
    }

    /// Starting counters drawn from `seed`: mostly zero, some small, some
    /// next to [`COUNTER_MAX`] or at or next to `u16::MAX`, so the adds of
    /// a case run into both saturations.
    fn preload(width: usize, depth: usize, seed: u64) -> Vec<u16> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..width * depth)
            .map(|_| match rng.gen_range(0..8u32) {
                0..=3 => 0,
                4 | 5 => rng.gen_range(1..8u16),
                6 => rng.gen_range(250..=260u16),
                _ => rng.gen_range(65_530..=u16::MAX),
            })
            .collect()
    }

    /// A reference sketch of `(depth, width, seed)`, preloaded, then fed
    /// `adds`.
    fn filled(
        (depth, width, seed): (usize, usize, u64),
        preload: &[u16],
        adds: &[u64],
    ) -> RefSketch {
        let mut r = RefSketch::new(width, depth, seed);
        for (row, counters) in r.rows.iter_mut().zip(preload.chunks(width)) {
            row.copy_from_slice(counters);
        }
        for &x in adds {
            r.add(x);
        }
        r
    }

    /// A shape, the seed of its starting counters, and a stream whose keys
    /// come from a small pool, so they repeat and collide.
    fn sketch_case() -> impl Strategy<Value = ((usize, usize, u64), u64, Vec<u64>)> {
        (
            shape(),
            any::<u64>(),
            proptest::collection::vec(0u64..96, 0..600),
        )
    }

    proptest! {
        /// The flat, branch-free sketch holds exactly the reference's
        /// counters capped at [`COUNTER_MAX`] after any stream, from any
        /// (saturated) start; so its estimates and merges are the
        /// reference's capped, and its fill ratio is the reference's.
        #[test]
        fn prop_flat_sketch_matches_the_reference(
            (sh, pre, adds) in sketch_case(),
            more in proptest::collection::vec(0u64..96, 0..300),
            probes in proptest::collection::vec(0u64..128, 1..64),
        ) {
            let (depth, width, seed) = sh;
            let pre = preload(width, depth, pre);
            let mut reference = filled(sh, &pre, &[]);
            let mut flat = reference.flat(seed);
            let cap = |e: u64| e.min(u64::from(COUNTER_MAX));
            for &x in &adds {
                reference.add(x);
                flat.add(x);
            }
            prop_assert_eq!(&flat.counters, &reference.capped());
            for &x in &probes {
                prop_assert_eq!(flat.estimate(x), cap(reference.estimate(x)));
            }
            prop_assert_eq!(flat.fill_ratio_permille(), reference.fill_ratio_permille());

            // Merge a second stream's sketch, started from the same counters
            // so the sums saturate.
            let other = filled(sh, &pre, &more);
            let other_flat = other.flat(seed);
            reference.merge(&other);
            flat.merge(&other_flat);
            prop_assert_eq!(&flat.counters, &reference.capped());
            for &x in &probes {
                prop_assert_eq!(flat.estimate(x), cap(reference.estimate(x)));
            }
            prop_assert_eq!(flat.fill_ratio_permille(), reference.fill_ratio_permille());
        }

        /// The frozen bit-plane decides exactly what the counters did:
        /// `drops(key)` is `estimate(key) > t`, also at the thresholds
        /// where the `u8` counters saturate and past them.
        #[test]
        fn prop_filter_drops_what_the_estimate_exceeds(
            (sh, pre, adds) in sketch_case(),
            probes in proptest::collection::vec(0u64..128, 1..64),
        ) {
            let pre = preload(sh.1, sh.0, pre);
            let sketch = filled(sh, &pre, &adds).flat(sh.2);
            for t in [0, 1, 4, 254, 255, 65_535, u32::MAX] {
                let filter = HighFreqFilter::new(sketch.clone(), t);
                prop_assert_eq!(filter.fill_ratio_permille(), sketch.fill_ratio_permille());
                for &x in probes.iter().chain(&adds) {
                    prop_assert_eq!(
                        filter.drops(x),
                        sketch.estimate(x) > u64::from(t),
                        "key {} threshold {}", x, t
                    );
                }
            }
        }

        /// The presolve pipeline's sketch, built as IndexCreate builds it,
        /// freezes to the bits today's `u16` counters freeze to: a stream
        /// cut into chunks dealt round-robin to 1-4 worker shares, each
        /// share fed to an 8-bit sketch through `add_batch` in uneven
        /// batches, the share sketches merged; against the same shares fed
        /// key by key to the `u16` reference and merged. Small key pools
        /// push cells, and their merged sums, past 255.
        #[test]
        fn prop_batched_u8_filter_bits_match_the_u16_reference(
            (depth, width, seed) in shape(),
            pool in proptest::sample::select(vec![1u64, 2, 3, 12, 96]),
            stream in proptest::collection::vec(any::<u64>(), 0..1200),
            shares in 1usize..=4,
            cuts in any::<u64>(),
        ) {
            let stream: Vec<u64> = stream.iter().map(|x| x % pool).collect();
            let mut rng = SmallRng::seed_from_u64(cuts);
            let mut sketches: Vec<CountMinSketch> =
                (0..shares).map(|_| CountMinSketch::new(width, depth, seed)).collect();
            let mut refs: Vec<RefSketch> =
                (0..shares).map(|_| RefSketch::new(width, depth, seed)).collect();
            let (mut rest, mut chunk) = (&stream[..], 0);
            while !rest.is_empty() {
                let (mut piece, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(300)));
                piece.iter().for_each(|&x| refs[chunk % shares].add(x));
                while !piece.is_empty() {
                    let (batch, more) = piece.split_at(rng.gen_range(0..=piece.len().min(64)));
                    sketches[chunk % shares].add_batch(batch);
                    piece = more;
                }
                (rest, chunk) = (tail, chunk + 1);
            }
            let mut merged = sketches.remove(0);
            sketches.iter().for_each(|s| merged.merge(s));
            let mut reference = refs.remove(0);
            refs.iter().for_each(|r| reference.merge(r));
            for t in [1u32, 3, 4, 20, COUNTER_MAX - 1] {
                let want: Vec<u64> = reference
                    .rows
                    .concat()
                    .chunks(64)
                    .map(|word| {
                        word.iter().enumerate().fold(0u64, |bits, (b, &c)| {
                            bits | u64::from(u32::from(c) > t) << b
                        })
                    })
                    .collect();
                let filter = HighFreqFilter::new(merged.clone(), t);
                prop_assert_eq!(&filter.plane, &want, "threshold {}", t);
                prop_assert_eq!(filter.fill_ratio_permille(), reference.fill_ratio_permille());
            }
        }

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
