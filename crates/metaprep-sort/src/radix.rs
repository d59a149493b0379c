//! Serial out-of-place LSB radix sort with configurable digit width.

use metaprep_kmer::{KmerReadTuple, KmerReadTuple128};

/// Unsigned key types the radix sort can digest.
///
/// The bitwise bounds let LocalSort's bucket sweep accumulate a per-bucket
/// *varying-bits mask* (`OR(keys) ^ AND(keys)`: a bit is set iff it is 1
/// in some key and 0 in another) that the pruned radix sort consults to
/// skip identity passes without a counting scan.
pub trait SortKey:
    Copy
    + Ord
    + Send
    + Sync
    + std::ops::BitXor<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitAnd<Output = Self>
    + 'static
{
    /// Key width in bits.
    const BITS: u32;
    /// The all-zero key (identity for the `OR` accumulator).
    const ZERO: Self;
    /// The all-ones key (identity for the `AND` accumulator).
    const ONES: Self;
    /// Extract `(self >> shift) & mask` as a bucket index.
    fn digit(self, shift: u32, mask: u64) -> usize;
}

impl SortKey for u32 {
    const BITS: u32 = 32;
    const ZERO: u32 = 0;
    const ONES: u32 = u32::MAX;
    #[inline(always)]
    fn digit(self, shift: u32, mask: u64) -> usize {
        ((self as u64 >> shift) & mask) as usize
    }
}

impl SortKey for u64 {
    const BITS: u32 = 64;
    const ZERO: u64 = 0;
    const ONES: u64 = u64::MAX;
    #[inline(always)]
    fn digit(self, shift: u32, mask: u64) -> usize {
        ((self >> shift) & mask) as usize
    }
}

impl SortKey for u128 {
    const BITS: u32 = 128;
    const ZERO: u128 = 0;
    const ONES: u128 = u128::MAX;
    #[inline(always)]
    fn digit(self, shift: u32, mask: u64) -> usize {
        ((self >> shift) as u64 & mask) as usize
    }
}

/// Records sortable by an embedded key.
pub trait Keyed: Copy + Send + Sync + 'static {
    /// The sort key type.
    type Key: SortKey;
    /// Extract the key.
    fn key(&self) -> Self::Key;
}

impl Keyed for u32 {
    type Key = u32;
    #[inline(always)]
    fn key(&self) -> u32 {
        *self
    }
}

impl Keyed for u64 {
    type Key = u64;
    #[inline(always)]
    fn key(&self) -> u64 {
        *self
    }
}

impl Keyed for u128 {
    type Key = u128;
    #[inline(always)]
    fn key(&self) -> u128 {
        *self
    }
}

impl Keyed for KmerReadTuple {
    type Key = u64;
    #[inline(always)]
    fn key(&self) -> u64 {
        self.kmer
    }
}

impl Keyed for KmerReadTuple128 {
    type Key = u128;
    #[inline(always)]
    fn key(&self) -> u128 {
        self.kmer
    }
}

impl<K: SortKey, V: Copy + Send + Sync + 'static> Keyed for (K, V) {
    type Key = K;
    #[inline(always)]
    fn key(&self) -> K {
        self.0
    }
}

/// Serial, stable, out-of-place LSB radix sort.
///
/// * `bits` — digit width per pass (the paper uses 8; the ablation bench
///   sweeps 8/11/16). Must be in `1..=16`.
/// * `key_bits` — number of *meaningful* low bits in the key; passes above
///   this are skipped. For `k`-mers this is `2k`, so sorting 27-mers takes
///   `ceil(54 / 8) = 7` passes rather than 8 (pass `2k..64` would be all
///   zeros). Pass `K::Key::BITS` to force full-width behaviour.
/// * `scratch` — same length as `data`; used for ping-pong copies.
///
/// The result always ends in `data`. Stability preserves the relative order
/// of tuples with equal k-mers, which LocalCC exploits (the first read of a
/// group is the union anchor).
///
/// ```
/// use metaprep_sort::lsb_radix_sort;
///
/// let mut data: Vec<u64> = vec![9, 2, 7, 2, 0];
/// let mut scratch = vec![0u64; data.len()];
/// lsb_radix_sort(&mut data, &mut scratch, 8, 64);
/// assert_eq!(data, vec![0, 2, 2, 7, 9]);
/// ```
pub fn lsb_radix_sort<T: Keyed>(data: &mut [T], scratch: &mut [T], bits: u32, key_bits: u32) {
    assert!((1..=16).contains(&bits), "digit width {bits} not in 1..=16");
    assert!(key_bits <= T::Key::BITS);
    assert_eq!(data.len(), scratch.len());
    if data.len() <= 1 {
        return;
    }

    let buckets = 1usize << bits;
    let mask = (buckets - 1) as u64;
    let passes = key_bits.div_ceil(bits);

    // Ping-pong between data and scratch; `src_is_data` tracks parity.
    let mut src_is_data = true;
    let mut counts = vec![0usize; buckets];
    for p in 0..passes {
        let shift = p * bits;
        let (src, dst): (&mut [T], &mut [T]) = if src_is_data {
            (&mut *data, &mut *scratch)
        } else {
            (&mut *scratch, &mut *data)
        };

        counts.iter_mut().for_each(|c| *c = 0);
        for t in src.iter() {
            counts[t.key().digit(shift, mask)] += 1;
        }
        // Skip passes where every key shares one digit (all elements land
        // in one bucket): the permutation would be the identity.
        if counts.contains(&src.len()) {
            continue;
        }
        radix_pass(src, dst, shift, mask, &mut counts);
        src_is_data = !src_is_data;
    }

    if !src_is_data {
        data.copy_from_slice(scratch);
    }
}

/// How much work a (pruned) radix sort actually did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RadixStats {
    /// Counting + scatter passes executed.
    pub passes_run: u64,
    /// Passes skipped because the digit window held no varying key bits.
    pub passes_pruned: u64,
}

impl RadixStats {
    /// Combine two per-sub-range stats (e.g. across a parallel reduce).
    pub fn merged(self, other: RadixStats) -> RadixStats {
        RadixStats {
            passes_run: self.passes_run + other.passes_run,
            passes_pruned: self.passes_pruned + other.passes_pruned,
        }
    }
}

/// One stable counting-sort pass: prefix-sum the digit histogram `hist`
/// into write cursors and scatter `src` into `dst` by the digit at `shift`.
/// On return `hist[d]` is where digit `d`'s run ends in `dst`.
pub(crate) fn radix_pass<T: Keyed>(
    src: &[T],
    dst: &mut [T],
    shift: u32,
    mask: u64,
    hist: &mut [usize],
) {
    let mut sum = 0usize;
    for c in hist.iter_mut() {
        let x = *c;
        *c = sum;
        sum += x;
    }
    for t in src {
        let d = t.key().digit(shift, mask);
        dst[hist[d]] = *t;
        hist[d] += 1;
    }
}

/// [`lsb_radix_sort`] for a cache-resident bucket, with pass pruning driven
/// by a precomputed *varying-bits mask*.
///
/// `varying` must have a bit set wherever any two keys in `data` differ —
/// LocalSort's bucket sweep accumulates it as `OR(keys) ^ AND(keys)` while
/// it brings the bucket into cache, so it arrives here for free. A digit window with no varying
/// bits means every key shares that digit, the pass permutation would be
/// the identity, and the pass is skipped without even the counting read.
/// LocalSort's in-bucket sort calls this once per cache-sized bucket — on
/// that bucket's distinct `(key, id)` pairs, or on its tuples where ranking
/// would not pay — thousands of times per pipeline pass, so the counter
/// table comes from the caller (`counts`;
/// resized and rewritten here, so any recycled `Vec` will do).
///
/// Skipped passes are exactly the passes the unpruned sort's counting
/// heuristic skips (a constant digit ⇔ one occupied bucket), and a stable
/// sort's output is unique, so the result is byte-identical to
/// [`lsb_radix_sort`] and always ends in `data`. Overstating `varying`
/// (extra bits set) only costs the counting read of a pass that then turns
/// out to be the identity; understating it breaks sorting, so don't.
pub fn lsb_radix_sort_pruned<T: Keyed>(
    data: &mut [T],
    scratch: &mut [T],
    bits: u32,
    key_bits: u32,
    varying: T::Key,
    counts: &mut Vec<usize>,
) -> RadixStats {
    assert!((1..=16).contains(&bits), "digit width {bits} not in 1..=16");
    assert!(key_bits <= T::Key::BITS);
    assert_eq!(data.len(), scratch.len());
    let mut stats = RadixStats::default();
    if data.len() <= 1 {
        return stats;
    }

    let buckets = 1usize << bits;
    let mask = (buckets - 1) as u64;
    counts.resize(buckets, 0);

    let mut src_is_data = true;
    for shift in (0..key_bits.div_ceil(bits)).map(|p| p * bits) {
        let (src, dst): (&mut [T], &mut [T]) = if src_is_data {
            (&mut *data, &mut *scratch)
        } else {
            (&mut *scratch, &mut *data)
        };
        // No varying key bit in this digit window: the identity pass.
        if varying.digit(shift, mask) == 0 {
            stats.passes_pruned += 1;
            continue;
        }
        counts.fill(0);
        for t in src.iter() {
            counts[t.key().digit(shift, mask)] += 1;
        }
        // An overstated mask let a constant digit through: still the identity.
        if counts[src[0].key().digit(shift, mask)] == src.len() {
            stats.passes_pruned += 1;
            continue;
        }
        stats.passes_run += 1;
        radix_pass(src, dst, shift, mask, counts);
        src_is_data = !src_is_data;
    }

    if !src_is_data {
        data.copy_from_slice(scratch);
    }
    stats
}

/// True if `data` is non-decreasing by key.
pub fn is_sorted_by_key<T: Keyed>(data: &[T]) -> bool {
    data.windows(2).all(|w| w[0].key() <= w[1].key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_kmer::KmerReadTuple;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sort_u64(mut v: Vec<u64>, bits: u32) -> Vec<u64> {
        let mut scratch = vec![0u64; v.len()];
        lsb_radix_sort(&mut v, &mut scratch, bits, 64);
        v
    }

    #[test]
    fn sorts_small_vectors() {
        assert_eq!(sort_u64(vec![3, 1, 2], 8), vec![1, 2, 3]);
        assert_eq!(sort_u64(vec![], 8), Vec::<u64>::new());
        assert_eq!(sort_u64(vec![5], 8), vec![5]);
        assert_eq!(sort_u64(vec![2, 2, 2], 8), vec![2, 2, 2]);
    }

    #[test]
    fn sorts_random_u64s_all_digit_widths() {
        let mut rng = SmallRng::seed_from_u64(1);
        let v: Vec<u64> = (0..10_000).map(|_| rng.gen()).collect();
        let mut want = v.clone();
        want.sort_unstable();
        for bits in [1, 4, 8, 11, 16] {
            assert_eq!(sort_u64(v.clone(), bits), want, "bits={bits}");
        }
    }

    #[test]
    fn key_bits_skips_high_passes_correctly() {
        // 54-bit keys (27-mers): sorting with key_bits = 54 must equal
        // sorting with key_bits = 64.
        let mut rng = SmallRng::seed_from_u64(2);
        let v: Vec<u64> = (0..5_000).map(|_| rng.gen::<u64>() >> 10).collect();
        let mut a = v.clone();
        let mut s = vec![0u64; v.len()];
        lsb_radix_sort(&mut a, &mut s, 8, 54);
        let mut want = v;
        want.sort_unstable();
        assert_eq!(a, want);
    }

    #[test]
    fn tuple_sort_is_stable() {
        // Equal keys keep their original (read id) order.
        let mut v: Vec<KmerReadTuple> = vec![
            KmerReadTuple::new(7, 0),
            KmerReadTuple::new(3, 1),
            KmerReadTuple::new(7, 2),
            KmerReadTuple::new(3, 3),
            KmerReadTuple::new(7, 4),
        ];
        let mut s = vec![KmerReadTuple::default(); v.len()];
        lsb_radix_sort(&mut v, &mut s, 8, 64);
        let reads: Vec<u32> = v.iter().map(|t| t.read).collect();
        assert_eq!(reads, vec![1, 3, 0, 2, 4]);
    }

    #[test]
    fn u128_keys_sort() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut v: Vec<u128> = (0..3_000)
            .map(|_| (rng.gen::<u64>() as u128) << 62 | rng.gen::<u64>() as u128)
            .collect();
        let mut want = v.clone();
        want.sort_unstable();
        let mut s = vec![0u128; v.len()];
        lsb_radix_sort(&mut v, &mut s, 8, 126);
        assert_eq!(v, want);
    }

    #[test]
    fn already_sorted_and_reverse_sorted() {
        let asc: Vec<u64> = (0..1000).collect();
        let desc: Vec<u64> = (0..1000).rev().collect();
        assert_eq!(sort_u64(asc.clone(), 8), asc);
        assert_eq!(sort_u64(desc, 8), asc);
    }

    #[test]
    fn all_equal_keys_skip_every_pass() {
        let v = vec![42u64; 512];
        assert_eq!(sort_u64(v.clone(), 8), v);
    }

    #[test]
    fn pruned_sort_matches_unpruned_under_exact_and_overstated_masks() {
        // Keys vary in bits 8..24 only; a counter table of the wrong size
        // and stale contents is what a caller recycling it hands over.
        let mut rng = SmallRng::seed_from_u64(4);
        let v: Vec<u64> = (0..3_000)
            .map(|_| 0x77_0000_0011 | (rng.gen::<u64>() & 0xFF_FF00))
            .collect();
        let mut want = v.clone();
        let mut s = vec![0u64; v.len()];
        lsb_radix_sort(&mut want, &mut s, 8, 54);
        let mut counts = vec![99usize; 7];
        for (varying, run) in [(0xFF_FF00u64, 2), (u64::MAX >> 10, 2), (0xFF_FF0F, 2)] {
            let mut got = v.clone();
            let stats = lsb_radix_sort_pruned(&mut got, &mut s, 8, 54, varying, &mut counts);
            assert_eq!(got, want, "varying {varying:#x}");
            assert_eq!((stats.passes_run, stats.passes_pruned), (run, 7 - run));
        }
    }

    #[test]
    fn is_sorted_by_key_works() {
        assert!(is_sorted_by_key(&[1u64, 2, 2, 3]));
        assert!(!is_sorted_by_key(&[2u64, 1]));
        assert!(is_sorted_by_key::<u64>(&[]));
    }

    #[test]
    #[should_panic]
    fn rejects_zero_bits() {
        let mut v = vec![1u64];
        let mut s = vec![0u64];
        lsb_radix_sort(&mut v, &mut s, 0, 64);
    }

    #[test]
    #[should_panic]
    fn rejects_mismatched_scratch() {
        let mut v = vec![1u64, 2];
        let mut s = vec![0u64];
        lsb_radix_sort(&mut v, &mut s, 8, 64);
    }

    proptest! {
        #[test]
        fn prop_matches_std_sort(
            v in proptest::collection::vec(any::<u64>(), 0..2000),
            bits in 1u32..=16,
        ) {
            let mut want = v.clone();
            want.sort_unstable();
            prop_assert_eq!(sort_u64(v, bits), want);
        }

        #[test]
        fn prop_stability(
            keys in proptest::collection::vec(0u64..16, 0..500),
        ) {
            let v: Vec<KmerReadTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KmerReadTuple::new(k, i as u32))
                .collect();
            let mut a = v.clone();
            let mut s = vec![KmerReadTuple::default(); v.len()];
            lsb_radix_sort(&mut a, &mut s, 8, 64);
            let mut want = v;
            want.sort_by_key(|t| (t.kmer, t.read)); // stable by construction
            prop_assert_eq!(a, want);
        }
    }
}
