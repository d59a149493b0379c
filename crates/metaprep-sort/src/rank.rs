//! LocalSort's in-bucket kernel: a stable counting sort by distinct-key
//! rank (DESIGN.md §7.2).
//!
//! A cache-sized bucket holds each k-mer about as many times as the reads
//! cover it (≈ 7 on the MM input), and an LSB radix sort moves every copy
//! on every digit. [`rank_sort`] sorts each distinct key once:
//!
//! 1. one pass over the bucket looks each key up in an open-addressing
//!    table; a tuple gets the dense id of its key (ids are handed out in
//!    first-occurrence order) and each id counts its tuples;
//! 2. only the distinct `(key, id)` pairs are radix-sorted, with
//!    [`lsb_radix_sort_pruned`] under the bucket's varying-bits mask;
//! 3. the counts, prefix-summed in key order, become each id's first slot;
//! 4. every tuple is placed once, in input order, at its id's next slot.
//!
//! Equal keys keep their input order and unequal keys come out in key
//! order: the unique stable order, so the bytes are those of
//! [`crate::lsb_radix_sort`]. The [`RadixStats`] are those of
//! `lsb_radix_sort_pruned` over the tuples as well: a digit is constant
//! over the distinct keys exactly when it is constant over all the keys, so
//! the pair sort runs and prunes the same digit windows.
//!
//! Steps 1, 3 and 4 cost about [`RANK_PASSES`] digit passes over the
//! tuples; the sort of `d` pairs saves `live · (n − d) / n` of them, where
//! `live` is the number of digit windows the mask leaves to run. When that
//! cannot come out ahead the bucket's tuples go to `lsb_radix_sort_pruned`
//! instead, with the same bytes and stats: at once when the mask leaves
//! `RANK_PASSES` live windows or fewer, and from step 1 as soon as more than
//! `n · (1 − RANK_PASSES / live)` distinct keys turned up. A worker's next
//! buckets hold about as many distinct keys as its last one, so after step 1
//! gives up the next [`RADIX_AFTER_GIVE_UP`] buckets skip it.

use crate::radix::{lsb_radix_sort_pruned, Keyed, RadixStats, SortKey};

/// A free table slot; ids stay below it because a bucket is shorter.
const EMPTY: u32 = u32::MAX;

/// The smallest live table: 256 slots (1 KiB).
const MIN_TABLE_BITS: u32 = 8;

/// What the table pass, the copy and the placement cost, in digit passes
/// (count and scatter) of the radix sort over the same tuples. Measured on
/// one 21 845-tuple bucket of 12-byte tuples, one thread of a 2-core Xeon
/// (DESIGN.md §7.2): with six
/// live windows the rank sort is 1.56× the radix at 7 tuples per key and
/// 0.66× at 1, and with three live windows 0.90× even at 7.
const RANK_PASSES: usize = 3;

/// Buckets that go straight to the radix after a table pass gave up: one
/// bucket in eight pays for the table pass that finds out.
const RADIX_AFTER_GIVE_UP: u32 = 7;

/// A distinct key and its dense id, packed like the tuples (12 bytes for a
/// `u64` key, 20 for a `u128` one), so the pair sort moves no more bytes
/// per element than a tuple sort does.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
struct Pair<K> {
    key: K,
    id: u32,
}

impl<K: SortKey> Keyed for Pair<K> {
    type Key = K;
    #[inline(always)]
    fn key(&self) -> K {
        self.key
    }
}

/// The table slot `key` probes first when the live table has `2^bits`
/// slots: a multiplicative (Fibonacci) hash of the key's low 64 bits, with
/// the high 64 of a wider key folded in first, so keys that agree in their
/// low bits still spread.
#[inline(always)]
fn home<K: SortKey>(key: K, bits: u32) -> usize {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = key.digit(0, u64::MAX) as u64;
    if K::BITS > 64 {
        h ^= (key.digit(64, u64::MAX) as u64)
            .wrapping_mul(PHI)
            .rotate_left(32);
    }
    (h.wrapping_mul(PHI) >> (64 - bits)) as usize
}

/// Free the first `2^bits` slots of `table` (growing it if needed) and
/// enter every pair of `pairs` into them.
fn rebuild<K: SortKey>(table: &mut Vec<u32>, pairs: &[Pair<K>], bits: u32) {
    let size = 1usize << bits;
    if table.len() < size {
        table.resize(size, EMPTY);
    }
    let live = &mut table[..size];
    live.fill(EMPTY);
    for p in pairs {
        let mut s = home(p.key, bits);
        while live[s] != EMPTY {
            s = (s + 1) & (size - 1);
        }
        live[s] = p.id;
    }
}

/// One worker's workspace for [`rank_sort`], recycled bucket after bucket
/// and pass after pass: the per-tuple ids grow to the largest bucket, the
/// per-id buffers and the table to the most distinct keys a bucket held,
/// and nothing is shrunk, so a steady-state pass allocates nothing. Each
/// call writes every slot before reading it (the table's live prefix is
/// freed first), so recycled contents never reach a result.
pub(crate) struct RankScratch<K> {
    /// Open-addressing slots (linear probing): a dense id, or [`EMPTY`].
    /// Kept at most a quarter full: a probe that runs on past an occupied
    /// slot is a mispredicted branch, and grouping a bucket at half full
    /// measured 1.1–1.5× slower than in a table twice the size.
    table: Vec<u32>,
    /// `log2` of the live table the last bucket ended with. The next bucket
    /// starts there (capped by its own length), so a run of buckets with
    /// alike distinct counts rehashes only on the first.
    table_bits: u32,
    /// Buckets still to send straight to the radix since the last table
    /// pass gave up.
    radix_next: u32,
    /// Per tuple: the dense id of its key.
    ids: Vec<u32>,
    /// Per id: its tuple count, then its next output slot. As long as
    /// `pairs`.
    cursor: Vec<u32>,
    /// `pairs[..d]`: per id, in first-occurrence order; after step 2, in
    /// key order.
    pairs: Vec<Pair<K>>,
    pair_scratch: Vec<Pair<K>>,
    /// Digit counters of the pair sort.
    counts: Vec<usize>,
}

impl<K> RankScratch<K> {
    /// A workspace whose buffers already hold a first, small allocation.
    /// Create it in the thread that owns the pool, not in a worker: the
    /// workers grow the buffers, and glibc's `realloc` keeps a block in the
    /// allocator arena of its first allocation. First allocated by the
    /// short-lived worker threads, the buffers landed in arenas of their
    /// own and `hg_k63_budget`'s peak RSS rose from 66.7 to 69.4 MB in every
    /// run.
    pub(crate) fn new() -> Self {
        Self {
            table: Vec::with_capacity(1),
            table_bits: MIN_TABLE_BITS,
            radix_next: 0,
            ids: Vec::with_capacity(1),
            cursor: Vec::with_capacity(1),
            pairs: Vec::with_capacity(1),
            pair_scratch: Vec::with_capacity(1),
            counts: Vec::with_capacity(1),
        }
    }
}

impl<K: SortKey> RankScratch<K> {
    /// Step 1: give every tuple of `data` the dense id of its key, in
    /// `ids`; returns the number `d` of distinct keys, with `pairs[..d]`
    /// holding them and `cursor[..d]` their tuple counts. Gives up, with
    /// `None`, as soon as more than `most` distinct keys turned up, and then
    /// sends the next [`RADIX_AFTER_GIVE_UP`] buckets to the radix.
    fn group<T: Keyed<Key = K>>(&mut self, data: &[T], most: usize) -> Option<usize> {
        let n = data.len();
        if self.ids.len() < n {
            self.ids.resize(n, 0);
        }
        let (ids, cursor, pairs) = (&mut self.ids[..n], &mut self.cursor, &mut self.pairs);
        // Room for `n` distinct keys at load ≤ 1/4: the table never grows
        // past four slots per tuple of the bucket.
        let fit = (4 * n).next_power_of_two().trailing_zeros();
        let mut bits = self
            .table_bits
            .clamp(MIN_TABLE_BITS, fit.max(MIN_TABLE_BITS));
        let slots = &mut self.table;
        rebuild::<K>(slots, &[], bits);
        let mut table = &mut slots[..1 << bits];
        let mut d = 0;
        for (t, out) in data.iter().zip(ids) {
            let key = t.key();
            let mut s = home(key, bits);
            *out = loop {
                let e = table[s];
                if e == EMPTY {
                    if d == most {
                        (self.table_bits, self.radix_next) = (bits, RADIX_AFTER_GIVE_UP);
                        return None;
                    }
                    if d == pairs.len() {
                        // The per-id buffers grow with the distinct keys.
                        let len = (2 * d + 1).min(n);
                        pairs.resize(len, Pair { key, id: 0 });
                        cursor.resize(len, 0);
                    }
                    let id = d as u32;
                    (table[s], pairs[d], cursor[d]) = (id, Pair { key, id }, 1);
                    d += 1;
                    if 4 * d > table.len() {
                        bits += 1;
                        rebuild(slots, &pairs[..d], bits);
                        table = &mut slots[..1 << bits];
                    }
                    break id;
                }
                if pairs[e as usize].key() == key {
                    cursor[e as usize] += 1;
                    break e;
                }
                s = (s + 1) & (table.len() - 1);
            };
        }
        self.table_bits = bits;
        Some(d)
    }
}

/// Sort `data` stably by key: the bytes and [`RadixStats`] of
/// [`lsb_radix_sort_pruned`] with the same arguments, from one table pass,
/// a radix sort of the distinct keys only, and one placement pass — or,
/// where that would not pay, from `lsb_radix_sort_pruned` itself (see the
/// module docs). `scratch` must be as long as `data`; `varying` must have a
/// bit set wherever two keys differ (below `key_bits`), and `ws` is any
/// recycled workspace. A mask without a varying bit below `key_bits` reads
/// nothing.
pub(crate) fn rank_sort<T: Keyed>(
    data: &mut [T],
    scratch: &mut [T],
    bits: u32,
    key_bits: u32,
    varying: T::Key,
    ws: &mut RankScratch<T::Key>,
) -> RadixStats {
    assert!((1..=16).contains(&bits), "digit width {bits} not in 1..=16");
    assert!(key_bits <= T::Key::BITS);
    assert_eq!(data.len(), scratch.len());
    let n = data.len();
    if n < 2 {
        return RadixStats::default();
    }
    let (windows, mask) = (key_bits.div_ceil(bits), (1u64 << bits) - 1);
    let identity = RadixStats {
        passes_run: 0,
        passes_pruned: u64::from(windows),
    };
    let live = (0..windows)
        .filter(|&p| varying.digit(p * bits, mask) != 0)
        .count();
    if live == 0 {
        return identity;
    }
    assert!(
        n < EMPTY as usize,
        "a bucket of {n} tuples overflows the u32 ids"
    );

    // The rank sort pays while `live · (n − d) > RANK_PASSES · n`.
    let group = if live <= RANK_PASSES {
        None
    } else if ws.radix_next > 0 {
        ws.radix_next -= 1;
        None
    } else {
        ws.group(data, n - RANK_PASSES * n / live - 1)
    };
    let Some(d) = group else {
        return lsb_radix_sort_pruned(data, scratch, bits, key_bits, varying, &mut ws.counts);
    };
    if d < 2 {
        // One key under an overstated mask: input order is the order.
        return identity;
    }
    if ws.pair_scratch.len() < d {
        ws.pair_scratch.resize(d, ws.pairs[0]);
    }
    let pairs = &mut ws.pairs[..d];
    let stats = lsb_radix_sort_pruned(
        pairs,
        &mut ws.pair_scratch[..d],
        bits,
        key_bits,
        varying,
        &mut ws.counts,
    );

    let cursor = &mut ws.cursor[..d];
    let mut at = 0;
    for p in pairs.iter() {
        let c = &mut cursor[p.id as usize];
        (*c, at) = (at, at + *c);
    }
    scratch.copy_from_slice(data);
    for (t, &id) in scratch.iter().zip(&ws.ids[..n]) {
        let c = &mut cursor[id as usize];
        data[*c as usize] = *t;
        *c += 1;
    }
    stats
}

#[cfg(test)]
impl<K> RankScratch<K> {
    /// Where each buffer lives, to show a pass reused them.
    pub(crate) fn allocations(&self) -> [(*const u8, usize); 6] {
        [
            (self.table.as_ptr().cast(), self.table.capacity()),
            (self.ids.as_ptr().cast(), self.ids.capacity()),
            (self.cursor.as_ptr().cast(), self.cursor.capacity()),
            (self.pairs.as_ptr().cast(), self.pairs.capacity()),
            (
                self.pair_scratch.as_ptr().cast(),
                self.pair_scratch.capacity(),
            ),
            (self.counts.as_ptr().cast(), self.counts.capacity()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::lsb_radix_sort;
    use metaprep_kmer::{KmerReadTuple, KmerReadTuple128};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `OR(keys) ^ AND(keys)`: the exact varying-bits mask.
    fn exact_mask<T: Keyed>(data: &[T]) -> T::Key {
        let (or, and) = data.iter().fold((T::Key::ZERO, T::Key::ONES), |(o, a), t| {
            (o | t.key(), a & t.key())
        });
        or ^ and
    }

    /// Hold the kernel to the radix sorts: the bytes of `lsb_radix_sort`
    /// and the stats of `lsb_radix_sort_pruned` under the same `varying`.
    fn check<T: Keyed + Default + PartialEq + std::fmt::Debug>(
        input: &[T],
        bits: u32,
        key_bits: u32,
        varying: T::Key,
        ws: &mut RankScratch<T::Key>,
    ) {
        let mut scratch = vec![T::default(); input.len()];
        let mut want = input.to_vec();
        lsb_radix_sort(&mut want, &mut scratch, bits, key_bits);
        let mut pruned = input.to_vec();
        let want_stats = lsb_radix_sort_pruned(
            &mut pruned,
            &mut scratch,
            bits,
            key_bits,
            varying,
            &mut Vec::new(),
        );
        let mut got = input.to_vec();
        let stats = rank_sort(&mut got, &mut scratch, bits, key_bits, varying, ws);
        assert_eq!(got, want, "bits {bits} key_bits {key_bits}");
        assert_eq!(stats, want_stats, "bits {bits} key_bits {key_bits}");
    }

    /// Tuples tagged with their input position, so a stability slip shows.
    fn tagged(keys: &[u64]) -> Vec<KmerReadTuple> {
        let tag = |(i, &k): (usize, &u64)| KmerReadTuple::new(k, i as u32);
        keys.iter().enumerate().map(tag).collect()
    }

    #[test]
    fn lengths_zero_one_and_two() {
        let mut ws = RankScratch::new();
        let cases: [&[u64]; 5] = [&[], &[5], &[9, 3], &[3, 9], &[4, 4]];
        for keys in cases {
            let data = tagged(keys);
            for varying in [exact_mask(&data), (1 << 54) - 1] {
                check(&data, 8, 54, varying, &mut ws);
            }
        }
    }

    #[test]
    fn all_equal_keys_read_nothing_under_an_exact_mask() {
        let mut ws = RankScratch::<u64>::new();
        let mut data = tagged(&[0xABCDE; 500]);
        let mut scratch = data.clone();
        let stats = rank_sort(&mut data, &mut scratch, 8, 54, 0, &mut ws);
        assert_eq!(
            stats,
            RadixStats {
                passes_run: 0,
                passes_pruned: 7
            }
        );
        assert!(data.iter().map(|t| t.read).eq(0..500));
        assert!(ws.ids.is_empty(), "the table pass never ran");
        // Overstated, the mask sends the bucket to the radix (one live
        // window) or through the table (five), which finds one key.
        check(&data, 8, 54, 0xFF00, &mut ws);
        assert!(ws.ids.is_empty(), "the table pass never ran");
        check(&data, 11, 54, (1 << 54) - 1, &mut ws);
        assert_eq!(ws.ids.len(), 500);
    }

    #[test]
    fn the_table_runs_only_where_it_can_pay() {
        let wide = |i: u64| i.wrapping_mul(0x2F_0F1E_2D3C_4B5A) >> 10;
        let copies = |c: usize| tagged(&(0..70).map(|i| wide((i / c) as u64)).collect::<Vec<_>>());
        // Three live windows: the radix, without the table.
        let mut ws = RankScratch::new();
        let narrow = tagged(&(0..70).map(|i| (i % 10) << 16).collect::<Vec<_>>());
        check(&narrow, 8, 54, (1 << 24) - 1, &mut ws);
        assert!(ws.ids.is_empty());
        // Seven live windows and 7 tuples per key: the table pass runs to
        // the end and the rank sort places the tuples.
        check(&copies(7), 8, 54, exact_mask(&copies(7)), &mut ws);
        assert_eq!((ws.ids.len(), ws.radix_next), (70, 0));
        // All distinct: the table gives up past 70 − 30 − 1 = 39 keys, and
        // the next buckets go straight to the radix, duplicated or not.
        check(&copies(1), 8, 54, exact_mask(&copies(1)), &mut ws);
        assert_eq!(ws.radix_next, RADIX_AFTER_GIVE_UP);
        for left in (0..RADIX_AFTER_GIVE_UP).rev() {
            check(&copies(7), 8, 54, exact_mask(&copies(7)), &mut ws);
            assert_eq!(ws.radix_next, left);
        }
        // Then the table pass runs again (the cleared `table_bits` shows
        // it) and, with 2 tuples per key, goes on to the end: 35 keys of
        // the 39 allowed.
        ws.table_bits = 0;
        check(&copies(2), 8, 54, exact_mask(&copies(2)), &mut ws);
        assert_eq!((ws.table_bits, ws.radix_next), (MIN_TABLE_BITS, 0));
    }

    #[test]
    fn keys_built_to_share_one_probe_chain() {
        // The hash of a u64 key is `key * PHI`: keys whose products share
        // their top 16 bits start at the same slot in every table up to
        // 2^16 slots, so every insert and look-up walks one chain.
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut inv = PHI;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(PHI.wrapping_mul(inv)));
        }
        assert_eq!(PHI.wrapping_mul(inv), 1);
        let keys: Vec<u64> = (0..300u64)
            .map(|i| ((0x5A5Au64 << 48) | (i * 0x1_0001)).wrapping_mul(inv))
            .collect();
        for bits in MIN_TABLE_BITS..=16 {
            assert!(keys.iter().all(|&k| home(k, bits) == home(keys[0], bits)));
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let picks: Vec<u64> = (0..2_000)
            .map(|_| keys[rng.gen_range(0..keys.len())])
            .collect();
        let data = tagged(&picks);
        let mut ws = RankScratch::new();
        for bits in [8, 11, 16] {
            check(&data, bits, 64, exact_mask(&data), &mut ws);
        }
    }

    #[test]
    fn u128_keys_at_126_bits_agreeing_in_their_low_half() {
        let mut rng = SmallRng::seed_from_u64(4);
        let top = |rng: &mut SmallRng| (rng.gen::<u64>() >> 2) as u128;
        let lows = [rng.gen::<u64>(), rng.gen::<u64>()];
        let highs: Vec<u128> = (0..200).map(|_| top(&mut rng)).collect();
        let data: Vec<KmerReadTuple128> = (0..3_000u32)
            .map(|i| {
                let hi = highs[rng.gen_range(0..highs.len())];
                let lo = lows[rng.gen_range(0..2)] as u128;
                KmerReadTuple128::new(hi << 64 | lo, i)
            })
            .collect();
        let mut ws = RankScratch::new();
        for bits in [8, 11, 16] {
            check(&data, bits, 126, exact_mask(&data), &mut ws);
            check(&data, bits, 126, (1 << 126) - 1, &mut ws);
        }
    }

    #[test]
    fn the_table_grows_and_the_next_bucket_starts_where_it_ended() {
        let mut ws = RankScratch::new();
        let keys: Vec<u64> = (0..15_000u64)
            .map(|i| (i % 5_000) * 0x9_8765_4321)
            .collect();
        check(&tagged(&keys), 8, 54, exact_mask(&tagged(&keys)), &mut ws);
        assert_eq!(ws.table_bits, 15, "5 000 distinct keys at load <= 1/4");
        // A short bucket caps the start at its own size.
        let short = tagged(&[0x3F_2E1D_0C0B, 1, 0x3F_2E1D_0C0B, 1, 0x3F_2E1D_0C0B, 1]);
        check(&short, 8, 54, exact_mask(&short), &mut ws);
        assert_eq!((ws.table_bits, ws.radix_next), (MIN_TABLE_BITS, 0));
    }

    proptest! {
        /// Byte-identical to `lsb_radix_sort`, with `lsb_radix_sort_pruned`'s
        /// stats under exact and overstated masks, from heavy duplication
        /// (a pool of keys much smaller than the bucket) to all-distinct
        /// keys, wide keys and keys with a constant middle band (pruned
        /// windows), digit widths 8/11/16, through one recycled workspace:
        /// whether the rank sort runs, gives up in its table pass or leaves
        /// the bucket to the radix.
        #[test]
        fn prop_rank_sort_matches_the_radix_sorts(
            pool in proptest::collection::vec(0u64..(1 << 54), 1..400),
            picks in proptest::collection::vec(any::<usize>(), 0..2_500),
            distinct in any::<bool>(),
            banded in any::<bool>(),
            extra in 0u64..(1 << 54),
        ) {
            let band = ((1u64 << 24) - 1) << 16;
            let squeeze = |k: u64| if banded { k & !band } else { k };
            let keys: Vec<u64> = if distinct {
                let mut seen = std::collections::HashSet::new();
                pool.iter().map(|&k| squeeze(k)).filter(|&k| seen.insert(k)).collect()
            } else {
                picks.iter().map(|&p| squeeze(pool[p % pool.len()])).collect()
            };
            let data = tagged(&keys);
            let mut ws = RankScratch::new();
            for bits in [8, 11, 16] {
                let exact = exact_mask(&data);
                check(&data, bits, 54, exact, &mut ws);
                check(&data, bits, 54, exact | squeeze(extra), &mut ws);
            }
        }
    }
}
