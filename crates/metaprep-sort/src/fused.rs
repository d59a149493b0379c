//! Receive-side LocalSort over cache-sized buckets.
//!
//! [`bucketed_local_sort`] takes parts KmerGen emitted bucket-major. It
//! counts and scatters nothing: a bucket's run in a part is found by binary
//! search for its lower-bound key, the task's own part is adopted as the
//! destination (its runs moved apart to their final offsets), and the other
//! senders' runs are copied in as the worker reaches the bucket, which then
//! sorts it while it is cache-resident (`sort_buckets`, `sort_bucket`).
//! [`fused_local_sort`] is a thin adapter for parts in any order: it splits
//! them by thread sub-range and hands the result to the bucketed sort.
//!
//! **Stability / byte-identity.** Inside a bucket the destination holds
//! sender 0's run, then sender 1's, … — the order in which concatenating
//! the parts visits that key interval. Buckets are key intervals in key
//! order, so this is a stable split; a stable split followed by a stable
//! sort of each piece is *the* stable order of the whole, which is what
//! concat → [`crate::lsb_radix_sort`] produces. LocalCC's union anchor
//! (first tuple of each equal-k-mer group) depends on this and proptests
//! pin it.

use crate::radix::{radix_pass, Keyed, RadixStats, SortKey};
use crate::rank::{rank_sort, RankScratch};
use rayon::prelude::*;
use std::mem::MaybeUninit;

/// Pooled per-task LocalSort buffers, recycled across passes: the sorted
/// tuples, and per worker a bucket scratch window and the in-bucket sort's
/// workspace (key table, per-tuple ids, distinct-key pairs: cache-sized
/// like the window). On a cold pool, first-touch page faults cost as much
/// as a pass over the tuples; recycling avoids them.
///
/// [`bucketed_local_sort`] leaves the adopted part here as the sorted
/// tuples; [`PassBuffers::take_sorted`] hands that buffer on, so the next
/// pass can build its self-addressed part in it and a task owns one tuple
/// buffer from pass to pass.
///
/// Reuse without re-zeroing is sound because the gather writes every
/// destination slot before anything reads it, and the in-bucket sort
/// writes every scratch and workspace slot it later reads.
pub struct PassBuffers<T: Keyed> {
    dst: Vec<T>,
    /// One window per thread sub-range, each as long as that sub-range's
    /// largest bucket — a few hundred KiB, not a second copy of the tuples.
    scratch: Vec<T>,
    /// One in-bucket sort workspace per thread sub-range.
    rank: Vec<RankScratch<T::Key>>,
}

impl<T: Keyed> Default for PassBuffers<T> {
    fn default() -> Self {
        Self {
            dst: Vec::new(),
            scratch: Vec::new(),
            rank: Vec::new(),
        }
    }
}

impl<T: Keyed + Default> PassBuffers<T> {
    /// Empty pool; buffers grow lazily to the largest pass seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sorted tuples after [`bucketed_local_sort`] or
    /// [`fused_local_sort`] (valid until the next call mutates the pool).
    pub fn sorted(&self) -> &[T] {
        &self.dst
    }

    /// Hand the sorted buffer out, allocation and all, leaving the pool
    /// without one: once the sorted tuples are consumed, the caller may
    /// reuse the buffer instead of allocating the next pass's tuples anew.
    pub fn take_sorted(&mut self) -> Vec<T> {
        std::mem::take(&mut self.dst)
    }
}

/// What a LocalSort did.
pub struct FusedSortResult {
    /// Thread sub-range offsets within [`PassBuffers::sorted`].
    pub offsets: Vec<usize>,
    /// Digit windows run vs pruned, summed over every in-bucket sort: one
    /// per bucket, plus one per sub-bucket of a bucket that had to be
    /// split.
    pub stats: RadixStats,
}

/// Tuple bytes the average bucket may hold so that it, its scratch window
/// and the in-bucket sort's workspace stay cache-resident while it sorts.
/// Measured flat from 32 KiB to 512 KiB (DESIGN.md §7.2), so a constant —
/// the one both sides of the exchange read: KmerGen's bucket plan fills
/// buckets to it, LocalSort splits a bucket that came out over twice it.
pub const BUCKET_BYTES: usize = 256 << 10;

/// LocalSort for parts in any order, split by the sorted thread
/// `boundaries` (sub-range `j` holds the keys below `boundaries[j]` and
/// from `boundaries[j - 1]` up). Each sub-range becomes one bucket: the
/// parts are split into them in sender-major order and
/// [`bucketed_local_sort`] sorts the result as one adopted part, splitting
/// a bucket over twice [`BUCKET_BYTES`] once more on its top varying digit.
///
/// The sorted tuples land in `bufs.sorted()`: those of concat →
/// [`crate::lsb_radix_sort`] (a stable split followed by a stable sort is
/// the unique stable order), with `offsets` where the boundaries fall.
///
/// # Panics
///
/// If `boundaries` is not sorted.
pub fn fused_local_sort<T: Keyed + Default>(
    parts: Vec<Vec<T>>,
    bufs: &mut PassBuffers<T>,
    boundaries: &[T::Key],
    bits: u32,
    key_bits: u32,
) -> FusedSortResult {
    assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "boundaries must be sorted"
    );
    let mut lower = vec![T::Key::ZERO];
    lower.extend_from_slice(boundaries);
    lower.dedup();
    let mut first = vec![0];
    first.extend(boundaries.iter().map(|b| lower.partition_point(|l| l < b)));
    first.push(lower.len());
    let mut buckets = vec![Vec::new(); lower.len()];
    for t in parts.into_iter().flatten() {
        buckets[lower.partition_point(|l| *l <= t.key()) - 1].push(t);
    }
    let part = buckets.concat();
    bucketed_local_sort(vec![part], 0, bufs, &lower, &first, bits, key_bits)
}

/// Sort every bucket of `dst` while it is cache-resident, against the
/// pool's scratch windows and workspaces. Bucket `b` is
/// `dst[bucket_offsets[b]..bucket_offsets[b + 1]]`; thread sub-range `j` is
/// the run of buckets `first[j]..first[j + 1]` and gets one worker, which
/// walks its buckets in order. `bring_in(b, slots)` runs first on each
/// bucket's slots, fills them, and returns them as tuples, with the
/// bucket's varying-bits mask.
fn sort_buckets<T: Keyed + Default>(
    dst: &mut [MaybeUninit<T>],
    (scratch, rank): (&mut Vec<T>, &mut Vec<RankScratch<T::Key>>),
    bucket_offsets: &[usize],
    first: &[usize],
    (bits, key_bits, budget): (u32, u32, usize),
    bring_in: impl for<'a> Fn(usize, &'a mut [MaybeUninit<T>]) -> (&'a mut [T], T::Key) + Sync,
) -> FusedSortResult {
    let offsets: Vec<usize> = first.iter().map(|&r| bucket_offsets[r]).collect();

    // Per-worker scratch: one window per thread sub-range, as long as its
    // largest bucket.
    let largest = |w: &[usize]| {
        let lens = bucket_offsets[w[0]..=w[1]].windows(2).map(|b| b[1] - b[0]);
        lens.max().unwrap_or(0)
    };
    let windows: Vec<usize> = first.windows(2).map(largest).collect();
    scratch.resize(windows.iter().sum(), T::default());
    if rank.len() < windows.len() {
        rank.resize_with(windows.len(), RankScratch::new);
    }

    // Disjoint (slots, scratch window, workspace, bucket run) work items
    // for rayon: each worker walks its own sub-range's buckets in order.
    let mut rem_d: &mut [MaybeUninit<T>] = dst;
    let mut rem_s: &mut [T] = scratch;
    let mut work = Vec::with_capacity(windows.len());
    for ((w, &window), ws) in first.windows(2).zip(&windows).zip(rank.iter_mut()) {
        let (d, rd) = rem_d.split_at_mut(bucket_offsets[w[1]] - bucket_offsets[w[0]]);
        let (s, rs) = rem_s.split_at_mut(window);
        rem_d = rd;
        rem_s = rs;
        work.push((d, s, ws, w[0]..w[1]));
    }
    let stats = work
        .into_par_iter()
        .map(|(d, s, ws, run)| {
            let base = bucket_offsets[run.start];
            let sort = |r: usize| {
                let (lo, hi) = (bucket_offsets[r] - base, bucket_offsets[r + 1] - base);
                let (bucket, varying) = bring_in(r, &mut d[lo..hi]);
                sort_bucket(bucket, s, varying, bits, key_bits, budget, ws)
            };
            run.map(sort)
                .fold(RadixStats::default(), RadixStats::merged)
        })
        .reduce(RadixStats::default, RadixStats::merged);

    FusedSortResult { offsets, stats }
}

/// LocalSort for *bucket-major* parts: each part is already grouped, in
/// bucket order, by the key intervals that start at `lower[0] < lower[1] <
/// …` (the last one unbounded above), as KmerGen emits them. A bucket's run
/// in a part is found by binary search for `lower[b]`; bucket `b` of the
/// result is sender 0's run, then sender 1's, …, swept once,
/// cache-resident, for its varying-bits mask.
///
/// Part `own` (the task's self-addressed part) is not copied: its buffer is
/// *adopted* as the destination, grown to the total if its capacity falls
/// short, and left in `bufs` as the sorted tuples. Before the sort one
/// back-to-front pass moves each of its bucket runs to its final offset —
/// the bucket's start plus the runs of the senders before `own` — which is
/// never below where the run sits, so walking back to front never
/// overwrites a run not yet moved. The other senders' runs are copied into
/// the gaps as the worker reaches the bucket. Whatever a pooled buffer
/// `bufs` held as the sorted tuples is dropped.
///
/// `first` holds the `T + 1` bucket indices at which the thread sub-ranges
/// begin. Whichever part is adopted, the sorted tuples are those of
/// concat → [`crate::lsb_radix_sort`] over the same parts, and the offsets
/// are where the thread boundaries `lower[first[1..T]]` fall in them.
///
/// # Panics
///
/// If `own` names no part (no parts at all is fine), or if a part is not
/// bucket-major: the sweep holds every tuple to its bucket's key interval,
/// so a misplaced one aborts instead of mis-sorting.
pub fn bucketed_local_sort<T: Keyed + Default>(
    parts: Vec<Vec<T>>,
    own: usize,
    bufs: &mut PassBuffers<T>,
    lower: &[T::Key],
    first: &[usize],
    bits: u32,
    key_bits: u32,
) -> FusedSortResult {
    let budget = (BUCKET_BYTES / std::mem::size_of::<T>()).max(1);
    let sort = (bits, key_bits, budget);
    bucketed_local_sort_budgeted(parts, own, bufs, lower, first, sort)
}

/// [`bucketed_local_sort`] with the split threshold as a parameter, for
/// tests.
pub(crate) fn bucketed_local_sort_budgeted<T: Keyed + Default>(
    mut parts: Vec<Vec<T>>,
    own: usize,
    bufs: &mut PassBuffers<T>,
    lower: &[T::Key],
    first: &[usize],
    sort: (u32, u32, usize),
) -> FusedSortResult {
    let buckets = lower.len();
    assert!(
        lower.windows(2).all(|w| w[0] < w[1]),
        "bucket lower bounds must increase"
    );
    assert!(
        first.len() >= 2 && first[0] == 0 && first[first.len() - 1] == buckets,
        "thread sub-ranges must cover the buckets"
    );
    assert!(first.windows(2).all(|w| w[0] <= w[1]));

    // Where each bucket's run starts in each part, and from those where
    // the bucket starts in the destination.
    let run_starts = |part: &Vec<T>| {
        let mut starts = vec![0usize; buckets + 1];
        for b in 1..buckets {
            let from = starts[b - 1];
            starts[b] = from + part[from..].partition_point(|t| t.key() < lower[b]);
        }
        starts[buckets] = part.len();
        starts
    };
    let runs: Vec<Vec<usize>> = parts.iter().map(run_starts).collect();
    let offsets: Vec<usize> = (0..=buckets)
        .map(|b| runs.iter().map(|r| r[b]).sum())
        .collect();
    let total = offsets[buckets];
    assert!(buckets > 0 || total == 0, "tuples but no bucket");
    assert!(
        parts.is_empty() || own < parts.len(),
        "own part {own} of {}",
        parts.len()
    );

    // Adopt the own part (after dropping any sorted tuples the pool still
    // holds, so the two never coexist). Its tuples stay where they are but
    // are only read back as `MaybeUninit` slots from here on, so the
    // destination is never a `&mut [T]` over a slot not yet written.
    bufs.dst = Vec::new();
    let mut dst = parts.get_mut(own).map(std::mem::take).unwrap_or_default();
    dst.reserve_exact(total - dst.len());
    // SAFETY: `T: Copy`, so forgetting the length drops nothing; the
    // allocation and its bytes are untouched.
    unsafe { dst.set_len(0) };
    let slots = &mut dst.spare_capacity_mut()[..total];
    if let Some(starts) = runs.get(own) {
        for b in (0..buckets).rev() {
            let before: usize = runs[..own].iter().map(|r| r[b + 1] - r[b]).sum();
            slots.copy_within(starts[b]..starts[b + 1], offsets[b] + before);
        }
    }

    let PassBuffers { scratch, rank, .. } = &mut *bufs;
    let res = sort_buckets(slots, (scratch, rank), &offsets, first, sort, |b, d| {
        let mut at = 0;
        for (p, (part, starts)) in parts.iter().zip(&runs).enumerate() {
            let len = starts[b + 1] - starts[b];
            if p != own {
                let run = &part[starts[b]..starts[b + 1]];
                for (slot, t) in d[at..at + len].iter_mut().zip(run) {
                    slot.write(*t);
                }
            }
            at += len;
        }
        // SAFETY: every slot of the bucket now holds a tuple: the runs of
        // its senders tile it (`offsets` is their sum), the own part's was
        // moved in before the sort and every other one was just copied.
        // `[MaybeUninit<T>]` and `[T]` have the same layout.
        let d = unsafe { &mut *(d as *mut [MaybeUninit<T>] as *mut [T]) };
        let mask = bucket_mask(d, lower[b], lower.get(b + 1));
        (d, mask)
    });
    // SAFETY: the buckets tile `..total` and `sort_buckets` brought every
    // one of them in, which wrote each of its slots.
    unsafe { dst.set_len(total) };
    bufs.dst = dst;
    res
}

/// The varying-bits mask of one bucket (`OR(keys) ^ AND(keys)`), from the
/// sweep that also holds every key to the bucket's interval `lo..hi`.
fn bucket_mask<T: Keyed>(bucket: &[T], lo: T::Key, hi: Option<&T::Key>) -> T::Key {
    let Some(head) = bucket.first() else {
        return T::Key::ZERO;
    };
    let (mut or_acc, mut and_acc) = (T::Key::ZERO, T::Key::ONES);
    let (mut min, mut max) = (head.key(), head.key());
    for t in bucket {
        let k = t.key();
        or_acc = or_acc | k;
        and_acc = and_acc & k;
        min = min.min(k);
        max = max.max(k);
    }
    assert!(
        lo <= min && hi.is_none_or(|hi| max < *hi),
        "part is not bucket-major: a tuple lies outside its bucket's key interval"
    );
    or_acc ^ and_acc
}

/// Sort one gathered bucket against (the front of) its worker's scratch
/// window and workspace. A bucket up to twice the average `budget` goes
/// straight to the in-bucket sort, [`rank_sort`]. A larger one (a bin
/// heavier than the plan's budget, or a whole thread sub-range from
/// [`fused_local_sort`]) first takes a stable MSD split into
/// `scratch` on the `bits` bits that end at its highest varying bit, and
/// each sub-bucket is then sorted the same way over the bits below — a
/// stable split followed by a stable sort of the remaining bits is the
/// unique stable order, so the output does not depend on which route a
/// bucket took.
fn sort_bucket<T: Keyed>(
    data: &mut [T],
    scratch: &mut [T],
    varying: T::Key,
    bits: u32,
    key_bits: u32,
    budget: usize,
    ws: &mut RankScratch<T::Key>,
) -> RadixStats {
    let scratch = &mut scratch[..data.len()];
    let buckets = 1usize << bits;
    let mask = (buckets - 1) as u64;
    let top = (0..key_bits.div_ceil(bits))
        .map(|p| p * bits)
        .rev()
        .find(|&s| varying.digit(s, mask) != 0);
    let Some(top) = top.filter(|_| data.len() > 2 * budget) else {
        return rank_sort(data, scratch, bits, key_bits, varying, ws);
    };

    let highest = top + varying.digit(top, mask).ilog2();
    let shift = (highest + 1).saturating_sub(bits);
    let mut ends = vec![0usize; buckets];
    for t in data.iter() {
        ends[t.key().digit(shift, mask)] += 1;
    }
    radix_pass(data, scratch, shift, mask, &mut ends);
    let mut stats = RadixStats {
        passes_run: 1,
        passes_pruned: 0,
    };
    let mut start = 0;
    for end in ends {
        // The sub-bucket sits in `scratch`; sort it there with the matching
        // window of `data` as its scratch, then bring it home.
        let (sub, home) = (&mut scratch[start..end], &mut data[start..end]);
        let sub_stats = rank_sort(sub, home, bits, shift, varying, ws);
        stats = stats.merged(sub_stats);
        home.copy_from_slice(sub);
        start = end;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::lsb_radix_sort;
    use metaprep_kmer::{KmerReadTuple, KmerReadTuple128};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The production bucket budget for `KmerReadTuple`, and small ones that
    /// force second-level splits on test-sized inputs.
    const PRODUCTION: usize = BUCKET_BYTES / std::mem::size_of::<KmerReadTuple>();
    const BUDGETS: [usize; 4] = [1, 8, 64, PRODUCTION];

    /// The one reference: the parts concatenated sender-major and sorted by
    /// the serial LSB radix, with the thread offsets where `boundaries`
    /// fall in the result.
    fn reference<T: Keyed + Default>(
        parts: &[Vec<T>],
        boundaries: &[T::Key],
        bits: u32,
        key_bits: u32,
    ) -> (Vec<usize>, Vec<T>) {
        let mut sorted = parts.concat();
        let mut scratch = vec![T::default(); sorted.len()];
        lsb_radix_sort(&mut sorted, &mut scratch, bits, key_bits);
        let mut offsets = vec![0];
        offsets.extend(
            boundaries
                .iter()
                .map(|b| sorted.partition_point(|t| t.key() < *b)),
        );
        offsets.push(sorted.len());
        (offsets, sorted)
    }

    /// `tuples` split into parts at `cuts` (clamped and sorted; a repeated
    /// cut makes an empty part).
    fn split_into_parts<T: Copy>(tuples: &[T], cuts: Vec<usize>) -> Vec<Vec<T>> {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(tuples.len())).collect();
        cuts.push(tuples.len());
        cuts.sort_unstable();
        let mut prev = 0;
        let part = |c: usize| {
            let part = tuples[prev..c].to_vec();
            prev = c;
            part
        };
        cuts.into_iter().map(part).collect()
    }

    /// Run the [`fused_local_sort`] adapter and hold it to the reference:
    /// same bytes, same thread offsets.
    fn check<T: Keyed + Default + PartialEq + std::fmt::Debug>(
        parts: &[Vec<T>],
        boundaries: &[T::Key],
        bits: u32,
        key_bits: u32,
    ) -> (FusedSortResult, Vec<T>) {
        let mut bufs = PassBuffers::new();
        let res = fused_local_sort(parts.to_vec(), &mut bufs, boundaries, bits, key_bits);
        let (offsets, sorted) = reference(parts, boundaries, bits, key_bits);
        assert_eq!(bufs.sorted(), &sorted[..]);
        assert_eq!(res.offsets, offsets);
        (res, sorted)
    }

    #[test]
    fn bucket_masks_are_exact() {
        // {1010, 1000, 1110}: bits 1 and 2 vary.
        assert_eq!(
            bucket_mask(&[0b1010u64, 0b1000, 0b1110], 0, Some(&16)),
            0b0110
        );
        // {11110, 101000, 110010}, unbounded above.
        assert_eq!(
            bucket_mask(&[30u64, 40, 50], 16, None),
            (30 ^ 40) | (30 ^ 50)
        );
        assert_eq!(bucket_mask::<u64>(&[], 0, None), 0);
    }

    #[test]
    fn fused_sorts_and_prunes_narrow_ranges() {
        // Keys clustered in a 2^12 window: of ceil(54/8) = 7 passes, only
        // the low two digit windows vary, so 5 of 7 passes prune per range.
        let mut rng = SmallRng::seed_from_u64(5);
        let base = 0x2ABC_DEF0_0000u64;
        let parts: Vec<Vec<KmerReadTuple>> = (0..4)
            .map(|p| {
                (0..5_000)
                    .map(|i| KmerReadTuple::new(base + (rng.gen::<u64>() & 0xFFF), p * 5_000 + i))
                    .collect()
            })
            .collect();
        let boundaries = [base + 0x400, base + 0x800, base + 0xC00];
        let (res, sorted) = check(&parts, &boundaries, 8, 54);
        assert!(crate::is_sorted_by_key(&sorted));
        assert_eq!(res.stats.passes_run, 4 * 2);
        assert_eq!(res.stats.passes_pruned, 4 * 5);
    }

    #[test]
    fn pass_buffers_recycle_across_calls() {
        let mut bufs = PassBuffers::new();
        let boundaries = [1u64 << 32];
        for round in 0..5u64 {
            let parts: Vec<Vec<u64>> = vec![
                (0..1000).map(|i| i * 7 + round).collect(),
                (0..500).map(|i| (i * 13 + round) << 30).collect(),
            ];
            let (_, want) = reference(&parts, &boundaries, 8, 64);
            fused_local_sort(parts, &mut bufs, &boundaries, 8, 64);
            assert_eq!(bufs.sorted(), &want[..], "round {round}");
        }
    }

    /// Senders holding equal k-mers in a fixed pattern: three copies of
    /// each k-mer per sender, 12 in all, read ids in sender-major order.
    fn equal_kmer_parts(kmers: &[u64]) -> Vec<Vec<KmerReadTuple>> {
        let mut read = 0;
        (0..4)
            .map(|sender| {
                let mut part = Vec::new();
                for &k in kmers.iter().cycle().skip(sender).take(3 * kmers.len()) {
                    part.push(KmerReadTuple::new(k, read));
                    read += 1;
                }
                part
            })
            .collect()
    }

    #[test]
    fn equal_kmer_tuples_keep_sender_order() {
        // Stability regression: tuples with equal k-mers must come out in
        // sender (part-major) order — LocalCC's union anchor is the first
        // tuple of each equal-k-mer group.
        let parts: Vec<Vec<KmerReadTuple>> = vec![
            vec![KmerReadTuple::new(7, 0), KmerReadTuple::new(3, 1)],
            vec![KmerReadTuple::new(7, 2), KmerReadTuple::new(7, 3)],
            vec![],
            vec![KmerReadTuple::new(3, 4), KmerReadTuple::new(7, 5)],
        ];
        let (_, sorted) = check(&parts, &[5u64], 8, 54);
        let order: Vec<(u64, u32)> = sorted.iter().map(|t| (t.kmer, t.read)).collect();
        assert_eq!(order, vec![(3, 1), (3, 4), (7, 0), (7, 2), (7, 3), (7, 5)]);
    }

    #[test]
    fn equal_kmer_tuples_keep_sender_order_across_a_second_level_split() {
        // 4 000 distinct k-mers below 2^20, 12 tuples each, and no thread
        // boundary: the one bucket is over twice the production budget and
        // takes the MSD split.
        let kmers: Vec<u64> = (0..4_000u64)
            .map(|i| (i * 0x6_5432 + 9) & 0xF_FFFF)
            .collect();
        let parts = equal_kmer_parts(&kmers);
        assert!(parts.iter().map(Vec::len).sum::<usize>() > 2 * PRODUCTION);
        let (res, sorted) = check(&parts, &[], 8, 54);
        // Unsplit, the one bucket would account for exactly 7 digit windows.
        let windows = res.stats.passes_run + res.stats.passes_pruned;
        assert!(windows > 7, "the bucket must have been split");
        for group in sorted.chunk_by(|a, b| a.kmer == b.kmer) {
            assert_eq!(group.len(), 12);
            assert!(group.windows(2).all(|w| w[0].read < w[1].read));
        }
    }

    #[test]
    fn empty_parts_and_empty_input() {
        let (res, sorted) = check::<u64>(&[vec![], vec![], vec![]], &[10u64], 8, 64);
        assert!(sorted.is_empty());
        assert_eq!(res.offsets, vec![0, 0, 0]);
        assert_eq!(res.stats, RadixStats::default());
        let (res, sorted) = check::<u64>(&[], &[], 8, 64);
        assert!(sorted.is_empty());
        assert_eq!(res.offsets, vec![0, 0]);
        assert_eq!(res.stats, RadixStats::default());
    }

    #[test]
    fn duplicated_zero_and_all_equal_thread_boundaries() {
        let mut rng = SmallRng::seed_from_u64(21);
        let parts: Vec<Vec<KmerReadTuple>> = (0..4)
            .map(|p| {
                (0..1024)
                    .map(|i| KmerReadTuple::new(rng.gen::<u64>() >> 10, p * 1024 + i))
                    .collect()
            })
            .collect();
        let at = |i: u64| i << 45;
        let cases: [&[u64]; 5] = [
            &[at(3)],
            &[at(3), at(3), at(7) + 5],
            &[at(100) - 1, at(100), at(100) + 1],
            &[at(9) + 77; 5],
            &[0, 0, (1 << 54) - 1],
        ];
        for boundaries in cases {
            check(&parts, boundaries, 8, 54);
        }
    }

    #[test]
    #[should_panic(expected = "boundaries must be sorted")]
    fn unsorted_boundaries_are_rejected() {
        fused_local_sort(vec![vec![1u64]], &mut PassBuffers::new(), &[20, 10], 8, 64);
    }

    #[test]
    fn one_hot_kmer_holding_most_tuples() {
        let mut rng = SmallRng::seed_from_u64(8);
        let hot = 0x12_3456_789Au64;
        let parts: Vec<Vec<KmerReadTuple>> = (0..4)
            .map(|p| {
                (0..2_000)
                    .map(|i| {
                        let k = if rng.gen_range(0..10u32) < 6 {
                            hot
                        } else {
                            rng.gen::<u64>() >> 10
                        };
                        KmerReadTuple::new(k, p * 2_000 + i)
                    })
                    .collect()
            })
            .collect();
        check(&parts, &[hot, hot + 1], 8, 54);
        check(&parts, &[], 11, 54);
    }

    #[test]
    fn u128_keys_at_126_bits() {
        let mut rng = SmallRng::seed_from_u64(63);
        let key =
            |rng: &mut SmallRng| ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) >> 2;
        // Half the tuples in a 2^70 window, one thread sub-range of its own.
        let window = key(&mut rng) & !((1u128 << 70) - 1);
        let parts: Vec<Vec<KmerReadTuple128>> = (0..3)
            .map(|p| {
                (0..1_000)
                    .map(|i| {
                        let k = key(&mut rng);
                        let k = if i % 2 == 0 {
                            k
                        } else {
                            window | (k & ((1u128 << 70) - 1))
                        };
                        KmerReadTuple128::new(k, p * 1_000 + i)
                    })
                    .collect()
            })
            .collect();
        let mut boundaries: Vec<u128> = (0..3).map(|_| key(&mut rng)).collect();
        boundaries.push(window);
        boundaries.sort_unstable();
        for bits in [8, 11, 16] {
            check(&parts, &boundaries, bits, 126);
        }
    }

    /// Each part grouped by the buckets `lower` starts: a stable partition,
    /// what KmerGen's emit produces.
    fn grouped<T: Keyed>(parts: &[Vec<T>], lower: &[T::Key]) -> Vec<Vec<T>> {
        let group = |p: &Vec<T>| {
            let mut g = p.clone();
            g.sort_by_key(|t| lower.partition_point(|l| *l <= t.key())); // stable
            g
        };
        parts.iter().map(group).collect()
    }

    /// The thread boundaries the bucketed entry's `first` stands for.
    fn boundaries_of<K: SortKey>(lower: &[K], first: &[usize]) -> Vec<K> {
        let at = |&b: &usize| lower.get(b).copied().unwrap_or(K::ONES);
        first[1..first.len() - 1].iter().map(at).collect()
    }

    /// Group every part by bucket, run the bucketed entry at `budget`
    /// adopting each part in turn, and hold it to the reference over the
    /// ungrouped parts: same bytes, same thread offsets.
    fn check_bucketed<T: Keyed + Default + PartialEq + std::fmt::Debug>(
        parts: &[Vec<T>],
        lower: &[T::Key],
        first: &[usize],
        (bits, key_bits, budget): (u32, u32, usize),
    ) -> FusedSortResult {
        let boundaries = boundaries_of(lower, first);
        let (ref_offs, ref_sorted) = reference(parts, &boundaries, bits, key_bits);
        let mut last = None;
        for own in 0..parts.len().max(1) {
            let mut bufs = PassBuffers::new();
            let sort = (bits, key_bits, budget);
            let res = bucketed_local_sort_budgeted(
                grouped(parts, lower),
                own,
                &mut bufs,
                lower,
                first,
                sort,
            );
            let what = format!("budget {budget}, own {own}");
            assert_eq!(bufs.sorted(), &ref_sorted[..], "{what}");
            assert_eq!(res.offsets, ref_offs, "{what}");
            last = Some(res);
        }
        last.unwrap()
    }

    /// `n` tuples with random 54-bit keys, tagged with their index.
    fn random_tuples(n: u32, seed: u64) -> Vec<KmerReadTuple> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| KmerReadTuple::new(rng.gen::<u64>() >> 10, i))
            .collect()
    }

    #[test]
    fn bucketed_matches_reference_for_one_two_and_three_parts() {
        let tuples = random_tuples(6_000, 31);
        // 64 equal buckets in three thread sub-ranges, one of them of a
        // single bucket.
        let lower: Vec<u64> = (0..64u64).map(|b| b << 48).collect();
        let first = [0, 20, 21, 64];
        for parts in 1..=3 {
            let parts: Vec<Vec<KmerReadTuple>> = tuples
                .chunks(tuples.len().div_ceil(parts))
                .map(<[_]>::to_vec)
                .collect();
            for budget in BUDGETS {
                for bits in [8, 11, 16] {
                    check_bucketed(&parts, &lower, &first, (bits, 54, budget));
                }
            }
        }
    }

    #[test]
    fn bucketed_adopts_a_single_part() {
        // One part is sorted where it is: no second tuple buffer.
        let mut part = random_tuples(4_000, 32);
        part.sort_by_key(|t| t.kmer >> 52);
        let at = part.as_ptr();
        let lower: Vec<u64> = (0..4u64).map(|b| b << 52).collect();
        let mut bufs = PassBuffers::new();
        bucketed_local_sort(vec![part], 0, &mut bufs, &lower, &[0, 4], 8, 54);
        assert_eq!(bufs.sorted().as_ptr(), at);
        assert!(crate::is_sorted_by_key(bufs.sorted()));
    }

    #[test]
    fn bucketed_adopts_the_own_part_among_several_and_hands_it_on() {
        // The middle one of three parts, with room for all: the other two
        // are copied into it, and the sorted buffer handed out is the one
        // that came in.
        let lower: Vec<u64> = (0..16u64).map(|b| b << 50).collect();
        let parts = grouped(
            &[
                random_tuples(3_000, 34),
                random_tuples(2_000, 35),
                random_tuples(1, 36),
            ],
            &lower,
        );
        let mut own = Vec::with_capacity(6_001);
        own.extend_from_slice(&parts[1]);
        let at = own.as_ptr();
        let boundaries = boundaries_of(&lower, &[0, 9, 16]);
        let (_, want) = reference(&parts, &boundaries, 8, 54);
        let mut bufs = PassBuffers::new();
        let parts = vec![parts[0].clone(), own, parts[2].clone()];
        bucketed_local_sort(parts, 1, &mut bufs, &lower, &[0, 9, 16], 8, 54);
        assert_eq!(bufs.sorted(), &want[..]);
        let handed = bufs.take_sorted();
        assert_eq!((handed.as_ptr(), handed.capacity()), (at, 6_001));
        assert!(bufs.sorted().is_empty());
    }

    #[test]
    fn bucketed_passes_reuse_the_rank_workspaces() {
        // Three copies of each k-mer, in two thread sub-ranges of two
        // buckets each; the second pass over one pool allocates nothing.
        let tuples = random_tuples(3_000, 33);
        let mut part: Vec<KmerReadTuple> = (0..9_000u32)
            .map(|i| KmerReadTuple::new(tuples[i as usize % 3_000].kmer, i))
            .collect();
        part.sort_by_key(|t| t.kmer >> 52);
        let lower: Vec<u64> = (0..4u64).map(|b| b << 52).collect();
        let mut bufs = PassBuffers::new();
        let mut pass = || {
            let parts = vec![part[..4_000].to_vec(), part[4_000..].to_vec()];
            bucketed_local_sort(parts, 0, &mut bufs, &lower, &[0, 2, 4], 8, 54);
            assert!(crate::is_sorted_by_key(bufs.sorted()));
            let at: Vec<_> = bufs.rank.iter().map(RankScratch::allocations).collect();
            assert_eq!(at.len(), 2);
            at
        };
        let first = pass();
        assert_eq!(pass(), first);
    }

    #[test]
    fn bucketed_with_empty_parts_buckets_and_sub_ranges() {
        let lower = [0u64, 10, 1 << 30, 1 << 40];
        // Keys only in buckets 0 and 2; bucket 1, bucket 3 and the middle
        // thread sub-range (no bucket at all) stay empty.
        let parts: Vec<Vec<u64>> = vec![vec![3, (1 << 30) + 5, 1, 9], vec![], vec![1 << 31, 2, 0]];
        let res = check_bucketed(&parts, &lower, &[0, 2, 2, 4], (8, 64, 1));
        assert_eq!(res.offsets, vec![0, 5, 5, 7]);
        // Nothing at all, with and without buckets.
        let res = check_bucketed::<u64>(&[vec![], vec![]], &lower, &[0, 4], (8, 64, 8));
        assert_eq!(
            (res.offsets, res.stats),
            (vec![0, 0], RadixStats::default())
        );
        let res = check_bucketed::<u64>(&[], &[], &[0, 0, 0], (8, 64, 8));
        assert_eq!(res.offsets, vec![0, 0, 0]);
    }

    #[test]
    fn bucketed_u128_keys_at_126_bits() {
        let mut rng = SmallRng::seed_from_u64(64);
        let key =
            |rng: &mut SmallRng| ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) >> 2;
        let parts: Vec<Vec<KmerReadTuple128>> = (0..3)
            .map(|p| {
                (0..1_000)
                    .map(|i| KmerReadTuple128::new(key(&mut rng), p * 1_000 + i))
                    .collect()
            })
            .collect();
        let mut lower: Vec<u128> = (0..40).map(|_| key(&mut rng)).collect();
        lower.push(0);
        lower.sort_unstable();
        let production = BUCKET_BYTES / std::mem::size_of::<KmerReadTuple128>();
        for budget in [1, 8, production] {
            for bits in [8, 11, 16] {
                check_bucketed(&parts, &lower, &[0, 13, 41], (bits, 126, budget));
            }
        }
    }

    #[test]
    fn bucketed_packed_tuples_at_odd_offsets() {
        // 20-byte, 4-aligned tuples in parts of odd lengths (and one empty
        // one): inside a part every odd index sits at 4 mod 8, and the
        // gather puts each later part at 4 mod 8 or 4 mod 16 of the
        // destination. The packed tuple has no padding, so `==` on it is
        // byte equality.
        let mut rng = SmallRng::seed_from_u64(65);
        let key =
            |rng: &mut SmallRng| ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) >> 2;
        let mut lower: Vec<u128> = (0..9).map(|_| key(&mut rng)).collect();
        lower.push(0);
        lower.sort_unstable();
        let mut read = 0;
        let parts: Vec<Vec<KmerReadTuple128>> = [97usize, 1, 33, 0, 5]
            .iter()
            .map(|&n| {
                let mut part: Vec<_> = (0..n)
                    .map(|_| {
                        read += 1;
                        KmerReadTuple128::new(key(&mut rng), read)
                    })
                    .collect();
                part.sort_by_key(|t| lower.partition_point(|l| *l <= t.key())); // bucket-major
                part
            })
            .collect();
        for budget in [1, 8] {
            check_bucketed(&parts, &lower, &[0, 4, 10], (8, 126, budget));
        }
        let (_, want) = reference(&parts, &[lower[4]], 8, 126);
        let mut bufs = PassBuffers::new();
        bucketed_local_sort(parts, 2, &mut bufs, &lower, &[0, 4, 10], 8, 126);
        assert_eq!(bufs.sorted(), &want[..]);
    }

    #[test]
    fn bucketed_all_equal_bucket_over_budget_runs_no_pass() {
        let parts: Vec<Vec<KmerReadTuple>> = (0..3)
            .map(|p| {
                (0..500)
                    .map(|i| KmerReadTuple::new(0xABCDE, p * 500 + i))
                    .collect()
            })
            .collect();
        let res = check_bucketed(&parts, &[0, 0xABCDE, 0xABCDF], &[0, 3], (8, 54, 8));
        assert_eq!(res.stats.passes_run, 0, "no varying bit: nothing to run");
    }

    #[test]
    fn bucketed_keeps_sender_order_of_equal_kmers_across_a_split() {
        let kmers: Vec<u64> = (0..40u64).map(|i| (i * 0x6_5432 + 9) & 0xF_FFFF).collect();
        let parts = equal_kmer_parts(&kmers);
        let res = check_bucketed(&parts, &[0, 1 << 19], &[0, 2], (8, 54, 1));
        assert!(
            res.stats.passes_run + res.stats.passes_pruned > 2 * 7,
            "the buckets must have been split"
        );
    }

    #[test]
    #[should_panic(expected = "not bucket-major")]
    fn bucket_mask_rejects_a_key_outside_the_interval() {
        bucket_mask(&[100u64, 101, 4, 102], 100, Some(&200));
    }

    // The pool re-raises a worker's panic under its own message, so the
    // two end-to-end cases cannot name the one above.
    #[test]
    #[should_panic]
    fn a_part_that_is_not_bucket_major_panics() {
        // Sorted within each bucket's span, but one tuple of bucket 0 sits
        // behind bucket 1's: the run search cannot see it, the sweep must.
        let part: Vec<u64> = vec![1, 2, 3, 100, 101, 4, 102];
        let mut bufs = PassBuffers::new();
        bucketed_local_sort(vec![part], 0, &mut bufs, &[0, 100], &[0, 2], 8, 64);
    }

    #[test]
    #[should_panic]
    fn a_gathered_part_that_is_not_bucket_major_panics() {
        let parts: Vec<Vec<u64>> = vec![vec![1, 100], vec![100, 2, 101]];
        let mut bufs = PassBuffers::new();
        bucketed_local_sort(parts, 0, &mut bufs, &[0, 100], &[0, 2], 8, 64);
    }

    #[test]
    #[should_panic(expected = "own part 2 of 2")]
    fn an_own_index_past_the_parts_panics() {
        let mut bufs = PassBuffers::new();
        bucketed_local_sort(
            vec![vec![1u64], vec![2]],
            2,
            &mut bufs,
            &[0],
            &[0, 1],
            8,
            64,
        );
    }

    proptest! {
        /// The adapter over parts in any order is the reference, offsets and
        /// all: 1–6 parts (a repeated cut makes an empty one), boundaries
        /// that repeat or are 0, keys drawn from eight values when `few` (so
        /// several senders hold equal keys), 64-bit keys at 54 bits or, when
        /// `wide`, the same keys moved to the top of 126-bit ones, and digit
        /// widths 8/11/16.
        #[test]
        fn prop_fused_adapter_matches_reference(
            keys in proptest::collection::vec(0u64..(1 << 54), 0..1500),
            cuts in proptest::collection::vec(0usize..1500, 0..6),
            mut bvals in proptest::collection::vec(0u64..(1 << 54), 0..7),
            few in any::<bool>(),
            dup in any::<bool>(),
            zero in any::<bool>(),
            wide in any::<bool>(),
            bits_idx in 0usize..3,
        ) {
            let bits = [8u32, 11, 16][bits_idx];
            let key = |k: u64| if few { (k % 8) << 40 } else { k };
            bvals.iter_mut().for_each(|b| *b = key(*b));
            bvals.sort_unstable();
            if dup && bvals.len() >= 2 {
                bvals[0] = bvals[1];
            }
            if zero && !bvals.is_empty() {
                bvals[0] = 0;
            }
            // Tuples tagged with their global index, so a stability
            // difference is a value difference.
            let keys = keys.iter().map(|&k| key(k)).enumerate();
            if wide {
                // Order-preserving, with varying low bits.
                let widen = |k: u64| {
                    let k = u128::from(k);
                    k << 72 | (k * 0x9E37_79B9_7F4A_7C15) & ((1 << 72) - 1)
                };
                let tuples: Vec<KmerReadTuple128> =
                    keys.map(|(i, k)| KmerReadTuple128::new(widen(k), i as u32)).collect();
                let boundaries: Vec<u128> = bvals.iter().map(|&b| widen(b)).collect();
                check(&split_into_parts(&tuples, cuts), &boundaries, bits, 126);
            } else {
                let tuples: Vec<KmerReadTuple> =
                    keys.map(|(i, k)| KmerReadTuple::new(k, i as u32)).collect();
                check(&split_into_parts(&tuples, cuts), &bvals, bits, 54);
            }
        }

        /// The bucketed entry over bucket-major parts is byte-identical to
        /// the reference over the same tuples, for random buckets (some
        /// empty), thread groupings (some without a bucket), 1–4 parts (some
        /// empty), digit widths and split thresholds.
        #[test]
        fn prop_bucketed_byte_identical_to_reference(
            keys in proptest::collection::vec(0u64..(1 << 54), 0..1500),
            cuts in proptest::collection::vec(0usize..1500, 0..4),
            mut lower in proptest::collection::vec(0u64..(1 << 54), 0..40),
            thread_cuts in proptest::collection::vec(0usize..41, 0..4),
            narrow in any::<bool>(),
            bits_idx in 0usize..3,
        ) {
            let bits = [8u32, 11, 16][bits_idx];
            // `narrow` squeezes the keys into a 2^20 window, so buckets
            // overflow the small budgets.
            let squeeze = |k: u64| if narrow { k >> 34 } else { k };
            let tuples: Vec<KmerReadTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KmerReadTuple::new(squeeze(k), i as u32))
                .collect();
            let parts = split_into_parts(&tuples, cuts);
            lower.iter_mut().for_each(|l| *l = squeeze(*l));
            lower.push(0);
            lower.sort_unstable();
            lower.dedup();
            let mut first: Vec<usize> = thread_cuts.into_iter().map(|c| c.min(lower.len())).collect();
            first.extend([0, lower.len()]);
            first.sort_unstable();
            for budget in BUDGETS {
                check_bucketed(&parts, &lower, &first, (bits, 54, budget));
            }
        }
    }

    proptest! {
        // Few, small cases: the miri job runs every `bucketed_` test.
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Adoption of any part — of 1–4, empty ones included — whose
        /// capacity is exactly the total, more (both sorted in the part's
        /// own allocation) or its own length (grown first), over buckets
        /// and thread sub-ranges that may be empty: the bytes and offsets
        /// are the reference's over the same tuples.
        #[test]
        fn bucketed_adopts_any_part_at_any_capacity(
            keys in proptest::collection::vec(0u64..(1 << 20), 0..160),
            cuts in proptest::collection::vec(0usize..160, 0..4),
            mut lower in proptest::collection::vec(0u64..(1 << 20), 0..12),
            thread_cut in 0usize..13,
            own in 0usize..4,
            room in 0usize..3,
        ) {
            let tuples: Vec<KmerReadTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KmerReadTuple::new(k, i as u32))
                .collect();
            let parts = split_into_parts(&tuples, cuts);
            lower.push(0);
            lower.sort_unstable();
            lower.dedup();
            let first = [0, thread_cut.min(lower.len()), lower.len()];
            let boundaries = boundaries_of(&lower, &first);
            let (want_offsets, want) = reference(&parts, &boundaries, 8, 20);

            let own = own % parts.len();
            let mut parts = grouped(&parts, &lower);
            let capacity = [tuples.len(), tuples.len() + 5, parts[own].len()][room];
            let mut adopted = Vec::with_capacity(capacity);
            adopted.extend_from_slice(&parts[own]);
            let at = adopted.as_ptr();
            parts[own] = adopted;
            let mut bufs = PassBuffers::new();
            let sort = (8, 20, 4);
            let got = bucketed_local_sort_budgeted(parts, own, &mut bufs, &lower, &first, sort);
            assert_eq!(bufs.sorted(), &want[..]);
            assert_eq!(got.offsets, want_offsets);
            if capacity >= tuples.len() {
                assert_eq!(bufs.sorted().as_ptr(), at, "adopted in place");
            }
        }
    }
}
