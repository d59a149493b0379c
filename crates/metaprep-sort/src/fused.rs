//! Receive-side LocalSort over cache-sized buckets: two entries, one
//! per-bucket back half (`sort_buckets`, `sort_bucket`).
//!
//! * [`bucketed_local_sort`] — the pipeline's entry — takes parts KmerGen
//!   emitted bucket-major. It counts and scatters nothing: a bucket's run
//!   in a part is found by binary search for its lower-bound key, the runs
//!   are gathered sender by sender as the worker reaches the bucket, and a
//!   single part is adopted as the destination and sorted where it is.
//! * [`fused_local_sort`] takes parts in any order and pays one histogram
//!   and one scatter pass ([`scatter_from_parts`]) into buckets made of the
//!   thread boundaries refined by fixed cuts on the top key digit. The
//!   benchmark's sort probe and `exp_sort_throughput` bind to it; the rest
//!   of this header is about its scatter.
//!
//! Riding on the same pass over the data:
//!
//! * a tuple's range is its cut digit plus a [`BoundaryTable`] lookup among
//!   the thread boundaries — no per-tuple binary search;
//! * each tuple's range index is recorded in a pooled id buffer during the
//!   histogram pass, so the scatter pass classifies nothing: it streams
//!   tuples and ids and only performs the write (measured ~2.5x faster
//!   than recomputing the range per tuple);
//! * the histogram accumulates a per-bucket *varying-bits mask*
//!   (`OR(keys) ^ AND(keys)` — set exactly where two keys disagree), which
//!   the in-bucket sort uses to skip identity digit passes, and which tells
//!   a bucket that came out too big where its next split digit is.
//!
//! **Stability / byte-identity.** Work units are ordered part-major
//! (sender 0's tuples first, in order, then sender 1's, …) — exactly the
//! order the old concat visited tuples — and the per-(unit, range) write
//! cursors preserve that order within every bucket. Buckets are key
//! intervals in key order, so the scatter is a stable MSD split; a stable
//! split followed by a stable sort of each piece is *the* stable order of
//! the whole, which is what the reference concat → partition → full-radix
//! path produces. The result is byte-identical to it whatever the cuts.
//! LocalCC's union anchor (first tuple of each equal-k-mer group) depends
//! on this and a proptest pins it.

use crate::partition::{ScatterTracker, SharedSlice};
use crate::radix::{radix_pass, Keyed, RadixStats, SortKey};
use crate::rank::{rank_sort, RankScratch};
use rayon::prelude::*;

/// Max table index width; 2^11 u32 entries = 8 KiB, comfortably L1-resident.
const TABLE_BITS: u32 = 11;

/// Below this boundary count the table is skipped entirely and `range_of`
/// is a branchless sum of comparisons over all boundaries. Measured on the
/// skewed receive-side workload (8 sub-ranges, single thread): branchless
/// sum ~318 Mt/s vs `partition_point` ~231 Mt/s vs prefix table with a
/// data-dependent advance loop ~83 Mt/s — the advance loop's unpredictable
/// branches dominate whenever mass-balanced boundaries cluster inside a
/// few table buckets, which is exactly what abundance-skewed k-mer data
/// produces.
const BRANCHLESS_MAX_BOUNDARIES: usize = 16;

/// Precomputed range classifier replacing the per-tuple `partition_point`
/// binary search over sub-range boundaries.
///
/// For sorted exclusive-upper `boundaries` (range `r` holds keys
/// `< boundaries[r]`), the range index of `key` is the number of
/// boundaries `<= key`. Two exact strategies, both with branch-free
/// per-boundary work (a comparison summed as 0/1 — no data-dependent
/// branches for the predictor to miss on skewed keys):
///
/// * **few boundaries** (`<= 16`, the common `T - 1` case): sum
///   `boundary <= key` over all boundaries — one or two unrolled SIMD-able
///   compare rows;
/// * **many boundaries**: a prefix-indexed table narrows first. `lo[d]`
///   counts the boundaries whose top `TABLE_BITS`-of-`key_bits` prefix is
///   `< d`; every such boundary is `<= key` for a key with prefix `d`, and
///   every boundary with prefix `> d` is `> key`, so only the window
///   `lo[d]..lo[d + 1]` of same-prefix boundaries needs the comparison
///   sum.
///
/// Precondition (same as the radix sort's): every key and boundary is
/// `< 2^key_bits`.
pub struct BoundaryTable<'b, K: SortKey> {
    boundaries: &'b [K],
    shift: u32,
    mask: u64,
    /// Prefix-count table; empty when the branchless small path is active.
    lo: Vec<u32>,
}

impl<'b, K: SortKey> BoundaryTable<'b, K> {
    /// Build the table for `boundaries` over keys of `key_bits` bits.
    pub fn new(boundaries: &'b [K], key_bits: u32) -> Self {
        assert!(
            (1..=K::BITS).contains(&key_bits),
            "key_bits {key_bits} not in 1..={}",
            K::BITS
        );
        assert!(
            u32::try_from(boundaries.len()).is_ok(),
            "boundary count overflows the table's u32 entries"
        );
        if boundaries.len() <= BRANCHLESS_MAX_BOUNDARIES {
            return Self {
                boundaries,
                shift: 0,
                mask: 0,
                lo: Vec::new(),
            };
        }
        let tb = TABLE_BITS.min(key_bits);
        let shift = key_bits - tb;
        let size = 1usize << tb;
        let mask = (size - 1) as u64;
        let mut lo = vec![0u32; size + 1];
        for b in boundaries {
            lo[b.digit(shift, mask) + 1] += 1;
        }
        for d in 0..size {
            lo[d + 1] += lo[d];
        }
        Self {
            boundaries,
            shift,
            mask,
            lo,
        }
    }

    /// Index of the range `key` falls into (boundaries are exclusive
    /// uppers; `boundaries.len() + 1` ranges).
    #[inline(always)]
    pub fn range_of(&self, key: K) -> usize {
        let (base, window) = if self.lo.is_empty() {
            (0, self.boundaries)
        } else {
            let d = key.digit(self.shift, self.mask);
            let (s, e) = (self.lo[d] as usize, self.lo[d + 1] as usize);
            (s, &self.boundaries[s..e])
        };
        let mut r = base;
        for b in window {
            r += usize::from(*b <= key);
        }
        r
    }
}

/// Most fixed cuts the scatter refines with: up to `2^11` write streams the
/// scatter pass measures flat (DESIGN.md §7.2), and the range ids still fit
/// the `u16` id buffer with room for any thread count.
const MAX_CUT_BITS: u32 = 11;

/// `(shift, mask)` of the top `cut_bits`-bit digit of a `key_bits`-bit key;
/// with no cuts the mask is zero, so the digit is 0 for every key.
fn cut_digit(cut_bits: u32, key_bits: u32) -> (u32, u64) {
    ((key_bits - cut_bits).min(key_bits - 1), (1 << cut_bits) - 1)
}

/// What [`scatter_from_parts`] learned while scattering.
pub struct ScatterResult<K> {
    /// The `ranges + 1` range offsets within the destination buffer; the
    /// offsets LocalCC's per-thread walk needs are a subset of them, so the
    /// pipeline skips its post-sort binary-search derivation.
    pub offsets: Vec<usize>,
    /// Per-range varying-bits mask: bit `i` is set iff two keys in the
    /// range differ in bit `i`. Feed to
    /// [`lsb_radix_sort_pruned`](crate::lsb_radix_sort_pruned).
    pub varying: Vec<K>,
}

/// Scatter the per-sender message buffers straight into `dst`, grouped by
/// key range — the fused replacement for concat + [`crate::partition_by_ranges`].
///
/// The ranges are those of `boundaries` refined by `2^cut_bits - 1` fixed
/// cuts on the top `cut_bits` of the `key_bits` key bits (the keys
/// `i << (key_bits - cut_bits)`). A cut needs no table: the number of cuts
/// at or below a key is its top digit, so a tuple's range index is that
/// digit plus its [`BoundaryTable`] index among `boundaries` — the position
/// it would have in the merged sorted list of cuts and boundaries.
///
/// `dst.len()` must equal the total part length. Tuple order within each
/// range is part-major input order (sender 0 first), i.e. exactly the
/// order the concat-then-partition path produces. Returns the range
/// offsets and per-range varying-bits masks accumulated during the
/// histogram pass.
///
/// `ids` is pooled per-tuple scratch (one `u16` range index each,
/// recorded by the histogram pass and consumed by the scatter pass so the
/// range classification runs once per tuple, not twice); pass the same
/// `Vec` every call to recycle its allocation, or an empty one for a
/// one-off. At most `u16::MAX + 1` ranges are supported — far above the
/// cut count plus the per-task thread counts that set it in the pipeline.
pub fn scatter_from_parts<T: Keyed>(
    parts: &[Vec<T>],
    dst: &mut [T],
    boundaries: &[T::Key],
    cut_bits: u32,
    key_bits: u32,
    tracker: &mut ScatterTracker,
    ids: &mut Vec<u16>,
) -> ScatterResult<T::Key> {
    let total: usize = parts.iter().map(Vec::len).sum();
    assert_eq!(total, dst.len(), "dst must hold every part tuple");
    assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "boundaries must be sorted"
    );
    assert!(cut_bits <= MAX_CUT_BITS.min(key_bits), "too many cuts");
    let ranges = boundaries.len() + (1 << cut_bits);
    assert!(ranges <= usize::from(u16::MAX) + 1, "too many sub-ranges");
    let table = BoundaryTable::new(boundaries, key_bits);
    let (cut_shift, cut_mask) = cut_digit(cut_bits, key_bits);

    // Work units: each part sub-chunked so threads stay busy even when
    // sender volumes are skewed. Units are ordered part-major (and
    // offset-minor within a part) — the order the old concat visited
    // tuples — which is what makes the stable scatter byte-identical to
    // concat + partition_by_ranges.
    let chunk_size = total.div_ceil(rayon::current_num_threads().max(1)).max(1);
    let chunks: Vec<&[T]> = parts.iter().flat_map(|p| p.chunks(chunk_size)).collect();

    // Carve the pooled id buffer into per-chunk windows (same flat order
    // as `chunks`). Every id slot is written by the histogram pass before
    // the scatter pass reads it, so recycled contents never leak through.
    if ids.len() < total {
        ids.resize(total, 0);
    }
    let mut id_windows: Vec<&mut [u16]> = Vec::with_capacity(chunks.len());
    let mut rem_ids: &mut [u16] = &mut ids[..total];
    for chunk in &chunks {
        let (w, rest) = rem_ids.split_at_mut(chunk.len());
        id_windows.push(w);
        rem_ids = rest;
    }

    // Histogram pass: per-chunk range counts, each tuple's range id, and
    // the varying-bits accumulators — OR and AND of the range's keys; a
    // bit varies iff it is 1 in some key (OR) but not in all (AND), so
    // `or ^ and` is exactly the varying mask, and both fold across chunks
    // bit-parallel and branch-free.
    type ChunkStat<K> = (Vec<usize>, Vec<K>, Vec<K>);
    let stats: Vec<ChunkStat<T::Key>> = chunks
        .par_iter()
        .zip(id_windows.into_par_iter())
        .map(|(chunk, id_window)| {
            let mut hist = vec![0usize; ranges];
            let mut or_acc = vec![T::Key::ZERO; ranges];
            let mut and_acc = vec![T::Key::ONES; ranges];
            for (t, id) in chunk.iter().zip(id_window.iter_mut()) {
                let k = t.key();
                let r = table.range_of(k) + k.digit(cut_shift, cut_mask);
                *id = r as u16;
                hist[r] += 1;
                or_acc[r] = or_acc[r] | k;
                and_acc[r] = and_acc[r] & k;
            }
            (hist, or_acc, and_acc)
        })
        .collect();

    // Range totals -> offsets; fold the per-chunk OR/AND accumulators.
    let mut offsets = vec![0usize; ranges + 1];
    for r in 0..ranges {
        let t: usize = stats.iter().map(|(h, _, _)| h[r]).sum();
        offsets[r + 1] = offsets[r] + t;
    }
    let mut varying = vec![T::Key::ZERO; ranges];
    for (r, v) in varying.iter_mut().enumerate() {
        if offsets[r + 1] == offsets[r] {
            continue; // empty range: keep the mask all-zero
        }
        let mut or_acc = T::Key::ZERO;
        let mut and_acc = T::Key::ONES;
        for (h, o, a) in &stats {
            if h[r] > 0 {
                or_acc = or_acc | o[r];
                and_acc = and_acc & a[r];
            }
        }
        *v = or_acc ^ and_acc;
    }

    // Per-(chunk, range) write cursors, chunk-major prefix sums.
    let mut cursors: Vec<Vec<usize>> = Vec::with_capacity(chunks.len());
    let mut running = offsets[..ranges].to_vec();
    for (h, _, _) in &stats {
        cursors.push(running.clone());
        for r in 0..ranges {
            running[r] += h[r];
        }
    }

    // Scatter pass: stream tuples and their recorded range ids — no
    // classification work left, just the permuting writes.
    let mut read_windows: Vec<&[u16]> = Vec::with_capacity(chunks.len());
    let mut rem_ids: &[u16] = &ids[..total];
    for chunk in &chunks {
        let (w, rest) = rem_ids.split_at(chunk.len());
        read_windows.push(w);
        rem_ids = rest;
    }
    let shared = SharedSlice::new(dst, tracker);
    chunks
        .par_iter()
        .zip(read_windows.into_par_iter())
        .zip(cursors.into_par_iter())
        .for_each(|((chunk, id_window), mut cur)| {
            for (t, &id) in chunk.iter().zip(id_window.iter()) {
                let r = usize::from(id);
                // SAFETY: cursor windows are disjoint by construction.
                unsafe { shared.write(cur[r], *t) };
                cur[r] += 1;
            }
        });

    ScatterResult { offsets, varying }
}

/// Pooled per-task LocalSort buffers, allocated once and recycled across
/// passes: the destination (the gather target, or the adopted part), and
/// per worker a bucket scratch window and the in-bucket sort's workspace
/// (key table, per-tuple ids, distinct-key pairs: cache-sized like the
/// window); for [`fused_local_sort`] also its per-tuple range ids and the
/// debug-build scatter tracker. On a cold pool, first-touch page faults
/// cost as much as a scatter pass; recycling avoids them.
///
/// Reuse without re-zeroing is sound because the gather or scatter writes
/// every destination slot before anything reads it, the in-bucket sort
/// writes every scratch and workspace slot it later reads, and the
/// histogram pass writes every range id the scatter reads.
pub struct PassBuffers<T: Keyed> {
    dst: Vec<T>,
    /// One window per thread sub-range, each as long as that sub-range's
    /// largest bucket — a few hundred KiB, not a second copy of the tuples.
    scratch: Vec<T>,
    /// One in-bucket sort workspace per thread sub-range.
    rank: Vec<RankScratch<T::Key>>,
    ids: Vec<u16>,
    tracker: ScatterTracker,
}

impl<T: Keyed> Default for PassBuffers<T> {
    fn default() -> Self {
        Self {
            dst: Vec::new(),
            scratch: Vec::new(),
            rank: Vec::new(),
            ids: Vec::new(),
            tracker: ScatterTracker::default(),
        }
    }
}

impl<T: Keyed + Default> PassBuffers<T> {
    /// Empty pool; buffers grow lazily to the largest pass seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sorted tuples after [`fused_local_sort`] (valid until the next
    /// call mutates the pool).
    pub fn sorted(&self) -> &[T] {
        &self.dst
    }
}

/// What [`fused_local_sort`] did.
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

/// The fused LocalSort: scatter the per-sender buffers straight into the
/// pooled destination *in cache-sized buckets*, then sort each bucket while
/// it is cache-resident. Consumes `parts` so the received message buffers
/// are freed as soon as the scatter lands.
///
/// The sorted tuples land in `bufs.sorted()[..total]`; the result is
/// byte-identical to concat → [`crate::partition_by_ranges`] → per-range
/// [`crate::lsb_radix_sort`] (see the module docs for the argument).
pub fn fused_local_sort<T: Keyed + Default>(
    parts: Vec<Vec<T>>,
    bufs: &mut PassBuffers<T>,
    boundaries: &[T::Key],
    bits: u32,
    key_bits: u32,
) -> FusedSortResult {
    let budget = (BUCKET_BYTES / std::mem::size_of::<T>()).max(1);
    fused_local_sort_budgeted(parts, bufs, boundaries, bits, key_bits, budget)
}

/// [`fused_local_sort`] with the bucket budget (in tuples) as a parameter,
/// so tests can force deep refinement and second-level splits on small
/// inputs.
pub(crate) fn fused_local_sort_budgeted<T: Keyed + Default>(
    parts: Vec<Vec<T>>,
    bufs: &mut PassBuffers<T>,
    boundaries: &[T::Key],
    bits: u32,
    key_bits: u32,
    budget: usize,
) -> FusedSortResult {
    let total: usize = parts.iter().map(Vec::len).sum();
    bufs.dst.resize(total, T::default());

    // Refine the thread boundaries with fixed cuts on the top key digit —
    // enough that a bucket averages at most `budget` tuples. The one
    // histogram + scatter pass then lands tuples in buckets the radix
    // passes never leave cache for.
    let cut_bits = (total.div_ceil(budget).min(1 << MAX_CUT_BITS))
        .next_power_of_two()
        .trailing_zeros()
        .min(key_bits);
    let sc = scatter_from_parts(
        &parts,
        &mut bufs.dst,
        boundaries,
        cut_bits,
        key_bits,
        &mut bufs.tracker,
        &mut bufs.ids,
    );
    drop(parts);

    // Thread sub-range `j` is the run of buckets `first[j]..first[j + 1]`.
    // A key below thread boundary `b` (the `j`-th) has at most `b`'s cut
    // digit and at most `j` boundaries at or below it; a key from `b` up
    // has at least that digit and at least `j + 1`: bucket `digit + j + 1`
    // is the first of the next sub-range.
    let (cut_shift, cut_mask) = cut_digit(cut_bits, key_bits);
    let mut first = vec![0usize];
    first.extend(
        boundaries
            .iter()
            .enumerate()
            .map(|(j, b)| b.digit(cut_shift, cut_mask) + j + 1),
    );
    first.push(boundaries.len() + (1 << cut_bits));
    sort_buckets(
        bufs,
        &sc.offsets,
        &first,
        (bits, key_bits, budget),
        |r, _| sc.varying[r],
    )
}

/// The back half both LocalSort entries share: sort every bucket of
/// `bufs.dst` while it is cache-resident. Bucket `b` is
/// `dst[bucket_offsets[b]..bucket_offsets[b + 1]]`; thread sub-range `j` is
/// the run of buckets `first[j]..first[j + 1]` and gets one worker, which
/// walks its buckets in order. `bring_in(b, bucket)` runs first on each
/// bucket — it may fill it — and returns its varying-bits mask.
fn sort_buckets<T: Keyed + Default>(
    bufs: &mut PassBuffers<T>,
    bucket_offsets: &[usize],
    first: &[usize],
    (bits, key_bits, budget): (u32, u32, usize),
    bring_in: impl Fn(usize, &mut [T]) -> T::Key + Sync,
) -> FusedSortResult {
    let offsets: Vec<usize> = first.iter().map(|&r| bucket_offsets[r]).collect();

    // Per-worker scratch: one window per thread sub-range, as long as its
    // largest bucket.
    let largest = |w: &[usize]| {
        let lens = bucket_offsets[w[0]..=w[1]].windows(2).map(|b| b[1] - b[0]);
        lens.max().unwrap_or(0)
    };
    let windows: Vec<usize> = first.windows(2).map(largest).collect();
    bufs.scratch.resize(windows.iter().sum(), T::default());
    if bufs.rank.len() < windows.len() {
        bufs.rank.resize_with(windows.len(), RankScratch::new);
    }

    // Disjoint (tuples, scratch window, workspace, bucket run) work items
    // for rayon: each worker walks its own sub-range's buckets in order.
    let mut rem_d: &mut [T] = &mut bufs.dst;
    let mut rem_s: &mut [T] = &mut bufs.scratch;
    let mut work = Vec::with_capacity(windows.len());
    for ((w, &window), ws) in first.windows(2).zip(&windows).zip(&mut bufs.rank) {
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
                let bucket = &mut d[lo..hi];
                let varying = bring_in(r, bucket);
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
/// result is sender 0's run, then sender 1's, …, copied when the worker
/// reaches it and swept once, cache-resident, for its varying-bits mask. A
/// single part is not copied: its buffer is *adopted* as the destination.
///
/// `first` holds the `T + 1` bucket indices at which the thread sub-ranges
/// begin. The result is byte-identical to [`fused_local_sort`] over the
/// same parts with the thread boundaries `lower[first[1..T]]`.
///
/// # Panics
///
/// If a part is not bucket-major: the sweep holds every tuple to its
/// bucket's key interval, so a misplaced one aborts instead of mis-sorting.
pub fn bucketed_local_sort<T: Keyed + Default>(
    parts: Vec<Vec<T>>,
    bufs: &mut PassBuffers<T>,
    lower: &[T::Key],
    first: &[usize],
    bits: u32,
    key_bits: u32,
) -> FusedSortResult {
    let budget = (BUCKET_BYTES / std::mem::size_of::<T>()).max(1);
    bucketed_local_sort_budgeted(parts, bufs, lower, first, bits, key_bits, budget)
}

/// [`bucketed_local_sort`] with the split threshold as a parameter, for
/// tests.
pub(crate) fn bucketed_local_sort_budgeted<T: Keyed + Default>(
    mut parts: Vec<Vec<T>>,
    bufs: &mut PassBuffers<T>,
    lower: &[T::Key],
    first: &[usize],
    bits: u32,
    key_bits: u32,
    budget: usize,
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
    assert!(buckets > 0 || offsets[0] == 0, "tuples but no bucket");

    // One part is the destination; several are gathered into the pooled one.
    if parts.len() == 1 {
        bufs.dst = parts.pop().unwrap_or_default();
    } else {
        bufs.dst.resize(offsets[buckets], T::default());
    }
    sort_buckets(bufs, &offsets, first, (bits, key_bits, budget), |b, d| {
        let mut at = 0;
        for (part, starts) in parts.iter().zip(&runs) {
            let run = &part[starts[b]..starts[b + 1]];
            d[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        }
        bucket_mask(d, lower[b], lower.get(b + 1))
    })
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

/// Sort one scattered bucket against (the front of) its worker's scratch
/// window and workspace. A bucket up to twice the average `budget` goes
/// straight to the in-bucket sort, [`rank_sort`]. A larger one (keys
/// denser than the fixed cuts assume) first takes a stable MSD split into
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
    use crate::partition::partition_by_ranges;
    use crate::radix::lsb_radix_sort;
    use metaprep_kmer::{KmerReadTuple, KmerReadTuple128};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The production bucket budget for `KmerReadTuple`, and small ones that
    /// force deep refinement and second-level splits on test-sized inputs.
    const PRODUCTION: usize = BUCKET_BYTES / std::mem::size_of::<KmerReadTuple>();
    const BUDGETS: [usize; 4] = [1, 8, 64, PRODUCTION];

    /// The unfused pipeline path: concat -> partition_by_ranges -> full
    /// per-range lsb_radix_sort. Returns the sorted tuples.
    fn reference_path<T: Keyed + Default>(
        parts: &[Vec<T>],
        boundaries: &[T::Key],
        bits: u32,
        key_bits: u32,
    ) -> (Vec<usize>, Vec<T>) {
        let mut tuples: Vec<T> = Vec::new();
        for p in parts {
            tuples.extend_from_slice(p);
        }
        let mut dst = vec![T::default(); tuples.len()];
        let offsets = partition_by_ranges(&tuples, &mut dst, boundaries);
        for w in offsets.windows(2) {
            let (d, s) = (&mut dst[w[0]..w[1]], &mut tuples[w[0]..w[1]]);
            lsb_radix_sort(d, s, bits, key_bits);
        }
        (offsets, dst)
    }

    /// What the pipeline's `thread_offsets_of` derives from the sorted
    /// tuples: where each thread boundary falls.
    fn thread_offsets_of<T: Keyed>(sorted: &[T], boundaries: &[T::Key]) -> Vec<usize> {
        let mut offs = vec![0];
        offs.extend(
            boundaries
                .iter()
                .map(|b| sorted.partition_point(|t| t.key() < *b)),
        );
        offs.push(sorted.len());
        offs
    }

    /// Run the fused sort at `budget` and hold it to the reference path:
    /// same bytes, same thread offsets, and offsets that are where the
    /// boundaries fall in the output.
    fn check<T: Keyed + Default + PartialEq + std::fmt::Debug>(
        parts: &[Vec<T>],
        boundaries: &[T::Key],
        bits: u32,
        key_bits: u32,
        budget: usize,
    ) -> (FusedSortResult, Vec<T>) {
        let mut bufs = PassBuffers::new();
        let res = fused_local_sort_budgeted(
            parts.to_vec(),
            &mut bufs,
            boundaries,
            bits,
            key_bits,
            budget,
        );
        let sorted = bufs.sorted().to_vec();
        let (ref_offs, ref_sorted) = reference_path(parts, boundaries, bits, key_bits);
        assert_eq!(sorted, ref_sorted, "budget {budget}");
        assert_eq!(res.offsets, ref_offs, "budget {budget}");
        assert_eq!(res.offsets, thread_offsets_of(&sorted, boundaries));
        (res, sorted)
    }

    #[test]
    fn boundary_table_matches_partition_point() {
        let mut rng = SmallRng::seed_from_u64(11);
        // 7 boundaries exercise the branchless small path, 17 the
        // prefix-table path (see BRANCHLESS_MAX_BOUNDARIES).
        for nb in [7usize, 17] {
            for key_bits in [8u32, 16, 54, 64] {
                let cap = |x: u64| {
                    if key_bits >= 64 {
                        x
                    } else {
                        x & ((1u64 << key_bits) - 1)
                    }
                };
                let mut boundaries: Vec<u64> = (0..nb).map(|_| cap(rng.gen())).collect();
                boundaries.sort_unstable();
                // Include duplicates.
                boundaries[3] = boundaries[4];
                boundaries.sort_unstable();
                let table = BoundaryTable::new(&boundaries, key_bits);
                for _ in 0..5_000 {
                    let k = cap(rng.gen());
                    assert_eq!(
                        table.range_of(k),
                        boundaries.partition_point(|b| *b <= k),
                        "key {k:#x} key_bits {key_bits} nb {nb}"
                    );
                }
                // Boundary keys themselves and the extremes.
                for &b in &boundaries {
                    for k in [b, b.wrapping_sub(1) & cap(u64::MAX), cap(u64::MAX), 0] {
                        assert_eq!(table.range_of(k), boundaries.partition_point(|b| *b <= k));
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_varying_masks_are_exact() {
        let parts: Vec<Vec<u64>> = vec![vec![0b1010, 0b1000, 30], vec![0b1110, 40, 50]];
        let boundaries = [16u64];
        let mut dst = vec![0u64; 6];
        let mut tracker = ScatterTracker::new();
        let mut ids = Vec::new();
        let sc = scatter_from_parts(&parts, &mut dst, &boundaries, 0, 64, &mut tracker, &mut ids);
        assert_eq!(sc.offsets, vec![0, 3, 6]);
        // Range 0: {1010, 1000, 1110} -> bits 1 and 2 vary.
        assert_eq!(sc.varying[0], 0b0110);
        // Range 1: {30, 40, 50} = {11110, 101000, 110010}.
        assert_eq!(sc.varying[1], (30 ^ 40) | (30 ^ 50));
        // Part-major stable order within ranges.
        assert_eq!(dst, vec![0b1010, 0b1000, 0b1110, 30, 40, 50]);
    }

    #[test]
    fn scatter_cuts_refine_the_boundaries() {
        // 6-bit keys, 2 cut bits (cuts at 16, 32, 48) and one boundary at
        // 20: ranges [0,16) [16,20) [20,32) [32,48) [48,64).
        let parts: Vec<Vec<u64>> = vec![vec![63, 19, 0, 20], vec![31, 16, 47, 48, 15]];
        let mut dst = vec![0u64; 9];
        let (mut tracker, mut ids) = (ScatterTracker::new(), Vec::new());
        let sc = scatter_from_parts(&parts, &mut dst, &[20], 2, 6, &mut tracker, &mut ids);
        assert_eq!(sc.offsets, vec![0, 2, 4, 6, 7, 9]);
        assert_eq!(dst, vec![0, 15, 19, 16, 20, 31, 47, 63, 48]);
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
        let (res, sorted) = check(&parts, &boundaries, 8, 54, PRODUCTION);
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
            let (_, want) = reference_path(&parts, &boundaries, 8, 64);
            // Alternate budgets so the pooled scratch both grows and is
            // reused larger than needed.
            let budget = if round % 2 == 0 { 16 } else { PRODUCTION };
            fused_local_sort_budgeted(parts, &mut bufs, &boundaries, 8, 64, budget);
            assert_eq!(bufs.sorted(), &want[..], "round {round}");
        }
    }

    /// Senders holding equal k-mers in a fixed pattern; `spread` k-mers
    /// share one first-level bucket so a small budget forces the
    /// second-level split.
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
        for budget in BUDGETS {
            let (_, sorted) = check(&parts, &[5u64], 8, 54, budget);
            let order: Vec<(u64, u32)> = sorted.iter().map(|t| (t.kmer, t.read)).collect();
            assert_eq!(order, vec![(3, 1), (3, 4), (7, 0), (7, 2), (7, 3), (7, 5)]);
        }
    }

    #[test]
    fn equal_kmer_tuples_keep_sender_order_across_a_second_level_split() {
        // 40 distinct k-mers below 2^20 share every first-level bucket cut
        // from a 54-bit key space, 12 tuples each: at budget 1 the bucket
        // is far over budget and takes the MSD split.
        let kmers: Vec<u64> = (0..40u64).map(|i| (i * 0x6_5432 + 9) & 0xF_FFFF).collect();
        let parts = equal_kmer_parts(&kmers);
        let (res, sorted) = check(&parts, &[], 8, 54, 1);
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
        let (res, sorted) = check::<u64>(&[vec![], vec![], vec![]], &[10u64], 8, 64, PRODUCTION);
        assert!(sorted.is_empty());
        assert_eq!(res.offsets, vec![0, 0, 0]);
        assert_eq!(res.stats, RadixStats::default());
        let (res, sorted) = check::<u64>(&[], &[], 8, 64, 1);
        assert!(sorted.is_empty());
        assert_eq!(res.offsets, vec![0, 0]);
        assert_eq!(res.stats, RadixStats::default());
    }

    #[test]
    fn thread_boundaries_on_cuts_duplicated_and_all_equal() {
        // 4096 tuples at budget 8 take 9 cut bits: cuts at i << 45.
        let mut rng = SmallRng::seed_from_u64(21);
        let parts: Vec<Vec<KmerReadTuple>> = (0..4)
            .map(|p| {
                (0..1024)
                    .map(|i| KmerReadTuple::new(rng.gen::<u64>() >> 10, p * 1024 + i))
                    .collect()
            })
            .collect();
        let cut = |i: u64| i << 45;
        let cases: [&[u64]; 5] = [
            &[cut(3)],
            &[cut(3), cut(3), cut(7) + 5],
            &[cut(100) - 1, cut(100), cut(100) + 1],
            &[cut(9) + 77; 5],
            &[0, 0, (1 << 54) - 1],
        ];
        for boundaries in cases {
            for budget in [1, 8, PRODUCTION] {
                check(&parts, boundaries, 8, 54, budget);
            }
        }
    }

    #[test]
    fn all_equal_bucket_over_budget_runs_no_pass() {
        let parts: Vec<Vec<KmerReadTuple>> = (0..3)
            .map(|p| {
                (0..500)
                    .map(|i| KmerReadTuple::new(0xABCDE, p * 500 + i))
                    .collect()
            })
            .collect();
        let (res, sorted) = check(&parts, &[], 8, 54, 8);
        assert_eq!(
            res.stats.passes_run, 0,
            "no varying bit: nothing to run or split"
        );
        assert!(sorted.iter().map(|t| t.read).eq(0..1500));
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
        for budget in BUDGETS {
            check(&parts, &[hot, hot + 1], 8, 54, budget);
            check(&parts, &[], 11, 54, budget);
        }
    }

    #[test]
    fn u128_keys_at_126_bits() {
        let mut rng = SmallRng::seed_from_u64(63);
        let key =
            |rng: &mut SmallRng| ((rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128) >> 2;
        // Half the tuples in a 2^70 window so some buckets stay over budget.
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
        let production = BUCKET_BYTES / std::mem::size_of::<KmerReadTuple128>();
        for budget in [1, 8, 64, production] {
            for bits in [8, 11, 16] {
                check(&parts, &boundaries, bits, 126, budget);
            }
        }
    }

    /// Group every part by the buckets `lower` starts (a stable partition —
    /// what KmerGen's emit produces), run the bucketed entry at `budget`,
    /// and hold it to the reference path over the ungrouped parts: same
    /// bytes, same thread offsets, offsets where the boundaries fall.
    fn check_bucketed<T: Keyed + Default + PartialEq + std::fmt::Debug>(
        parts: &[Vec<T>],
        lower: &[T::Key],
        first: &[usize],
        (bits, key_bits, budget): (u32, u32, usize),
    ) -> FusedSortResult {
        let grouped: Vec<Vec<T>> = parts
            .iter()
            .map(|p| {
                let mut g = p.clone();
                g.sort_by_key(|t| lower.partition_point(|l| *l <= t.key())); // stable
                g
            })
            .collect();
        let mut bufs = PassBuffers::new();
        let res =
            bucketed_local_sort_budgeted(grouped, &mut bufs, lower, first, bits, key_bits, budget);
        let boundaries: Vec<T::Key> = first[1..first.len() - 1]
            .iter()
            .map(|&b| lower.get(b).copied().unwrap_or(T::Key::ONES))
            .collect();
        let (ref_offs, ref_sorted) = reference_path(parts, &boundaries, bits, key_bits);
        assert_eq!(bufs.sorted(), &ref_sorted[..], "budget {budget}");
        assert_eq!(res.offsets, ref_offs, "budget {budget}");
        assert_eq!(res.offsets, thread_offsets_of(bufs.sorted(), &boundaries));
        res
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
        bucketed_local_sort(vec![part], &mut bufs, &lower, &[0, 4], 8, 54);
        assert_eq!(bufs.sorted().as_ptr(), at);
        assert!(crate::is_sorted_by_key(bufs.sorted()));
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
            bucketed_local_sort(parts, &mut bufs, &lower, &[0, 2, 4], 8, 54);
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
        let (_, want) = reference_path(&parts, &[lower[4]], 8, 126);
        let mut bufs = PassBuffers::new();
        bucketed_local_sort(parts, &mut bufs, &lower, &[0, 4, 10], 8, 126);
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
        bucketed_local_sort(vec![part], &mut bufs, &[0, 100], &[0, 2], 8, 64);
    }

    #[test]
    #[should_panic]
    fn a_gathered_part_that_is_not_bucket_major_panics() {
        let parts: Vec<Vec<u64>> = vec![vec![1, 100], vec![100, 2, 101]];
        let mut bufs = PassBuffers::new();
        bucketed_local_sort(parts, &mut bufs, &[0, 100], &[0, 2], 8, 64);
    }

    proptest! {
        /// The tentpole invariant: fused scatter + in-cache radix is
        /// byte-identical to the reference path over random tuple sets,
        /// random part splits, boundary counts (including empty sub-ranges
        /// and duplicate boundaries), digit widths 8/11/16 and bucket
        /// budgets from 1 tuple to the production constant.
        #[test]
        fn prop_fused_byte_identical_to_reference(
            keys in proptest::collection::vec(0u64..(1 << 54), 0..1500),
            cuts in proptest::collection::vec(0usize..1500, 0..6),
            mut bvals in proptest::collection::vec(0u64..(1 << 54), 0..7),
            dup in any::<bool>(),
            narrow in any::<bool>(),
            bits_idx in 0usize..3,
        ) {
            let bits = [8u32, 11, 16][bits_idx];
            // Tuples tagged with their global index so stability differences
            // are visible as value differences. `narrow` squeezes the keys
            // into a 2^20 window, so first-level buckets overflow.
            let tuples: Vec<KmerReadTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KmerReadTuple::new(if narrow { k >> 34 } else { k }, i as u32))
                .collect();
            // Split into parts at the (sorted, clamped) cut points.
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(tuples.len())).collect();
            cuts.sort_unstable();
            let mut parts: Vec<Vec<KmerReadTuple>> = Vec::new();
            let mut prev = 0;
            for c in cuts {
                parts.push(tuples[prev..c].to_vec());
                prev = c;
            }
            parts.push(tuples[prev..].to_vec());
            // Sorted boundaries, optionally with a forced duplicate
            // (an empty sub-range).
            if narrow {
                bvals.iter_mut().for_each(|b| *b >>= 34);
            }
            bvals.sort_unstable();
            if dup && bvals.len() >= 2 {
                bvals[0] = bvals[1];
            }
            for budget in BUDGETS {
                check(&parts, &bvals, bits, 54, budget);
            }
        }

        /// The bucketed entry over bucket-major parts is byte-identical to
        /// the reference path over the same tuples, for random buckets
        /// (some empty), thread groupings (some without a bucket), 1–4
        /// parts (some empty), digit widths and split thresholds.
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
            let squeeze = |k: u64| if narrow { k >> 34 } else { k };
            let tuples: Vec<KmerReadTuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KmerReadTuple::new(squeeze(k), i as u32))
                .collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(tuples.len())).collect();
            cuts.push(tuples.len());
            cuts.sort_unstable();
            let mut parts: Vec<Vec<KmerReadTuple>> = Vec::new();
            let mut prev = 0;
            for c in cuts {
                parts.push(tuples[prev..c].to_vec());
                prev = c;
            }
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
}
