//! KmerGen: per-task tuple enumeration (paper §3.2), each tuple written
//! once, straight into its sort bucket.
//!
//! The `FASTQPart` chunk histograms exist so that every thread knows the
//! final offset of every tuple it emits without synchronising (§3.2.2).
//! `kmergen_pass` carries that precomputation one level below the
//! destination task, to the cache-sized buckets of `RangePlan::bucket_plan`:
//! a send buffer is allocated once at its exact size (the self-addressed one
//! is the previous pass's sort buffer, recycled), laid out bucket-major
//! and chunk-minor, and every (chunk, bucket) pair owns a window of it. The
//! buffer is the message, and its grouping is what lets LocalSort on the
//! receiving rank skip its counting and scatter passes. Order inside a
//! bucket (chunk, then read order) is what per-chunk buffers + concat +
//! stable scatter produced, so everything downstream is byte-identical.
//!
//! A pass that owns only some of the m-mer bins (`--passes` > 1) does not
//! enumerate every k-mer and drop the rest one branch at a time: its reads
//! go in batches of valid code runs through [`simd::owned_kmers`], which
//! rolls four runs at once and returns only the values whose bin the pass
//! owns, run by run in position order — so the windows receive the same
//! tuples in the same order.
//!
//! Values that still need a test before they are written — the plain
//! enumeration's when the pass owns only some bins, and everyone's under
//! the presolve filter — are gathered per read (per run, from the kernel)
//! and compacted without a branch on the outcome: first to the pass's
//! bins, then to the filter's survivors. An 80 / 20 drop decided one
//! branch per k-mer mispredicts at every fifth; a cursor that advances by
//! the decision does not.

use crate::pipeline::RunCtx;
use metaprep_index::{FastqPart, RangePlan};
use metaprep_io::RecordWalker;
use metaprep_kmer::simd::{self, Backend, OwnedKmers};
use metaprep_kmer::{
    fold_kmer_key, for_each_canonical_kmer, valid_runs, Kmer, Kmer128, Kmer64, KmerReadTuple,
    KmerReadTuple128,
};
use metaprep_norm::HighFreqFilter;
use metaprep_sort::{Keyed, ScatterTracker, SharedSlice};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Glue between a k-mer width and its pipeline tuple type.
pub trait PipelineKmer: Kmer {
    /// The `(k-mer, read id)` tuple carried through comm/sort/CC.
    type Tuple: Keyed<Key = <Self as Kmer>::Repr> + Default + Copy + Send + Sync + 'static;

    /// Build a tuple.
    fn make_tuple(v: <Self as Kmer>::Repr, read: u32) -> Self::Tuple;
    /// Read id of a tuple.
    fn tuple_read(t: &Self::Tuple) -> u32;
    /// Convert a `u128` plan boundary into this width's key type.
    fn repr_from_u128(v: u128) -> <Self as Kmer>::Repr;
    /// The presolve-sketch key of a packed canonical value — the same
    /// derivation the IndexCreate sketch builder used, so filter probes
    /// hit the cells the scan populated.
    fn sketch_key(v: <Self as Kmer>::Repr) -> u64;
}

impl PipelineKmer for Kmer64 {
    type Tuple = KmerReadTuple;

    #[inline(always)]
    fn make_tuple(v: u64, read: u32) -> KmerReadTuple {
        KmerReadTuple::new(v, read)
    }

    #[inline(always)]
    fn tuple_read(t: &KmerReadTuple) -> u32 {
        t.read
    }

    #[inline(always)]
    fn repr_from_u128(v: u128) -> u64 {
        v as u64
    }

    #[inline(always)]
    fn sketch_key(v: u64) -> u64 {
        v
    }
}

impl PipelineKmer for Kmer128 {
    type Tuple = KmerReadTuple128;

    #[inline(always)]
    fn make_tuple(v: u128, read: u32) -> KmerReadTuple128 {
        KmerReadTuple128::new(v, read)
    }

    #[inline(always)]
    fn tuple_read(t: &KmerReadTuple128) -> u32 {
        t.read
    }

    #[inline(always)]
    fn repr_from_u128(v: u128) -> u128 {
        v
    }

    #[inline(always)]
    fn sketch_key(v: u128) -> u64 {
        fold_kmer_key(v)
    }
}

/// Output of one task's KmerGen for one pass.
pub struct KmerGenOutput<T> {
    /// `outgoing[q]` — tuples destined for task `q`, *bucket-major*: grouped
    /// by `q`'s sort buckets of this pass in key order, and inside a bucket
    /// in chunk order, then read order.
    pub outgoing: Vec<Vec<T>>,
    /// FASTQ-chunk load time ("KmerGen-I/O"): reading the chunk from the
    /// file window by window and walking each window's records; CPU-time
    /// summed across threads.
    pub io_nanos: u64,
    /// Enumeration time, CPU-time summed across threads, plus the write
    /// cursor build before it and the gap compaction after it.
    pub gen_nanos: u64,
    /// K-mer occurrences dropped by the presolve filter before any tuple
    /// was materialized (0 without a filter). Conservation:
    /// `sum(outgoing) + dropped == enumerated`.
    pub dropped: u64,
}

/// Bytes a chunk load reads from the file at a time. A worker's window is
/// resident while the pass's send buffers fill, so it adds to the task's
/// peak; IndexCreate's walks (`metaprep_io::WALK_WINDOW`, 1 MiB) run before
/// any tuple exists. A quarter of that still holds hundreds of records.
const CHUNK_WINDOW: u64 = 256 << 10;

/// Codes per call of the owned-k-mer kernel: a few dozen reads, so a
/// worker's batch stays a few tens of KiB (its values are 8 bytes a code).
const BATCH_CODES: usize = 8 << 10;

/// A worker's batch of reads for [`simd::owned_kmers`]: their valid runs of
/// at least k codes, back to back, each with its read's label. Reused
/// across the worker's chunks.
#[derive(Default)]
struct RunBatch {
    /// One read's codes, as [`simd::encode_classify`] writes them.
    read: Vec<u8>,
    codes: Vec<u8>,
    runs: Vec<Range<usize>>,
    labels: Vec<u32>,
    owned: OwnedKmers,
}

impl RunBatch {
    /// Add the runs of `seq` that hold a k-mer, labelled `label`.
    fn push(&mut self, backend: Backend, seq: &[u8], k: usize, label: u32) {
        simd::encode_classify_with(backend, seq, &mut self.read);
        for run in valid_runs(&self.read).filter(|run| run.len() >= k) {
            let at = self.codes.len();
            self.codes.extend_from_slice(&self.read[run]);
            self.runs.push(at..self.codes.len());
            self.labels.push(label);
        }
    }

    /// Hand each run's values whose bin is in `bins` to `emit` with its
    /// read's label — run by run, in position order — and empty the batch.
    fn drain(
        &mut self,
        backend: Backend,
        (k, shift): (usize, u32),
        bins: &Range<u64>,
        mut emit: impl FnMut(&[u64], u32),
    ) {
        let (codes, runs) = (&self.codes, &self.runs);
        simd::owned_kmers_with(
            backend,
            codes,
            runs,
            (k, shift),
            bins.clone(),
            &mut self.owned,
        );
        for (values, &label) in self.owned.runs().zip(&self.labels) {
            emit(values, label);
        }
        self.codes.clear();
        self.runs.clear();
        self.labels.clear();
    }
}

/// Keep the values of `vals` that `keep` accepts, in order. Every value is
/// stored at the cursor and the cursor advances by the decision, so an
/// unpredictable `keep` costs no mispredicted branch.
#[inline]
fn keep_where<T: Copy>(vals: &mut Vec<T>, keep: impl Fn(T) -> bool) {
    let mut kept = 0;
    for i in 0..vals.len() {
        let v = vals[i];
        vals[kept] = v;
        kept += usize::from(keep(v));
    }
    vals.truncate(kept);
}

/// Drop the values of `vals` the presolve filter drops; return how many.
#[inline]
fn drop_filtered<K: PipelineKmer>(vals: &mut Vec<K::Repr>, filter: &HighFreqFilter) -> u64 {
    let owned = vals.len();
    keep_where(vals, |v| !filter.drops(K::sketch_key(v)));
    (owned - vals.len()) as u64
}

/// One (chunk, slot) write window of a destination buffer: `next..end` is
/// still to be written.
struct Window<'a, T> {
    dst: &'a SharedSlice<'a, T>,
    next: usize,
    end: usize,
}

/// Enumerate task `rank`'s tuples for `pass`.
///
/// * `my_chunks` — chunk indices this task owns;
/// * `recycled` — a tuple buffer the task no longer needs (the previous
///   pass's sorted tuples), or an empty one;
/// * `read_label` — identity for plain LocalCC; the task's current
///   `Find(read)` for LocalCC-Opt passes (paper §3.5.1).
///
/// Each `outgoing[q]` is written uninitialised; the per-(chunk, bucket)
/// windows are prefix sums of the chunk histograms, so concurrent chunks
/// never share a slot. A release assert holds every write inside its
/// window; where the presolve filter left a window unfilled (the histogram
/// count is then an upper bound) one left-compaction closes the gaps.
///
/// The other destinations' buffers are fresh, at exactly the size the
/// histograms give them. The self-addressed one, `outgoing[rank]`, is the
/// buffer LocalSort adopts as its destination, so it is built in `recycled`
/// with room for everything the task receives this pass — the receive-count
/// precomputation of §3.3, [`expected_incoming`] — and never grows there. A
/// `recycled` too small for that is dropped before the new buffer is
/// allocated, so a task never holds both.
pub(crate) fn kmergen_pass<K: PipelineKmer>(
    pool: &rayon::ThreadPool,
    run: &RunCtx<'_>,
    my_chunks: &[usize],
    (pass, rank): (usize, usize),
    recycled: Vec<K::Tuple>,
    read_label: impl Fn(u32) -> u32 + Sync,
) -> KmerGenOutput<K::Tuple> {
    use rayon::prelude::*;

    let (source, fastqpart, buckets, filter) =
        (run.source, run.fastqpart, &run.buckets, run.filter);
    let tasks = run.plan.tasks();
    let k = run.plan.k();
    let space = fastqpart.space();
    debug_assert_eq!(space.k(), k);
    let io_nanos = AtomicU64::new(0);
    let gen_nanos = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);

    // The pass's slots are one run of the global numbering; a bin of
    // another pass maps outside it.
    let slot_of_bin = buckets.slot_of_bin();
    let pass_slots = buckets.pass_slots(pass);
    let (base, slots) = (pass_slots.start, pass_slots.len());
    // The bins the pass owns: its slots tile one run of them. A pass that
    // owns only some, at k <= 32, takes its k-mers from the owned-k-mer
    // kernel; one that owns every bin has nothing to drop and keeps the
    // plain enumeration.
    let owned_bins = match pass_slots.clone().last() {
        Some(last) => buckets.slot_bins(base).0 as u64..buckets.slot_bins(last).1 as u64,
        None => 0..0,
    };
    let owns_all = owned_bins == (0..space.bins() as u64);
    let owned = |v: K::Repr| owned_bins.contains(&u64::from(space.bin_of(K::repr_to_u128(v))));
    let kernel = (K::MAX_K <= 32 && !owns_all)
        .then(|| (run.simd, 2 * (k - space.m()) as u32, owned_bins.clone()));
    // The kernel emits only owned values; the plain roll of a pass that
    // owns only some bins (k > 32) is tested here.
    let test_owned = kernel.is_none() && !owns_all;
    let batches: Mutex<Vec<RunBatch>> = Mutex::new(Vec::new());

    // Write windows per (chunk, slot): the window sizes are the chunk
    // histograms summed over each slot's bins, their positions the running
    // sum in layout order — per destination, bucket-major and chunk-minor.
    let t_plan = Instant::now();
    let sizes: Vec<Vec<usize>> = pool.install(|| {
        let of_chunk = |&c: &usize| {
            let of_slot = |s| {
                let (lo, hi) = buckets.slot_bins(s);
                fastqpart.chunk_count_in_bins(c, lo, hi) as usize
            };
            pass_slots.clone().map(of_slot).collect()
        };
        my_chunks.par_iter().map(of_chunk).collect()
    });
    let mut recycled = Some(recycled);
    let mut outgoing: Vec<Vec<K::Tuple>> = (0..tasks)
        .map(|q| {
            let task = buckets.task_slots(pass, q);
            let (lo, hi) = (task.start - base, task.end - base);
            let len = sizes.iter().flat_map(|chunk| &chunk[lo..hi]).sum();
            if q != rank {
                return Vec::with_capacity(len);
            }
            let need = len.max(expected_incoming(fastqpart, run.plan, pass, rank) as usize);
            let mut own = recycled.take().unwrap_or_default();
            own.clear();
            if own.capacity() < need {
                drop(own); // before allocating: never both at once
                own = Vec::with_capacity(need);
            }
            own
        })
        .collect();
    let mut trackers: Vec<ScatterTracker> = (0..tasks).map(|_| ScatterTracker::new()).collect();
    let shared: Vec<SharedSlice<'_, K::Tuple>> = outgoing
        .iter_mut()
        .zip(&mut trackers)
        .map(|(out, tracker)| SharedSlice::uninit(out.spare_capacity_mut(), tracker))
        .collect();
    let mut windows: Vec<Vec<Window<'_, K::Tuple>>> =
        sizes.iter().map(|_| Vec::with_capacity(slots)).collect();
    for (q, dst) in shared.iter().enumerate() {
        let mut next = 0;
        for s in buckets.task_slots(pass, q) {
            for (chunk, sizes) in windows.iter_mut().zip(&sizes) {
                let end = next + sizes[s - base];
                chunk.push(Window { dst, next, end });
                next = end;
            }
        }
    }
    let plan_nanos = t_plan.elapsed().as_nanos() as u64;

    // One window per worker, freed with the pass.
    let walker = RecordWalker::new(CHUNK_WINDOW);
    let cursors: Vec<Vec<[usize; 2]>> = pool.install(|| {
        my_chunks
            .par_iter()
            .zip(windows.into_par_iter())
            .map(|(&c, mut cur)| {
                let free_batches = || batches.lock().unwrap_or_else(PoisonError::into_inner);
                let mut batch = free_batches().pop().unwrap_or_default();
                // Chunk load (KmerGen-I/O): per window a real seek+read of
                // the FASTQ file plus an in-place record walk; each window is
                // enumerated before the next is read.
                let (mut io, mut gen, mut dropped_here) = (0u64, 0u64, 0u64);
                // A read's (a run's) values awaiting their tests.
                let mut vals: Vec<K::Repr> = Vec::new();
                let mut t_io = Instant::now();
                source.load_chunk(&fastqpart.chunks()[c].spec, &walker, |reads| {
                    io += t_io.elapsed().as_nanos() as u64;
                    let t_gen = Instant::now();
                    // Every value written here is one the pass owns and the
                    // filter keeps.
                    let mut write = |v: K::Repr, label: u32| {
                        let bin = space.bin_of(K::repr_to_u128(v));
                        let s = (slot_of_bin[bin as usize] as usize).wrapping_sub(base);
                        let w = &mut cur[s];
                        // What keeps the windows of concurrent chunks
                        // disjoint even if a histogram is wrong.
                        assert!(
                            w.next < w.end,
                            "chunk {c}: more k-mers than its histogram counts in slot {s}"
                        );
                        // SAFETY: `[next, end)` is this chunk's own window of the destination — the windows are consecutive runs of one prefix sum — and `next` only ever advances, so no slot is written twice or by another chunk.
                        unsafe { w.dst.write(w.next, K::make_tuple(v, label)) };
                        w.next += 1;
                    };
                    // A read's (a run's) values: those the pass owns, then
                    // those the filter keeps, go to their windows.
                    let mut settle = |vals: &mut Vec<K::Repr>, label| {
                        if test_owned {
                            keep_where(vals, owned);
                        }
                        if let Some(f) = filter {
                            dropped_here += drop_filtered::<K>(vals, f);
                        }
                        vals.iter().for_each(|&v| write(v, label));
                    };
                    match &kernel {
                        Some((backend, shift, bins)) => {
                            let mut emit = |values: &[u64], label| {
                                vals.clear();
                                vals.extend(values.iter().map(|&v| K::repr_from_u128(v.into())));
                                settle(&mut vals, label);
                            };
                            for (seq, frag) in reads {
                                batch.push(*backend, seq, k, read_label(frag));
                                if batch.codes.len() >= BATCH_CODES {
                                    batch.drain(*backend, (k, *shift), bins, &mut emit);
                                }
                            }
                            batch.drain(*backend, (k, *shift), bins, &mut emit);
                        }
                        None => {
                            for (seq, frag) in reads {
                                vals.clear();
                                for_each_canonical_kmer::<K>(seq, k, |v, _| vals.push(v));
                                settle(&mut vals, read_label(frag));
                            }
                        }
                    }
                    gen += t_gen.elapsed().as_nanos() as u64;
                    t_io = Instant::now();
                });
                free_batches().push(batch);
                // ORDERING: Relaxed — profiling counter, summed after join.
                io_nanos.fetch_add(io, Ordering::Relaxed);
                // ORDERING: Relaxed — profiling counter, summed after join.
                gen_nanos.fetch_add(gen, Ordering::Relaxed);

                // The index-table arithmetic must match the enumeration:
                // every histogram-counted k-mer was either emitted or
                // filter-dropped, never lost.
                debug_assert_eq!(
                    cur.iter().map(|w| (w.end - w.next) as u64).sum::<u64>(),
                    dropped_here,
                    "chunk {c}: histogram disagrees with enumeration"
                );
                // ORDERING: Relaxed — conservation counter, summed after join.
                dropped.fetch_add(dropped_here, Ordering::Relaxed);
                cur.iter().map(|w| [w.next, w.end]).collect()
            })
            .collect()
    });

    // Close the gaps the filter left: each window's written prefix moves
    // left onto the end of the one before it (nothing moves when every
    // window was filled). Windows tile a destination in layout order, so a
    // window starts where its predecessor ends.
    let t_compact = Instant::now();
    let layout = |q: usize| {
        let of_slot = |s: usize| cursors.iter().map(move |cur| cur[s - base]);
        let windows = buckets.task_slots(pass, q).flat_map(of_slot);
        windows.scan(0, |start, [next, end]| {
            let written = *start..next;
            *start = end;
            Some((written, end))
        })
    };
    for (q, dst) in shared.iter().enumerate() {
        for (written, end) in layout(q) {
            dst.assert_prefix_written(written.start..end, written.len());
        }
    }
    drop(shared);
    for (q, out) in outgoing.iter_mut().enumerate() {
        let mut kept = 0;
        for (written, _) in layout(q) {
            let len = written.len();
            if kept != written.start {
                out.spare_capacity_mut().copy_within(written, kept);
            }
            kept += len;
        }
        // SAFETY: the first `kept` slots are the written prefixes of all windows, moved together in order; each was initialised by exactly one `write` (asserted above in debug builds).
        unsafe { out.set_len(kept) };
    }
    let serial_nanos = plan_nanos + t_compact.elapsed().as_nanos() as u64;

    KmerGenOutput {
        outgoing,
        io_nanos: io_nanos.into_inner(),
        gen_nanos: gen_nanos.into_inner() + serial_nanos,
        dropped: dropped.into_inner(),
    }
}

/// Expected tuples task `rank` receives from all chunks in `pass` —
/// the receive-count precomputation of paper §3.3. With a presolve
/// filter active this is an **upper bound** (drops are value-granular,
/// the histogram is bin-granular); exact otherwise.
pub fn expected_incoming(fastqpart: &FastqPart, plan: &RangePlan, pass: usize, rank: usize) -> u64 {
    let (blo, bhi) = plan.task_bin_range(pass, rank);
    (0..fastqpart.len())
        .map(|c| fastqpart.chunk_count_in_bins(c, blo, bhi))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::source::{ChunkSource, Spool};
    use metaprep_index::{BucketPlan, MerHist};
    use metaprep_io::ReadStore;
    use metaprep_norm::{HighFreqFilter, SketchParams};

    /// Bucket budget of the tests, in tuples: small, so the few thousand
    /// test tuples spread over many buckets.
    const BUDGET: u64 = 24;

    /// The index tables and plans of one test geometry, over `reads`
    /// written as a FASTQ file (the `spool`) that `source` loads chunks
    /// from, as a run does.
    struct Setup {
        reads: ReadStore,
        fp: FastqPart,
        plan: RangePlan,
        buckets: BucketPlan,
        source: ChunkSource,
        _spool: Spool,
    }

    impl Setup {
        fn new(
            reads: ReadStore,
            k: usize,
            chunks: usize,
            (s, p, t): (usize, usize, usize),
        ) -> Self {
            let mh = MerHist::build(&reads, k, 4);
            let plan = RangePlan::build(&mh, s, p, t);
            let spool = Spool::write(&reads).unwrap();
            let paired = reads.paired().unwrap();
            Setup {
                fp: FastqPart::build(&reads, chunks, k, 4),
                buckets: plan.bucket_plan(&mh, BUDGET),
                plan,
                source: ChunkSource::new(spool.path().to_path_buf(), paired, reads.len() as u32),
                _spool: spool,
                reads,
            }
        }

        /// One task owning every chunk runs KmerGen for `pass` on `threads`.
        fn kmergen<K: PipelineKmer>(
            &self,
            threads: usize,
            pass: usize,
            filter: Option<&HighFreqFilter>,
            read_label: impl Fn(u32) -> u32 + Sync,
        ) -> KmerGenOutput<K::Tuple> {
            self.kmergen_on::<K>(simd::active(), threads, pass, filter, read_label)
        }

        /// [`Setup::kmergen`] with the owned-k-mer kernel on `backend`.
        fn kmergen_on<K: PipelineKmer>(
            &self,
            backend: Backend,
            threads: usize,
            pass: usize,
            filter: Option<&HighFreqFilter>,
            read_label: impl Fn(u32) -> u32 + Sync,
        ) -> KmerGenOutput<K::Tuple> {
            let at = (backend, (pass, 0));
            self.kmergen_as::<K>(threads, at, Vec::new(), filter, read_label)
        }

        /// [`Setup::kmergen_on`] as task `rank`, handing it `recycled`.
        fn kmergen_as<K: PipelineKmer>(
            &self,
            threads: usize,
            (backend, (pass, rank)): (Backend, (usize, usize)),
            recycled: Vec<K::Tuple>,
            filter: Option<&HighFreqFilter>,
            read_label: impl Fn(u32) -> u32 + Sync,
        ) -> KmerGenOutput<K::Tuple> {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let run = RunCtx {
                cfg: &PipelineConfig::default(),
                source: &self.source,
                fastqpart: &self.fp,
                plan: &self.plan,
                buckets: self.buckets.clone(),
                filter,
                simd: backend,
            };
            let all_chunks: Vec<usize> = (0..self.fp.len()).collect();
            kmergen_pass::<K>(&pool, &run, &all_chunks, (pass, rank), recycled, read_label)
        }
    }

    fn store() -> ReadStore {
        let mut s = ReadStore::new();
        let mut x = 7u64;
        for _ in 0..40 {
            let seq: Vec<u8> = (0..60)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    b"ACGT"[(x >> 61) as usize & 3]
                })
                .collect();
            s.push_pair(&seq[..30], &seq[30..]);
        }
        s
    }

    /// `store()` with its first 30 pairs three more times: their k-mers
    /// occur four times, the rest once, so a threshold of 2 drops > 90 %.
    fn store_mostly_frequent() -> ReadStore {
        let mut s = store();
        for _ in 0..3 {
            for i in 0..30 {
                let (a, b) = (s.seq(2 * i).to_vec(), s.seq(2 * i + 1).to_vec());
                s.push_pair(&a, &b);
            }
        }
        s
    }

    /// Exact k-mer counts behind a sketch generous enough to be exact too,
    /// keyed as IndexCreate keys them.
    fn exact_filter<K: PipelineKmer>(s: &ReadStore, k: usize, threshold: u32) -> HighFreqFilter {
        let mut sketch = SketchParams::default().build();
        for (seq, _) in s.iter() {
            for_each_canonical_kmer::<K>(seq, k, |v, _| sketch.add(K::sketch_key(v)));
        }
        HighFreqFilter::new(sketch, threshold)
    }

    fn setup(k: usize, passes: usize, tasks: usize) -> Setup {
        Setup::new(store(), k, 6, (passes, tasks, 2))
    }

    #[test]
    fn all_tuples_emitted_across_passes_and_tasks() {
        let su = setup(11, 2, 3);
        let mut total = 0u64;
        for pass in 0..2 {
            let out = su.kmergen::<Kmer64>(2, pass, None, |r| r);
            total += out.outgoing.iter().map(|v| v.len() as u64).sum::<u64>();
        }
        assert_eq!(total, su.fp.total());
    }

    #[test]
    fn tuples_land_in_owner_range() {
        let su = setup(11, 1, 4);
        let out = su.kmergen::<Kmer64>(1, 0, None, |r| r);
        for (q, buf) in out.outgoing.iter().enumerate() {
            let (lo, hi) = su.plan.task_range(0, q);
            for t in buf {
                let v = t.kmer as u128;
                assert!(v >= lo && v < hi, "task {q}: kmer out of range");
            }
        }
    }

    #[test]
    fn expected_incoming_matches_actual() {
        let su = setup(11, 2, 3);
        for pass in 0..2 {
            let out = su.kmergen::<Kmer64>(2, pass, None, |r| r);
            for q in 0..3 {
                assert_eq!(
                    out.outgoing[q].len() as u64,
                    expected_incoming(&su.fp, &su.plan, pass, q),
                    "pass {pass} task {q}"
                );
            }
        }
    }

    #[test]
    fn read_label_substitution_applies() {
        let su = setup(11, 1, 1);
        // Map every read to label 0 (as an extreme LocalCC-Opt would).
        let out = su.kmergen::<Kmer64>(1, 0, None, |_| 0);
        assert!(out.outgoing[0].iter().all(|t| t.read == 0));
    }

    /// What `kmergen_pass` must produce for destination `q`: enumerate the
    /// chunks in order, keep what the pass, the task and the filter let
    /// through, and stable-partition it by sort bucket.
    fn reference_outgoing(
        su: &Setup,
        k: usize,
        pass: usize,
        q: usize,
        filter: Option<&HighFreqFilter>,
    ) -> Vec<KmerReadTuple> {
        let slots = su.buckets.task_slots(pass, q);
        let mut tuples = Vec::new();
        for (seq, frag) in su.reads.iter() {
            for_each_canonical_kmer::<Kmer64>(seq, k, |v, _| {
                let slot = su.buckets.slot_of_bin()[su.fp.space().bin_of(v as u128) as usize];
                let slot = slot as usize;
                if slots.contains(&slot) && !filter.is_some_and(|f| f.drops(v)) {
                    tuples.push((slot, KmerReadTuple::new(v, frag)));
                }
            });
        }
        tuples.sort_by_key(|&(slot, _)| slot); // stable
        tuples.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn output_is_the_stable_partition_by_bucket_of_the_enumeration() {
        let k = 11;
        // The owned-k-mer kernel of each pass on its vector backend where
        // the CPU runs one, and its scalar form.
        for (backend, reads) in simd::available_backends()
            .into_iter()
            .flat_map(|b| [(b, store()), (b, store_mostly_frequent())])
        {
            let filter = exact_filter::<Kmer64>(&reads, k, 2);
            for (tasks, threads) in [(1, 1), (1, 3), (3, 1), (3, 3)] {
                // `threads` is both the plan's T (buckets nest in thread
                // sub-ranges) and the pool size (chunks emit concurrently).
                let su = Setup::new(reads.clone(), k, 5, (2, tasks, threads));
                for filter in [None, Some(&filter)] {
                    let (mut emitted, mut dropped) = (0, 0);
                    for pass in 0..2 {
                        let out = su.kmergen_on::<Kmer64>(backend, threads, pass, filter, |r| r);
                        for (q, got) in out.outgoing.iter().enumerate() {
                            let want = reference_outgoing(&su, k, pass, q, filter);
                            assert_eq!(
                                got, &want,
                                "{backend}: P={tasks} T={threads} pass {pass} dest {q}"
                            );
                            // Compaction left no gap: the buffer was sized
                            // for the histogram's upper bound.
                            assert!(
                                got.capacity() as u64
                                    >= expected_incoming(&su.fp, &su.plan, pass, q)
                            );
                        }
                        emitted += out.outgoing.iter().map(|v| v.len() as u64).sum::<u64>();
                        dropped += out.dropped;
                    }
                    assert_eq!(emitted + dropped, su.fp.total(), "conservation");
                    match filter {
                        // The per-chunk `emitted + dropped == enumerated`
                        // check is a debug assert inside `kmergen_pass`.
                        Some(_) if su.reads.len() > 80 => assert!(dropped > su.fp.total() / 2),
                        Some(_) => {}
                        None => assert_eq!(dropped, 0),
                    }
                }
            }
        }
    }

    /// The filter path as it was, one branch per k-mer: each chunk's reads
    /// in order, a k-mer of another pass skipped, one the filter drops
    /// counted, and the rest appended to their (slot, chunk) window.
    /// Returns the windows, `[slot - first slot of the pass][chunk]`, and
    /// the count dropped.
    #[allow(clippy::type_complexity)]
    fn per_kmer_windows<K: PipelineKmer>(
        su: &Setup,
        pass: usize,
        filter: &HighFreqFilter,
    ) -> (Vec<Vec<Vec<K::Tuple>>>, u64) {
        let (k, space) = (su.plan.k(), su.fp.space());
        let slots = su.buckets.pass_slots(pass);
        let mut windows = vec![vec![Vec::new(); su.fp.len()]; slots.len()];
        let mut dropped = 0;
        for (c, chunk) in su.fp.chunks().iter().enumerate() {
            let lo = chunk.spec.first_seq as usize;
            for i in lo..lo + chunk.spec.seqs as usize {
                let frag = su.reads.frag_id(i);
                for_each_canonical_kmer::<K>(su.reads.seq(i), k, |v, _| {
                    let bin = space.bin_of(K::repr_to_u128(v));
                    let slot = su.buckets.slot_of_bin()[bin as usize] as usize;
                    if !slots.contains(&slot) {
                        return;
                    }
                    if filter.drops(K::sketch_key(v)) {
                        dropped += 1;
                        return;
                    }
                    windows[slot - slots.start][c].push(K::make_tuple(v, frag));
                });
            }
        }
        (windows, dropped)
    }

    /// `pairs` random pairs of `len`-base mates, then the first three
    /// quarters of them three more times: their k-mers occur four times,
    /// the rest about once.
    fn store_with_repeats(pairs: usize, len: usize) -> ReadStore {
        let mut s = ReadStore::new();
        let mut x = 11u64;
        let mut mate = || -> Vec<u8> {
            (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    b"ACGT"[(x >> 61) as usize & 3]
                })
                .collect()
        };
        let reads: Vec<(Vec<u8>, Vec<u8>)> = (0..pairs).map(|_| (mate(), mate())).collect();
        for (a, b) in &reads {
            s.push_pair(a, b);
        }
        for _ in 0..3 {
            for (a, b) in &reads[..pairs * 3 / 4] {
                s.push_pair(a, b);
            }
        }
        s
    }

    /// [`the_branch_free_filter_path_matches_the_per_kmer_oracle`] at one
    /// width.
    fn filter_path_matches_oracle<K: PipelineKmer>(reads: &ReadStore, k: usize)
    where
        K::Tuple: PartialEq + std::fmt::Debug,
    {
        let mut backends = vec![Backend::Scalar, simd::active()];
        backends.dedup();
        let tasks = 2;
        for passes in [1, 3] {
            let su = Setup::new(reads.clone(), k, 5, (passes, tasks, 2));
            // Thresholds that drop none, some and all of the k-mers.
            for threshold in [u32::MAX, 2, 0] {
                let filter = exact_filter::<K>(reads, k, threshold);
                for &backend in &backends {
                    let mut dropped_total = 0;
                    for pass in 0..passes {
                        let at = format!("k={k} {backend} S={passes} t={threshold} pass {pass}");
                        let out = su.kmergen_on::<K>(backend, 2, pass, Some(&filter), |r| r);
                        let (windows, dropped) = per_kmer_windows::<K>(&su, pass, &filter);
                        assert_eq!(out.dropped, dropped, "{at}");
                        dropped_total += dropped;
                        let base = su.buckets.pass_slots(pass).start;
                        for (q, got) in out.outgoing.iter().enumerate() {
                            // Bucket-major, chunk-minor: the windows of q's
                            // slots in layout order, gaps closed.
                            let want: Vec<K::Tuple> = su
                                .buckets
                                .task_slots(pass, q)
                                .flat_map(|s| windows[s - base].iter().flatten().copied())
                                .collect();
                            assert_eq!(got, &want, "{at} dest {q}");
                        }
                    }
                    let total = su.fp.total();
                    match threshold {
                        u32::MAX => assert_eq!(dropped_total, 0, "k={k}"),
                        0 => assert_eq!(dropped_total, total, "k={k}"),
                        _ => assert!(0 < dropped_total && dropped_total < total, "k={k}"),
                    }
                }
            }
        }
    }

    #[test]
    fn the_branch_free_filter_path_matches_the_per_kmer_oracle() {
        // Mates of 70 bases hold k = 63 k-mers too.
        let reads = store_with_repeats(24, 70);
        for k in [21, 31] {
            filter_path_matches_oracle::<Kmer64>(&reads, k);
        }
        filter_path_matches_oracle::<Kmer128>(&reads, 63);
    }

    #[test]
    fn a_pass_that_owns_no_bins_emits_nothing() {
        // Eight k-mers cut into sixteen passes: the split puts no bin in
        // the first pass, and several passes own bins but no k-mer.
        let mut reads = ReadStore::new();
        reads.push_pair(b"ACGTTGCAAGCTAG", b"TTGACCGTAGGCAT");
        let su = Setup::new(reads, 11, 1, (16, 1, 1));
        assert!(su.buckets.pass_slots(0).is_empty(), "pass 0 owns a bin");
        let mut emitted = 0;
        for backend in simd::available_backends() {
            for pass in 0..16 {
                let out = su.kmergen_on::<Kmer64>(backend, 1, pass, None, |r| r);
                assert_eq!(out.outgoing[0], reference_outgoing(&su, 11, pass, 0, None));
                assert!(pass > 0 || out.outgoing[0].is_empty());
                emitted += out.outgoing[0].len() as u64;
            }
        }
        let backends = simd::available_backends().len() as u64;
        assert_eq!(emitted, su.fp.total() * backends);
    }

    #[test]
    fn the_self_addressed_part_is_built_in_the_recycled_buffer() {
        // Task 1 of 3: its own part has room for everything it receives,
        // in the recycled buffer when that is big enough and in a fresh one
        // when not; the other parts are exact. The bytes never change.
        let su = setup(11, 2, 3);
        for pass in 0..2 {
            let incoming = expected_incoming(&su.fp, &su.plan, pass, 1) as usize;
            let roomy: Vec<KmerReadTuple> = vec![KmerReadTuple::new(9, 9); incoming + 3];
            let roomy_at = roomy.as_ptr();
            for (recycled, reused) in [(roomy, true), (vec![KmerReadTuple::default(); 2], false)] {
                let at = (simd::active(), (pass, 1));
                let out = su.kmergen_as::<Kmer64>(2, at, recycled, None, |r| r);
                for (q, got) in out.outgoing.iter().enumerate() {
                    assert_eq!(got, &reference_outgoing(&su, 11, pass, q, None));
                    if q != 1 {
                        assert_eq!(got.capacity(), got.len(), "dest {q}");
                    }
                }
                // A fresh buffer is sized for the receive count; the pointer
                // alone cannot tell, as it may land where `roomy` was freed.
                let own = &out.outgoing[1];
                if reused {
                    assert_eq!((own.as_ptr(), own.capacity()), (roomy_at, incoming + 3));
                } else {
                    assert_eq!(own.capacity(), incoming, "pass {pass}");
                }
            }
        }
    }

    #[test]
    fn filter_drops_frequent_kmers_and_conserves_counts() {
        use std::collections::HashMap;

        // The random store plus a handful of duplicated reads, so some
        // k-mers are genuinely frequent and a threshold of 2 has teeth.
        let mut s = store();
        let hot: Vec<u8> = b"ACGT".iter().cycle().take(60).copied().collect();
        for _ in 0..5 {
            s.push_pair(&hot[..30], &hot[30..]);
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for (seq, _) in s.iter() {
            for_each_canonical_kmer::<Kmer64>(seq, 11, |v, _| {
                *truth.entry(v).or_insert(0) += 1;
            });
        }
        let threshold = 2u32;
        let filter = exact_filter::<Kmer64>(&s, 11, threshold);
        assert!(
            truth.values().any(|&c| c > u64::from(threshold)),
            "test input must contain a frequent k-mer"
        );
        let su = Setup::new(s, 11, 6, (2, 3, 2));

        let mut emitted = 0u64;
        let mut dropped = 0u64;
        for pass in 0..2 {
            let out = su.kmergen::<Kmer64>(2, pass, Some(&filter), |r| r);
            emitted += out.outgoing.iter().map(|v| v.len() as u64).sum::<u64>();
            dropped += out.dropped;
            // No surviving tuple's k-mer may be truly frequent: estimates
            // never under-count, so a frequent value always drops.
            for buf in &out.outgoing {
                for t in buf {
                    assert!(
                        truth[&{ t.kmer }] <= u64::from(threshold),
                        "frequent kmer survived"
                    );
                }
            }
        }
        assert!(dropped > 0, "filter should have dropped something");
        assert_eq!(emitted + dropped, su.fp.total(), "conservation");
    }

    #[test]
    #[should_panic] // re-raised by the pool under its own message
    fn a_histogram_that_undercounts_aborts_the_emit() {
        // The per-write window bound: a chunk histogram that misses a
        // k-mer must stop the run before the writer leaves its window.
        let mut su = setup(11, 1, 2);
        let mut rows = su.fp.chunks().to_vec();
        let bin = rows[0].hist.iter().position(|&n| n > 0).unwrap();
        rows[0].hist[bin] -= 1;
        su.fp = FastqPart::from_parts(su.fp.space(), rows);
        su.kmergen::<Kmer64>(1, 0, None, |r| r);
    }

    #[test]
    fn kmer128_path_works() {
        let su = Setup::new(store(), 35, 4, (1, 2, 2));
        let out = su.kmergen::<Kmer128>(1, 0, None, |r| r);
        let total: u64 = out.outgoing.iter().map(|v| v.len() as u64).sum();
        assert_eq!(total, su.fp.total());
    }
}
