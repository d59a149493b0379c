//! KmerGen: per-task tuple enumeration (paper §3.2).

use crate::pipeline::RunCtx;
use crate::source::ChunkSource;
use metaprep_index::{FastqPart, RangePlan};
use metaprep_kmer::{
    fold_kmer_key, for_each_canonical_kmer, Kmer, Kmer128, Kmer64, KmerReadTuple, KmerReadTuple128,
};
use metaprep_sort::Keyed;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Glue between a k-mer width and its pipeline tuple type.
pub trait PipelineKmer: Kmer {
    /// The `(k-mer, read id)` tuple carried through comm/sort/CC.
    type Tuple: Keyed<Key = <Self as Kmer>::Repr> + Default + Copy + Send + Sync + 'static;
    /// Packed tuple size in the paper's representation (12 or 20 bytes).
    const PACKED_TUPLE_BYTES: usize;

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
    const PACKED_TUPLE_BYTES: usize = KmerReadTuple::PACKED_BYTES;

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
    const PACKED_TUPLE_BYTES: usize = KmerReadTuple128::PACKED_BYTES;

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
    /// `outgoing[q]` — tuples destined for task `q`, in chunk order.
    pub outgoing: Vec<Vec<T>>,
    /// Simulated FASTQ-chunk load time ("KmerGen-I/O"): the time spent
    /// copying chunk bytes into thread-local buffers, CPU-time summed
    /// across threads.
    pub io_nanos: u64,
    /// Enumeration time, CPU-time summed across threads.
    pub gen_nanos: u64,
    /// K-mer occurrences dropped by the presolve filter before any tuple
    /// was materialized (0 without a filter). Conservation:
    /// `sum(outgoing) + dropped == enumerated`.
    pub dropped: u64,
}

/// Enumerate this task's tuples for `pass`.
///
/// * `my_chunks` — chunk indices this task owns;
/// * `read_label` — identity for plain LocalCC; the task's current
///   `Find(read)` for LocalCC-Opt passes (paper §3.5.1).
///
/// Per-destination buffers are preallocated to their *exact* sizes computed
/// from the `FASTQPart` chunk histograms (the paper's offset precomputation,
/// §3.2.2) — an assertion checks the histogram arithmetic agrees with the
/// enumeration.
pub(crate) fn kmergen_pass<K: PipelineKmer, S: ChunkSource>(
    pool: &rayon::ThreadPool,
    run: &RunCtx<'_, S>,
    my_chunks: &[usize],
    pass: usize,
    read_label: impl Fn(u32) -> u32 + Sync,
) -> KmerGenOutput<K::Tuple> {
    use rayon::prelude::*;

    let (source, fastqpart, plan, filter) = (run.source, run.fastqpart, run.plan, run.filter);
    let bin_owner = &run.bin_owner;
    let tasks = plan.tasks();
    let k = plan.k();
    let space = fastqpart.space();
    debug_assert_eq!(space.k(), k);
    let io_nanos = AtomicU64::new(0);
    let gen_nanos = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);

    let per_chunk: Vec<Vec<Vec<K::Tuple>>> = pool.install(|| {
        my_chunks
            .par_iter()
            .map(|&c| {
                // Chunk load (KmerGen-I/O): a copy from the in-memory store
                // (MemorySource) or a real seek+read+parse from the FASTQ
                // file (FileSource) — either way, into this thread's
                // FASTQBuffer.
                let t_io = Instant::now();
                let buffer = source.load_chunk(c);
                // ORDERING: Relaxed — profiling counter, summed after join.
                io_nanos.fetch_add(t_io.elapsed().as_nanos() as u64, Ordering::Relaxed);

                let t_gen = Instant::now();
                let mut bufs: Vec<Vec<K::Tuple>> = (0..tasks)
                    .map(|q| {
                        let (blo, bhi) = plan.task_bin_range(pass, q);
                        Vec::with_capacity(fastqpart.chunk_count_in_bins(c, blo, bhi) as usize)
                    })
                    .collect();
                let mut dropped_per_dest = vec![0u64; tasks];
                for (seq, frag) in &buffer {
                    let label = read_label(*frag);
                    for_each_canonical_kmer::<K>(seq, k, |v, _| {
                        let bin = space.bin_of(K::repr_to_u128(v));
                        let owner = bin_owner[bin as usize] as usize;
                        if owner / tasks == pass {
                            let dest = owner % tasks;
                            if let Some(f) = filter {
                                if f.drops(K::sketch_key(v)) {
                                    dropped_per_dest[dest] += 1;
                                    return;
                                }
                            }
                            bufs[dest].push(K::make_tuple(v, label));
                        }
                    });
                }
                // ORDERING: Relaxed — profiling counter, summed after join.
                gen_nanos.fetch_add(t_gen.elapsed().as_nanos() as u64, Ordering::Relaxed);

                // The index-table arithmetic must match the enumeration:
                // every histogram-counted k-mer was either emitted or
                // filter-dropped, never lost.
                for (q, b) in bufs.iter().enumerate() {
                    let (blo, bhi) = plan.task_bin_range(pass, q);
                    debug_assert_eq!(
                        b.len() as u64 + dropped_per_dest[q],
                        fastqpart.chunk_count_in_bins(c, blo, bhi),
                        "chunk {c} dest {q}: histogram disagrees with enumeration"
                    );
                }
                // ORDERING: Relaxed — conservation counter, summed after join.
                dropped.fetch_add(dropped_per_dest.iter().sum::<u64>(), Ordering::Relaxed);
                bufs
            })
            .collect()
    });

    // Concatenate per destination, in chunk order (stable).
    let mut outgoing: Vec<Vec<K::Tuple>> = (0..tasks).map(|_| Vec::new()).collect();
    for (q, out) in outgoing.iter_mut().enumerate() {
        let total: usize = per_chunk.iter().map(|b| b[q].len()).sum();
        out.reserve_exact(total);
        for bufs in &per_chunk {
            out.extend_from_slice(&bufs[q]);
        }
    }

    KmerGenOutput {
        outgoing,
        io_nanos: io_nanos.into_inner(),
        gen_nanos: gen_nanos.into_inner(),
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
    use crate::source::MemorySource;
    use metaprep_index::MerHist;
    use metaprep_io::ReadStore;
    use metaprep_norm::HighFreqFilter;

    /// One task owning every chunk runs KmerGen for `pass` on `threads`.
    fn run_kmergen<K: PipelineKmer>(
        s: &ReadStore,
        fp: &FastqPart,
        plan: &RangePlan,
        threads: usize,
        pass: usize,
        filter: Option<&HighFreqFilter>,
        read_label: impl Fn(u32) -> u32 + Sync,
    ) -> KmerGenOutput<K::Tuple> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let src = MemorySource::new(s, fp.chunks().iter().map(|r| r.spec).collect());
        let cfg = PipelineConfig::default();
        let run = RunCtx {
            cfg: &cfg,
            source: &src,
            fastqpart: fp,
            plan,
            bin_owner: plan.bin_owner_table(),
            filter,
        };
        let all_chunks: Vec<usize> = (0..fp.len()).collect();
        kmergen_pass::<K, _>(&pool, &run, &all_chunks, pass, read_label)
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

    fn setup(k: usize, passes: usize, tasks: usize) -> (ReadStore, FastqPart, RangePlan) {
        let s = store();
        let mh = MerHist::build(&s, k, 4);
        let fp = FastqPart::build(&s, 6, k, 4);
        let plan = RangePlan::build(&mh, passes, tasks, 2);
        (s, fp, plan)
    }

    #[test]
    fn all_tuples_emitted_across_passes_and_tasks() {
        let (s, fp, plan) = setup(11, 2, 3);
        let mut total = 0u64;
        for pass in 0..2 {
            let out = run_kmergen::<Kmer64>(&s, &fp, &plan, 2, pass, None, |r| r);
            total += out.outgoing.iter().map(|v| v.len() as u64).sum::<u64>();
        }
        assert_eq!(total, fp.total());
    }

    #[test]
    fn tuples_land_in_owner_range() {
        let (s, fp, plan) = setup(11, 1, 4);
        let out = run_kmergen::<Kmer64>(&s, &fp, &plan, 1, 0, None, |r| r);
        for (q, buf) in out.outgoing.iter().enumerate() {
            let (lo, hi) = plan.task_range(0, q);
            for t in buf {
                let v = t.kmer as u128;
                assert!(v >= lo && v < hi, "task {q}: kmer out of range");
            }
        }
    }

    #[test]
    fn expected_incoming_matches_actual() {
        let (s, fp, plan) = setup(11, 2, 3);
        for pass in 0..2 {
            let out = run_kmergen::<Kmer64>(&s, &fp, &plan, 2, pass, None, |r| r);
            for q in 0..3 {
                assert_eq!(
                    out.outgoing[q].len() as u64,
                    expected_incoming(&fp, &plan, pass, q),
                    "pass {pass} task {q}"
                );
            }
        }
    }

    #[test]
    fn read_label_substitution_applies() {
        let (s, fp, plan) = setup(11, 1, 1);
        // Map every read to label 0 (as an extreme LocalCC-Opt would).
        let out = run_kmergen::<Kmer64>(&s, &fp, &plan, 1, 0, None, |_| 0);
        assert!(out.outgoing[0].iter().all(|t| t.read == 0));
    }

    #[test]
    fn filter_drops_frequent_kmers_and_conserves_counts() {
        use metaprep_norm::SketchParams;
        use std::collections::HashMap;

        // The random store plus a handful of duplicated reads, so some
        // k-mers are genuinely frequent and a threshold of 2 has teeth.
        let mut s = store();
        let hot: Vec<u8> = b"ACGT".iter().cycle().take(60).copied().collect();
        for _ in 0..5 {
            s.push_pair(&hot[..30], &hot[30..]);
        }
        let mh = MerHist::build(&s, 11, 4);
        let fp = FastqPart::build(&s, 6, 11, 4);
        let plan = RangePlan::build(&mh, 2, 3, 2);

        // Exact truth and a generous sketch over the same enumeration.
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut sketch = SketchParams::default().build();
        for (seq, _) in s.iter() {
            for_each_canonical_kmer::<Kmer64>(seq, 11, |v, _| {
                *truth.entry(v).or_insert(0) += 1;
                sketch.add(v);
            });
        }
        let threshold = 2u32;
        let filter = HighFreqFilter::new(sketch, threshold);
        assert!(
            truth.values().any(|&c| c > u64::from(threshold)),
            "test input must contain a frequent k-mer"
        );

        let mut emitted = 0u64;
        let mut dropped = 0u64;
        for pass in 0..2 {
            let out = run_kmergen::<Kmer64>(&s, &fp, &plan, 2, pass, Some(&filter), |r| r);
            emitted += out.outgoing.iter().map(|v| v.len() as u64).sum::<u64>();
            dropped += out.dropped;
            // No surviving tuple's k-mer may be truly frequent: estimates
            // never under-count, so a frequent value always drops.
            for buf in &out.outgoing {
                for t in buf {
                    assert!(
                        truth[&t.kmer] <= u64::from(threshold),
                        "frequent kmer survived"
                    );
                }
            }
        }
        assert!(dropped > 0, "filter should have dropped something");
        assert_eq!(emitted + dropped, fp.total(), "conservation");
    }

    #[test]
    fn kmer128_path_works() {
        let (s, fp, plan) = {
            let s = store();
            let mh = MerHist::build(&s, 35, 4);
            let fp = FastqPart::build(&s, 4, 35, 4);
            let plan = RangePlan::build(&mh, 1, 2, 2);
            (s, fp, plan)
        };
        let out = run_kmergen::<Kmer128>(&s, &fp, &plan, 1, 0, None, |r| r);
        let total: u64 = out.outgoing.iter().map(|v| v.len() as u64).sum();
        assert_eq!(total, fp.total());
    }
}
