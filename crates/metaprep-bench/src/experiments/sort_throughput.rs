//! §4.2.2 — LocalSort throughput: fused receive-side path vs the unfused
//! reference, plus the paper's comparison against a state-of-the-art
//! parallel radix sort.
//!
//! Five measurements:
//!
//! 1. **Fused vs reference LocalSort** on a pipeline-realistic receive-side
//!    workload: per-sender message buffers as they come out of the
//!    all-to-all, keys with metagenome-like abundance skew (a few dominant
//!    genomes concentrate most tuples in narrow key windows — the regime
//!    where sub-range bit pruning bites, cf. DESIGN.md §7.2), mass-balanced
//!    sub-range boundaries like the plan's. The fused path
//!    ([`metaprep_sort::fused_local_sort`]) scatters straight from the
//!    parts and prunes radix passes; the reference path is the old
//!    pipeline: concat → partition → full per-range radix. Both results
//!    are asserted byte-identical every round, and the numbers go to
//!    `BENCH_sort.json` (or `METAPREP_BENCH_OUT`) for the perf trajectory.
//! 2. The same pair on an **out-of-cache** case: one sender, one range,
//!    [`LARGE_TUPLES`] uniform keys whatever the scale — the shape of a
//!    single-task single-pass run, where the reference streams the whole
//!    range through DRAM once per digit and the fused path's cache-sized
//!    buckets do not (`large_fused_over_reference`). The smoke-scale case
//!    above fits in L2 and cannot see that difference.
//! 3. **Bucketed vs fused** on the same out-of-cache size, from one sender
//!    and from four: the pipeline's LocalSort
//!    ([`metaprep_sort::bucketed_local_sort`]) gets the parts as KmerGen
//!    emits them — grouped by sort bucket — and only gathers and sorts;
//!    the fused entry gets the same tuples ungrouped and pays its
//!    histogram + scatter pass first. `bucketed_over_fused` is the smaller
//!    of the two throughput ratios; outputs are asserted byte-identical.
//! 4. **In one bucket**: one [`BUCKET_TUPLES`]-tuple bucket, repeated in
//!    [`BUCKET_COPIES`] key intervals, sorted [`BUCKET_ROUNDS`] times on one
//!    thread by the pipeline's LocalSort (adopt the part, then per bucket
//!    sweep and sort in cache) and by what it ran before (per bucket the
//!    same sweep, then the pruned LSB radix of every tuple), rounds
//!    alternating which goes first; the ratio is the median over rounds of
//!    the round's ratio. MM-shaped keys (≈ 7 copies of each k-mer, in
//!    emission order) give `rank_over_radix_dup`; all-distinct keys, the
//!    adverse case, give `rank_over_radix_distinct`.
//! 5. The paper's §4.2.2 table: LocalSort vs our fully-parallel stable
//!    LSB radix sort (the NUMA-aware-sort stand-in) vs `sort_unstable`.
//!
//! Peak memory is the [`crate::allocpeak`] high-water delta per timed
//! region when the experiment binary installs the tracking allocator
//! (`exp_sort_throughput` does; `exp_all` does not, and the JSON then
//! marks allocator numbers absent).

use crate::allocpeak;
use crate::harness::{print_table, write_artifact};
use metaprep_kmer::KmerReadTuple;
use metaprep_sort::{
    bucketed_local_sort, equal_boundaries_by_sample, fused_local_sort, local_sort,
    local_sort_with_boundaries, lsb_radix_sort_pruned, parallel_lsb_sort, PassBuffers, RadixStats,
    BUCKET_BYTES,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::time::Instant;

/// Simulated all-to-all senders (`P`).
const SENDERS: usize = 8;
/// Sub-ranges per task (`T`).
const RANGES: usize = 8;
/// Radix digit width (the paper's 8).
const DIGIT_BITS: u32 = 8;
/// Meaningful key bits (27-mers: 2k = 54).
const KEY_BITS: u32 = 54;
/// Timed rounds per path — several, so the pooled buffers' recycling
/// (allocate once, reuse every pass) shows up the way it does across the
/// pipeline's passes.
const ROUNDS: usize = 4;
/// Tuples of the out-of-cache case (64 MiB of tuples), fixed so the smoke
/// run measures it too, and its timed rounds.
const LARGE_TUPLES: usize = 1 << 22;
const LARGE_ROUNDS: usize = 2;
/// Abundance clusters ("dominant genomes") and their share of the tuples.
const CLUSTERS: usize = 2;
const CLUSTER_SHARE_PCT: u64 = 85;
/// Width of each abundant cluster's k-mer window, in bits.
const CLUSTER_WINDOW_BITS: u32 = 16;
/// One production bucket of packed 27-mer tuples (21 845); the copies of it
/// one timed round sorts (8.4 MB, so each comes from DRAM as a pipeline
/// bucket does), and the timed rounds per side.
const BUCKET_TUPLES: usize = BUCKET_BYTES / std::mem::size_of::<KmerReadTuple>();
const BUCKET_COPIES: usize = 32;
const BUCKET_ROUNDS: usize = 20;
/// Tuples per distinct k-mer in the MM-shaped bucket: `mm_1x1_s1` emits
/// 8.03 M tuples of at most ≈ 1.1 M distinct 27-mers.
const MM_COPIES: usize = 7;
/// Key bits that vary inside one bucket: the plan's buckets are runs of
/// m-mer bins, so the top bits are shared and 6 of the 7 digit windows run
/// (`mm_1x1_s1`: 3 069 over 494 buckets).
const BUCKET_VARYING_BITS: u32 = 48;

/// The receive side of one task-pass: per-sender tuple buffers with
/// metagenome-like skew. One task deep in an `S·P·T` hierarchy sees a
/// window of the k-mer space dominated by the abundant genomes' repeated
/// k-mers — most tuple mass sits in a couple of narrow key clusters, the
/// rest is uniform background. Mass-balanced sub-range boundaries then
/// subdivide the clusters, making the hot sub-ranges numerically narrow —
/// the regime where per-sub-range bit pruning pays.
fn receive_side_parts(n: usize, seed: u64) -> Vec<Vec<KmerReadTuple>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mask54 = (1u64 << KEY_BITS) - 1;
    let centers: Vec<u64> = (0..CLUSTERS)
        .map(|_| rng.gen::<u64>() & mask54 & !((1u64 << CLUSTER_WINDOW_BITS) - 1))
        .collect();
    let per_sender = n / SENDERS;
    (0..SENDERS)
        .map(|s| {
            (0..per_sender)
                .map(|i| {
                    let key = if rng.gen_range(0..100u64) < CLUSTER_SHARE_PCT {
                        let c = centers[rng.gen_range(0..CLUSTERS)];
                        c | (rng.gen::<u64>() & ((1u64 << CLUSTER_WINDOW_BITS) - 1))
                    } else {
                        rng.gen::<u64>() & mask54
                    };
                    KmerReadTuple::new(key, (s * per_sender + i) as u32)
                })
                .collect()
        })
        .collect()
}

struct PathResult {
    secs: f64,
    mtuples_per_s: f64,
    peak_alloc: Option<usize>,
    stats: RadixStats,
}

/// One sender, one range, uniform 54-bit keys: what a single task with a
/// single thread receives in a one-pass run.
fn single_range_parts(n: usize, seed: u64) -> Vec<Vec<KmerReadTuple>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mask54 = (1u64 << KEY_BITS) - 1;
    vec![(0..n)
        .map(|i| KmerReadTuple::new(rng.gen::<u64>() & mask54, i as u32))
        .collect()]
}

/// Time `rounds` rounds of the reference path (concat → partition → full
/// per-range radix) and of the fused path over the same `parts`, asserting
/// the outputs byte-identical every round. Returns `(fused, reference)`.
fn fused_vs_reference(
    parts: &[Vec<KmerReadTuple>],
    boundaries: &[u64],
    rounds: usize,
) -> (PathResult, PathResult) {
    let n = parts.iter().map(Vec::len).sum::<usize>();

    // Both paths get one untimed warm-up round: the pipeline runs S passes
    // per task with pooled buffers, so steady-state per-pass cost is the
    // quantity of interest — not the one-time first-touch page faults of a
    // cold allocator, which on this box cost as much as the scatter
    // itself. The reference warm-up warms the allocator's free lists the
    // same way its per-pass reallocations do mid-pipeline.
    {
        let mut tuples: Vec<KmerReadTuple> = Vec::with_capacity(n);
        for p in parts {
            tuples.extend_from_slice(p);
        }
        let mut scratch = vec![KmerReadTuple::default(); n];
        local_sort_with_boundaries(&mut tuples, &mut scratch, boundaries, DIGIT_BITS, KEY_BITS);
    }

    // --- reference: concat -> partition -> full per-range radix ---------
    let mut ref_secs = 0.0;
    let mut ref_peak: Option<usize> = allocpeak::installed().then_some(0);
    let mut ref_sorted: Vec<KmerReadTuple> = Vec::new();
    for _ in 0..rounds {
        allocpeak::reset_peak();
        let before = allocpeak::peak_bytes();
        let t0 = Instant::now();
        let mut tuples: Vec<KmerReadTuple> = Vec::with_capacity(n);
        for p in parts {
            tuples.extend_from_slice(p);
        }
        let mut scratch = vec![KmerReadTuple::default(); tuples.len()];
        local_sort_with_boundaries(&mut tuples, &mut scratch, boundaries, DIGIT_BITS, KEY_BITS);
        drop(scratch);
        ref_secs += t0.elapsed().as_secs_f64();
        if let Some(p) = ref_peak.as_mut() {
            *p = (*p).max(allocpeak::peak_bytes() - before);
        }
        ref_sorted = tuples;
    }
    // Every nonempty sub-range pays ceil(54 / bits) passes (a full
    // counting scan each; identity passes skip only the scatter half).
    let nonempty = {
        let mut dst = vec![KmerReadTuple::default(); n];
        let offs = metaprep_sort::partition_by_ranges(&ref_sorted, &mut dst, boundaries);
        offs.windows(2).filter(|w| w[1] - w[0] > 1).count()
    };
    let ref_stats = RadixStats {
        passes_run: (rounds * nonempty) as u64 * u64::from(KEY_BITS.div_ceil(DIGIT_BITS)),
        passes_pruned: 0,
    };
    let reference = PathResult {
        secs: ref_secs,
        mtuples_per_s: (n * rounds) as f64 / ref_secs / 1e6,
        peak_alloc: ref_peak,
        stats: ref_stats,
    };

    // --- fused: scatter-on-receive + in-cache radix, pooled buffers -----
    let mut bufs: PassBuffers<KmerReadTuple> = PassBuffers::new();
    // Untimed warm-up round: populates the pooled buffers once, as the
    // pipeline's first pass does (see the comment above the reference
    // warm-up).
    fused_local_sort(parts.to_vec(), &mut bufs, boundaries, DIGIT_BITS, KEY_BITS);
    let mut fused_secs = 0.0;
    let mut fused_peak: Option<usize> = allocpeak::installed().then_some(0);
    let mut fused_stats = RadixStats::default();
    for round in 0..rounds {
        // The pipeline gets the parts from the all-to-all for free; the
        // clone standing in for them stays outside the timed region.
        let round_parts = parts.to_vec();
        allocpeak::reset_peak();
        let before = allocpeak::peak_bytes();
        let t0 = Instant::now();
        let res = fused_local_sort(round_parts, &mut bufs, boundaries, DIGIT_BITS, KEY_BITS);
        fused_secs += t0.elapsed().as_secs_f64();
        if let Some(p) = fused_peak.as_mut() {
            *p = (*p).max(allocpeak::peak_bytes() - before);
        }
        fused_stats = fused_stats.merged(res.stats);
        assert_eq!(
            bufs.sorted(),
            &ref_sorted[..],
            "fused LocalSort diverged from the reference path (round {round})"
        );
    }
    let fused = PathResult {
        secs: fused_secs,
        mtuples_per_s: (n * rounds) as f64 / fused_secs / 1e6,
        peak_alloc: fused_peak,
        stats: fused_stats,
    };
    (fused, reference)
}

/// Time `LARGE_ROUNDS` warm rounds of the fused entry over `senders`
/// ungrouped parts and of the bucketed entry over the same parts grouped by
/// sort bucket (a stable partition, as KmerGen's emit produces), adopting
/// part 0, asserting equal output. Buckets are equal key intervals holding about
/// `BUCKET_BYTES` of the uniform keys each, and both entries run on one
/// thread: the comparison is of work done, not of how much of it each
/// entry spreads over the cores. Returns `(bucketed, fused)`.
fn bucketed_vs_fused(senders: usize, seed: u64) -> (PathResult, PathResult) {
    let mut parts = single_range_parts(LARGE_TUPLES, seed);
    let per_sender = LARGE_TUPLES / senders;
    while parts.len() < senders {
        let tail = parts.last_mut().expect("one part").split_off(per_sender);
        parts.push(tail);
    }
    let bucket_tuples = BUCKET_BYTES / std::mem::size_of::<KmerReadTuple>();
    let cut_bits = (LARGE_TUPLES / bucket_tuples).ilog2();
    let lower: Vec<u64> = (0..1u64 << cut_bits)
        .map(|b| b << (KEY_BITS - cut_bits))
        .collect();
    let grouped: Vec<Vec<KmerReadTuple>> = parts
        .iter()
        .map(|p| {
            let mut g = p.clone();
            g.sort_by_key(|t| t.kmer >> (KEY_BITS - cut_bits)); // stable
            g
        })
        .collect();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let timed = |sort: &mut dyn FnMut(Vec<Vec<KmerReadTuple>>) -> RadixStats,
                 input: &mut dyn FnMut() -> Vec<Vec<KmerReadTuple>>| {
        let mut sort = |parts| pool.install(|| sort(parts));
        sort(input()); // warm-up: populate the pooled buffers
        let (mut secs, mut stats) = (0.0, RadixStats::default());
        let mut peak: Option<usize> = allocpeak::installed().then_some(0);
        for _ in 0..LARGE_ROUNDS {
            let round_parts = input();
            allocpeak::reset_peak();
            let before = allocpeak::peak_bytes();
            let t0 = Instant::now();
            stats = stats.merged(sort(round_parts));
            secs += t0.elapsed().as_secs_f64();
            if let Some(p) = peak.as_mut() {
                *p = (*p).max(allocpeak::peak_bytes() - before);
            }
        }
        PathResult {
            secs,
            mtuples_per_s: (LARGE_TUPLES * LARGE_ROUNDS) as f64 / secs / 1e6,
            peak_alloc: peak,
            stats,
        }
    };
    let mut fused_bufs: PassBuffers<KmerReadTuple> = PassBuffers::new();
    let fused = timed(
        &mut |p| fused_local_sort(p, &mut fused_bufs, &[], DIGIT_BITS, KEY_BITS).stats,
        &mut || parts.clone(),
    );
    // As in the pipeline, the adopted part 0 is built (outside the timed
    // region) in the buffer the previous round sorted, with room for all.
    let bufs: RefCell<PassBuffers<KmerReadTuple>> = RefCell::new(PassBuffers::new());
    let first = [0, lower.len()];
    let bucketed = timed(
        &mut |p| {
            let bufs = &mut bufs.borrow_mut();
            bucketed_local_sort(p, 0, bufs, &lower, &first, DIGIT_BITS, KEY_BITS).stats
        },
        &mut || {
            let mut own = bufs.borrow_mut().take_sorted();
            own.clear();
            own.reserve(LARGE_TUPLES);
            own.extend_from_slice(&grouped[0]);
            std::iter::once(own)
                .chain(grouped[1..].iter().cloned())
                .collect()
        },
    );
    assert_eq!(
        bufs.borrow().sorted(),
        fused_bufs.sorted(),
        "bucketed LocalSort diverged from the fused entry ({senders} sender(s))"
    );
    (bucketed, fused)
}

/// [`BUCKET_COPIES`] copies of one bucket of [`BUCKET_TUPLES`] tuples, copy
/// `c` in the key interval `c << BUCKET_VARYING_BITS`: inside a copy the
/// keys vary in the low [`BUCKET_VARYING_BITS`] bits, with `copies` tuples
/// per distinct key. The tuples of a key are shuffled — a k-mer's copies
/// come from reads scattered through the emission order — and read ids
/// follow that order. Returns the buffer and the copies' lower bounds.
fn bucket_copies(copies: usize, seed: u64) -> (Vec<KmerReadTuple>, Vec<u64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let low = (1u64 << BUCKET_VARYING_BITS) - 1;
    let distinct: Vec<u64> = (0..BUCKET_TUPLES.div_ceil(copies))
        .map(|_| rng.gen::<u64>() & low)
        .collect();
    let mut keys: Vec<u64> = (0..BUCKET_TUPLES)
        .map(|i| distinct[i % distinct.len()])
        .collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..i + 1));
    }
    let lower: Vec<u64> = (0..BUCKET_COPIES as u64)
        .map(|c| c << BUCKET_VARYING_BITS)
        .collect();
    let tuples = lower
        .iter()
        .flat_map(|&top| keys.iter().map(move |&k| top | k))
        .enumerate()
        .map(|(i, k)| KmerReadTuple::new(k, i as u32))
        .collect();
    (tuples, lower)
}

/// Time [`BUCKET_ROUNDS`] warm rounds of the pipeline's LocalSort
/// ([`bucketed_local_sort`] over the [`bucket_copies`] buffer as one adopted
/// part: per bucket a sweep, then the in-cache sort) and of what it ran
/// before (per bucket the same sweep — varying-bits mask and the check
/// against the bucket's key interval — then [`lsb_radix_sort_pruned`] over
/// every tuple), both on one pool thread, rounds alternating which goes
/// first. Each round sorts a fresh copy made outside the timed region, and
/// each side drops its previous output inside it, as the adopting pool
/// does. Asserts equal bytes every round and equal digit-window counts.
/// Returns `(rank, radix)` and the median over rounds of the round's radix
/// over rank time: a noisy neighbour slows a round or two, and both sides
/// of them alike.
fn rank_vs_radix(copies: usize, seed: u64) -> (PathResult, PathResult, f64) {
    let (buffer, lower) = bucket_copies(copies, seed);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let first = [0, lower.len()];
    let mut bufs: PassBuffers<KmerReadTuple> = PassBuffers::new();
    let (mut scratch, mut counts) = (vec![KmerReadTuple::default(); BUCKET_TUPLES], Vec::new());
    let mut radix_sorted: Vec<KmerReadTuple> = Vec::new();
    let empty = || PathResult {
        secs: 0.0,
        mtuples_per_s: 0.0,
        peak_alloc: allocpeak::installed().then_some(0),
        stats: RadixStats::default(),
    };
    let (mut rank, mut radix) = (empty(), empty());
    let mut ratios = Vec::with_capacity(BUCKET_ROUNDS);
    // Round 0 is the untimed warm-up: it populates the pooled buffers.
    for round in 0..=BUCKET_ROUNDS {
        let (parts, data) = (vec![buffer.clone()], buffer.clone());
        let bufs = &mut bufs;
        let sort_rank = || {
            let sort = || bucketed_local_sort(parts, 0, bufs, &lower, &first, DIGIT_BITS, KEY_BITS);
            pool.install(sort).stats
        };
        let sort_radix = || {
            let mut data = data;
            let mut stats = RadixStats::default();
            pool.install(|| {
                for (bucket, &lo) in data.chunks_mut(BUCKET_TUPLES).zip(&lower) {
                    let (mut or, mut and, mut min, mut max) = (0, u64::MAX, u64::MAX, 0);
                    for t in bucket.iter() {
                        (or, and) = (or | t.kmer, and & t.kmer);
                        (min, max) = (min.min(t.kmer), max.max(t.kmer));
                    }
                    assert!(lo <= min && max < lo + (1 << BUCKET_VARYING_BITS));
                    let (s, c) = (&mut scratch[..bucket.len()], &mut counts);
                    let run = lsb_radix_sort_pruned(bucket, s, DIGIT_BITS, KEY_BITS, or ^ and, c);
                    stats = stats.merged(run);
                }
            });
            radix_sorted = data;
            stats
        };
        let (mut warm_rank, mut warm_radix) = (empty(), empty());
        let (rk, rx) = match round {
            0 => (&mut warm_rank, &mut warm_radix),
            _ => (&mut rank, &mut radix),
        };
        let (rank_s, radix_s) = if round % 2 == 0 {
            (time_into(rk, sort_rank), time_into(rx, sort_radix))
        } else {
            let radix_s = time_into(rx, sort_radix);
            (time_into(rk, sort_rank), radix_s)
        };
        if round > 0 {
            ratios.push(radix_s / rank_s);
        }
        assert_eq!(
            bufs.sorted(),
            &radix_sorted[..],
            "in-bucket sort diverged from the radix (round {round})"
        );
    }
    assert_eq!(rank.stats, radix.stats, "digit windows differ");
    for side in [&mut rank, &mut radix] {
        side.mtuples_per_s = (buffer.len() * BUCKET_ROUNDS) as f64 / side.secs / 1e6;
    }
    ratios.sort_by(f64::total_cmp);
    (rank, radix, ratios[ratios.len() / 2])
}

/// Time one call of `sort` into `acc`, where its seconds, allocator peak
/// and digit windows add up over the rounds; returns its seconds.
fn time_into(acc: &mut PathResult, sort: impl FnOnce() -> RadixStats) -> f64 {
    allocpeak::reset_peak();
    let before = allocpeak::peak_bytes();
    let t0 = Instant::now();
    let stats = sort();
    let secs = t0.elapsed().as_secs_f64();
    acc.secs += secs;
    if let Some(p) = acc.peak_alloc.as_mut() {
        *p = (*p).max(allocpeak::peak_bytes() - before);
    }
    acc.stats = acc.stats.merged(stats);
    secs
}

/// Run the experiment; writes `BENCH_sort.json` and returns its path.
pub fn run(scale: f64) -> std::path::PathBuf {
    let n = (((1usize << 22) as f64 * scale) as usize).max(SENDERS * RANGES);
    let parts = receive_side_parts(n, 42);
    let n = parts.iter().map(Vec::len).sum::<usize>();
    let all: Vec<KmerReadTuple> = parts.iter().flatten().copied().collect();
    let boundaries = equal_boundaries_by_sample(&all, RANGES, 64 * RANGES);
    let (fused, reference) = fused_vs_reference(&parts, &boundaries, ROUNDS);
    assert!(
        fused.stats.passes_pruned > 0,
        "skewed receive-side workload must prune radix passes"
    );
    let (large_fused, large_reference) =
        fused_vs_reference(&single_range_parts(LARGE_TUPLES, 43), &[], LARGE_ROUNDS);
    let bucketed_cases = [1usize, 4].map(|senders| (senders, bucketed_vs_fused(senders, 44)));
    let in_bucket = [("dup", MM_COPIES), ("distinct", 1)]
        .map(|(name, copies)| (name, rank_vs_radix(copies, 45)));

    let ratio = print_case(
        &format!(
            "fused vs reference LocalSort, {n} tuples x {ROUNDS} rounds, \
             {SENDERS} senders, {RANGES} sub-ranges"
        ),
        &fused,
        &reference,
    );
    let large_ratio = print_case(
        &format!("out-of-cache: {LARGE_TUPLES} tuples x {LARGE_ROUNDS} rounds, 1 sender, 1 range"),
        &large_fused,
        &large_reference,
    );

    let mut bucketed_ratio = f64::INFINITY;
    for (senders, (bucketed, fused)) in &bucketed_cases {
        let title = format!(
            "bucket-major parts: {LARGE_TUPLES} tuples x {LARGE_ROUNDS} rounds, \
             {senders} sender(s), 1 range"
        );
        let rows = [
            ("bucketed (gather + in-cache sort)", bucketed),
            ("fused (scatter-on-receive)", fused),
        ];
        bucketed_ratio = bucketed_ratio.min(print_paths(&title, rows));
    }

    for (name, (rank, radix, ratio)) in &in_bucket {
        let title = format!(
            "in one bucket ({name} keys): {BUCKET_COPIES} x {BUCKET_TUPLES} tuples x \
             {BUCKET_ROUNDS} rounds, 1 thread"
        );
        let rows = [
            ("LocalSort (in-cache sort)", rank),
            ("pruned LSB radix (every tuple)", radix),
        ];
        print_paths(&title, rows);
        println!("  median over rounds of radix / LocalSort time: {ratio:.2}");
    }

    // --- paper §4.2.2: LocalSort vs parallel radix vs std ---------------
    comparator_table(&all);

    // --- JSON report (hand-rolled: numbers/bools/fixed labels only) -----
    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1);
    let path_json = |p: &PathResult| {
        format!(
            "{{\"secs\": {:.6}, \"mtuples_per_s\": {:.3}, \"peak_alloc_bytes\": {}, \
             \"radix_passes_run\": {}, \"radix_passes_pruned\": {}}}",
            p.secs,
            p.mtuples_per_s,
            p.peak_alloc
                .map(|b| b.to_string())
                .unwrap_or_else(|| "null".into()),
            p.stats.passes_run,
            p.stats.passes_pruned,
        )
    };
    let mut json = String::from("{\n  \"experiment\": \"sort_throughput\",\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"tuples\": {n},\n"));
    json.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    json.push_str("  \"warmup_rounds\": 1,\n");
    json.push_str(&format!("  \"senders\": {SENDERS},\n"));
    json.push_str(&format!("  \"sub_ranges\": {RANGES},\n"));
    json.push_str(&format!("  \"digit_bits\": {DIGIT_BITS},\n"));
    json.push_str(&format!("  \"key_bits\": {KEY_BITS},\n"));
    json.push_str(&format!("  \"available_parallelism\": {threads},\n"));
    json.push_str(&format!(
        "  \"alloc_tracking\": {},\n",
        allocpeak::installed()
    ));
    json.push_str(&format!(
        "  \"scatter_bytes\": {},\n",
        (n * ROUNDS) as u64 * std::mem::size_of::<KmerReadTuple>() as u64
    ));
    json.push_str(&format!("  \"fused\": {},\n", path_json(&fused)));
    json.push_str(&format!("  \"reference\": {},\n", path_json(&reference)));
    json.push_str(&format!("  \"fused_over_reference\": {ratio:.3},\n"));
    json.push_str(&format!("  \"large_tuples\": {LARGE_TUPLES},\n"));
    json.push_str(&format!("  \"large_rounds\": {LARGE_ROUNDS},\n"));
    json.push_str(&format!(
        "  \"large_fused\": {},\n",
        path_json(&large_fused)
    ));
    json.push_str(&format!(
        "  \"large_reference\": {},\n",
        path_json(&large_reference)
    ));
    json.push_str(&format!(
        "  \"large_fused_over_reference\": {large_ratio:.3},\n"
    ));
    for (senders, (bucketed, fused)) in &bucketed_cases {
        json.push_str(&format!(
            "  \"bucketed_{senders}_part\": {{\"bucketed\": {}, \"fused\": {}}},\n",
            path_json(bucketed),
            path_json(fused)
        ));
    }
    json.push_str(&format!(
        "  \"bucketed_over_fused\": {bucketed_ratio:.3},\n"
    ));
    json.push_str(&format!("  \"in_bucket_tuples\": {BUCKET_TUPLES},\n"));
    json.push_str(&format!("  \"in_bucket_copies\": {BUCKET_COPIES},\n"));
    json.push_str(&format!("  \"in_bucket_rounds\": {BUCKET_ROUNDS},\n"));
    for (name, (rank, radix, _)) in &in_bucket {
        json.push_str(&format!(
            "  \"in_bucket_{name}\": {{\"rank\": {}, \"radix\": {}}},\n",
            path_json(rank),
            path_json(radix)
        ));
    }
    let ratios: Vec<String> = in_bucket
        .iter()
        .map(|(name, (_, _, r))| format!("  \"rank_over_radix_{name}\": {r:.3}"))
        .collect();
    json.push_str(&ratios.join(",\n"));
    json.push_str("\n}\n");

    write_artifact("BENCH_sort.json", json)
}

/// Print one fused-vs-reference table; returns fused over reference
/// throughput.
fn print_case(title: &str, fused: &PathResult, reference: &PathResult) -> f64 {
    let rows = [
        ("fused (scatter-on-receive)", fused),
        ("reference (concat+partition)", reference),
    ];
    print_paths(title, rows)
}

/// Print a two-path table; returns the first path's throughput over the
/// second's.
fn print_paths(title: &str, rows: [(&str, &PathResult); 2]) -> f64 {
    let row = |(name, p): (&str, &PathResult)| {
        vec![
            name.to_string(),
            format!("{:.3}", p.secs),
            format!("{:.1}", p.mtuples_per_s),
            p.stats.passes_run.to_string(),
            p.stats.passes_pruned.to_string(),
            p.peak_alloc
                .map(|b| format!("{:.1}", b as f64 / 1e6))
                .unwrap_or_else(|| "n/a".into()),
        ]
    };
    print_table(
        title,
        &[
            "Path",
            "Time (s)",
            "Mtuples/s",
            "Passes run",
            "Pruned",
            "Peak MB",
        ],
        &rows.map(row),
    );
    let ratio = rows[0].1.mtuples_per_s / rows[1].1.mtuples_per_s;
    println!(
        "  {} is {ratio:.2}x the throughput of {}",
        rows[0].0, rows[1].0
    );
    ratio
}

/// The original §4.2.2 comparison: LocalSort vs the fully-parallel LSB
/// radix comparator vs `sort_unstable`, on uniform random keys.
fn comparator_table(input: &[KmerReadTuple]) {
    let n = input.len();
    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    let mut measure = |name: &str, f: &mut dyn FnMut(&mut Vec<KmerReadTuple>)| {
        let mut data = input.to_vec();
        let t0 = Instant::now();
        f(&mut data);
        let dt = t0.elapsed().as_secs_f64();
        assert!(
            data.windows(2).all(|w| w[0].kmer <= w[1].kmer),
            "{name} failed to sort"
        );
        rows.push(vec![
            name.to_string(),
            format!("{dt:.3}"),
            format!("{:.1}", n as f64 / dt / 1e6),
        ]);
        n as f64 / dt / 1e6
    };

    let local = measure("LocalSort (partition + serial radix)", &mut |data| {
        let mut scratch = vec![KmerReadTuple::default(); data.len()];
        local_sort(data, &mut scratch, threads.max(2), DIGIT_BITS, KEY_BITS);
    });
    let plsb = measure("Parallel LSB radix (comparator)", &mut |data| {
        let mut scratch = vec![KmerReadTuple::default(); data.len()];
        parallel_lsb_sort(data, &mut scratch, DIGIT_BITS, KEY_BITS);
    });
    measure("std sort_unstable (yardstick)", &mut |data| {
        data.sort_unstable_by_key(|t| t.kmer);
    });

    print_table(
        &format!(
            "§4.2.2: sort throughput, {n} {}-byte tuples, {threads} thread(s)",
            std::mem::size_of::<KmerReadTuple>()
        ),
        &["Sort", "Time (s)", "Mtuples/s"],
        &rows,
    );
    println!(
        "  LocalSort reaches {:.0}% of the comparator (paper: 78%)",
        100.0 * local / plsb
    );
}
