//! §4.2.2 — LocalSort throughput: the in-bucket sort against the radix it
//! replaced, and the paper's comparison against a state-of-the-art
//! parallel radix sort.
//!
//! Two measurements:
//!
//! 1. **In one bucket**: one [`BUCKET_TUPLES`]-tuple bucket, repeated in
//!    [`BUCKET_COPIES`] key intervals, sorted [`BUCKET_ROUNDS`] times on one
//!    thread by the bucketed sort, the paper's LocalSort as a standalone
//!    kernel (the pipeline only groups each bucket, with the table pass
//!    alone; [`metaprep_sort::bucketed_local_sort`]: adopt the part, then per
//!    bucket sweep and sort in cache) and by what it ran before (per bucket
//!    the same sweep, then the pruned LSB radix of every tuple), rounds
//!    alternating which goes first; the ratio is the median over rounds of
//!    the round's ratio. MM-shaped keys (≈ 7 copies of each k-mer, in
//!    emission order) give `rank_over_radix_dup`; all-distinct keys, the
//!    adverse case, give `rank_over_radix_distinct`. The digit windows the
//!    bucketed side pruned are `bucketed_radix_passes_pruned`.
//! 2. The paper's §4.2.2 table: LocalSort
//!    ([`metaprep_sort::fused_local_sort`], which splits the tuples into
//!    the thread sub-ranges and sorts them with the bucketed sort) vs our
//!    fully-parallel stable LSB radix sort (the NUMA-aware-sort stand-in)
//!    vs `sort_unstable`, on keys with metagenome-like abundance skew.
//!
//! Peak memory is the [`crate::allocpeak`] high-water delta per timed
//! region (the `exp` binary installs the tracking allocator; a process
//! without it gets a JSON that marks allocator numbers absent).

use crate::allocpeak;
use crate::harness::{print_table, write_artifact};
use metaprep_kmer::KmerReadTuple;
use metaprep_sort::{
    bucketed_local_sort, fused_local_sort, lsb_radix_sort_pruned, parallel_lsb_sort, PassBuffers,
    RadixStats, BUCKET_BYTES,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Radix digit width (the paper's 8).
const DIGIT_BITS: u32 = 8;
/// Meaningful key bits (27-mers: 2k = 54).
const KEY_BITS: u32 = 54;
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
/// Timed calls per row of the §4.2.2 table.
const COMPARATOR_CALLS: usize = 5;

/// Tuples with metagenome-like skew, as one task of a pass receives them:
/// the task sees a window of the k-mer space dominated by the abundant
/// genomes' repeated k-mers — most tuple mass sits in a couple of narrow
/// key clusters, the rest is uniform background. Read ids follow the order.
fn skewed_tuples(n: usize, seed: u64) -> Vec<KmerReadTuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mask54 = (1u64 << KEY_BITS) - 1;
    let centers: Vec<u64> = (0..CLUSTERS)
        .map(|_| rng.gen::<u64>() & mask54 & !((1u64 << CLUSTER_WINDOW_BITS) - 1))
        .collect();
    (0..n)
        .map(|i| {
            let key = if rng.gen_range(0..100u64) < CLUSTER_SHARE_PCT {
                let c = centers[rng.gen_range(0..CLUSTERS)];
                c | (rng.gen::<u64>() & ((1u64 << CLUSTER_WINDOW_BITS) - 1))
            } else {
                rng.gen::<u64>() & mask54
            };
            KmerReadTuple::new(key, i as u32)
        })
        .collect()
}

/// `ranges - 1` thread boundaries that split `tuples` into equal-count key
/// ranges (the pipeline takes them from the m-mer histogram instead).
fn equal_count_boundaries(tuples: &[KmerReadTuple], ranges: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = tuples.iter().map(|t| t.kmer).collect();
    keys.sort_unstable();
    (1..ranges).map(|r| keys[r * keys.len() / ranges]).collect()
}

struct PathResult {
    secs: f64,
    mtuples_per_s: f64,
    peak_alloc: Option<usize>,
    stats: RadixStats,
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

/// Run the experiment; writes `BENCH_sort.json`.
pub fn run(scale: f64) {
    let n = (((1usize << 22) as f64 * scale) as usize).max(1 << 10);
    let in_bucket = [("dup", MM_COPIES), ("distinct", 1)]
        .map(|(name, copies)| (name, rank_vs_radix(copies, 45)));
    let bucketed_pruned: u64 = in_bucket
        .iter()
        .map(|(_, (rank, _, _))| rank.stats.passes_pruned)
        .sum();
    assert!(
        bucketed_pruned > 0,
        "buckets whose keys share their top digit must prune radix passes"
    );

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
    comparator_table(&skewed_tuples(n, 42));

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
    json.push_str(&format!("  \"digit_bits\": {DIGIT_BITS},\n"));
    json.push_str(&format!("  \"key_bits\": {KEY_BITS},\n"));
    json.push_str(&format!("  \"available_parallelism\": {threads},\n"));
    json.push_str(&format!(
        "  \"alloc_tracking\": {},\n",
        allocpeak::installed()
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
    json.push_str(&format!(
        "  \"bucketed_radix_passes_pruned\": {bucketed_pruned},\n"
    ));
    let ratios: Vec<String> = in_bucket
        .iter()
        .map(|(name, (_, _, r))| format!("  \"rank_over_radix_{name}\": {r:.3}"))
        .collect();
    json.push_str(&ratios.join(",\n"));
    json.push_str("\n}\n");

    write_artifact("BENCH_sort.json", json);
}

/// Print a two-path table and the first path's throughput over the
/// second's.
fn print_paths(title: &str, rows: [(&str, &PathResult); 2]) {
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
}

/// The original §4.2.2 comparison: LocalSort vs the fully-parallel LSB
/// radix comparator vs `sort_unstable`. LocalSort splits the tuples into
/// one equal-count sub-range per thread (at least two), as the paper's
/// does, and the split is timed with the sort. Each row is the median of
/// [`COMPARATOR_CALLS`] calls after one untimed warm-up, each sorting a
/// fresh copy of the input in the row's reused buffers.
fn comparator_table(input: &[KmerReadTuple]) {
    let n = input.len();
    let threads = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(1);
    let boundaries = equal_count_boundaries(input, threads.max(2));
    let mut rows = Vec::new();
    let mut measure = |name: &str, f: &mut dyn FnMut(&mut Vec<KmerReadTuple>)| {
        let (mut data, mut secs) = (Vec::with_capacity(n), Vec::new());
        for call in 0..=COMPARATOR_CALLS {
            data.clear();
            data.extend_from_slice(input);
            let t0 = Instant::now();
            f(&mut data);
            secs.push(t0.elapsed().as_secs_f64());
            assert!(
                data.windows(2).all(|w| w[0].kmer <= w[1].kmer),
                "{name} failed to sort (call {call})"
            );
        }
        secs.remove(0);
        secs.sort_by(f64::total_cmp);
        let (min, median, max) = (secs[0], secs[secs.len() / 2], secs[secs.len() - 1]);
        rows.push(vec![
            name.to_string(),
            format!("{median:.3}"),
            format!("{min:.3}-{max:.3}"),
            format!("{:.1}", n as f64 / median / 1e6),
        ]);
        n as f64 / median / 1e6
    };

    let mut bufs = PassBuffers::new();
    let local = measure("LocalSort (split + bucketed sort)", &mut |data| {
        let parts = vec![std::mem::take(data)];
        fused_local_sort(parts, &mut bufs, &boundaries, DIGIT_BITS, KEY_BITS);
        *data = bufs.take_sorted();
    });
    let mut scratch = vec![KmerReadTuple::default(); n];
    let plsb = measure("Parallel LSB radix (comparator)", &mut |data| {
        parallel_lsb_sort(data, &mut scratch, DIGIT_BITS, KEY_BITS);
    });
    measure("std sort_unstable (yardstick)", &mut |data| {
        data.sort_unstable_by_key(|t| t.kmer);
    });

    print_table(
        &format!(
            "§4.2.2: sort throughput, {n} {}-byte tuples, {threads} thread(s), \
             median of {COMPARATOR_CALLS} calls",
            std::mem::size_of::<KmerReadTuple>()
        ),
        &["Sort", "Time (s)", "Min-max (s)", "Mtuples/s"],
        &rows,
    );
    println!(
        "  LocalSort reaches {:.0}% of the comparator (paper: 78%)",
        100.0 * local / plsb
    );
}
