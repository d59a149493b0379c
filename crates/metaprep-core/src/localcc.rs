//! LocalSort + LocalCC: implicit read-graph edges from the equal-k-mer
//! groups of each sort bucket (paper §3.4–3.5).
//!
//! Each group of `f` tuples for one k-mer encodes `f - 1` star edges
//! connecting the group's first read to every other read — the implicit
//! read graph (the graph is never materialized). The k-mer frequency filter
//! of §4.4 drops groups whose size lies outside `lo..=hi` before edges are
//! generated.
//!
//! The paper sorts the received tuples (LocalSort) only so that LocalCC
//! finds each k-mer's tuples side by side. Here no tuple is sorted or
//! moved: KmerGen emits every part bucket-major (cache-sized key intervals,
//! nested in the `T` thread sub-ranges), so [`bucket_walk`] gives each
//! thread sub-range one worker, which takes its buckets in order. Per
//! bucket it finds each sender's run by binary search and gives every tuple
//! of the runs, read in sender order, the id of its k-mer through one
//! cache-resident table (the rank sort's table pass,
//! [`metaprep_sort::RankScratch::group_runs`]) — the LocalSort step. Then
//! it walks the runs again and sends the star edge (group's first read,
//! this read) for each later tuple of a group the filter keeps — the LocalCC
//! step. A group's first tuple in sender order is the one a stable sort of
//! the concatenated parts puts first, so the edges are those of the sorted
//! scan, in input order instead of key order, and the components are the
//! same.

use crate::kmergen::PipelineKmer;
use metaprep_cc::{ConcurrentDisjointSet, UfOpStats};
use metaprep_sort::{Groups, Keyed, RankScratch};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// Counters from one LocalCC invocation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalCcStats {
    /// k-mer groups scanned.
    pub groups: u64,
    /// Groups dropped by the k-mer frequency filter.
    pub filtered_groups: u64,
    /// Edges processed (stream of star edges).
    pub edges: u64,
    /// Edges that observed distinct roots and were buffered for
    /// re-verification (paper Algorithm 1's `E_out`).
    pub union_edges: u64,
    /// Verification iterations performed over the buffered edges.
    pub verify_iterations: u64,
    /// Union-find operation counts (finds, path splits, unions) across
    /// the streaming scan and every verification iteration.
    pub uf: UfOpStats,
}

impl LocalCcStats {
    /// Accumulate another invocation's counters.
    pub fn merge(&mut self, o: LocalCcStats) {
        self.groups += o.groups;
        self.filtered_groups += o.filtered_groups;
        self.edges += o.edges;
        self.union_edges += o.union_edges;
        self.verify_iterations += o.verify_iterations;
        self.uf.merge(o.uf);
    }
}

/// What one pass's [`bucket_walk`] (or one of its workers) did.
#[derive(Default)]
pub struct PassWalk {
    /// The LocalCC counters.
    pub stats: LocalCcStats,
    /// CPU time spent finding the runs and grouping them (LocalSort),
    /// summed over the workers.
    pub group_nanos: u64,
    /// CPU time spent on the edges, summed over the workers, plus the
    /// re-verification's wall time once per worker (LocalCC).
    pub connect_nanos: u64,
    /// A worker's edges that performed (or raced on) a union, Algorithm
    /// 1's `E_out`; `bucket_walk` re-verifies them all.
    buffered: Vec<(u32, u32)>,
}

/// The key type of `K`'s tuples (`K::Repr`, as a sort key).
type Key<K> = <<K as PipelineKmer>::Tuple as Keyed>::Key;

/// One worker's workspace: the table pass's, and each group's first read.
struct Worker<K> {
    groups: RankScratch<K>,
    heads: Vec<u32>,
}

/// LocalSort + LocalCC over *bucket-major* `parts` (the all-to-all's
/// per-sender buffers, read where they lie): each part is grouped, in
/// bucket order, by the key intervals that start at `lower[0] < lower[1] <
/// …` (the last one unbounded above), as KmerGen emits them. `first` holds
/// the `T + 1` bucket indices at which the thread sub-ranges begin; each
/// sub-range gets one worker. Edges that observed distinct roots are
/// re-verified afterwards (Algorithm 1's loop).
///
/// # Panics
///
/// If a part is not bucket-major: every tuple is held to its bucket's key
/// interval, so a misplaced one aborts instead of splitting a group.
pub fn bucket_walk<K: PipelineKmer>(
    pool: &rayon::ThreadPool,
    ds: &ConcurrentDisjointSet,
    parts: &[Vec<K::Tuple>],
    lower: &[K::Repr],
    first: &[usize],
    kf_filter: Option<(u32, u32)>,
) -> PassWalk {
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
    assert!(
        buckets > 0 || parts.iter().all(Vec::is_empty),
        "tuples but no bucket"
    );

    // Where each bucket's run starts in each part.
    let run_starts = |part: &Vec<K::Tuple>| {
        let mut starts = vec![0usize; buckets + 1];
        for b in 1..buckets {
            let from = starts[b - 1];
            starts[b] = from + part[from..].partition_point(|t| t.key() < lower[b]);
        }
        starts[buckets] = part.len();
        starts
    };
    let starts: Vec<Vec<usize>> = parts.iter().map(run_starts).collect();

    // The workspaces are made here, in the thread that owns the pool (see
    // `RankScratch::new`), and each worker grows its own.
    let work: Vec<(Range<usize>, Worker<Key<K>>)> = first
        .windows(2)
        .map(|w| {
            let (groups, heads) = (RankScratch::new(), Vec::with_capacity(1));
            (w[0]..w[1], Worker { groups, heads })
        })
        .collect();
    let walked: Vec<PassWalk> = pool.install(|| {
        work.into_par_iter()
            .map(|(run, mut w)| {
                walk_buckets::<K>(ds, parts, &starts, lower, run, &mut w, kf_filter)
            })
            .collect()
    });

    let (mut out, mut buffered) = (PassWalk::default(), Vec::new());
    for mut w in walked {
        out.stats.merge(w.stats);
        out.group_nanos += w.group_nanos;
        out.connect_nanos += w.connect_nanos;
        buffered.append(&mut w.buffered);
    }
    out.stats.union_edges = buffered.len() as u64;

    // Re-verification iterations (Algorithm 1's loop).
    let verify = Instant::now();
    let mut verify_ops = UfOpStats::default();
    out.stats.verify_iterations =
        pool.install(|| ds.process_edges_parallel_tracked(&buffered, &mut verify_ops)) as u64;
    out.stats.uf.merge(verify_ops);
    let workers = (first.len() - 1).max(1) as u64;
    out.connect_nanos += verify.elapsed().as_nanos() as u64 * workers;
    out
}

/// One worker: the buckets `run` in order (bucket `b`'s run in part `p`
/// starts at `starts[p][b]`), each grouped and then walked for its edges
/// while it is cache-resident.
fn walk_buckets<K: PipelineKmer>(
    ds: &ConcurrentDisjointSet,
    parts: &[Vec<K::Tuple>],
    starts: &[Vec<usize>],
    lower: &[K::Repr],
    run: Range<usize>,
    w: &mut Worker<Key<K>>,
    kf_filter: Option<(u32, u32)>,
) -> PassWalk {
    let mut out = PassWalk::default();
    let mut runs: Vec<&[K::Tuple]> = Vec::with_capacity(parts.len());
    let mut clock = Instant::now();
    for b in run {
        runs.clear();
        runs.extend(parts.iter().zip(starts).map(|(p, s)| &p[s[b]..s[b + 1]]));
        let groups = w.groups.group_runs(&runs);
        let grouped = Instant::now();
        out.group_nanos += (grouped - clock).as_nanos() as u64;
        let interval = (lower[b], lower.get(b + 1));
        connect::<K>(
            ds,
            &runs,
            groups,
            &mut w.heads,
            interval,
            kf_filter,
            &mut out,
        );
        clock = Instant::now();
        out.connect_nanos += (clock - grouped).as_nanos() as u64;
    }
    out
}

/// Walk one grouped bucket's `runs` in the order they were grouped, after
/// the filter has judged each group's size: a group's first tuple records
/// its read as the head, and every later tuple of a kept group whose read
/// is not the head's streams the star edge (head, read) into the forest.
/// Holds every key to the bucket's interval `lo..hi`.
fn connect<K: PipelineKmer>(
    ds: &ConcurrentDisjointSet,
    runs: &[&[K::Tuple]],
    Groups { ids, counts }: Groups<'_>,
    heads: &mut Vec<u32>,
    (lo, hi): (K::Repr, Option<&K::Repr>),
    kf_filter: Option<(u32, u32)>,
    out: &mut PassWalk,
) {
    out.stats.groups += counts.len() as u64;
    if let Some((lo, hi)) = kf_filter {
        // A group the filter drops is left with a count of 0.
        for c in counts.iter_mut().filter(|c| !(lo..=hi).contains(*c)) {
            *c = 0;
            out.stats.filtered_groups += 1;
        }
    }
    if heads.len() < counts.len() {
        heads.resize(counts.len(), 0);
    }
    // Ids are handed out in first-occurrence order, so the first tuple of
    // group `next` is the first tuple with that id.
    let (mut min, mut max, mut at, mut next) = (lo, lo, 0, 0);
    for run in runs {
        let run_ids = &ids[at..at + run.len()];
        at += run.len();
        for (t, &id) in run.iter().zip(run_ids) {
            let key = t.key();
            (min, max) = (min.min(key), max.max(key));
            let read = K::tuple_read(t);
            if id == next {
                heads[id as usize] = read;
                next += 1;
            } else if counts[id as usize] != 0 && read != heads[id as usize] {
                let head = heads[id as usize];
                out.stats.edges += 1;
                if ds.process_edge_tracked(head, read, &mut out.stats.uf) {
                    out.buffered.push((head, read));
                }
            }
        }
    }
    assert!(
        lo <= min && hi.is_none_or(|hi| max < *hi),
        "part is not bucket-major: a tuple lies outside its bucket's key interval"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_kmer::{Kmer64, KmerReadTuple};
    use metaprep_sort::lsb_radix_sort;
    use proptest::prelude::*;

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    fn tuples(raw: &[(u64, u32)]) -> Vec<KmerReadTuple> {
        raw.iter().map(|&(k, r)| KmerReadTuple::new(k, r)).collect()
    }

    /// Walk `parts` as the buckets `lower` (thread sub-ranges at `first`)
    /// on a pool of `threads`.
    fn walk(
        n: usize,
        parts: &[Vec<KmerReadTuple>],
        (lower, first): (&[u64], &[usize]),
        kf: Option<(u32, u32)>,
        threads: usize,
    ) -> (Vec<u32>, LocalCcStats) {
        let ds = ConcurrentDisjointSet::new(n);
        let res = bucket_walk::<Kmer64>(&pool(threads), &ds, parts, lower, first, kf);
        (ds.to_component_array(), res.stats)
    }

    /// One part, one bucket, one worker.
    fn run(n: usize, raw: &[(u64, u32)], kf: Option<(u32, u32)>) -> (Vec<u32>, LocalCcStats) {
        walk(n, &[tuples(raw)], (&[0], &[0, 1]), kf, 2)
    }

    /// The sorted path the walk replaces: the parts concatenated
    /// sender-major, radix-sorted, and scanned for star edges group by
    /// group (with union-by-index, the components do not depend on the
    /// edges' order).
    fn oracle(
        n: usize,
        parts: &[Vec<KmerReadTuple>],
        kf: Option<(u32, u32)>,
    ) -> (Vec<u32>, [u64; 3]) {
        let mut sorted = parts.concat();
        let mut scratch = sorted.clone();
        lsb_radix_sort(&mut sorted, &mut scratch, 8, 64);
        let ds = ConcurrentDisjointSet::new(n);
        let (mut groups, mut filtered, mut edges) = (0, 0, 0);
        for group in sorted.chunk_by(|a, b| a.kmer == b.kmer) {
            groups += 1;
            let freq = group.len() as u32;
            if kf.is_some_and(|(lo, hi)| !(lo..=hi).contains(&freq)) {
                filtered += 1;
                continue;
            }
            for t in &group[1..] {
                if t.read != group[0].read {
                    edges += 1;
                    ds.process_edge(group[0].read, t.read);
                }
            }
        }
        (ds.to_component_array(), [groups, filtered, edges])
    }

    #[test]
    fn shared_kmer_connects_reads() {
        let (arr, stats) = run(3, &[(5, 0), (5, 1), (9, 2)], None);
        assert_eq!(arr[0], arr[1]);
        assert_ne!(arr[0], arr[2]);
        assert_eq!(stats.groups, 2);
        assert_eq!(stats.edges, 1);
    }

    #[test]
    fn star_edges_connect_whole_group() {
        let (arr, stats) = run(4, &[(7, 0), (7, 1), (7, 2), (7, 3)], None);
        assert!(arr.iter().all(|&r| r == arr[0]));
        assert_eq!(stats.edges, 3);
    }

    #[test]
    fn duplicate_reads_in_group_add_no_edges() {
        // Read 0 contains the k-mer twice.
        let (arr, stats) = run(2, &[(7, 0), (7, 0), (7, 1)], None);
        assert_eq!(arr[0], arr[1]);
        assert_eq!(stats.edges, 1);
    }

    #[test]
    fn kf_filter_drops_high_frequency_groups() {
        // Group of 3 > hi=2 -> dropped; reads stay separate.
        let (arr, stats) = run(3, &[(7, 0), (7, 1), (7, 2)], Some((1, 2)));
        assert_ne!(arr[0], arr[1]);
        assert_eq!(stats.filtered_groups, 1);
        assert_eq!(stats.edges, 0);
    }

    #[test]
    fn kf_filter_drops_low_frequency_groups() {
        // freq 2 < lo=3 -> dropped.
        let (arr, _) = run(2, &[(7, 0), (7, 1)], Some((3, 100)));
        assert_ne!(arr[0], arr[1]);
        // In range -> kept.
        let (arr, _) = run(2, &[(7, 0), (7, 1)], Some((2, 100)));
        assert_eq!(arr[0], arr[1]);
    }

    #[test]
    fn transitivity_across_groups() {
        // k-mer A connects 0-1; k-mer B connects 1-2 -> all one component.
        let (arr, _) = run(3, &[(1, 0), (2, 1), (1, 1), (2, 2)], None);
        assert!(arr.iter().all(|&r| r == arr[0]));
    }

    #[test]
    fn groups_span_senders_and_stop_at_bucket_bounds() {
        // Buckets [0, 5), [5, 15), [15, ..) on two workers; k-mer 10 has a
        // tuple in each part, so its group spans the senders.
        let parts = [
            tuples(&[(1, 0), (10, 2), (20, 4)]),
            tuples(&[(1, 1), (10, 3), (20, 5)]),
        ];
        let (arr, stats) = walk(6, &parts, (&[0, 5, 15], &[0, 2, 3]), None, 2);
        assert_eq!((arr[0], arr[2], arr[4]), (arr[1], arr[3], arr[5]));
        assert_ne!(arr[0], arr[2]);
        assert_ne!(arr[2], arr[4]);
        assert_eq!((stats.groups, stats.edges), (3, 3));
    }

    #[test]
    fn empty_parts_and_buckets() {
        let (_, stats) = walk(2, &[], (&[], &[0, 0]), None, 1);
        assert_eq!((stats.groups, stats.edges), (0, 0));
        let parts = [Vec::new(), tuples(&[(9, 0), (9, 1)])];
        let (arr, stats) = walk(2, &parts, (&[0, 5, 8], &[0, 1, 3]), None, 2);
        assert_eq!(arr[0], arr[1]);
        assert_eq!((stats.groups, stats.edges), (1, 1));
    }

    #[test]
    fn union_edges_counted() {
        let (_, stats) = run(4, &[(7, 0), (7, 1), (8, 2), (8, 3)], None);
        // Both edges performed unions.
        assert_eq!(stats.union_edges, 2);
        assert!(stats.verify_iterations >= 1);
    }

    #[test]
    fn uf_op_counters_populated() {
        let (_, stats) = run(4, &[(7, 0), (7, 1), (7, 2), (7, 3)], None);
        // 3 star edges, 2 finds each in the scan, plus re-verification.
        assert!(stats.uf.finds >= 6, "finds = {}", stats.uf.finds);
        // The group collapses 4 reads into 1 component: 3 unions.
        assert_eq!(stats.uf.unions, 3);
    }

    // The pool re-raises a worker's panic under its own message.
    #[test]
    #[should_panic]
    fn a_part_that_is_not_bucket_major_panics() {
        // Sorted within each bucket's span, but one tuple of bucket 0 sits
        // behind bucket 1's: the run search cannot see it, the walk must.
        let part = tuples(&[(1, 0), (2, 1), (100, 2), (101, 3), (4, 4), (102, 5)]);
        walk(6, &[part], (&[0, 100], &[0, 2]), None, 1);
    }

    #[test]
    #[should_panic]
    fn a_later_part_that_is_not_bucket_major_panics() {
        let parts = [
            tuples(&[(1, 0), (100, 1)]),
            tuples(&[(100, 2), (2, 3), (101, 4)]),
        ];
        walk(5, &parts, (&[0, 100], &[0, 1, 2]), None, 2);
    }

    /// Bucket-major parts over `buckets` key intervals of width 64 (the
    /// first at 0): `picks` are `(bucket, key in bucket, read, sender)`,
    /// with at most `distinct` keys per bucket so groups repeat.
    fn bucket_major(
        picks: &[(usize, u64, u32, usize)],
        senders: usize,
        distinct: u64,
    ) -> Vec<Vec<KmerReadTuple>> {
        let mut parts = vec![Vec::new(); senders];
        for &(b, k, r, p) in picks {
            parts[p % senders].push((b, KmerReadTuple::new(b as u64 * 64 + k % distinct, r)));
        }
        // A stable sort by bucket keeps each part's arrival order inside a
        // bucket, as KmerGen's windows do.
        parts
            .into_iter()
            .map(|mut part| {
                part.sort_by_key(|&(b, _)| b);
                part.into_iter().map(|(_, t)| t).collect()
            })
            .collect()
    }

    proptest! {
        /// The walk gives the sorted path's components and counts: 1–4
        /// senders (the own part is any of them to the walk), empty and
        /// single-key buckets, reads repeated inside a group, every filter
        /// shape and 1–3 workers.
        #[test]
        fn prop_walk_matches_the_sorted_path(
            picks in proptest::collection::vec(
                (0usize..6, any::<u64>(), 0u32..40, 0usize..4), 0..300),
            senders in 1usize..=4,
            distinct in 1u64..8,
            kf in proptest::sample::select(vec![None, Some((1, 1)), Some((2, 3)), Some((1, u32::MAX))]),
            threads in 1usize..=3,
            cuts in proptest::collection::vec(0usize..=6, 2),
        ) {
            let parts = bucket_major(&picks, senders, distinct);
            let lower: Vec<u64> = (0..6).map(|b| b * 64).collect();
            let mut first = vec![0];
            let mut cuts = cuts[..threads - 1].to_vec();
            cuts.sort_unstable();
            first.extend(cuts);
            first.push(6);
            let (want, [groups, filtered, edges]) = oracle(40, &parts, kf);
            let (got, stats) = walk(40, &parts, (&lower, &first), kf, threads);
            prop_assert_eq!(got, want);
            prop_assert_eq!(
                (stats.groups, stats.filtered_groups, stats.edges),
                (groups, filtered, edges)
            );
        }
    }
}
