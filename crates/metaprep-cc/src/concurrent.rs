//! Concurrent union-find — the paper's Algorithm 1 (LocalCC, §3.5).
//!
//! Threads process disjoint batches of read-graph edges without any
//! synchronization beyond single-word CAS:
//!
//! * `Find` uses path splitting; the splitting write is a CAS so a
//!   concurrent union on the same cell is never overwritten;
//! * `Union` is by index via CAS on the root cell, which cannot create
//!   cycles when races occur (the paper's reason for preferring it over
//!   union-by-size);
//! * every edge whose endpoints had distinct roots is buffered and
//!   re-verified on the next iteration (the paper's replacement for
//!   Cybenko's critical sections); iteration ends when no edge connects two
//!   distinct roots.

#[cfg(not(loom))]
use rayon::prelude::*;

use crate::sync::{AtomicU32, Ordering};

/// Union-find operation counts, accumulated thread-locally by the
/// `_tracked` entry points below (no atomics — each worker owns its own
/// stats and the caller merges them), then surfaced as telemetry
/// counters by the pipeline.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct UfOpStats {
    /// `find` calls executed.
    pub finds: u64,
    /// Successful path-splitting CASes inside `find`.
    pub path_splits: u64,
    /// Successful link CASes (each reduces the component count by 1).
    pub unions: u64,
}

impl UfOpStats {
    /// Fold `other` into `self` (merging per-thread partials).
    pub fn merge(&mut self, other: UfOpStats) {
        self.finds += other.finds;
        self.path_splits += other.path_splits;
        self.unions += other.unions;
    }
}

/// A concurrent disjoint-set forest over vertices `0..n`.
pub struct ConcurrentDisjointSet {
    parent: Vec<AtomicU32>,
}

impl ConcurrentDisjointSet {
    /// Create `n` singleton components.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        Self {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Root of `x`'s component with CAS-guarded path splitting. Safe to
    /// call from many threads concurrently.
    #[inline]
    pub fn find(&self, x: u32) -> u32 {
        // The no-op split hook inlines away: `find` compiles to the same
        // loop it always was, while `find_tracked` shares this one body.
        self.find_with(x, || {})
    }

    /// [`ConcurrentDisjointSet::find`] that also counts the operation and
    /// its successful path-splitting CASes into `ops`.
    #[inline]
    pub fn find_tracked(&self, x: u32, ops: &mut UfOpStats) -> u32 {
        ops.finds += 1;
        let splits = &mut ops.path_splits;
        self.find_with(x, || *splits += 1)
    }

    #[inline]
    fn find_with(&self, mut x: u32, mut on_split: impl FnMut()) -> u32 {
        loop {
            // ORDERING: Acquire pairs with the AcqRel link/split CASes so a
            // parent value read here carries the edge that installed it.
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            // ORDERING: Acquire as above; reading a stale grandparent only
            // costs an extra hop, never correctness.
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp != p {
                // Split: re-point x at its grandparent. A failed CAS just
                // means someone else already moved it — keep walking.
                // ORDERING: AcqRel publishes the shortcut; Relaxed on failure
                // is fine because the loop re-reads via Acquire loads.
                if self.parent[x as usize]
                    .compare_exchange_weak(p, gp, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    on_split();
                }
            }
            x = p;
        }
    }

    /// Attempt to link roots `ra` and `rb` (union-by-index). Returns `true`
    /// if this call performed the link. Callers must pass *roots*; stale
    /// roots simply fail the CAS and the caller's edge gets re-verified.
    #[inline]
    pub fn try_link(&self, ra: u32, rb: u32) -> bool {
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        // ORDERING: AcqRel publishes the union to subsequent Acquire finds;
        // Relaxed on failure because a lost race is handled by re-verifying
        // the edge, not by inspecting the observed value.
        self.parent[lo as usize]
            .compare_exchange(lo, hi, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Process one edge. Returns `true` if the roots were distinct (the
    /// edge must then be re-verified in the next iteration).
    #[inline]
    pub fn process_edge(&self, u: u32, v: u32) -> bool {
        let ru = self.find(u);
        let rv = self.find(v);
        if ru == rv {
            return false;
        }
        self.try_link(ru, rv);
        true
    }

    /// [`ConcurrentDisjointSet::process_edge`] counting finds, path
    /// splits and successful unions into `ops`.
    #[inline]
    pub fn process_edge_tracked(&self, u: u32, v: u32, ops: &mut UfOpStats) -> bool {
        let ru = self.find_tracked(u, ops);
        let rv = self.find_tracked(v, ops);
        if ru == rv {
            return false;
        }
        if self.try_link(ru, rv) {
            ops.unions += 1;
        }
        true
    }

    /// Algorithm 1 of the paper, parallelized with rayon: process all
    /// edges; edges that observed distinct roots are buffered and
    /// re-processed until a full pass performs no unions. Returns the
    /// number of verification iterations executed (>= 1 for nonempty input;
    /// the paper notes the first iteration dominates the running time).
    #[cfg(not(loom))]
    pub fn process_edges_parallel(&self, edges: &[(u32, u32)]) -> usize {
        self.process_edges_parallel_tracked(edges, &mut UfOpStats::default())
    }

    /// [`ConcurrentDisjointSet::process_edges_parallel`] with operation
    /// counting: edges are split into one chunk per pool thread, each
    /// chunk accumulates a thread-local [`UfOpStats`] (no shared counters
    /// on the per-edge path), and the partials merge into `ops` after
    /// every pass.
    #[cfg(not(loom))]
    pub fn process_edges_parallel_tracked(
        &self,
        edges: &[(u32, u32)],
        ops: &mut UfOpStats,
    ) -> usize {
        if edges.is_empty() {
            return 0;
        }
        let mut iterations = 1usize;
        let mut pending = self.tracked_pass(edges, ops);
        // Termination: an edge survives a pass only if it observed distinct
        // roots; once its link (or a competing one) lands, the next pass
        // sees equal roots and drops it. Component count strictly decreases
        // while any edge survives, so the loop is finite.
        while !pending.is_empty() {
            iterations += 1;
            pending = self.tracked_pass(&pending, ops);
        }
        iterations
    }

    /// One tracked verification pass: returns the edges that observed
    /// distinct roots and must be re-verified.
    #[cfg(not(loom))]
    fn tracked_pass(&self, edges: &[(u32, u32)], ops: &mut UfOpStats) -> Vec<(u32, u32)> {
        let nthreads = rayon::current_num_threads().max(1);
        let chunk_len = edges.len().div_ceil(nthreads).max(1);
        let chunks: Vec<&[(u32, u32)]> = edges.chunks(chunk_len).collect();
        let partials: Vec<(Vec<(u32, u32)>, UfOpStats)> = chunks
            .par_iter()
            .map(|part| {
                let mut local = UfOpStats::default();
                let mut keep = Vec::new();
                for &(u, v) in *part {
                    if self.process_edge_tracked(u, v, &mut local) {
                        keep.push((u, v));
                    }
                }
                (keep, local)
            })
            .collect();
        let mut pending = Vec::new();
        for (keep, local) in partials {
            pending.extend(keep);
            ops.merge(local);
        }
        pending
    }

    /// Sequential edge processing (used by tests and small merges).
    pub fn process_edges_serial(&self, edges: &[(u32, u32)]) {
        let mut current: Vec<(u32, u32)> = edges.to_vec();
        while !current.is_empty() {
            current.retain(|&(u, v)| self.process_edge(u, v));
        }
    }

    /// Snapshot into a fully-compressed component array.
    pub fn to_component_array(&self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|x| self.find(x))
            .collect()
    }

    /// Consume into a sequential [`crate::seq::DisjointSet`].
    pub fn into_disjoint_set(self) -> crate::seq::DisjointSet {
        let parent: Vec<u32> = self.parent.into_iter().map(|a| a.into_inner()).collect();
        crate::seq::DisjointSet::from_parent_array(parent)
    }

    /// Snapshot the RAW parent array — no find, no compression.
    ///
    /// This is the checkpoint primitive: replaying a pipeline from a
    /// checkpoint is byte-identical only if the restored structure is
    /// the exact tree the crashed run had (a compressed snapshot like
    /// [`ConcurrentDisjointSet::to_component_array`] answers the same
    /// component queries but changes later path-splitting and union
    /// order, so labels could legally differ). Call only at a quiescent
    /// boundary: concurrent mutators would make the snapshot a torn mix
    /// of old and new parents.
    pub fn parent_snapshot(&self) -> Vec<u32> {
        self.parent
            .iter()
            // ORDERING: Acquire — pairs with the AcqRel link/split CASes so
            // a quiescent-point snapshot observes every completed update;
            // at a true quiescent boundary Relaxed would also do, but the
            // snapshot must not depend on the caller getting that right.
            .map(|a| a.load(Ordering::Acquire))
            .collect()
    }

    /// Rebuild from a raw parent array (the inverse of
    /// [`ConcurrentDisjointSet::parent_snapshot`]): the restored set has
    /// the exact tree structure of the snapshot, so a replay from it is
    /// byte-identical to the run that took it.
    ///
    /// # Panics
    /// Panics if any parent index is out of range.
    pub fn from_parent_array(parent: Vec<u32>) -> Self {
        let n = parent.len() as u32;
        assert!(parent.iter().all(|&p| p < n), "parent index out of range");
        Self {
            parent: parent.into_iter().map(AtomicU32::new).collect(),
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::seq::DisjointSet;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn labels_of(arr: &[u32]) -> Vec<u32> {
        arr.to_vec()
    }

    fn reference_array(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
        let mut ds = DisjointSet::new(n);
        for &(u, v) in edges {
            ds.union(u, v);
        }
        ds.into_component_array()
    }

    fn same_partition(a: &[u32], b: &[u32]) -> bool {
        // Two labelings describe the same partition iff the pairing of
        // labels is a bijection.
        assert_eq!(a.len(), b.len());
        let mut fwd = std::collections::HashMap::new();
        let mut bwd = std::collections::HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
                return false;
            }
        }
        true
    }

    #[test]
    fn empty_edges() {
        let ds = ConcurrentDisjointSet::new(4);
        let it = ds.process_edges_parallel(&[]);
        assert_eq!(it, 0);
        assert_eq!(ds.to_component_array(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn chain_connects_everything() {
        let n = 1000;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let ds = ConcurrentDisjointSet::new(n as usize);
        ds.process_edges_parallel(&edges);
        let arr = ds.to_component_array();
        assert!(arr.iter().all(|&r| r == arr[0]));
        // Union-by-index: the final root is the max index.
        assert_eq!(arr[0], n - 1);
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(5);
        for trial in 0..20 {
            let n = rng.gen_range(2..500);
            let m = rng.gen_range(0..2 * n);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let cds = ConcurrentDisjointSet::new(n);
            cds.process_edges_parallel(&edges);
            let got = cds.to_component_array();
            let want = reference_array(n, &edges);
            assert!(same_partition(&got, &want), "trial {trial}");
        }
    }

    #[test]
    fn serial_processing_matches() {
        let edges = vec![(0, 1), (2, 3), (1, 2), (5, 6)];
        let cds = ConcurrentDisjointSet::new(8);
        cds.process_edges_serial(&edges);
        let got = cds.to_component_array();
        let want = reference_array(8, &edges);
        assert!(same_partition(&labels_of(&got), &want));
    }

    #[test]
    fn into_disjoint_set_preserves_components() {
        let edges = vec![(0, 1), (1, 2)];
        let cds = ConcurrentDisjointSet::new(5);
        cds.process_edges_parallel(&edges);
        let mut ds = cds.into_disjoint_set();
        assert!(ds.connected(0, 2));
        assert!(!ds.connected(0, 3));
        assert_eq!(ds.count_components(), 3);
    }

    #[test]
    fn parent_snapshot_roundtrips_the_exact_tree() {
        let cds = ConcurrentDisjointSet::new(64);
        let edges: Vec<(u32, u32)> = (0..63).map(|i| (i, i + 1)).collect();
        cds.process_edges_serial(&edges);
        let snap = cds.parent_snapshot();
        // The snapshot is the raw tree, not a compressed component array.
        let restored = ConcurrentDisjointSet::from_parent_array(snap.clone());
        assert_eq!(restored.parent_snapshot(), snap, "restore must be exact");
        // And a replayed operation sequence behaves identically: same
        // finds, same resulting structure.
        let more: Vec<(u32, u32)> = vec![(0, 63), (5, 40)];
        let a = ConcurrentDisjointSet::from_parent_array(snap.clone());
        let b = ConcurrentDisjointSet::from_parent_array(snap);
        a.process_edges_serial(&more);
        b.process_edges_serial(&more);
        assert_eq!(a.parent_snapshot(), b.parent_snapshot());
        assert_eq!(a.to_component_array(), b.to_component_array());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parent_array_rejects_out_of_range_parents() {
        let _ = ConcurrentDisjointSet::from_parent_array(vec![0, 5, 1]);
    }

    #[test]
    fn heavy_contention_single_component() {
        // Star graph: every edge touches vertex 0 -> maximal CAS contention.
        let n = 20_000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|i| (0, i)).collect();
        let cds = ConcurrentDisjointSet::new(n as usize);
        cds.process_edges_parallel(&edges);
        let arr = cds.to_component_array();
        assert!(arr.iter().all(|&r| r == arr[0]));
    }

    #[test]
    fn duplicate_and_self_edges() {
        let edges = vec![(1, 1), (1, 1), (2, 3), (2, 3), (3, 2)];
        let cds = ConcurrentDisjointSet::new(5);
        cds.process_edges_parallel(&edges);
        let mut ds = cds.into_disjoint_set();
        assert_eq!(ds.count_components(), 4); // {0},{1},{2,3},{4}
        assert!(ds.connected(2, 3));
    }

    #[test]
    fn find_is_idempotent_under_concurrency() {
        let n = 10_000u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let cds = ConcurrentDisjointSet::new(n as usize);
        cds.process_edges_parallel(&edges);
        // Concurrent finds after convergence all agree.
        let roots: Vec<u32> = (0..n).into_par_iter().map(|x| cds.find(x)).collect();
        assert!(roots.iter().all(|&r| r == roots[0]));
    }

    #[test]
    fn tracked_matches_untracked_and_counts_unions_exactly() {
        let mut rng = SmallRng::seed_from_u64(11);
        for trial in 0..10 {
            let n = rng.gen_range(2..400);
            let m = rng.gen_range(0..2 * n);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
                .collect();
            let cds = ConcurrentDisjointSet::new(n);
            let mut ops = UfOpStats::default();
            let iterations = cds.process_edges_parallel_tracked(&edges, &mut ops);
            let got = cds.to_component_array();
            let want = reference_array(n, &edges);
            assert!(same_partition(&got, &want), "trial {trial}");
            // Every successful link merges exactly two components, so the
            // union count equals the drop in component count.
            let components = {
                let mut roots = got.clone();
                roots.sort_unstable();
                roots.dedup();
                roots.len()
            };
            assert_eq!(ops.unions, (n - components) as u64, "trial {trial}");
            // Each processed edge performs exactly two finds per pass.
            assert!(ops.finds >= 2 * m as u64, "trial {trial}");
            if m > 0 {
                assert!(iterations >= 1);
            }
        }
    }

    #[test]
    fn tracked_find_counts() {
        let ds = ConcurrentDisjointSet::new(4);
        let mut ops = UfOpStats::default();
        // Build a chain 0->1->2 manually, then find(0) must split paths.
        assert!(ds.try_link(0, 1));
        assert!(ds.try_link(1, 2));
        assert_eq!(ds.find_tracked(0, &mut ops), 2);
        assert_eq!(ops.finds, 1);
        assert!(ops.path_splits >= 1);
        let mut more = UfOpStats::default();
        more.merge(ops);
        assert_eq!(more, ops);
    }

    proptest! {
        #[test]
        fn prop_matches_sequential(
            n in 1usize..80,
            raw in proptest::collection::vec((0u32..80, 0u32..80), 0..200),
        ) {
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let cds = ConcurrentDisjointSet::new(n);
            cds.process_edges_parallel(&edges);
            let got = cds.to_component_array();
            let want = reference_array(n, &edges);
            prop_assert!(same_partition(&got, &want));
        }
    }
}
