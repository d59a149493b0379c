//! Property-based differential test: the lock-free
//! [`ConcurrentDisjointSet`] (paper Algorithm 1) and the sequential
//! [`DisjointSet`] oracle must agree on the partition for every generated
//! edge stream.
//!
//! This complements the loom model tests (`tests/loom.rs`): loom proves
//! the 2–3 thread micro-schedules exhaustively; this test cross-checks
//! the two implementations over *many* random graphs at real rayon
//! parallelism, where each run is one sampled schedule.

use metaprep_cc::concurrent::ConcurrentDisjointSet;
use metaprep_cc::seq::DisjointSet;
use proptest::prelude::*;

/// Two labelings describe the same partition iff label pairing is a
/// bijection in both directions.
fn same_partition(a: &[u32], b: &[u32]) -> bool {
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

fn sequential(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut ds = DisjointSet::new(n);
    for &(u, v) in edges {
        ds.union(u, v);
    }
    ds.into_component_array()
}

fn concurrent(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let cds = ConcurrentDisjointSet::new(n);
    cds.process_edges_parallel(edges);
    cds.to_component_array()
}

proptest! {
    /// Random multigraphs (self-loops and duplicates included): the two
    /// implementations agree.
    #[test]
    fn prop_three_way_agreement(
        n in 1usize..120,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..300),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let seq = sequential(n, &edges);
        let conc = concurrent(n, &edges);
        prop_assert!(same_partition(&conc, &seq), "concurrent vs sequential");
    }

    /// Contention-heavy shape: star graphs force every union through the
    /// same root, the worst case for the CAS re-verification loop.
    #[test]
    fn prop_three_way_agreement_star(
        n in 2usize..200,
        extra in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..50),
    ) {
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        edges.extend(extra.into_iter().map(|(a, b)| (a % n as u32, b % n as u32)));
        let seq = sequential(n, &edges);
        let conc = concurrent(n, &edges);
        prop_assert!(same_partition(&conc, &seq), "concurrent vs sequential");
    }

    /// Component-count agreement on sparse graphs (many components
    /// survive, exercising the "no accidental extra unions" direction —
    /// partition bijection already implies it, this pins the count).
    #[test]
    fn prop_component_counts_match(
        n in 1usize..100,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let count = |arr: &[u32]| {
            let mut roots: Vec<u32> = arr.to_vec();
            roots.sort_unstable();
            roots.dedup();
            roots.len()
        };
        let seq = sequential(n, &edges);
        prop_assert_eq!(count(&concurrent(n, &edges)), count(&seq));
    }
}
