//! MergeCC: absorbing a remote task's component array (paper §3.6).
//!
//! In the distributed merge, a receiving task treats an incoming component
//! array `p'` as a batch of edges: entry `i` encodes the edge `(i, p'[i])`,
//! because vertex `i` and its label are in one component on the sending
//! task. [`absorb_parent_array`] replays those edges into the local forest.
//! The pairwise log₂P schedule that decides who sends to whom lives in the
//! pipeline (`metaprep-core`); this module is the per-step merge kernel.

use crate::seq::DisjointSet;

/// Merge a received component array into `local`.
///
/// # Panics
/// Panics if the arrays disagree on vertex count.
pub fn absorb_parent_array(local: &mut DisjointSet, remote: &[u32]) {
    assert_eq!(
        local.len(),
        remote.len(),
        "component arrays must cover the same vertex set"
    );
    for (i, &p) in remote.iter().enumerate() {
        if p != i as u32 {
            local.union(i as u32, p);
        }
    }
}

/// Sparse form of a component array: only the entries where a vertex is
/// *not* its own root, as `(vertex, root)` pairs.
///
/// This is the communication-reduction direction the paper's §5 points at
/// (component-graph contraction, Iverson et al.): a task that saw only a
/// slice of the k-mer range leaves most reads untouched, so its component
/// array is mostly the identity — sending just the non-trivial entries
/// shrinks Merge-Comm volume. The pipeline exposes it as the
/// `merge_sparse` option; `exp_fig6`-style runs show the byte reduction.
pub fn sparse_pairs(ds: &mut DisjointSet) -> Vec<(u32, u32)> {
    ds.component_array()
        .iter()
        .enumerate()
        .filter(|&(i, &r)| i as u32 != r)
        .map(|(i, &r)| (i as u32, r))
        .collect()
}

/// Merge a received sparse component representation into `local`.
pub fn absorb_sparse_pairs(local: &mut DisjointSet, pairs: &[(u32, u32)]) {
    for &(v, r) in pairs {
        local.union(v, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn array_of(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
        let mut ds = DisjointSet::new(n);
        for &(u, v) in edges {
            ds.union(u, v);
        }
        ds.into_component_array()
    }

    fn same_partition(a: &[u32], b: &[u32]) -> bool {
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
    fn absorb_unions_remote_components() {
        let n = 6;
        let mut local = DisjointSet::from_parent_array(array_of(n, &[(0, 1)]));
        let remote = array_of(n, &[(1, 2), (4, 5)]);
        absorb_parent_array(&mut local, &remote);
        assert!(local.connected(0, 2));
        assert!(local.connected(4, 5));
        assert!(!local.connected(0, 4));
        assert_eq!(local.count_components(), 3); // {0,1,2},{3},{4,5}
    }

    #[test]
    fn sparse_pairs_roundtrip_equals_dense() {
        let n = 10;
        let mut a = DisjointSet::from_parent_array(array_of(n, &[(0, 1), (2, 3), (3, 4)]));
        let pairs = sparse_pairs(&mut a);
        // Only non-root vertices appear.
        assert!(pairs.iter().all(|&(v, r)| v != r));
        // Components {0,1} (root 1) and {2,3,4} (root 4): vertices 0, 2, 3
        // are non-roots.
        assert_eq!(pairs.len(), 3);
        let mut dense_target = DisjointSet::new(n);
        absorb_parent_array(&mut dense_target, a.component_array());
        let mut sparse_target = DisjointSet::new(n);
        absorb_sparse_pairs(&mut sparse_target, &pairs);
        assert!(same_partition(
            sparse_target.component_array(),
            dense_target.component_array()
        ));
    }

    #[test]
    fn sparse_is_smaller_for_mostly_identity_arrays() {
        let n = 1000;
        let mut ds = DisjointSet::from_parent_array(array_of(n, &[(0, 1), (5, 6)]));
        let pairs = sparse_pairs(&mut ds);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn sparse_empty_for_singletons() {
        let mut ds = DisjointSet::new(5);
        assert!(sparse_pairs(&mut ds).is_empty());
    }

    #[test]
    #[should_panic]
    fn absorb_rejects_length_mismatch() {
        let mut local = DisjointSet::new(3);
        absorb_parent_array(&mut local, &[0, 1]);
    }

    proptest! {
        #[test]
        fn prop_absorbing_every_array_is_edge_union(
            n in 2usize..40,
            seed_edges in proptest::collection::vec(
                proptest::collection::vec((0u32..40, 0u32..40), 0..20), 1..6),
        ) {
            let parts: Vec<Vec<(u32, u32)>> = seed_edges
                .into_iter()
                .map(|es| es.into_iter()
                    .map(|(a, b)| (a % n as u32, b % n as u32))
                    .collect())
                .collect();
            let mut merged = DisjointSet::new(n);
            for edges in &parts {
                absorb_parent_array(&mut merged, &array_of(n, edges));
            }
            let all: Vec<(u32, u32)> = parts.concat();
            prop_assert!(same_partition(&merged.into_component_array(), &array_of(n, &all)));
        }
    }
}
