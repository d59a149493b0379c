//! MergeCC: absorbing a remote task's components (paper §3.6).
//!
//! In the distributed merge, a receiving task treats an incoming component
//! array `p'` as a batch of edges: entry `i` encodes the edge `(i, p'[i])`,
//! because vertex `i` and its label are in one component on the sending
//! task. [`absorb_parent_array`] replays those edges into the local forest.
//! On the wire a task's components are a [`ComponentMsg`]: the dense array,
//! or only its non-root entries when that is fewer bytes — the contraction
//! direction the paper's §5 cites (Iverson et al.). The pairwise log₂P
//! schedule that decides who sends to whom lives in the pipeline
//! (`metaprep-core`); this module is the per-step merge kernel.

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
    union_pairs(local, non_roots(remote));
}

/// `(i, roots[i])` for each entry that is not its own root, ascending.
fn non_roots(roots: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    (0..).zip(roots.iter().copied()).filter(|&(i, r)| i != r)
}

/// The one union loop of both encodings: a dense array and its sparse
/// pairs make the same `union` calls in the same order.
fn union_pairs(local: &mut DisjointSet, pairs: impl IntoIterator<Item = (u32, u32)>) {
    for (v, r) in pairs {
        local.union(v, r);
    }
}

/// A task's components as one message (Merge-Comm and the CC-I/O
/// broadcast), in whichever encoding is fewer bytes for this forest.
///
/// A task that saw only a slice of the k-mer range leaves most reads
/// untouched, so its component array is mostly the identity and the
/// `(vertex, root)` pairs of its non-roots are smaller; a forest with few
/// large components is cheaper dense. Both encodings absorb through the
/// same `union(i, p[i])` calls in ascending `i`, so the receiver's forest
/// does not depend on which one was sent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComponentMsg {
    /// The fully compressed component array: 4 bytes per vertex.
    Dense(Vec<u32>),
    /// `(vertex, root)` for each non-root vertex in ascending vertex
    /// order: 8 bytes per non-root.
    Sparse(Vec<(u32, u32)>),
}

impl ComponentMsg {
    /// Encode `forest`'s components (compressing it first). Sparse only
    /// when strictly fewer bytes; a tie stays dense.
    pub fn of(forest: &mut DisjointSet) -> Self {
        let roots = forest.component_array();
        if 8 * non_roots(roots).count() < 4 * roots.len() {
            Self::Sparse(non_roots(roots).collect())
        } else {
            Self::Dense(roots.to_vec())
        }
    }

    /// Wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Self::Dense(roots) => std::mem::size_of_val(roots.as_slice()),
            Self::Sparse(pairs) => std::mem::size_of_val(pairs.as_slice()),
        }
    }

    /// Union the sender's components into `local`.
    ///
    /// # Panics
    /// Panics if a dense array's length differs from `local`'s, or a pair
    /// names a vertex outside it.
    pub fn absorb_into(&self, local: &mut DisjointSet) {
        match self {
            Self::Dense(roots) => absorb_parent_array(local, roots),
            Self::Sparse(pairs) => union_pairs(local, pairs.iter().copied()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn forest_of(n: usize, edges: &[(u32, u32)]) -> DisjointSet {
        let mut ds = DisjointSet::new(n);
        for &(u, v) in edges {
            ds.union(u, v);
        }
        ds
    }

    fn array_of(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
        forest_of(n, edges).into_component_array()
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
    fn a_mostly_identity_forest_goes_sparse_and_a_tie_stays_dense() {
        // Components {0,1} (root 1) and {5,6} (root 6): non-roots 0 and 5.
        let msg = ComponentMsg::of(&mut forest_of(1000, &[(0, 1), (5, 6)]));
        assert_eq!(msg, ComponentMsg::Sparse(vec![(0, 1), (5, 6)]));
        assert_eq!(msg.size_bytes(), 16);
        // Two non-roots of four vertices: 16 bytes either way.
        let msg = ComponentMsg::of(&mut forest_of(4, &[(0, 1), (2, 3)]));
        assert_eq!(msg, ComponentMsg::Dense(vec![1, 1, 3, 3]));
        assert_eq!(msg.size_bytes(), 16);
    }

    #[test]
    #[should_panic]
    fn absorb_rejects_length_mismatch() {
        let mut local = DisjointSet::new(3);
        absorb_parent_array(&mut local, &[0, 1]);
    }

    /// A forest of `n` vertices: all singletons, one component, or the
    /// union of `edges` (taken modulo `n`).
    fn shaped_forest(n: usize, shape: u8, edges: &[(u32, u32)]) -> DisjointSet {
        let edges: Vec<(u32, u32)> = match shape {
            0 => Vec::new(),
            1 => (1..n as u32).map(|v| (v - 1, v)).collect(),
            _ if n == 0 => Vec::new(),
            _ => edges
                .iter()
                .map(|&(a, b)| (a % n as u32, b % n as u32))
                .collect(),
        };
        forest_of(n, &edges)
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

        #[test]
        fn prop_a_component_msg_is_the_smaller_encoding_and_absorbs_like_dense(
            n in 0usize..64,
            shape in 0u8..3,
            remote_edges in proptest::collection::vec((0u32..64, 0u32..64), 0..64),
            local_edges in proptest::collection::vec((0u32..64, 0u32..64), 0..16),
        ) {
            let mut remote = shaped_forest(n, shape, &remote_edges);
            let msg = ComponentMsg::of(&mut remote);
            let dense = remote.component_array().to_vec();
            let non_roots = dense.iter().enumerate().filter(|&(i, &r)| i as u32 != r).count();
            prop_assert_eq!(msg.size_bytes(), (4 * n).min(8 * non_roots));
            prop_assert_eq!(matches!(msg, ComponentMsg::Sparse(_)), 8 * non_roots < 4 * n);

            let mut via_msg = shaped_forest(n, 2, &local_edges);
            let mut via_dense = via_msg.clone();
            msg.absorb_into(&mut via_msg);
            absorb_parent_array(&mut via_dense, &dense);
            prop_assert_eq!(via_msg.raw_parents(), via_dense.raw_parents());
        }
    }
}
