//! Component statistics — the numbers behind paper Tables 7–9.

/// Summary of a component labeling.
#[derive(Clone, Debug, PartialEq)]
pub struct ComponentStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of components.
    pub components: usize,
    /// Size of the largest component.
    pub largest: usize,
    /// Root label of the largest component.
    pub largest_root: u32,
    /// Sizes of all components, descending.
    pub sizes_desc: Vec<usize>,
}

impl ComponentStats {
    /// Compute stats from a fully-compressed component array (every entry
    /// points directly at its root, as produced by
    /// [`crate::seq::DisjointSet::component_array`]).
    pub fn from_component_array(arr: &[u32]) -> Self {
        let mut size_of_root = std::collections::HashMap::new();
        for &r in arr {
            *size_of_root.entry(r).or_insert(0usize) += 1;
        }
        let (largest_root, largest) = size_of_root
            .iter()
            .max_by_key(|&(&r, &s)| (s, std::cmp::Reverse(r)))
            .map(|(&r, &s)| (r, s))
            .unwrap_or((0, 0));
        let mut sizes_desc: Vec<usize> = size_of_root.values().copied().collect();
        sizes_desc.sort_unstable_by(|a, b| b.cmp(a));
        Self {
            vertices: arr.len(),
            components: size_of_root.len(),
            largest,
            largest_root,
            sizes_desc,
        }
    }

    /// Fraction of vertices in the largest component — the "LC size
    /// (% Reads)" column of paper Table 7.
    pub fn largest_fraction(&self) -> f64 {
        if self.vertices == 0 {
            0.0
        } else {
            self.largest as f64 / self.vertices as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DisjointSet;

    fn stats_of(n: usize, edges: &[(u32, u32)]) -> ComponentStats {
        let mut ds = DisjointSet::new(n);
        for &(u, v) in edges {
            ds.union(u, v);
        }
        ComponentStats::from_component_array(ds.component_array())
    }

    #[test]
    fn all_singletons() {
        let s = stats_of(4, &[]);
        assert_eq!(s.components, 4);
        assert_eq!(s.largest, 1);
        assert_eq!(s.sizes_desc, vec![1; 4]);
        assert!((s.largest_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn one_giant_component() {
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let s = stats_of(10, &edges);
        assert_eq!(s.components, 1);
        assert_eq!(s.largest, 10);
        assert_eq!(s.largest_fraction(), 1.0);
        assert_eq!(s.sizes_desc, vec![10]);
    }

    #[test]
    fn mixed_components() {
        let s = stats_of(7, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(s.components, 4); // {0,1,2},{3,4},{5},{6}
        assert_eq!(s.largest, 3);
        assert_eq!(s.sizes_desc, vec![3, 2, 1, 1]);
    }

    #[test]
    fn largest_root_identifies_the_giant() {
        let mut ds = DisjointSet::new(5);
        ds.union(0, 1);
        ds.union(1, 2);
        let arr = ds.component_array().to_vec();
        let s = ComponentStats::from_component_array(&arr);
        // Vertices 0,1,2 share the largest_root label.
        assert_eq!(arr[0], s.largest_root);
        assert_eq!(arr[1], s.largest_root);
        assert_eq!(arr[2], s.largest_root);
        assert_ne!(arr[3], s.largest_root);
    }

    #[test]
    fn empty_array() {
        let s = ComponentStats::from_component_array(&[]);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.components, 0);
        assert_eq!(s.largest_fraction(), 0.0);
    }
}
