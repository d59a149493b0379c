//! Property-based integration tests: the full pipeline against a
//! brute-force read-graph construction on arbitrary read sets.

use metaprep::cc::DisjointSet;
use metaprep::core::{Pipeline, PipelineConfig};
use metaprep::io::ReadStore;
use metaprep::kmer::{for_each_canonical_kmer, Kmer64};
use proptest::prelude::*;
use std::collections::HashMap;

/// Brute-force reference partition.
fn reference(reads: &ReadStore, k: usize, kf: Option<(u32, u32)>) -> Vec<u32> {
    let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
    for (seq, frag) in reads.iter() {
        for_each_canonical_kmer::<Kmer64>(seq, k, |v, _| {
            groups.entry(v).or_default().push(frag);
        });
    }
    let mut ds = DisjointSet::new(reads.num_fragments() as usize);
    for (_, rs) in groups {
        if let Some((lo, hi)) = kf {
            let f = rs.len() as u32;
            if f < lo || f > hi {
                continue;
            }
        }
        for w in rs.windows(2) {
            ds.union(w[0], w[1]);
        }
    }
    ds.into_component_array()
}

fn same_partition(a: &[u32], b: &[u32]) -> bool {
    let mut fwd = HashMap::new();
    let mut bwd = HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
            return false;
        }
    }
    true
}

/// Arbitrary read sets: one to a few dozen short reads over ACGTN, each
/// store either all mate pairs or all single reads (the two layouts a
/// FASTQ file holds).
fn read_store_strategy() -> impl Strategy<Value = ReadStore> {
    let seq = || {
        proptest::collection::vec(
            proptest::sample::select(vec![b'A', b'C', b'G', b'T', b'N']),
            12..60,
        )
    };
    (
        proptest::collection::vec((seq(), seq()), 1..40),
        proptest::bool::ANY,
    )
        .prop_map(|(reads, paired)| {
            let mut store = ReadStore::new();
            for (mate1, mate2) in reads {
                if paired {
                    store.push_pair(&mate1, &mate2);
                } else {
                    store.push_single(&mate1);
                }
            }
            store
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_pipeline_matches_bruteforce(
        reads in read_store_strategy(),
        tasks in 1usize..4,
        passes in 1usize..4,
        threads in 1usize..3,
    ) {
        let k = 11;
        let cfg = PipelineConfig::builder()
            .k(k)
            .m(4)
            .tasks(tasks)
            .passes(passes)
            .threads(threads)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let want = reference(&reads, k, None);
        prop_assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn prop_pipeline_with_filter_matches_bruteforce(
        reads in read_store_strategy(),
        lo in 1u32..4,
        span in 0u32..6,
    ) {
        let k = 11;
        let kf = (lo, lo + span);
        let cfg = PipelineConfig::builder()
            .k(k)
            .m(4)
            .tasks(2)
            .passes(2)
            .kf_filter(kf.0, kf.1)
            .build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        let want = reference(&reads, k, Some(kf));
        prop_assert!(same_partition(&res.labels, &want));
    }

    #[test]
    fn prop_labels_are_valid_roots(reads in read_store_strategy()) {
        let cfg = PipelineConfig::builder().k(11).m(4).tasks(2).build();
        let res = Pipeline::new(cfg).run_reads(&reads).unwrap();
        // Compressed labels: every label is a fixed point.
        for &l in &res.labels {
            prop_assert_eq!(res.labels[l as usize], l);
        }
        // Sizes sum to the vertex count.
        let sum: usize = res.components.sizes_desc.iter().sum();
        prop_assert_eq!(sum, res.labels.len());
    }
}
