//! The digital normalization pass.

use crate::countmin::{CountMinSketch, COUNTER_MAX};
use metaprep_io::ReadStore;
use metaprep_kmer::{for_each_canonical_kmer, Kmer64};

/// Normalization parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NormalizeConfig {
    /// k-mer length for abundance estimation (`<= 32`; khmer uses 20).
    pub k: usize,
    /// Target coverage: a fragment whose median k-mer abundance is already
    /// `>= target` is dropped. At most
    /// [`COUNTER_MAX`](crate::countmin::COUNTER_MAX), where the sketch's
    /// counters saturate; [`normalize`] panics above it.
    pub target: u64,
    /// Count-min sketch width (counters per row; rounded up to a power of
    /// two).
    pub sketch_width: usize,
    /// Count-min sketch depth (rows, `1..=`[`MAX_DEPTH`](crate::countmin::MAX_DEPTH);
    /// [`normalize`] panics outside that range).
    pub sketch_depth: usize,
    /// Sketch hash seed.
    pub seed: u64,
}

impl Default for NormalizeConfig {
    fn default() -> Self {
        Self {
            k: 20,
            target: 20,
            sketch_width: 1 << 22,
            sketch_depth: 4,
            seed: 0xD16E57,
        }
    }
}

/// Output of [`normalize`].
#[derive(Clone, Debug)]
pub struct NormalizeResult {
    /// The kept reads (fragment ids renumbered densely, pairing intact).
    pub reads: ReadStore,
    /// Fragments kept.
    pub kept: u64,
    /// Fragments dropped as redundant.
    pub dropped: u64,
    /// Sketch memory used, in bytes.
    pub sketch_bytes: usize,
}

impl NormalizeResult {
    /// Fraction of fragments kept.
    pub fn keep_fraction(&self) -> f64 {
        let total = self.kept + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.kept as f64 / total as f64
        }
    }
}

/// Median of a small unsorted vector (by sorting in place).
fn median(xs: &mut [u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Stream the fragments of `reads` and keep each one whose *median* k-mer
/// abundance (estimated against the reads kept so far) is below
/// `cfg.target`. Kept fragments update the sketch; dropped ones do not.
///
/// Order-dependent by design, exactly like khmer's `normalize-by-median`:
/// earlier reads of a deep region are kept, later ones dropped.
pub fn normalize(reads: &ReadStore, cfg: NormalizeConfig) -> NormalizeResult {
    assert!(cfg.k >= 1 && cfg.k <= 32);
    assert!(
        (1..=u64::from(COUNTER_MAX)).contains(&cfg.target),
        "normalize: target {} is outside 1..={COUNTER_MAX} (the sketch's counters saturate at {COUNTER_MAX})",
        cfg.target
    );
    let mut sketch = CountMinSketch::new(cfg.sketch_width, cfg.sketch_depth, cfg.seed);
    let sketch_bytes = sketch.memory_bytes();

    // Group sequences by fragment: both mates decide (and are kept or
    // dropped) together, preserving pairing.
    let n = reads.len();
    let mut kept_store = ReadStore::new();
    let mut kept = 0u64;
    let mut dropped = 0u64;

    let mut i = 0usize;
    let mut abund: Vec<u64> = Vec::new();
    let mut kmers: Vec<u64> = Vec::new();
    while i < n {
        let frag = reads.frag_id(i);
        let mut j = i + 1;
        while j < n && reads.frag_id(j) == frag {
            j += 1;
        }

        // Collect the fragment's k-mers and their estimated abundances.
        abund.clear();
        kmers.clear();
        for s in i..j {
            for_each_canonical_kmer::<Kmer64>(reads.seq(s), cfg.k, |v, _| kmers.push(v));
        }
        for &v in &kmers {
            abund.push(sketch.estimate(v));
        }

        if kmers.is_empty() || median(&mut abund) < cfg.target {
            // Keep: copy the sequences and teach the sketch.
            let new_frag = kept_store.num_fragments();
            for s in i..j {
                kept_store.push_with_frag(reads.seq(s), new_frag);
                if let Some(name) = reads.name(s) {
                    kept_store.set_last_name(name);
                }
                if let Some(q) = reads.qual(s) {
                    kept_store.set_last_qual(q);
                }
            }
            sketch.add_batch(&kmers);
            kept += 1;
        } else {
            dropped += 1;
        }
        i = j;
    }

    NormalizeResult {
        reads: kept_store,
        kept,
        dropped,
        sketch_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_synth::{simulate_community, CommunityProfile};

    fn cfg(target: u64) -> NormalizeConfig {
        NormalizeConfig {
            k: 15,
            target,
            sketch_width: 1 << 16,
            sketch_depth: 4,
            seed: 1,
        }
    }

    #[test]
    #[should_panic(expected = "target 256 is outside 1..=255")]
    fn rejects_a_target_past_the_counters() {
        normalize(&ReadStore::new(), cfg(256));
    }

    #[test]
    fn unique_reads_all_kept() {
        let mut p = CommunityProfile::quickstart();
        p.read_pairs = 200;
        p.species = 50; // very low coverage: nothing is redundant
        p.genome_len = (20_000, 30_000);
        let data = simulate_community(&p, 1);
        let res = normalize(&data.reads, cfg(5));
        assert_eq!(res.dropped, 0);
        assert_eq!(res.kept, 200);
        assert_eq!(res.reads.len(), data.reads.len());
    }

    #[test]
    fn duplicate_reads_get_dropped() {
        // A non-periodic read, duplicated: each of its k-mers occurs once
        // per copy, so the median abundance rises by one per kept copy.
        let mut reads = ReadStore::new();
        let mut x = 9u64;
        let seq: Vec<u8> = (0..60)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                b"ACGT"[(x >> 61) as usize & 3]
            })
            .collect();
        for _ in 0..20 {
            reads.push_single(&seq);
        }
        let res = normalize(&reads, cfg(5));
        // First 5 copies raise the median to the target; the rest drop.
        assert_eq!(res.kept, 5);
        assert_eq!(res.dropped, 15);
    }

    #[test]
    fn pairing_survives_normalization() {
        let mut p = CommunityProfile::quickstart();
        p.read_pairs = 300;
        let data = simulate_community(&p, 2);
        let res = normalize(&data.reads, cfg(3));
        // Every kept fragment still has exactly two mates.
        assert_eq!(res.reads.len() as u64, 2 * res.kept);
        for f in 0..res.reads.num_fragments() {
            let members: Vec<usize> = (0..res.reads.len())
                .filter(|&i| res.reads.frag_id(i) == f)
                .collect();
            assert_eq!(members.len(), 2, "fragment {f}");
        }
    }

    #[test]
    fn deep_coverage_is_flattened() {
        // Deep single-genome coverage: normalization keeps roughly
        // target/coverage of the reads.
        let mut p = CommunityProfile::quickstart();
        p.species = 1;
        p.genome_len = (5_000, 5_001);
        p.read_pairs = 2_000; // ~80x coverage
        p.error_rate = 0.0;
        p.n_rate = 0.0;
        let data = simulate_community(&p, 3);
        let res = normalize(&data.reads, cfg(10));
        let frac = res.keep_fraction();
        assert!(frac < 0.5, "kept {frac}");
        assert!(res.kept > 100, "kept {}", res.kept);
    }

    #[test]
    fn empty_input() {
        let res = normalize(&ReadStore::new(), cfg(5));
        assert_eq!(res.kept, 0);
        assert_eq!(res.dropped, 0);
        assert_eq!(res.keep_fraction(), 0.0);
    }

    #[test]
    fn target_one_keeps_only_novel_reads() {
        let mut reads = ReadStore::new();
        let a: Vec<u8> = b"ACGTTGCA".iter().cycle().take(50).copied().collect();
        let b: Vec<u8> = b"GGATCCAA".iter().cycle().take(50).copied().collect();
        reads.push_single(&a);
        reads.push_single(&a); // duplicate -> dropped at target 1
        reads.push_single(&b); // novel -> kept
        let res = normalize(&reads, cfg(1));
        assert_eq!(res.kept, 2);
        assert_eq!(res.dropped, 1);
    }

    #[test]
    fn normalization_preserves_assembly_content() {
        // After normalization, the distinct solid k-mers of a deeply
        // covered genome are still (almost all) present.
        use metaprep_kmer::for_each_canonical_kmer;
        use std::collections::HashSet;
        let mut p = CommunityProfile::quickstart();
        p.species = 1;
        p.genome_len = (4_000, 4_001);
        p.read_pairs = 1_000;
        p.error_rate = 0.0;
        p.n_rate = 0.0;
        let data = simulate_community(&p, 4);
        let res = normalize(&data.reads, cfg(10));

        let kmers_of = |store: &ReadStore| {
            let mut set = HashSet::new();
            for (seq, _) in store.iter() {
                for_each_canonical_kmer::<Kmer64>(seq, 15, |v, _| {
                    set.insert(v);
                });
            }
            set
        };
        let before = kmers_of(&data.reads);
        let after = kmers_of(&res.reads);
        let retained = after.len() as f64 / before.len() as f64;
        assert!(retained > 0.95, "retained {retained}");
    }
}
