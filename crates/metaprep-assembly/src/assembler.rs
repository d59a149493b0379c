//! Unitig construction over the canonical de Bruijn graph.

use crate::stats::AssemblyStats;
use metaprep_io::ReadStore;
use metaprep_kmer::{decode_base, for_each_canonical_kmer, Kmer, Kmer128, Kmer64};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Assembler configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AssemblyConfig {
    /// de Bruijn graph k-mer length (`2..=63`; odd values avoid
    /// palindromes; `k <= 32` uses 64-bit nodes, larger k 128-bit).
    pub k: usize,
    /// Minimum k-mer count to be *solid* (error filtering; every dBG
    /// assembler has this knob — MEGAHIT's `--min-count` defaults to 2).
    pub min_count: u32,
    /// Maximum k-mer count (drop ultra-high-frequency repeat k-mers; the
    /// default keeps everything).
    pub max_count: u32,
    /// Contigs shorter than this are dropped from the output.
    pub min_contig_len: usize,
}

impl Default for AssemblyConfig {
    fn default() -> Self {
        Self {
            k: 21,
            min_count: 2,
            max_count: u32::MAX,
            min_contig_len: 100,
        }
    }
}

/// Assembly output.
#[derive(Clone, Debug)]
pub struct Assembly {
    /// Assembled contigs (ASCII bases), longest first.
    pub contigs: Vec<Vec<u8>>,
    /// Summary statistics over the kept contigs.
    pub stats: AssemblyStats,
    /// Number of solid k-mers in the graph.
    pub solid_kmers: u64,
    /// Wall time of counting + graph + walking.
    pub elapsed: Duration,
}

/// Assemble `reads` into unitigs at the single k of `cfg`.
pub fn assemble(reads: &ReadStore, cfg: AssemblyConfig) -> Assembly {
    if cfg.k <= 32 {
        assemble_with_seeds::<Kmer64>(reads, &[], cfg)
    } else {
        assemble_with_seeds::<Kmer128>(reads, &[], cfg)
    }
}

/// MEGAHIT-style multi-k assembly: assemble at each k of `ks` in turn,
/// feeding the previous round's contigs back in as trusted "virtual
/// reads". Small k recovers low-coverage regions, large k resolves
/// repeats — the reason MEGAHIT iterates over a k list (paper §2), and
/// the reason its running time is a multiple of one dBG construction.
pub fn assemble_multik(reads: &ReadStore, ks: &[usize], cfg: AssemblyConfig) -> Assembly {
    assert!(!ks.is_empty(), "need at least one k");
    assert!(ks.windows(2).all(|w| w[0] < w[1]), "k list must increase");
    let t0 = Instant::now();
    let mut contigs: Vec<Vec<u8>> = Vec::new();
    let mut solid_total = 0u64;
    for &k in ks {
        let step_cfg = AssemblyConfig { k, ..cfg };
        let step = if k <= 32 {
            assemble_with_seeds::<Kmer64>(reads, &contigs, step_cfg)
        } else {
            assemble_with_seeds::<Kmer128>(reads, &contigs, step_cfg)
        };
        solid_total = step.solid_kmers;
        contigs = step.contigs;
    }
    contigs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    let stats = AssemblyStats::from_lengths(contigs.iter().map(|c| c.len()));
    Assembly {
        contigs,
        stats,
        solid_kmers: solid_total,
        elapsed: t0.elapsed(),
    }
}

/// Assemble with additional trusted sequences (`seeds`) whose k-mers are
/// solid regardless of read support. Generic over the k-mer width so the
/// same walker serves `k <= 32` (64-bit nodes) and `k <= 63`.
fn assemble_with_seeds<K: Kmer>(
    reads: &ReadStore,
    seeds: &[Vec<u8>],
    cfg: AssemblyConfig,
) -> Assembly {
    assert!(
        cfg.k >= 2 && cfg.k <= K::MAX_K,
        "k out of range for this width"
    );
    assert!(cfg.min_count >= 1 && cfg.min_count <= cfg.max_count);
    let t0 = Instant::now();

    // ---- count k-mers, keep the solid ones ----
    let mut counts: HashMap<K::Repr, u32> = HashMap::new();
    for (seq, _) in reads.iter() {
        for_each_canonical_kmer::<K>(seq, cfg.k, |v, _| {
            *counts.entry(v).or_insert(0) += 1;
        });
    }
    let mut solid: HashSet<K::Repr> = counts
        .iter()
        .filter(|&(_, &c)| c >= cfg.min_count && c <= cfg.max_count)
        .map(|(&v, _)| v)
        .collect();
    // Seed sequences (previous-round contigs) are trusted verbatim.
    for seed in seeds {
        for_each_canonical_kmer::<K>(seed, cfg.k, |v, _| {
            solid.insert(v);
        });
    }
    drop(counts);

    // Deterministic seed order (HashSet iteration order is randomized).
    let mut seeds: Vec<K::Repr> = solid.iter().copied().collect();
    seeds.sort_unstable();

    // ---- walk maximal non-branching paths ----
    let mut visited: HashSet<K::Repr> = HashSet::with_capacity(solid.len());
    let mut contigs: Vec<Vec<u8>> = Vec::new();
    for &c in &seeds {
        if visited.contains(&c) {
            continue;
        }
        visited.insert(c);
        let seed = K::from_value(cfg.k, c);
        let right = extend::<K>(seed, &solid, &mut visited);
        let left = extend::<K>(seed.flipped(), &solid, &mut visited);

        // Contig = revcomp(left walk) + seed + right walk.
        let mut contig: Vec<u8> = Vec::with_capacity(left.len() + cfg.k + right.len());
        for &b in left.iter().rev() {
            contig.push(decode_base(b ^ 3)); // complement of the rc-walk base
        }
        contig.extend(seed.to_ascii());
        for &b in &right {
            contig.push(decode_base(b));
        }
        if contig.len() >= cfg.min_contig_len {
            contigs.push(contig);
        }
    }
    contigs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));

    let stats = AssemblyStats::from_lengths(contigs.iter().map(|c| c.len()));
    Assembly {
        contigs,
        stats,
        solid_kmers: solid.len() as u64,
        elapsed: t0.elapsed(),
    }
}

/// Extend `cur` rightwards while the extension is unique in both directions
/// and unvisited; returns the appended base codes and marks the consumed
/// k-mers visited.
fn extend<K: Kmer>(
    mut cur: K,
    solid: &HashSet<K::Repr>,
    visited: &mut HashSet<K::Repr>,
) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let mut next: Option<(u8, K)> = None;
        let mut n_succ = 0;
        for b in 0..4u8 {
            let mut y = cur;
            y.roll(b);
            if solid.contains(&y.canonical_value()) {
                n_succ += 1;
                next = Some((b, y));
            }
        }
        if n_succ != 1 {
            break; // dead end or branch
        }
        // EXPECT: `n_succ == 1` above guarantees the loop stored exactly one candidate.
        let (b, y) = next.expect("exactly one successor");
        // The successor must have a unique predecessor (us); otherwise it
        // starts a new unitig. Predecessors of y = successors of flip(y).
        let mut n_pred = 0;
        for pb in 0..4u8 {
            let mut z = y.flipped();
            z.roll(pb);
            if solid.contains(&z.canonical_value()) {
                n_pred += 1;
            }
        }
        if n_pred != 1 {
            break;
        }
        let cy = y.canonical_value();
        if visited.contains(&cy) {
            break; // cycle or already-consumed unitig
        }
        visited.insert(cy);
        out.push(b);
        cur = y;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_kmer::alphabet::{complement_code, decode_base, encode_base};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn reverse_complement(seq: &[u8]) -> Vec<u8> {
        let complement = |&b| decode_base(complement_code(encode_base(b)));
        seq.iter().rev().map(complement).collect()
    }

    fn random_genome(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
    }

    /// Tile `genome` with overlapping error-free reads.
    fn tile_reads(genome: &[u8], read_len: usize, step: usize) -> ReadStore {
        let mut s = ReadStore::new();
        let mut at = 0;
        while at + read_len <= genome.len() {
            s.push_single(&genome[at..at + read_len]);
            at += step;
        }
        // Ensure the tail is covered.
        s.push_single(&genome[genome.len() - read_len..]);
        s
    }

    #[test]
    fn perfect_coverage_reassembles_the_genome() {
        let g = random_genome(3000, 1);
        let reads = tile_reads(&g, 80, 20);
        let asm = assemble(
            &reads,
            AssemblyConfig {
                k: 21,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 100,
            },
        );
        assert_eq!(asm.contigs.len(), 1, "stats: {:?}", asm.stats);
        let contig = &asm.contigs[0];
        assert_eq!(contig.len(), g.len());
        assert!(contig == &g || *contig == reverse_complement(&g));
    }

    #[test]
    fn min_count_drops_singleton_error_kmers() {
        let g = random_genome(2000, 2);
        let mut reads = tile_reads(&g, 80, 10);
        // One read with an error in the middle (singleton k-mers).
        let mut bad = g[500..580].to_vec();
        bad[40] = if bad[40] == b'A' { b'C' } else { b'A' };
        reads.push_single(&bad);
        let asm = assemble(
            &reads,
            AssemblyConfig {
                k: 21,
                min_count: 2,
                max_count: u32::MAX,
                min_contig_len: 100,
            },
        );
        // The error k-mers are filtered; assembly stays a single contig.
        // (The ~10 leading genome k-mers appear in only one tiled read and
        // are also dropped by min_count, so allow a trimmed start.)
        assert_eq!(asm.contigs.len(), 1);
        let len = asm.contigs[0].len();
        assert!(len >= g.len() - 30 && len <= g.len(), "len={len}");
    }

    #[test]
    fn two_genomes_two_contigs() {
        let g1 = random_genome(1500, 3);
        let g2 = random_genome(1500, 4);
        let mut reads = tile_reads(&g1, 80, 20);
        reads.append(&tile_reads(&g2, 80, 20));
        let asm = assemble(
            &reads,
            AssemblyConfig {
                k: 21,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 100,
            },
        );
        assert_eq!(asm.contigs.len(), 2);
        assert_eq!(asm.stats.total_bases, 3000);
    }

    #[test]
    fn shared_segment_breaks_contigs() {
        // Two genomes sharing an exact middle segment -> branch nodes ->
        // more, shorter contigs.
        let shared = random_genome(300, 5);
        let mut g1 = random_genome(800, 6);
        let mut g2 = random_genome(800, 7);
        g1.extend_from_slice(&shared);
        g1.extend(random_genome(800, 8));
        g2.extend_from_slice(&shared);
        g2.extend(random_genome(800, 9));
        let mut reads = tile_reads(&g1, 80, 20);
        reads.append(&tile_reads(&g2, 80, 20));
        let asm = assemble(
            &reads,
            AssemblyConfig {
                k: 21,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 50,
            },
        );
        assert!(asm.contigs.len() >= 4, "contigs: {}", asm.contigs.len());
    }

    #[test]
    fn min_contig_len_filters_short_output() {
        let g = random_genome(150, 10);
        let reads = tile_reads(&g, 60, 10);
        let long = assemble(
            &reads,
            AssemblyConfig {
                k: 21,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 1000,
            },
        );
        assert!(long.contigs.is_empty());
        let short = assemble(
            &reads,
            AssemblyConfig {
                k: 21,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 100,
            },
        );
        assert_eq!(short.contigs.len(), 1);
    }

    #[test]
    fn empty_input() {
        let asm = assemble(&ReadStore::new(), AssemblyConfig::default());
        assert!(asm.contigs.is_empty());
        assert_eq!(asm.solid_kmers, 0);
        assert_eq!(asm.stats.contigs, 0);
    }

    #[test]
    fn contigs_sorted_longest_first() {
        let g1 = random_genome(2000, 11);
        let g2 = random_genome(700, 12);
        let mut reads = tile_reads(&g1, 80, 20);
        reads.append(&tile_reads(&g2, 80, 20));
        let asm = assemble(
            &reads,
            AssemblyConfig {
                k: 21,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 50,
            },
        );
        assert!(asm.contigs.windows(2).all(|w| w[0].len() >= w[1].len()));
        assert_eq!(asm.stats.max_contig, asm.contigs[0].len());
    }

    #[test]
    fn multik_never_shrinks_the_assembly() {
        // A genome at mixed coverage: multi-k should recover at least as
        // much sequence as the largest single k alone.
        let g = random_genome(4000, 20);
        let reads = tile_reads(&g, 80, 25);
        let cfg = AssemblyConfig {
            k: 0, // overridden per step
            min_count: 1,
            max_count: u32::MAX,
            min_contig_len: 60,
        };
        let single = assemble(&reads, AssemblyConfig { k: 31, ..cfg });
        let multi = assemble_multik(&reads, &[21, 25, 31], cfg);
        assert!(
            multi.stats.total_bases >= single.stats.total_bases,
            "multi {} < single {}",
            multi.stats.total_bases,
            single.stats.total_bases
        );
        assert!(multi.stats.max_contig >= single.stats.max_contig);
    }

    #[test]
    fn multik_resolves_shared_segments_better_than_small_k() {
        // Two genomes sharing a segment longer than the small k but shorter
        // than the large k's resolving power window: multi-k ends with the
        // large-k graph, where fewer branch points survive.
        let shared = random_genome(40, 21);
        let mut g1 = random_genome(1200, 22);
        let mut g2 = random_genome(1200, 23);
        g1.extend_from_slice(&shared);
        g1.extend(random_genome(1200, 24));
        g2.extend_from_slice(&shared);
        g2.extend(random_genome(1200, 25));
        let mut reads = tile_reads(&g1, 90, 15);
        reads.append(&tile_reads(&g2, 90, 15));
        let cfg = AssemblyConfig {
            k: 0,
            min_count: 1,
            max_count: u32::MAX,
            min_contig_len: 60,
        };
        let small = assemble(&reads, AssemblyConfig { k: 21, ..cfg });
        let multi = assemble_multik(&reads, &[21, 31], cfg);
        assert!(
            multi.stats.n50 >= small.stats.n50,
            "multi N50 {} < small-k N50 {}",
            multi.stats.n50,
            small.stats.n50
        );
    }

    #[test]
    #[should_panic]
    fn multik_rejects_unsorted_k_list() {
        let reads = tile_reads(&random_genome(500, 26), 80, 20);
        let _ = assemble_multik(
            &reads,
            &[31, 21],
            AssemblyConfig {
                k: 0,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 60,
            },
        );
    }

    #[test]
    fn wide_k_assembly_reassembles_genome() {
        // k = 45 > 32 exercises the 128-bit node path.
        let g = random_genome(3000, 30);
        let reads = tile_reads(&g, 100, 20);
        let asm = assemble(
            &reads,
            AssemblyConfig {
                k: 45,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 100,
            },
        );
        assert_eq!(asm.contigs.len(), 1);
        assert_eq!(asm.contigs[0].len(), g.len());
        assert!(asm.contigs[0] == g || asm.contigs[0] == reverse_complement(&g));
    }

    #[test]
    fn multik_crossing_the_width_boundary() {
        // k list spanning the 64-bit / 128-bit node widths.
        let g = random_genome(2500, 31);
        let reads = tile_reads(&g, 100, 20);
        let asm = assemble_multik(
            &reads,
            &[21, 31, 41],
            AssemblyConfig {
                k: 0,
                min_count: 1,
                max_count: u32::MAX,
                min_contig_len: 100,
            },
        );
        assert_eq!(asm.stats.max_contig, g.len());
    }

    #[test]
    fn deterministic_output() {
        let g = random_genome(2500, 13);
        let reads = tile_reads(&g, 80, 15);
        let cfg = AssemblyConfig {
            k: 21,
            min_count: 1,
            max_count: u32::MAX,
            min_contig_len: 50,
        };
        let a = assemble(&reads, cfg);
        let b = assemble(&reads, cfg);
        assert_eq!(a.contigs, b.contigs);
    }
}
