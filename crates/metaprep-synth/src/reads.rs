//! Paired-end read simulation over a generated community.

use crate::community::CommunityProfile;
use crate::genome::{derive_rng, derive_strain, mutate_base, plant_repeat, random_genome, Genome};
use metaprep_io::ReadStore;
use rand::rngs::SmallRng;
use rand::Rng;

/// Output of [`simulate_community`].
#[derive(Clone, Debug)]
pub struct SimulatedData {
    /// The simulated reads; each fragment (pair) has one fragment id.
    pub reads: ReadStore,
    /// True species of each fragment (index = fragment id).
    pub species_of_fragment: Vec<u16>,
    /// The generated genomes (index = species).
    pub genomes: Vec<Genome>,
    /// Abundance weight of each species (sums to 1).
    pub abundance: Vec<f64>,
}

/// Log-normal-ish abundance weights: `exp(sigma * z)` with `z ~ N(0,1)`
/// (Box-Muller on the provided RNG), normalized to sum to 1.
fn abundances(n: usize, sigma: f64, rng: &mut SmallRng) -> Vec<f64> {
    let mut w: Vec<f64> = (0..n)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (sigma * z).exp()
        })
        .collect();
    let s: f64 = w.iter().sum();
    for x in &mut w {
        *x /= s;
    }
    w
}

/// Generate the community genomes: base genomes, strain derivations, and
/// planted repeat copies.
fn build_genomes(profile: &CommunityProfile, seed: u64) -> Vec<Genome> {
    let mut rng = derive_rng(seed, 1);
    let repeat_lib: Vec<Vec<u8>> = (0..profile.repeats.elements)
        .map(|_| random_genome(profile.repeats.element_len, &mut rng))
        .collect();

    let n_strains = (profile.species as f64 * profile.strain_fraction) as usize;
    let n_base = profile.species - n_strains;
    let mut genomes: Vec<Genome> = Vec::with_capacity(profile.species);

    for s in 0..n_base {
        let len = rng.gen_range(profile.genome_len.0..profile.genome_len.1);
        let mut seq = random_genome(len, &mut rng);
        plant_repeats(&mut seq, &repeat_lib, profile, &mut rng);
        genomes.push(Genome {
            seq,
            species: s as u16,
        });
    }
    // Strains derive from random base genomes but count as distinct species
    // labels (real strain mixtures are exactly what makes metagenome
    // assembly hard, paper §2(i)).
    for s in n_base..profile.species {
        let anc = rng.gen_range(0..n_base);
        let mut seq = derive_strain(&genomes[anc].seq, profile.strain_divergence, &mut rng);
        plant_repeats(&mut seq, &repeat_lib, profile, &mut rng);
        genomes.push(Genome {
            seq,
            species: s as u16,
        });
    }
    genomes
}

fn plant_repeats(seq: &mut [u8], lib: &[Vec<u8>], profile: &CommunityProfile, rng: &mut SmallRng) {
    if lib.is_empty() {
        return;
    }
    // At least one copy per genome: every genome carries *some* mobile
    // element, which is what makes a single giant component form on real
    // metagenomes (paper §4.4).
    let hi = (2.0 * profile.repeats.copies_per_genome).ceil().max(1.0) as usize;
    let copies = rng.gen_range(1..=hi);
    for _ in 0..copies {
        let elem = &lib[rng.gen_range(0..lib.len())];
        plant_repeat(seq, elem, profile.repeats.divergence, rng);
    }
}

/// Reverse complement for ASCII `ACGTN`.
fn revcomp(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .rev()
        .map(|&b| match b {
            b'A' => b'T',
            b'C' => b'G',
            b'G' => b'C',
            b'T' => b'A',
            other => other,
        })
        .collect()
}

/// Apply the error model to a read in place.
fn apply_errors(read: &mut [u8], profile: &CommunityProfile, rng: &mut SmallRng) {
    for b in read.iter_mut() {
        if rng.gen_bool(profile.n_rate) {
            *b = b'N';
        } else if rng.gen_bool(profile.error_rate) {
            *b = mutate_base(*b, rng);
        }
    }
}

/// Simulate a full community: genomes, abundances, and paired-end reads.
///
/// Deterministic in `(profile, seed)`.
pub fn simulate_community(profile: &CommunityProfile, seed: u64) -> SimulatedData {
    assert!(profile.species >= 1);
    assert!(profile.read_len >= 1);
    assert!(
        profile.insert_size >= 2 * profile.read_len,
        "insert size must cover both mates"
    );

    let genomes = build_genomes(profile, seed);
    let mut rng = derive_rng(seed, 2);
    let abundance = abundances(profile.species, profile.abundance_sigma, &mut rng);

    // Cumulative weights for species sampling, weighted additionally by
    // genome length (longer genomes yield proportionally more fragments at
    // equal molar abundance).
    let weights: Vec<f64> = abundance
        .iter()
        .zip(&genomes)
        .map(|(a, g)| a * g.seq.len() as f64)
        .collect();
    let mut cum: Vec<f64> = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cum.push(acc);
    }
    let total_w = acc;

    let mut reads = ReadStore::with_capacity(profile.read_pairs * 2, profile.read_len);
    let mut species_of_fragment = Vec::with_capacity(profile.read_pairs);
    let mut mate1 = vec![0u8; profile.read_len];
    let mut mate2 = vec![0u8; profile.read_len];

    let mut emitted = 0usize;
    while emitted < profile.read_pairs {
        let x = rng.gen_range(0.0..total_w);
        let s = cum.partition_point(|&c| c <= x).min(genomes.len() - 1);
        let g = &genomes[s].seq;

        // Insert size jitter ±10%.
        let jitter = (profile.insert_size / 10).max(1);
        let insert = rng
            .gen_range(profile.insert_size - jitter..=profile.insert_size + jitter)
            .max(2 * profile.read_len);
        if g.len() < insert {
            // Genome shorter than the fragment: sample a single-mate-length
            // fragment instead (tiny genomes in scaled-down profiles).
            if g.len() < 2 * profile.read_len {
                continue;
            }
            let start = rng.gen_range(0..=g.len() - 2 * profile.read_len);
            mate1.copy_from_slice(&g[start..start + profile.read_len]);
            let m2 = revcomp(&g[start + profile.read_len..start + 2 * profile.read_len]);
            mate2.copy_from_slice(&m2);
        } else {
            let start = rng.gen_range(0..=g.len() - insert);
            mate1.copy_from_slice(&g[start..start + profile.read_len]);
            let m2 = revcomp(&g[start + insert - profile.read_len..start + insert]);
            mate2.copy_from_slice(&m2);
        }
        apply_errors(&mut mate1, profile, &mut rng);
        apply_errors(&mut mate2, profile, &mut rng);
        reads.push_pair(&mate1, &mate2);
        species_of_fragment.push(s as u16);
        emitted += 1;
    }

    SimulatedData {
        reads,
        species_of_fragment,
        genomes,
        abundance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::{scaled_profile, DatasetId};

    fn tiny() -> CommunityProfile {
        CommunityProfile {
            read_pairs: 300,
            ..CommunityProfile::quickstart()
        }
    }

    #[test]
    fn produces_requested_pairs() {
        let d = simulate_community(&tiny(), 1);
        assert_eq!(d.reads.num_fragments(), 300);
        assert_eq!(d.reads.len(), 600);
        assert_eq!(d.species_of_fragment.len(), 300);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = simulate_community(&tiny(), 9);
        let b = simulate_community(&tiny(), 9);
        assert_eq!(a.reads.seq(0), b.reads.seq(0));
        assert_eq!(a.species_of_fragment, b.species_of_fragment);
        let c = simulate_community(&tiny(), 10);
        assert_ne!(
            (0..a.reads.len())
                .map(|i| a.reads.seq(i).to_vec())
                .collect::<Vec<_>>(),
            (0..c.reads.len())
                .map(|i| c.reads.seq(i).to_vec())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn reads_have_profile_length_and_valid_bases() {
        let p = tiny();
        let d = simulate_community(&p, 2);
        for (seq, _) in d.reads.iter() {
            assert_eq!(seq.len(), p.read_len);
            assert!(seq.iter().all(|b| b"ACGTN".contains(b)));
        }
    }

    #[test]
    fn mates_share_fragment_ids() {
        let d = simulate_community(&tiny(), 3);
        for i in 0..d.reads.num_fragments() as usize {
            assert_eq!(d.reads.frag_id(2 * i), i as u32);
            assert_eq!(d.reads.frag_id(2 * i + 1), i as u32);
        }
    }

    #[test]
    fn error_rate_roughly_respected() {
        let mut p = tiny();
        p.error_rate = 0.01;
        p.n_rate = 0.0;
        p.read_pairs = 2000;
        let d = simulate_community(&p, 4);
        // Count mismatches of mate1 vs its genome is hard without positions;
        // instead check N-rate = 0 means no Ns, and bases are ACGT.
        for (seq, _) in d.reads.iter() {
            assert!(!seq.contains(&b'N'));
        }
    }

    #[test]
    fn n_rate_produces_ns() {
        let mut p = tiny();
        p.n_rate = 0.05;
        p.read_pairs = 500;
        let d = simulate_community(&p, 5);
        let n_count: usize = d
            .reads
            .iter()
            .map(|(s, _)| s.iter().filter(|&&b| b == b'N').count())
            .sum();
        let total: usize = d.reads.total_bases();
        let rate = n_count as f64 / total as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn abundance_sums_to_one() {
        let d = simulate_community(&tiny(), 6);
        let s: f64 = d.abundance.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn high_abundance_species_get_more_fragments() {
        let mut p = tiny();
        p.abundance_sigma = 1.5;
        p.read_pairs = 3000;
        let d = simulate_community(&p, 7);
        let mut counts = vec![0usize; p.species];
        for &s in &d.species_of_fragment {
            counts[s as usize] += 1;
        }
        // The top-weighted species should beat the bottom-weighted one.
        let weights: Vec<f64> = d
            .abundance
            .iter()
            .zip(&d.genomes)
            .map(|(a, g)| a * g.seq.len() as f64)
            .collect();
        let hi = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let lo = weights
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(counts[hi] > counts[lo]);
    }

    #[test]
    fn genomes_count_matches_profile() {
        let p = scaled_profile(DatasetId::Hg, 0.02);
        let d = simulate_community(&p, 8);
        assert_eq!(d.genomes.len(), p.species);
    }

    #[test]
    fn mate2_is_reverse_complement_strand() {
        // With zero errors, mate2 reverse-complemented must occur in the
        // originating genome.
        let mut p = tiny();
        p.error_rate = 0.0;
        p.n_rate = 0.0;
        p.read_pairs = 50;
        let d = simulate_community(&p, 11);
        for i in 0..d.reads.num_fragments() as usize {
            let s = d.species_of_fragment[i] as usize;
            let g = &d.genomes[s].seq;
            let m2 = d.reads.seq(2 * i + 1);
            let fwd = revcomp(m2);
            let found = g.windows(fwd.len()).any(|w| w == &fwd[..]);
            assert!(found, "fragment {i}: mate2 not found in genome {s}");
        }
    }
}
