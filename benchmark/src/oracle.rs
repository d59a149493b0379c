//! Independent reference for the partition `metaprep partition` must produce.
//!
//! Sequential and sort-based: every canonical k-mer occurrence becomes a
//! `(k-mer, fragment)` pair, the pairs are sorted, and fragments that share
//! a k-mer (whose exact occurrence count passes the `--kf` window) are
//! united in a plain union-find. It shares no code with `metaprep-core`,
//! `metaprep-cc`, `metaprep-kmer` or `metaprep-sort` — only the `ReadStore`
//! container the inputs arrive in — so a bug in those layers cannot hide in
//! both sides of the comparison.

use metaprep_io::ReadStore;
use std::collections::HashMap;
use std::path::Path;

/// The reference partition of one input.
pub struct Oracle {
    /// Component representative of every fragment.
    labels: Vec<u32>,
    /// Size of every component, keyed by representative.
    sizes: HashMap<u32, u32>,
    /// Canonical k-mer occurrences enumerated (= tuples the pipeline must
    /// account for).
    pub kmers: u64,
    /// With presolve on, the pipeline may only *remove* edges, so its
    /// partition must refine this one rather than equal it.
    exact: bool,
}

/// What one run's output directory held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputSummary {
    pub lc_reads: u64,
    pub other_reads: u64,
    /// FNV-1a over `lc.fastq` then `other.fastq`.
    pub fingerprint: u64,
}

/// Calls `emit` with every canonical k-mer of `seq` (2 bits per base, the
/// smaller of the forward and reverse-complement packings; windows holding a
/// non-ACGT byte are skipped).
fn canonical_kmers(seq: &[u8], k: usize, mut emit: impl FnMut(u128)) {
    assert!((1..=63).contains(&k));
    let mask = (1u128 << (2 * k)) - 1;
    let top = 2 * (k - 1);
    let (mut fwd, mut rev, mut filled) = (0u128, 0u128, 0usize);
    for &b in seq {
        let code = match b.to_ascii_uppercase() {
            b'A' => 0u128,
            b'C' => 1,
            b'G' => 2,
            b'T' => 3,
            _ => {
                filled = 0;
                continue;
            }
        };
        fwd = ((fwd << 2) | code) & mask;
        rev = (rev >> 2) | ((3 - code) << top);
        filled += 1;
        if filled >= k {
            emit(fwd.min(rev));
        }
    }
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

fn unite(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb) as usize] = ra.min(rb);
    }
}

/// Sort the pairs and unite the fragments of every k-mer group that passes
/// `kf`; generic only over the key width (u64 halves the sort's memory).
fn components<K: Ord + Copy>(
    mut pairs: Vec<(K, u32)>,
    fragments: usize,
    kf: Option<(u32, u32)>,
) -> Vec<u32> {
    pairs.sort_unstable();
    let mut parent: Vec<u32> = (0..fragments as u32).collect();
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i + 1;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        let freq = (j - i) as u32;
        if kf.is_none_or(|(lo, hi)| (lo..=hi).contains(&freq)) {
            for p in &pairs[i + 1..j] {
                unite(&mut parent, pairs[i].1, p.1);
            }
        }
        i = j;
    }
    (0..fragments as u32)
        .map(|f| find(&mut parent, f))
        .collect()
}

impl Oracle {
    /// Compute the reference partition of `reads` for k-mer length `k` and
    /// frequency window `kf` (inclusive, on exact occurrence counts).
    pub fn compute(reads: &ReadStore, k: usize, kf: Option<(u32, u32)>, exact: bool) -> Oracle {
        let fragments = reads.num_fragments() as usize;
        let mut wide: Vec<(u128, u32)> = Vec::new();
        let mut narrow: Vec<(u64, u32)> = Vec::new();
        for (seq, frag) in reads.iter() {
            if k <= 32 {
                canonical_kmers(seq, k, |v| narrow.push((v as u64, frag)));
            } else {
                canonical_kmers(seq, k, |v| wide.push((v, frag)));
            }
        }
        let kmers = (wide.len() + narrow.len()) as u64;
        let labels = if k <= 32 {
            components(narrow, fragments, kf)
        } else {
            components(wide, fragments, kf)
        };
        let mut sizes = HashMap::new();
        for &l in &labels {
            *sizes.entry(l).or_insert(0u32) += 1;
        }
        Oracle {
            labels,
            sizes,
            kmers,
            exact,
        }
    }

    /// Number of components in the reference partition.
    pub fn components(&self) -> usize {
        self.sizes.len()
    }

    fn largest(&self) -> u32 {
        self.sizes.values().copied().max().unwrap_or(0)
    }

    /// Check a per-fragment label vector: the same partition as the
    /// reference (label values are free), or a refinement of it when the
    /// workload is not exact.
    pub fn check_labels(&self, labels: &[u32]) -> Result<(), String> {
        if labels.len() != self.labels.len() {
            return Err(format!(
                "{} labels for {} fragments",
                labels.len(),
                self.labels.len()
            ));
        }
        let mut ours_of: HashMap<u32, u32> = HashMap::new();
        let mut theirs_of: HashMap<u32, u32> = HashMap::new();
        for (frag, (&theirs, &ours)) in labels.iter().zip(&self.labels).enumerate() {
            if *ours_of.entry(theirs).or_insert(ours) != ours {
                return Err(format!(
                    "fragment {frag}: component {theirs} spans two reference components"
                ));
            }
            if self.exact && *theirs_of.entry(ours).or_insert(theirs) != theirs {
                return Err(format!(
                    "fragment {frag}: reference component {ours} is split"
                ));
            }
        }
        Ok(())
    }

    /// Check one run's `lc.fastq` / `other.fastq` under `outdir` against the
    /// input `reads` and the reference, together with the component count
    /// the program reported.
    pub fn check_output(
        &self,
        reads: &ReadStore,
        outdir: &Path,
        reported_components: usize,
    ) -> Result<OutputSummary, String> {
        let mut fingerprint = FNV_OFFSET;
        let mut seen = vec![false; reads.len()];
        let mut side_of_frag: Vec<Option<bool>> = vec![None; self.labels.len()];
        let mut counts = [0u64; 2];
        for (is_lc, file) in [(true, "lc.fastq"), (false, "other.fastq")] {
            let path = outdir.join(file);
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            fingerprint = fnv1a(fingerprint, &bytes);
            let mut lines = bytes.split(|&b| b == b'\n');
            while let Some(head) = lines.next() {
                if head.is_empty() {
                    continue;
                }
                let (Some(seq), Some(_plus), Some(_qual)) =
                    (lines.next(), lines.next(), lines.next())
                else {
                    return Err(format!("{file}: truncated record"));
                };
                // The generated inputs name sequence `i` `r{i}`.
                let idx: usize = std::str::from_utf8(head)
                    .ok()
                    .and_then(|h| h.strip_prefix("@r"))
                    .and_then(|n| n.parse().ok())
                    .filter(|&i| i < reads.len())
                    .ok_or_else(|| format!("{file}: unknown record name"))?;
                if std::mem::replace(&mut seen[idx], true) {
                    return Err(format!("{file}: read r{idx} written twice"));
                }
                if seq != reads.seq(idx) {
                    return Err(format!("{file}: read r{idx} has altered bases"));
                }
                let frag = reads.frag_id(idx) as usize;
                if *side_of_frag[frag].get_or_insert(is_lc) != is_lc {
                    return Err(format!("fragment {frag}: mates written to both files"));
                }
                counts[usize::from(!is_lc)] += 1;
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("read r{missing} is in neither output file"));
        }

        // lc.fastq must hold one whole largest component.
        let mut lc_frags = side_of_frag
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Some(true));
        if let Some((first, _)) = lc_frags.next() {
            let label = self.labels[first];
            if let Some((stray, _)) = lc_frags.find(|(f, _)| self.labels[*f] != label) {
                return Err(format!(
                    "lc.fastq mixes reference components (fragments {first} and {stray})"
                ));
            }
            if self.exact {
                let lc_size = side_of_frag.iter().filter(|s| **s == Some(true)).count() as u32;
                if self.sizes[&label] != lc_size {
                    return Err(format!(
                        "lc.fastq holds {lc_size} of the {} fragments of its component",
                        self.sizes[&label]
                    ));
                }
                if lc_size != self.largest() {
                    return Err(format!(
                        "lc.fastq holds a component of {lc_size} fragments; the largest has {}",
                        self.largest()
                    ));
                }
            }
        } else if !self.labels.is_empty() {
            return Err("lc.fastq is empty".into());
        }

        let expected = self.components();
        let count_ok = if self.exact {
            reported_components == expected
        } else {
            reported_components >= expected
        };
        if !count_ok {
            return Err(format!(
                "program reported {reported_components} components, reference has {expected}"
            ));
        }
        Ok(OutputSummary {
            lc_reads: counts[0],
            other_reads: counts[1],
            fingerprint,
        })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a fingerprint of a file's bytes.
pub fn fingerprint_file(path: &Path) -> std::io::Result<u64> {
    Ok(fnv1a(FNV_OFFSET, &std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_complements_share_a_canonical_kmer() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        canonical_kmers(b"ACGTTGCA", 5, |v| a.push(v));
        // Reverse complement of the same sequence, lower-cased.
        canonical_kmers(b"tgcaacgt", 5, |v| b.push(v));
        b.reverse();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn n_breaks_the_window() {
        let mut n = 0;
        canonical_kmers(b"ACGTNACGT", 4, |_| n += 1);
        assert_eq!(n, 2);
    }

    fn store(seqs: &[&[u8]]) -> ReadStore {
        let mut s = ReadStore::new();
        for seq in seqs {
            s.push_single(seq);
        }
        s
    }

    #[test]
    fn shared_kmers_connect_and_kf_cuts() {
        // Reads 0,1 share ACGTA; read 2 shares nothing.
        let reads = store(&[b"ACGTAC", b"GGACGTA", b"TTTTTTT"]);
        let o = Oracle::compute(&reads, 5, None, true);
        assert_eq!(o.components(), 2);
        assert!(o.check_labels(&[7, 7, 9]).is_ok());
        // A corrupted label vector: read 2 glued on, or read 1 split off.
        assert!(o.check_labels(&[7, 7, 7]).is_err());
        assert!(o.check_labels(&[7, 8, 9]).is_err());
        // kf 1:1 drops the shared (frequency 2) k-mer.
        assert_eq!(
            Oracle::compute(&reads, 5, Some((1, 1)), true).components(),
            3
        );
    }

    #[test]
    fn refinement_accepts_splits_but_not_merges() {
        let reads = store(&[b"ACGTAC", b"GGACGTA", b"TTTTTTT"]);
        let o = Oracle::compute(&reads, 5, None, false);
        assert!(o.check_labels(&[1, 2, 3]).is_ok());
        assert!(o.check_labels(&[1, 1, 1]).is_err());
    }
}
