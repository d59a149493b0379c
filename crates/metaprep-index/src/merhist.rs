//! The global m-mer prefix histogram (`merHist`, paper §3.1.1).

use crate::streaming::index_as_fastq;
use metaprep_io::ReadStore;
use metaprep_kmer::MmerSpace;

/// Histogram of the length-`m` prefixes of all canonical k-mers of a
/// dataset. `4^m` bins, `u32` counts (the paper stores 32-bit counts; we
/// additionally keep the total as `u64` so overflow of the sum is not a
/// concern).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerHist {
    space: MmerSpace,
    counts: Vec<u32>,
    total: u64,
}

impl MerHist {
    /// Build from every read in `store` with k-mer length `k` and prefix
    /// length `m`: the merHist `index_fastq_bytes` builds over the store
    /// written as FASTQ (one chunk — the sum of the rows does not depend
    /// on the cut). Panics where `FastqPart::build` does.
    pub fn build(store: &ReadStore, k: usize, m: usize) -> Self {
        index_as_fastq(store, 1, k, m).0
    }

    /// Construct from raw parts (deserialization, tests).
    pub fn from_parts(space: MmerSpace, counts: Vec<u32>) -> Self {
        assert_eq!(counts.len(), space.bins());
        let total = counts.iter().map(|&c| c as u64).sum();
        Self {
            space,
            counts,
            total,
        }
    }

    /// The `(k, m)` configuration.
    pub fn space(&self) -> MmerSpace {
        self.space
    }

    /// Bin counts (length `4^m`).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Total number of k-mers counted (= number of tuples the KmerGen step
    /// will enumerate, the paper's upper bound `M`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory footprint of the table in bytes (the paper's `4^{m+1}` term).
    pub fn table_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u32>()
    }

    /// Sum of counts over the bin range `[lo, hi)`.
    pub fn count_in_bins(&self, lo: usize, hi: usize) -> u64 {
        self.counts[lo..hi].iter().map(|&c| c as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_of(seqs: &[&[u8]]) -> ReadStore {
        let mut s = ReadStore::new();
        for q in seqs {
            s.push_single(q);
        }
        s
    }

    #[test]
    fn total_counts_all_kmers() {
        let s = store_of(&[b"ACGTACGT", b"TTTTT"]);
        let h = MerHist::build(&s, 4, 2);
        // 5 + 2 windows.
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts().iter().map(|&c| c as u64).sum::<u64>(), 7);
    }

    #[test]
    fn bins_receive_canonical_prefixes() {
        // Read "AAAA": canonical of AAAA is AAAA (vs TTTT) -> bin AA = 0.
        let s = store_of(&[b"AAAA"]);
        let h = MerHist::build(&s, 4, 2);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.total(), 1);

        // Read "TTTT": canonical is AAAA again -> same bin.
        let s = store_of(&[b"TTTT"]);
        let h = MerHist::build(&s, 4, 2);
        assert_eq!(h.counts()[0], 1);
    }

    #[test]
    fn n_windows_are_not_counted() {
        let s = store_of(&[b"ACGNACG"]);
        let h = MerHist::build(&s, 3, 1);
        // Runs ACG and ACG -> 1 + 1 windows.
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn k_above_32_uses_wide_path() {
        let seq: Vec<u8> = b"ACGT".iter().cycle().take(80).copied().collect();
        let mut s = ReadStore::new();
        s.push_single(&seq);
        let h = MerHist::build(&s, 63, 4);
        assert_eq!(h.total(), (80 - 63 + 1) as u64);
    }

    #[test]
    fn table_bytes_matches_paper_formula() {
        let s = store_of(&[b"ACGT"]);
        let h = MerHist::build(&s, 4, 3);
        // 4^{m+1} bytes = 4^m bins * 4 bytes.
        assert_eq!(h.table_bytes(), 4usize.pow(3 + 1));
    }

    #[test]
    fn count_in_bins_partial_sums() {
        let space = MmerSpace::new(4, 1);
        let h = MerHist::from_parts(space, vec![1, 2, 3, 4]);
        assert_eq!(h.count_in_bins(0, 4), 10);
        assert_eq!(h.count_in_bins(1, 3), 5);
        assert_eq!(h.count_in_bins(2, 2), 0);
    }

    #[test]
    fn empty_store() {
        let h = MerHist::build(&ReadStore::new(), 4, 2);
        assert_eq!(h.total(), 0);
    }
}
