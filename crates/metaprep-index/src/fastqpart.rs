//! The `FASTQPart` chunk table (paper §3.1.2, Figure 2).

use crate::streaming::index_as_fastq;
use metaprep_io::{ChunkSpec, ReadStore};
use metaprep_kmer::MmerSpace;

/// One row of the `FASTQPart` table: a logical chunk plus its own m-mer
/// histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Chunk location, size, first read and read count.
    pub spec: ChunkSpec,
    /// m-mer prefix histogram of the canonical k-mers in this chunk.
    pub hist: Vec<u32>,
}

/// The full chunk table for one dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastqPart {
    space: MmerSpace,
    chunks: Vec<ChunkRecord>,
}

impl FastqPart {
    /// Build by writing `store` as FASTQ, cutting the bytes into `c`
    /// chunks (`metaprep_io::chunk_fastq_bytes`, the cut a pipeline run
    /// over the same reads makes, with real byte offsets) and histogram-
    /// ming each chunk's canonical k-mers: `index_fastq_bytes`' chunk
    /// table. Panics on a store that mixes mate pairs with single reads
    /// (`ReadStore::paired`), which no FASTQ file holds.
    pub fn build(store: &ReadStore, c: usize, k: usize, m: usize) -> Self {
        index_as_fastq(store, c, k, m).1
    }

    /// Construct from raw parts (deserialization, tests).
    pub fn from_parts(space: MmerSpace, chunks: Vec<ChunkRecord>) -> Self {
        assert!(chunks.iter().all(|c| c.hist.len() == space.bins()));
        Self { space, chunks }
    }

    /// The `(k, m)` configuration.
    pub fn space(&self) -> MmerSpace {
        self.space
    }

    /// Chunk rows.
    pub fn chunks(&self) -> &[ChunkRecord] {
        &self.chunks
    }

    /// Number of chunks (`C`).
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True if the table has no chunks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Tuples chunk `c` will generate for the m-mer bin range `[lo, hi)` —
    /// the quantity summed to precompute send counts and thread offsets
    /// (paper §3.2.2 / §3.3).
    pub fn chunk_count_in_bins(&self, c: usize, lo: usize, hi: usize) -> u64 {
        self.chunks[c].hist[lo..hi].iter().map(|&x| x as u64).sum()
    }

    /// Total tuples across all chunks (equals the merHist total).
    pub fn total(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| c.hist.iter().map(|&x| x as u64).sum::<u64>())
            .sum()
    }

    /// Table size in bytes (the paper's `4^{m+1} * C` term plus the fixed
    /// per-chunk fields).
    pub fn table_bytes(&self) -> usize {
        self.chunks.len()
            * (std::mem::size_of::<ChunkSpec>() + self.space.bins() * std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merhist::MerHist;

    fn store_n(n: usize) -> ReadStore {
        let mut s = ReadStore::new();
        for i in 0..n {
            let seq: Vec<u8> = b"ACGTTGCA"
                .iter()
                .cycle()
                .skip(i % 8)
                .take(40)
                .copied()
                .collect();
            s.push_single(&seq);
        }
        s
    }

    #[test]
    fn chunk_histograms_sum_to_global() {
        let store = store_n(30);
        let fp = FastqPart::build(&store, 4, 6, 3);
        let mh = MerHist::build(&store, 6, 3);
        assert_eq!(fp.total(), mh.total());
        // Bin-wise: sum of chunk hists equals global hist.
        for b in 0..mh.space().bins() {
            let sum: u64 = (0..fp.len()).map(|c| fp.chunks()[c].hist[b] as u64).sum();
            assert_eq!(sum, mh.counts()[b] as u64, "bin {b}");
        }
    }

    #[test]
    fn chunk_specs_cover_all_reads() {
        let store = store_n(25);
        let fp = FastqPart::build(&store, 3, 6, 2);
        let total: u32 = fp.chunks().iter().map(|c| c.spec.seqs).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn count_in_bins_full_range_is_chunk_total() {
        let store = store_n(10);
        let fp = FastqPart::build(&store, 2, 6, 2);
        for c in 0..fp.len() {
            let full = fp.chunk_count_in_bins(c, 0, fp.space().bins());
            let direct: u64 = fp.chunks()[c].hist.iter().map(|&x| x as u64).sum();
            assert_eq!(full, direct);
        }
    }

    #[test]
    fn single_chunk_table() {
        let store = store_n(5);
        let fp = FastqPart::build(&store, 1, 6, 2);
        assert_eq!(fp.len(), 1);
        assert_eq!(fp.chunks()[0].spec.first_seq, 0);
    }

    #[test]
    fn empty_store_empty_table() {
        let fp = FastqPart::build(&ReadStore::new(), 4, 6, 2);
        assert!(fp.is_empty());
        assert_eq!(fp.total(), 0);
    }

    #[test]
    fn table_bytes_scale_with_chunks() {
        let store = store_n(40);
        let a = FastqPart::build(&store, 2, 6, 3);
        let b = FastqPart::build(&store, 4, 6, 3);
        assert!(b.table_bytes() >= 2 * a.table_bytes() - 1);
    }
}
