//! Chunk sources: where KmerGen's FASTQ chunks come from.
//!
//! The paper's METAPREP reads FASTQ chunks from a parallel file system on
//! every pass (that is the point of the multi-pass design: the *input* is
//! re-read, the *tuples* never all exist at once). The pipeline is generic
//! over a [`ChunkSource`]:
//!
//! * [`MemorySource`] — chunks are slices of an in-memory [`ReadStore`]
//!   (synthetic data, tests);
//! * [`FileSource`] — chunks are re-parsed from the FASTQ file on every
//!   load, so KmerGen-I/O is real disk traffic and per-pass redundant
//!   reading behaves exactly as in the paper.

use metaprep_io::{parse_fastq_chunk, ChunkSpec, ReadStore};
use std::borrow::Cow;
use std::path::PathBuf;

/// One loaded chunk: the sequences `seqs` of `store` — the source's own
/// store, or one just parsed from the file, never a copy of either — each
/// paired with its *global* fragment id.
pub struct ChunkReads<'a> {
    store: Cow<'a, ReadStore>,
    seqs: std::ops::Range<usize>,
    /// Global index of `store`'s sequence 0, and whether consecutive global
    /// sequences pair up into one fragment; `None` when `store` holds the
    /// global fragment ids itself.
    numbering: Option<(usize, bool)>,
}

impl ChunkReads<'_> {
    /// The chunk's `(sequence, global fragment id)` entries, in file order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], u32)> + '_ {
        self.seqs.clone().map(move |i| {
            let frag = match self.numbering {
                None => self.store.frag_id(i),
                Some((first, paired)) => ((first + i) >> u32::from(paired)) as u32,
            };
            (self.store.seq(i), frag)
        })
    }
}

/// Provider of FASTQ chunks with *global* fragment ids.
pub trait ChunkSource: Sync {
    /// Load chunk `c`: its `(sequence, global fragment id)` entries.
    fn load_chunk(&self, c: usize) -> ChunkReads<'_>;

    /// Global fragment id of global sequence index `i` (used by the
    /// CC-I/O step, which walks a task's chunks to bucket output reads).
    fn frag_of_seq(&self, i: usize) -> u32;

    /// Total number of fragments (`R`).
    fn num_fragments(&self) -> u32;
}

/// Chunks served from an in-memory store.
pub struct MemorySource<'a> {
    store: &'a ReadStore,
    specs: Vec<ChunkSpec>,
}

impl<'a> MemorySource<'a> {
    /// Wrap `store` with the chunk layout in `specs`.
    pub fn new(store: &'a ReadStore, specs: Vec<ChunkSpec>) -> Self {
        Self { store, specs }
    }
}

impl ChunkSource for MemorySource<'_> {
    fn load_chunk(&self, c: usize) -> ChunkReads<'_> {
        let spec = &self.specs[c];
        let lo = spec.first_seq as usize;
        ChunkReads {
            store: Cow::Borrowed(self.store),
            seqs: lo..lo + spec.seqs as usize,
            numbering: None,
        }
    }

    fn frag_of_seq(&self, i: usize) -> u32 {
        self.store.frag_id(i)
    }

    fn num_fragments(&self) -> u32 {
        self.store.num_fragments()
    }
}

/// Chunks re-parsed from a FASTQ file on every load.
pub struct FileSource {
    path: PathBuf,
    specs: Vec<ChunkSpec>,
    paired: bool,
    num_fragments: u32,
}

impl FileSource {
    /// Create a source over `path` with the given chunk layout. When
    /// `paired`, sequences `2i` and `2i + 1` form fragment `i` (interleaved
    /// mates; the chunker guarantees chunks hold whole pairs).
    pub fn new(path: PathBuf, specs: Vec<ChunkSpec>, paired: bool, total_seqs: u32) -> Self {
        if paired {
            assert_eq!(total_seqs % 2, 0, "paired input needs an even read count");
            assert!(
                specs
                    .iter()
                    .all(|s| s.first_seq % 2 == 0 && s.seqs % 2 == 0),
                "paired chunks must hold whole pairs"
            );
        }
        let num_fragments = if paired { total_seqs / 2 } else { total_seqs };
        Self {
            path,
            specs,
            paired,
            num_fragments,
        }
    }

    /// The chunk layout.
    pub fn specs(&self) -> &[ChunkSpec] {
        &self.specs
    }
}

impl ChunkSource for FileSource {
    fn load_chunk(&self, c: usize) -> ChunkReads<'_> {
        let spec = &self.specs[c];
        // Each load re-reads from disk — this IS the multi-pass I/O.
        let store = parse_fastq_chunk(&self.path, spec, false)
            // EXPECT: the file was indexed by this process; a failed re-read means it changed or vanished mid-run, unrecoverable for a multi-pass source.
            .expect("chunk read failed (file changed since indexing?)");
        ChunkReads {
            seqs: 0..store.len(),
            store: Cow::Owned(store),
            numbering: Some((spec.first_seq as usize, self.paired)),
        }
    }

    fn frag_of_seq(&self, i: usize) -> u32 {
        if self.paired {
            (i / 2) as u32
        } else {
            i as u32
        }
    }

    fn num_fragments(&self) -> u32 {
        self.num_fragments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_io::{chunk_store, write_fastq};

    fn store() -> ReadStore {
        let mut s = ReadStore::new();
        for i in 0..12 {
            let seq: Vec<u8> = b"ACGTTGCA"
                .iter()
                .cycle()
                .skip(i % 8)
                .take(30)
                .copied()
                .collect();
            if i % 2 == 0 {
                s.push_pair(&seq, &seq[..20]);
            } else {
                // keep pairing uniform: the pair above covers 2 seqs
            }
        }
        s
    }

    #[test]
    fn memory_source_serves_chunks() {
        let s = store();
        let specs = chunk_store(&s, 3);
        let src = MemorySource::new(&s, specs.clone());
        let mut total = 0;
        for (c, spec) in specs.iter().enumerate() {
            let chunk = src.load_chunk(c);
            assert_eq!(chunk.iter().len(), spec.seqs as usize);
            for (j, (seq, frag)) in chunk.iter().enumerate() {
                let i = spec.first_seq as usize + j;
                assert_eq!(seq, s.seq(i));
                assert_eq!(frag, s.frag_id(i));
            }
            total += chunk.iter().len();
        }
        assert_eq!(total, s.len());
        assert_eq!(src.num_fragments(), s.num_fragments());
    }

    #[test]
    fn file_source_matches_memory_source() {
        let s = store();
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &s).unwrap();
        let dir = std::env::temp_dir().join("metaprep_core_source_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        std::fs::write(&path, &bytes).unwrap();

        let specs = metaprep_io::chunk_fastq_bytes(&bytes, 1).unwrap(); // single chunk
        let src = FileSource::new(path, specs.clone(), true, s.len() as u32);
        let chunk = src.load_chunk(0);
        assert_eq!(chunk.iter().len(), s.len());
        for (i, (seq, frag)) in chunk.iter().enumerate() {
            assert_eq!(seq, s.seq(i));
            assert_eq!(frag, s.frag_id(i));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic]
    fn file_source_rejects_pair_splitting_chunks() {
        let bad = vec![ChunkSpec {
            offset: 0,
            bytes: 10,
            first_seq: 1, // odd start splits a pair
            seqs: 2,
        }];
        let _ = FileSource::new(PathBuf::from("/dev/null"), bad, true, 4);
    }

    #[test]
    fn unpaired_file_source_frag_is_identity() {
        let src = FileSource::new(PathBuf::from("x"), vec![], false, 7);
        assert_eq!(src.frag_of_seq(3), 3);
        assert_eq!(src.num_fragments(), 7);
    }
}
