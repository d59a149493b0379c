//! Chunk sources: where KmerGen's FASTQ chunks come from.
//!
//! The paper's METAPREP reads FASTQ chunks from a parallel file system on
//! every pass (that is the point of the multi-pass design: the *input* is
//! re-read, the *tuples* never all exist at once). The pipeline is generic
//! over a [`ChunkSource`]:
//!
//! * [`MemorySource`] — chunks are slices of an in-memory [`ReadStore`]
//!   (synthetic data, tests);
//! * [`FileSource`] — chunks are re-read from the FASTQ file on every
//!   load and their sequences used where they lie in the bytes read, so
//!   KmerGen-I/O is real disk traffic and per-pass redundant reading
//!   behaves exactly as in the paper.

use metaprep_io::{record_views, ChunkSpec, FastqError, ReadStore, StreamChunker};
use std::cell::RefCell;
use std::ops::Range;
use std::path::PathBuf;

/// One loaded chunk: its sequences, each paired with its *global* fragment
/// id — a borrow of the source's store, or the chunk's raw file bytes with
/// the span of every sequence line in them. Never a copy of a sequence.
pub struct ChunkReads<'a>(Repr<'a>);

enum Repr<'a> {
    /// Sequences `seqs` of `store`, which holds the global fragment ids.
    Store {
        store: &'a ReadStore,
        seqs: Range<usize>,
    },
    /// `spans[j]` is sequence `first_seq + j` of the file, inside `bytes`;
    /// `paired` says consecutive file sequences share a fragment.
    File {
        bytes: Vec<u8>,
        spans: Vec<Range<usize>>,
        first_seq: usize,
        paired: bool,
    },
}

thread_local! {
    // The buffers of the last file chunk this thread dropped: a KmerGen
    // worker loads its chunks one after another, pass after pass, into the
    // same two allocations.
    static CHUNK_BUFS: RefCell<(Vec<u8>, Vec<Range<usize>>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

impl ChunkReads<'_> {
    /// The chunk's `(sequence, global fragment id)` entries, in file order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], u32)> + '_ {
        let n = match &self.0 {
            Repr::Store { seqs, .. } => seqs.len(),
            Repr::File { spans, .. } => spans.len(),
        };
        (0..n).map(move |j| match &self.0 {
            Repr::Store { store, seqs } => {
                let i = seqs.start + j;
                (store.seq(i), store.frag_id(i))
            }
            Repr::File {
                bytes,
                spans,
                first_seq,
                paired,
            } => {
                let frag = (first_seq + j) >> u32::from(*paired);
                (&bytes[spans[j].clone()], frag as u32)
            }
        })
    }
}

impl Drop for ChunkReads<'_> {
    fn drop(&mut self) {
        if let Repr::File { bytes, spans, .. } = &mut self.0 {
            let bufs = (std::mem::take(bytes), std::mem::take(spans));
            // Not there during thread teardown; the buffers are then freed.
            let _ = CHUNK_BUFS.try_with(|c| c.replace(bufs));
        }
    }
}

/// Provider of FASTQ chunks with *global* fragment ids.
pub trait ChunkSource: Sync {
    /// Load chunk `c`: its `(sequence, global fragment id)` entries.
    fn load_chunk(&self, c: usize) -> ChunkReads<'_>;

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
        ChunkReads(Repr::Store {
            store: self.store,
            seqs: lo..lo + spec.seqs as usize,
        })
    }

    fn num_fragments(&self) -> u32 {
        self.store.num_fragments()
    }
}

/// Chunks re-read from a FASTQ file on every load.
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

impl FileSource {
    /// Read chunk `c`'s bytes into this thread's recycled buffer and find
    /// the sequence lines with the record walker — every check IndexCreate
    /// made on the same bytes, plus the record count it stored.
    fn read_chunk(&self, c: usize) -> Result<ChunkReads<'_>, FastqError> {
        let spec = &self.specs[c];
        let (mut bytes, mut spans) = CHUNK_BUFS.take();
        let mut file = std::fs::File::open(&self.path)?;
        StreamChunker::read_range_into(
            &mut file,
            spec.offset,
            spec.offset + spec.bytes,
            &mut bytes,
        )?;
        spans.clear();
        let base = bytes.as_ptr() as usize;
        for record in record_views(&bytes, spec.first_seq as usize) {
            let seq = record?.seq;
            // `seq` is a sub-slice of `bytes`: its address gives its span.
            let at = seq.as_ptr() as usize - base;
            spans.push(at..at + seq.len());
        }
        if spans.len() != spec.seqs as usize {
            return Err(FastqError::Malformed {
                record: spec.first_seq as usize + spans.len(),
                what: format!(
                    "chunk holds {} records but the index says {}",
                    spans.len(),
                    spec.seqs
                ),
            });
        }
        Ok(ChunkReads(Repr::File {
            bytes,
            spans,
            first_seq: spec.first_seq as usize,
            paired: self.paired,
        }))
    }
}

impl ChunkSource for FileSource {
    fn load_chunk(&self, c: usize) -> ChunkReads<'_> {
        // Each load re-reads from disk — this IS the multi-pass I/O.
        self.read_chunk(c)
            // EXPECT: IndexCreate walked these bytes with the same record walker before any pass ran; a failed re-read means the file changed or vanished mid-run, unrecoverable for a multi-pass source.
            .expect("chunk read failed (file changed since indexing?)")
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
    fn chunked_file_loads_reassemble_the_store_and_recycle_the_buffer() {
        let s = store();
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &s).unwrap();
        let dir = std::env::temp_dir().join("metaprep_core_source_chunks_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        std::fs::write(&path, &bytes).unwrap();

        let specs = metaprep_io::chunk_fastq_bytes_paired(&bytes, 3).unwrap();
        assert!(specs.len() >= 2);
        let src = FileSource::new(path, specs.clone(), true, s.len() as u32);
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
            drop(chunk);
            // The dropped chunk's buffers wait for this thread's next load.
            let (bytes, spans) = CHUNK_BUFS.with(|b| {
                let b = b.borrow();
                (b.0.capacity(), b.1.capacity())
            });
            assert!(bytes as u64 >= spec.bytes && spans >= spec.seqs as usize);
        }
        assert_eq!(total, s.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_read_detects_index_mismatch() {
        let dir = std::env::temp_dir().join("metaprep_core_source_mismatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        std::fs::write(&path, b"@r0\nACGT\n+\nIIII\n").unwrap();
        let bad = ChunkSpec {
            offset: 0,
            bytes: 16,
            first_seq: 0,
            seqs: 2, // wrong
        };
        let src = FileSource::new(path, vec![bad], false, 2);
        assert!(matches!(
            src.read_chunk(0),
            Err(FastqError::Malformed { record: 1, .. })
        ));
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
        let s = store();
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &s).unwrap();
        let dir = std::env::temp_dir().join("metaprep_core_source_unpaired_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        std::fs::write(&path, &bytes).unwrap();

        let specs = metaprep_io::chunk_fastq_bytes(&bytes, 1).unwrap();
        let src = FileSource::new(path, specs, false, s.len() as u32);
        assert_eq!(src.num_fragments(), s.len() as u32);
        let chunk = src.load_chunk(0);
        let frags: Vec<u32> = chunk.iter().map(|(_, frag)| frag).collect();
        assert_eq!(frags, (0..s.len() as u32).collect::<Vec<_>>());
        drop(chunk);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
