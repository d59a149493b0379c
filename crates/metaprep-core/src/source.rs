//! Where KmerGen's FASTQ chunks come from.
//!
//! The paper's METAPREP reads FASTQ chunks from a parallel file system on
//! every pass (that is the point of the multi-pass design: the *input* is
//! re-read, the *tuples* never all exist at once). A [`ChunkSource`] is
//! either an in-memory [`ReadStore`] whose chunks are slices of it
//! (`Pipeline::run_reads`), or a FASTQ file whose chunks are re-read on
//! every load and whose sequences are used where they lie in the bytes
//! read (`Pipeline::run_fastq_file`) — so KmerGen-I/O is real disk traffic
//! and per-pass redundant reading behaves exactly as in the paper.

use metaprep_io::{record_views, ChunkSpec, FastqError, ReadStore, StreamChunker};
use std::cell::RefCell;
use std::ops::Range;
use std::path::PathBuf;

/// The input a run's chunks are loaded from.
pub(crate) enum ChunkSource<'a> {
    /// Chunks are slices of an in-memory store.
    Store(&'a ReadStore),
    /// Chunks are re-read from a FASTQ file on every load. When `paired`,
    /// sequences `2i` and `2i + 1` form fragment `i` (interleaved mates).
    File {
        path: PathBuf,
        paired: bool,
        num_fragments: u32,
    },
}

/// One loaded chunk: its sequences, each paired with its *global* fragment
/// id — a borrow of the source's store, or the chunk's raw file bytes with
/// the span of every sequence line in them. Never a copy of a sequence.
pub(crate) enum ChunkReads<'a> {
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
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (&[u8], u32)> + '_ {
        let n = match self {
            ChunkReads::Store { seqs, .. } => seqs.len(),
            ChunkReads::File { spans, .. } => spans.len(),
        };
        (0..n).map(move |j| match self {
            ChunkReads::Store { store, seqs } => {
                let i = seqs.start + j;
                (store.seq(i), store.frag_id(i))
            }
            ChunkReads::File {
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
        if let ChunkReads::File { bytes, spans, .. } = self {
            let bufs = (std::mem::take(bytes), std::mem::take(spans));
            // Not there during thread teardown; the buffers are then freed.
            let _ = CHUNK_BUFS.try_with(|c| c.replace(bufs));
        }
    }
}

impl ChunkSource<'_> {
    /// A source over the FASTQ file `path` holding `total_seqs` sequences.
    pub(crate) fn file(path: PathBuf, paired: bool, total_seqs: u32) -> Self {
        if paired {
            assert_eq!(total_seqs % 2, 0, "paired input needs an even read count");
        }
        let num_fragments = if paired { total_seqs / 2 } else { total_seqs };
        ChunkSource::File {
            path,
            paired,
            num_fragments,
        }
    }

    /// Total number of fragments (`R`).
    pub(crate) fn num_fragments(&self) -> u32 {
        match self {
            ChunkSource::Store(store) => store.num_fragments(),
            ChunkSource::File { num_fragments, .. } => *num_fragments,
        }
    }

    /// Load the chunk `spec`: its `(sequence, global fragment id)` entries.
    /// A file chunk is re-read from disk on every load — this IS the
    /// multi-pass I/O.
    pub(crate) fn load_chunk(&self, spec: &ChunkSpec) -> ChunkReads<'_> {
        match self {
            ChunkSource::Store(store) => {
                let lo = spec.first_seq as usize;
                ChunkReads::Store {
                    store,
                    seqs: lo..lo + spec.seqs as usize,
                }
            }
            ChunkSource::File { path, paired, .. } => read_chunk(path, *paired, spec)
                // EXPECT: IndexCreate walked these bytes with the same record walker before any pass ran; a failed re-read means the file changed or vanished mid-run, unrecoverable for a multi-pass source.
                .expect("chunk read failed (file changed since indexing?)"),
        }
    }
}

/// Read the chunk `spec` of `path` into this thread's recycled buffer and
/// find the sequence lines with the record walker — every check IndexCreate
/// made on the same bytes, plus the record count it stored.
fn read_chunk(
    path: &std::path::Path,
    paired: bool,
    spec: &ChunkSpec,
) -> Result<ChunkReads<'static>, FastqError> {
    // The chunker cuts paired input between pairs only.
    assert!(
        !paired || (spec.first_seq.is_multiple_of(2) && spec.seqs.is_multiple_of(2)),
        "paired chunks must hold whole pairs"
    );
    let (mut bytes, mut spans) = CHUNK_BUFS.take();
    let mut file = std::fs::File::open(path)?;
    StreamChunker::read_range_into(&mut file, spec.offset, spec.offset + spec.bytes, &mut bytes)?;
    spans.clear();
    let base = bytes.as_ptr() as usize;
    for record in record_views(&bytes, spec.first_seq as usize, spec.offset) {
        let seq = record?.seq;
        // `seq` is a sub-slice of `bytes`: its address gives its span.
        let at = seq.as_ptr() as usize - base;
        spans.push(at..at + seq.len());
    }
    if spans.len() != spec.seqs as usize {
        return Err(FastqError::Malformed {
            record: spec.first_seq as usize + spans.len(),
            byte_offset: spec.offset,
            what: format!(
                "chunk holds {} records but the index says {}",
                spans.len(),
                spec.seqs
            ),
        });
    }
    Ok(ChunkReads::File {
        bytes,
        spans,
        first_seq: spec.first_seq as usize,
        paired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_io::{chunk_store, write_fastq};

    fn store() -> ReadStore {
        let mut s = ReadStore::new();
        for i in (0..12).step_by(2) {
            let seq: Vec<u8> = b"ACGTTGCA"
                .iter()
                .cycle()
                .skip(i % 8)
                .take(30)
                .copied()
                .collect();
            s.push_pair(&seq, &seq[..20]);
        }
        s
    }

    /// `store()` written as FASTQ to a fresh file under `name`.
    fn fastq_file(name: &str) -> (PathBuf, Vec<u8>) {
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &store()).unwrap();
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        std::fs::write(&path, &bytes).unwrap();
        (path, bytes)
    }

    /// Every chunk of `specs` from `src` holds exactly the store's entries.
    fn assert_serves_store(src: &ChunkSource<'_>, specs: &[ChunkSpec]) {
        let s = store();
        let mut total = 0;
        for spec in specs {
            let chunk = src.load_chunk(spec);
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
    fn store_source_serves_chunks() {
        let s = store();
        assert_serves_store(&ChunkSource::Store(&s), &chunk_store(&s, 3));
    }

    #[test]
    fn file_source_matches_store_source() {
        let (path, bytes) = fastq_file("metaprep_core_source_test");
        let specs = metaprep_io::chunk_fastq_bytes(&bytes, 1, false).unwrap(); // single chunk
        let src = ChunkSource::file(path.clone(), true, store().len() as u32);
        assert_serves_store(&src, &specs);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn chunked_file_loads_reassemble_the_store_and_recycle_the_buffer() {
        let (path, bytes) = fastq_file("metaprep_core_source_chunks_test");
        let specs = metaprep_io::chunk_fastq_bytes(&bytes, 3, true).unwrap();
        assert!(specs.len() >= 2);
        let src = ChunkSource::file(path.clone(), true, store().len() as u32);
        assert_serves_store(&src, &specs);
        for spec in &specs {
            drop(src.load_chunk(spec));
            // The dropped chunk's buffers wait for this thread's next load.
            let (bytes, spans) = CHUNK_BUFS.with(|b| {
                let b = b.borrow();
                (b.0.capacity(), b.1.capacity())
            });
            assert!(bytes as u64 >= spec.bytes && spans >= spec.seqs as usize);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
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
        assert!(matches!(
            read_chunk(&path, false, &bad),
            Err(FastqError::Malformed { record: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "whole pairs")]
    fn file_source_rejects_pair_splitting_chunks() {
        let bad = ChunkSpec {
            offset: 0,
            bytes: 10,
            first_seq: 1, // odd start splits a pair
            seqs: 2,
        };
        let _ = ChunkSource::file(PathBuf::from("/dev/null"), true, 4).load_chunk(&bad);
    }

    #[test]
    fn unpaired_file_source_frag_is_identity() {
        let (path, bytes) = fastq_file("metaprep_core_source_unpaired_test");
        let n = store().len() as u32;
        let specs = metaprep_io::chunk_fastq_bytes(&bytes, 1, false).unwrap();
        let src = ChunkSource::file(path.clone(), false, n);
        assert_eq!(src.num_fragments(), n);
        let chunk = src.load_chunk(&specs[0]);
        let frags: Vec<u32> = chunk.iter().map(|(_, frag)| frag).collect();
        assert_eq!(frags, (0..n).collect::<Vec<_>>());
        drop(chunk);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
