//! Where KmerGen's FASTQ chunks come from.
//!
//! The paper's METAPREP reads FASTQ chunks from a parallel file system on
//! every pass (that is the point of the multi-pass design: the *input* is
//! re-read, the *tuples* never all exist at once). A [`ChunkSource`] is
//! either an in-memory [`ReadStore`] whose chunks are slices of it
//! (`Pipeline::run_reads`), or a FASTQ file whose chunks are re-read on
//! every load, one window at a time through `metaprep_io::RecordWalker`,
//! with sequences used where they lie in the window (`Pipeline::run_fastq_file`) — so KmerGen-I/O is real disk
//! traffic and per-pass redundant reading behaves exactly as in the paper.

use metaprep_io::{ChunkSpec, FastqError, ReadStore, RecordWalker};
use std::path::{Path, PathBuf};

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

/// Loaded `(sequence, global fragment id)` entries of a chunk, in file
/// order — borrowed from the source's store, or from the records of one
/// window of the file. Never a copy of a sequence.
pub(crate) type ChunkReads<'a> = dyn Iterator<Item = (&'a [u8], u32)> + 'a;

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

    /// Hand the chunk `spec`'s entries to `each`: a store's in one borrow,
    /// a file's window by window through `walker`. A file chunk is re-read
    /// from disk on every load — this IS the multi-pass I/O.
    pub(crate) fn load_chunk(
        &self,
        spec: &ChunkSpec,
        walker: &RecordWalker,
        mut each: impl FnMut(&mut ChunkReads<'_>),
    ) {
        match self {
            ChunkSource::Store(store) => {
                let lo = spec.first_seq as usize;
                let seqs = lo..lo + spec.seqs as usize;
                each(&mut seqs.map(|i| (store.seq(i), store.frag_id(i))))
            }
            ChunkSource::File { path, paired, .. } => walk_chunk(walker, path, *paired, spec, each)
                // EXPECT: IndexCreate walked these bytes with the same record walker before any pass ran; a failed re-read means the file changed or vanished mid-run, unrecoverable for a multi-pass source.
                .expect("chunk read failed (file changed since indexing?)"),
        }
    }
}

/// Walk the chunk `spec` of `path` window by window, handing each window's
/// records to `each` — every check IndexCreate made on the same bytes, plus
/// the record count it stored. When `paired`, consecutive sequences share
/// a fragment.
fn walk_chunk(
    walker: &RecordWalker,
    path: &Path,
    paired: bool,
    spec: &ChunkSpec,
    mut each: impl FnMut(&mut ChunkReads<'_>),
) -> Result<(), FastqError> {
    // The chunker cuts paired input between pairs only.
    assert!(
        !paired || (spec.first_seq.is_multiple_of(2) && spec.seqs.is_multiple_of(2)),
        "paired chunks must hold whole pairs"
    );
    let mut seq = spec.first_seq as usize;
    let range = (spec.offset, spec.offset + spec.bytes);
    let n = walker.walk(path, range, seq, |views| {
        let frag = |j: usize| ((seq + j) >> u32::from(paired)) as u32;
        each(&mut views.iter().enumerate().map(|(j, v)| (v.seq, frag(j))));
        seq += views.len();
        Ok(())
    })?;
    if n != u64::from(spec.seqs) {
        return Err(FastqError::Malformed {
            record: seq,
            byte_offset: spec.offset,
            what: format!("chunk holds {n} records but the index says {}", spec.seqs),
        });
    }
    Ok(())
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

    /// Every chunk of `specs` from `src` holds exactly the store's entries,
    /// a file's read in windows of 64 bytes, a record or two each.
    fn assert_serves_store(src: &ChunkSource<'_>, specs: &[ChunkSpec]) {
        let s = store();
        let mut total = 0;
        for spec in specs {
            let mut i = spec.first_seq as usize;
            src.load_chunk(spec, &RecordWalker::new(64), |reads| {
                for (seq, frag) in reads {
                    assert_eq!(seq, s.seq(i));
                    assert_eq!(frag, s.frag_id(i));
                    i += 1;
                }
            });
            assert_eq!(i, (spec.first_seq + spec.seqs) as usize);
            total += spec.seqs as usize;
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
    fn chunked_file_loads_reassemble_the_store() {
        let (path, bytes) = fastq_file("metaprep_core_source_chunks_test");
        let specs = metaprep_io::chunk_fastq_bytes(&bytes, 3, true).unwrap();
        assert!(specs.len() >= 2);
        let src = ChunkSource::file(path.clone(), true, store().len() as u32);
        assert_serves_store(&src, &specs);
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
            walk_chunk(&RecordWalker::new(64), &path, false, &bad, |_| {}),
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
        let walker = RecordWalker::new(64);
        ChunkSource::file(PathBuf::from("/dev/null"), true, 4).load_chunk(&bad, &walker, |_| {});
    }

    #[test]
    fn unpaired_file_source_frag_is_identity() {
        let (path, bytes) = fastq_file("metaprep_core_source_unpaired_test");
        let n = store().len() as u32;
        let specs = metaprep_io::chunk_fastq_bytes(&bytes, 1, false).unwrap();
        let src = ChunkSource::file(path.clone(), false, n);
        assert_eq!(src.num_fragments(), n);
        let mut frags = Vec::new();
        let walker = RecordWalker::new(64);
        src.load_chunk(&specs[0], &walker, |reads| {
            frags.extend(reads.map(|(_, frag)| frag));
        });
        assert_eq!(frags, (0..n).collect::<Vec<_>>());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
