//! Where KmerGen's FASTQ chunks come from.
//!
//! The paper's METAPREP reads FASTQ chunks from a parallel file system on
//! every pass (that is the point of the multi-pass design: the *input* is
//! re-read, the *tuples* never all exist at once). A run has one input, a
//! [`ChunkSource`]: a FASTQ file whose chunks are re-read on every load,
//! one window at a time through `metaprep_io::RecordWalker`, with
//! sequences used where they lie in the window — so KmerGen-I/O is real
//! disk traffic and per-pass redundant reading behaves exactly as in the
//! paper. `Pipeline::run_fastq_file` reads the caller's file in place;
//! `Pipeline::run_reads` first writes its store to a [`Spool`] file.

use crate::config::PipelineError;
use metaprep_io::{write_fastq, ChunkSpec, FastqError, ReadStore, RecordWalker};
use std::fs::OpenOptions;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The FASTQ file a run's chunks are re-read from on every load. When
/// `paired`, sequences `2i` and `2i + 1` form fragment `i` (interleaved
/// mates).
pub(crate) struct ChunkSource {
    path: PathBuf,
    paired: bool,
    num_fragments: u32,
}

/// Loaded `(sequence, global fragment id)` entries of a chunk, in file
/// order — borrowed from the records of one window of the file. Never a
/// copy of a sequence.
pub(crate) type ChunkReads<'a> = dyn Iterator<Item = (&'a [u8], u32)> + 'a;

impl ChunkSource {
    /// A source over the FASTQ file `path` holding `total_seqs` sequences.
    pub(crate) fn new(path: PathBuf, paired: bool, total_seqs: u32) -> Self {
        if paired {
            assert_eq!(total_seqs % 2, 0, "paired input needs an even read count");
        }
        let num_fragments = if paired { total_seqs / 2 } else { total_seqs };
        ChunkSource {
            path,
            paired,
            num_fragments,
        }
    }

    /// Total number of fragments (`R`).
    pub(crate) fn num_fragments(&self) -> u32 {
        self.num_fragments
    }

    /// Hand the chunk `spec`'s entries to `each`, window by window through
    /// `walker`. A chunk is re-read from disk on every load — this IS the
    /// multi-pass I/O.
    pub(crate) fn load_chunk(
        &self,
        spec: &ChunkSpec,
        walker: &RecordWalker,
        each: impl FnMut(&mut ChunkReads<'_>),
    ) {
        walk_chunk(walker, &self.path, self.paired, spec, each)
            // EXPECT: IndexCreate walked these bytes with the same record walker before any pass ran; a failed re-read means the file changed or vanished mid-run, unrecoverable for a multi-pass source.
            .expect("chunk read failed (file changed since indexing?)")
    }
}

/// A store written as a FASTQ file under `std::env::temp_dir()`, named by
/// the process id and a counter, and removed when dropped — on every path
/// out of the run that reads it. The file is created fresh (`create_new`):
/// a name already taken, by a concurrent run or by anything else, is left
/// as it is and the next counter value tried, so a spool never truncates,
/// follows a link to, or removes a file it did not create.
pub(crate) struct Spool(PathBuf);

impl Spool {
    /// Write `store` to a fresh spool file. A failed write is an error
    /// naming the file, which is removed again.
    pub(crate) fn write(store: &ReadStore) -> Result<Self, PipelineError> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Self::write_in(&std::env::temp_dir(), &NEXT, store)
    }

    /// [`Spool::write`] into `dir`, numbering names from `next`.
    fn write_in(dir: &Path, next: &AtomicU64, store: &ReadStore) -> Result<Self, PipelineError> {
        let failed = |path: &Path, e: std::io::Error| {
            PipelineError::InvalidInput(format!("spool reads to {}: {e}", path.display()))
        };
        let (spool, file) = loop {
            // ORDERING: Relaxed — a unique counter; nothing is published through it.
            let n = next.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("metaprep-spool-{}-{n}.fastq", std::process::id()));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(file) => break (Spool(path), file),
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(failed(&path, e)),
            }
        };
        let mut w = BufWriter::new(file);
        write_fastq(&mut w, store)
            .and_then(|()| w.flush())
            .map_err(|e| failed(&spool.0, e))?;
        Ok(spool)
    }

    /// The file's path.
    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Spool {
    fn drop(&mut self) {
        // A file that is already gone leaves nothing to clean up.
        let _ = std::fs::remove_file(&self.0);
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

    /// Every chunk of `specs` from `src` holds exactly the store's entries,
    /// read in windows of 64 bytes, a record or two each.
    fn assert_serves_store(src: &ChunkSource, specs: &[ChunkSpec]) {
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
    fn chunked_file_loads_reassemble_the_store() {
        let spool = Spool::write(&store()).unwrap();
        let bytes = std::fs::read(spool.path()).unwrap();
        for c in [1, 3] {
            let specs = metaprep_io::chunk_fastq_bytes(&bytes, c, true).unwrap();
            assert_eq!(specs.len() >= 2, c > 1);
            let src = ChunkSource::new(spool.path().to_path_buf(), true, store().len() as u32);
            assert_serves_store(&src, &specs);
        }
    }

    #[test]
    fn a_spool_is_a_fresh_file_removed_on_drop() {
        let (a, b) = (
            Spool::write(&store()).unwrap(),
            Spool::write(&store()).unwrap(),
        );
        assert_ne!(a.path(), b.path());
        let path = a.path().to_path_buf();
        assert!(path.starts_with(std::env::temp_dir()));
        assert_eq!(
            metaprep_io::parse_fastq_path(&path, true).unwrap().len(),
            store().len()
        );
        drop(a);
        assert!(!path.exists());
        assert!(b.path().exists());
    }

    #[test]
    fn a_spool_leaves_a_file_already_at_its_name_alone() {
        let dir =
            std::env::temp_dir().join(format!("metaprep_core_spool_taken_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let name = |n: u64| dir.join(format!("metaprep-spool-{}-{n}.fastq", std::process::id()));
        // Name 0 is a file, name 1 a link to one: neither is the spool's.
        std::fs::write(name(0), b"not a spool").unwrap();
        let target = dir.join("target");
        std::fs::write(&target, b"link target").unwrap();
        #[cfg(unix)]
        std::os::unix::fs::symlink(&target, name(1)).unwrap();
        #[cfg(not(unix))]
        std::fs::write(name(1), b"not a spool").unwrap();
        let next = AtomicU64::new(0);
        let spool = Spool::write_in(&dir, &next, &store()).unwrap();
        assert_eq!(spool.path(), name(2));
        assert_eq!(
            metaprep_io::parse_fastq_path(spool.path(), true)
                .unwrap()
                .len(),
            store().len()
        );
        drop(spool);
        assert!(!name(2).exists());
        assert_eq!(std::fs::read(name(0)).unwrap(), b"not a spool");
        assert_eq!(std::fs::read(&target).unwrap(), b"link target");
        assert!(std::fs::symlink_metadata(name(1)).is_ok());
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
        ChunkSource::new(PathBuf::from("/dev/null"), true, 4).load_chunk(&bad, &walker, |_| {});
    }

    #[test]
    fn unpaired_file_source_frag_is_identity() {
        let spool = Spool::write(&store()).unwrap();
        let bytes = std::fs::read(spool.path()).unwrap();
        let n = store().len() as u32;
        let specs = metaprep_io::chunk_fastq_bytes(&bytes, 1, false).unwrap();
        let src = ChunkSource::new(spool.path().to_path_buf(), false, n);
        assert_eq!(src.num_fragments(), n);
        let mut frags = Vec::new();
        let walker = RecordWalker::new(64);
        src.load_chunk(&specs[0], &walker, |reads| {
            frags.extend(reads.map(|(_, frag)| frag));
        });
        assert_eq!(frags, (0..n).collect::<Vec<_>>());
    }
}
