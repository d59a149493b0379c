//! Logical FASTQ chunking (the `FASTQPart` prerequisite, paper §3.1.2).
//!
//! A FASTQ file is split into `C` byte ranges of approximately equal size
//! whose boundaries land on record starts, so each chunk can be read
//! independently. Every chunk records the global read id of its first read,
//! which is what lets threads assign dense fragment ids without
//! coordination.
//!
//! [`chunk_fastq_bytes`] cuts raw FASTQ bytes held whole, counting and
//! locating records with the one record reader ([`record_views`]); it is
//! the reference the streaming indexer (`crate::stream`) is held to.
//!
//! [`find_record_start`] is the one record-start heuristic: what the
//! streaming chunker, which seeks into the middle of a file to cut it, uses
//! to land on a record.

use crate::parse::FastqError;
use crate::view::record_views;

/// One logical chunk of a FASTQ input (a row of the `FASTQPart` table minus
/// its m-mer histogram, which lives in `metaprep-index`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Size of the chunk in bytes.
    pub bytes: u64,
    /// Global id of the first *sequence* in the chunk (sequence index, not
    /// fragment id; mates are consecutive sequences).
    pub first_seq: u32,
    /// Number of sequences in the chunk.
    pub seqs: u32,
}

/// Find the first FASTQ record start at or after `pos` in `data`.
///
/// A record start is a line beginning with `@` whose line-after-next begins
/// with `+`. Quality lines may begin with `@`, but then the line two below
/// is a sequence line (`A/C/G/T/N...`), never `+` — so the test is
/// unambiguous for 4-line FASTQ.
pub fn find_record_start(data: &[u8], pos: usize) -> Option<usize> {
    if pos >= data.len() {
        return None;
    }
    // Move to a line start.
    let mut at = if pos == 0 {
        0
    } else {
        memchr_from(data, pos - 1, b'\n')? + 1
    };
    loop {
        if at >= data.len() {
            return None;
        }
        if data[at] == b'@' {
            // line+2 must start with '+'
            let l1 = memchr_from(data, at, b'\n')? + 1;
            let l2 = memchr_from(data, l1, b'\n')? + 1;
            if l2 < data.len() && data[l2] == b'+' {
                return Some(at);
            }
        }
        at = memchr_from(data, at, b'\n')? + 1;
    }
}

/// Index of the first `needle` at or after `from`. Dispatches to the
/// vectorized byte scanner (AVX2/NEON, scalar fallback) — newline hunting
/// is the inner loop of every record-boundary probe, so this is the
/// memchr of the FASTQ scanning hot path.
fn memchr_from(data: &[u8], from: usize, needle: u8) -> Option<usize> {
    metaprep_kmer::simd::find_byte(data.get(from..)?, needle).map(|i| from + i)
}

/// Split raw FASTQ bytes into up to `c` chunks of roughly equal byte size.
/// Chunk 0 starts at byte 0; every later boundary is the first record start
/// at or after byte `j·len/c`, moved one record further when `paired` and
/// an odd number of records lie before it, so that every chunk holds whole
/// mate pairs (the paper's paired-file alignment, §4.3, for interleaved
/// mates). Fewer than `c` chunks come back when targets share a boundary.
///
/// Records are counted and located by one [`record_views`] walk of the
/// whole slice, so this fails where that walk fails, with its error; an
/// odd record count when `paired` is [`FastqError::odd_paired`]. The
/// streaming indexer reaches the same table without holding the file.
pub fn chunk_fastq_bytes(
    data: &[u8],
    c: usize,
    paired: bool,
) -> Result<Vec<ChunkSpec>, FastqError> {
    assert!(c >= 1);
    let mut starts = Vec::new();
    for record in record_views(data, 0, 0) {
        starts.push(record?.offset as usize);
    }
    let n = starts.len();
    if paired && !n.is_multiple_of(2) {
        return Err(FastqError::odd_paired(n, starts[n - 1] as u64));
    }

    // Boundaries as record indices; the byte of index `i` is its start,
    // except that chunk 0 also takes any blank lines before record 0.
    let mut bounds = vec![0usize];
    for j in 1..c {
        let mut idx = starts.partition_point(|&s| s < j * data.len() / c);
        if paired {
            idx += idx % 2;
        }
        // EXPECT: `bounds` is seeded with 0 above and only ever pushed to.
        if idx > *bounds.last().expect("nonempty") {
            bounds.push(idx);
        }
    }
    bounds.push(n);
    let byte_of = |i: usize| match i {
        0 => 0,
        i if i == n => data.len(),
        i => starts[i],
    };
    Ok(bounds
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| ChunkSpec {
            offset: byte_of(w[0]) as u64,
            bytes: (byte_of(w[1]) - byte_of(w[0])) as u64,
            first_seq: w[0] as u32,
            seqs: (w[1] - w[0]) as u32,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ReadStore;
    use crate::write::write_fastq;

    fn sample_bytes(n: usize) -> Vec<u8> {
        let mut s = ReadStore::new();
        for i in 0..n {
            let seq: Vec<u8> = b"ACGT"
                .iter()
                .cycle()
                .take(20 + (i % 7) * 3)
                .copied()
                .collect();
            s.push_single(&seq);
        }
        let mut buf = Vec::new();
        write_fastq(&mut buf, &s).unwrap();
        buf
    }

    #[test]
    fn find_record_start_at_zero() {
        let data = sample_bytes(3);
        assert_eq!(find_record_start(&data, 0), Some(0));
    }

    #[test]
    fn find_record_start_skips_mid_record() {
        let data = sample_bytes(3);
        // From byte 1 we must land on the second record, not inside the first.
        let s = find_record_start(&data, 1).unwrap();
        assert!(s > 0);
        assert_eq!(data[s], b'@');
        // It must be a real record start: parse from here succeeds.
        let store = crate::parse::parse_fastq(&data[s..], false).unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn find_record_start_handles_qual_at_sign() {
        // Quality line starting with '@' must not be taken for a header.
        let data = b"@r0\nACGT\n+\n@@@@\n@r1\nGGGG\n+\nIIII\n";
        let s = find_record_start(data, 1).unwrap();
        assert_eq!(&data[s..s + 3], b"@r1");
    }

    #[test]
    fn chunks_cover_all_bytes_and_records() {
        let data = sample_bytes(40);
        for c in [1, 2, 3, 7, 13] {
            let specs = chunk_fastq_bytes(&data, c, false).unwrap();
            let total_bytes: u64 = specs.iter().map(|s| s.bytes).sum();
            assert_eq!(total_bytes, data.len() as u64, "c={c}");
            let total_seqs: u32 = specs.iter().map(|s| s.seqs).sum();
            assert_eq!(total_seqs, 40, "c={c}");
            // Chunks are contiguous and first_seq is cumulative.
            let mut off = 0u64;
            let mut seq = 0u32;
            for s in &specs {
                assert_eq!(s.offset, off);
                assert_eq!(s.first_seq, seq);
                off += s.bytes;
                seq += s.seqs;
            }
        }
    }

    #[test]
    fn each_chunk_parses_standalone() {
        let data = sample_bytes(25);
        let specs = chunk_fastq_bytes(&data, 4, false).unwrap();
        assert!(specs.len() >= 2);
        for s in &specs {
            let lo = s.offset as usize;
            let hi = lo + s.bytes as usize;
            let store = crate::parse::parse_fastq(&data[lo..hi], false).unwrap();
            assert_eq!(store.len(), s.seqs as usize);
        }
    }

    #[test]
    fn more_chunks_than_records_collapses() {
        let data = sample_bytes(2);
        let specs = chunk_fastq_bytes(&data, 16, false).unwrap();
        let total: u32 = specs.iter().map(|s| s.seqs).sum();
        assert_eq!(total, 2);
        assert!(specs.len() <= 2);
    }

    #[test]
    fn paired_chunks_hold_whole_pairs() {
        let data = sample_bytes(40); // even count
        for c in [1, 2, 3, 7, 13] {
            let specs = chunk_fastq_bytes(&data, c, true).unwrap();
            let total: u32 = specs.iter().map(|s| s.seqs).sum();
            assert_eq!(total, 40, "c={c}");
            let bytes: u64 = specs.iter().map(|s| s.bytes).sum();
            assert_eq!(bytes, data.len() as u64, "c={c}");
            for s in &specs {
                assert_eq!(s.first_seq % 2, 0, "c={c}");
                assert_eq!(s.seqs % 2, 0, "c={c}");
            }
            // contiguous
            let mut off = 0u64;
            for s in &specs {
                assert_eq!(s.offset, off);
                off += s.bytes;
            }
        }
    }

    #[test]
    fn paired_chunks_parse_standalone() {
        let data = sample_bytes(18);
        for s in chunk_fastq_bytes(&data, 4, true).unwrap() {
            let lo = s.offset as usize;
            let store = crate::parse::parse_fastq(&data[lo..lo + s.bytes as usize], true).unwrap();
            assert_eq!(store.len(), s.seqs as usize);
        }
    }

    #[test]
    fn paired_chunker_rejects_odd_record_count() {
        let data = sample_bytes(5);
        assert!(matches!(
            chunk_fastq_bytes(&data, 2, true),
            Err(FastqError::Malformed { .. })
        ));
    }

    #[test]
    fn paired_chunker_empty_input() {
        assert!(chunk_fastq_bytes(b"", 3, true).unwrap().is_empty());
    }

    #[test]
    fn trailing_blank_line_is_accepted() {
        // `parse_fastq` tolerates blank lines where a header is due, and so
        // does the chunker, whatever the pairing: the records are counted
        // by the walker, not by lines.
        let mut data = sample_bytes(4);
        data.push(b'\n');
        for paired in [false, true] {
            let specs = chunk_fastq_bytes(&data, 2, paired).unwrap();
            assert_eq!(specs.iter().map(|s| s.seqs).sum::<u32>(), 4);
            assert_eq!(
                specs.iter().map(|s| s.bytes).sum::<u64>(),
                data.len() as u64
            );
        }
    }

    #[test]
    fn leading_blank_lines_belong_to_chunk_zero() {
        let data = [&b"\n\r\n"[..], &sample_bytes(6)].concat();
        for paired in [false, true] {
            for c in [1, 2, 5] {
                let specs = chunk_fastq_bytes(&data, c, paired).unwrap();
                assert_eq!(specs[0].offset, 0, "paired={paired} c={c}");
                assert!(specs[0].seqs > 0, "paired={paired} c={c}");
            }
        }
    }

    #[test]
    fn wrapped_record_rejected() {
        let data = b"@r0\nACGT\nACGT\n+\nIIIIIIII\n";
        match chunk_fastq_bytes(data, 1, false) {
            Err(FastqError::Malformed { record, what, .. }) => {
                assert_eq!(record, 1);
                assert!(what.contains("'+'"), "{what}");
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_rejected() {
        let data = b"@r0\nACGT\n+\n";
        assert!(matches!(
            chunk_fastq_bytes(data, 1, false),
            Err(FastqError::Malformed { .. })
        ));
    }

    #[test]
    fn crlf_records_count_cleanly() {
        let data = b"@r0\r\nACGT\r\n+\r\nIIII\r\n";
        let specs = chunk_fastq_bytes(data, 1, false).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].seqs, 1);
    }

    #[test]
    fn no_trailing_newline_still_counts() {
        let data = b"@r0\nACGT\n+\nIIII\n@r1\nGG\n+\nII";
        let specs = chunk_fastq_bytes(data, 1, false).unwrap();
        assert_eq!(specs[0].seqs, 2);
    }

    #[test]
    fn malformed_error_reports_global_record_and_byte() {
        // Second record is wrapped: the error names record 2 and the byte
        // its header starts at, whatever the chunk count.
        let data = b"@r0\nACGT\n+\nIIII\n@r1\nAC\nGT\n+\nIIII\n";
        for c in [1, 3] {
            match chunk_fastq_bytes(data, c, false) {
                Err(FastqError::Malformed {
                    record,
                    byte_offset,
                    ..
                }) => assert_eq!((record, byte_offset), (2, 16), "c={c}"),
                other => panic!("expected malformed error, got {other:?}"),
            }
        }
    }
}
