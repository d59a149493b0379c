//! FASTQ parsing.
//!
//! Byte-oriented (no UTF-8 validation on sequence/quality lines) and
//! buffered, per the I/O guidance for hot loops. Only the 4-line FASTQ form
//! is supported — the form emitted by sequencers and consumed by the paper's
//! toolchain. Paired-end data is conventionally interleaved (mate 1 then
//! mate 2); [`parse_fastq`] takes a flag saying whether to pair consecutive
//! records under one fragment id.

use crate::store::ReadStore;
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// One FASTQ record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastqRecord {
    /// Header without the leading `@`.
    pub name: String,
    /// Sequence bytes.
    pub seq: Vec<u8>,
    /// Quality bytes (same length as `seq`).
    pub qual: Vec<u8>,
}

/// Errors produced by the FASTQ parser.
#[derive(Debug)]
pub enum FastqError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem, with the 1-based record index and a description.
    Malformed { record: usize, what: String },
}

impl fmt::Display for FastqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastqError::Io(e) => write!(f, "I/O error: {e}"),
            FastqError::Malformed { record, what } => {
                write!(f, "malformed FASTQ at record {record}: {what}")
            }
        }
    }
}

impl std::error::Error for FastqError {}

impl From<io::Error> for FastqError {
    fn from(e: io::Error) -> Self {
        FastqError::Io(e)
    }
}

/// Read one line into `buf` (excluding the terminator). Returns `false` at
/// EOF with nothing read. Accepts both `\n` and `\r\n` endings.
fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    let n = r.read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(true)
}

/// Parse FASTQ from a reader into a [`ReadStore`].
///
/// When `paired` is true, consecutive records are treated as mates and share
/// a fragment id; the record count must then be even.
pub fn parse_fastq(reader: impl BufRead, paired: bool) -> Result<ReadStore, FastqError> {
    let mut r = reader;
    let mut store = ReadStore::new();
    let mut header = Vec::new();
    let mut seq = Vec::new();
    let mut plus = Vec::new();
    let mut qual = Vec::new();
    let mut record = 0usize;
    let mut pending_pair = false;

    loop {
        if !read_line(&mut r, &mut header)? {
            break;
        }
        if header.is_empty() {
            // Tolerate blank lines between records (and before EOF).
            continue;
        }
        record += 1;
        if header[0] != b'@' {
            return Err(FastqError::Malformed {
                record,
                what: format!("header must start with '@', got {:?}", header[0] as char),
            });
        }
        if !read_line(&mut r, &mut seq)? {
            return Err(FastqError::Malformed {
                record,
                what: "EOF before sequence line".into(),
            });
        }
        if !read_line(&mut r, &mut plus)? {
            return Err(FastqError::Malformed {
                record,
                what: "EOF before '+' line".into(),
            });
        }
        if plus.first() != Some(&b'+') {
            return Err(FastqError::Malformed {
                record,
                what: "third line must start with '+'".into(),
            });
        }
        if !read_line(&mut r, &mut qual)? {
            return Err(FastqError::Malformed {
                record,
                what: "EOF before quality line".into(),
            });
        }
        if qual.len() != seq.len() {
            return Err(FastqError::Malformed {
                record,
                what: format!(
                    "quality length {} != sequence length {}",
                    qual.len(),
                    seq.len()
                ),
            });
        }

        if paired && pending_pair {
            // Second mate of the pair: reuse the previous fragment id.
            let frag = store.num_fragments() - 1;
            store.push_with_frag(&seq, frag);
        } else {
            store.push_single(&seq);
        }
        pending_pair = paired && !pending_pair;
        store.set_last_name(std::str::from_utf8(&header[1..]).map_err(|_| {
            FastqError::Malformed {
                record,
                what: "header is not UTF-8".into(),
            }
        })?);
        store.set_last_qual(&qual);
    }

    if paired && pending_pair {
        return Err(FastqError::Malformed {
            record,
            what: "odd number of records in paired (interleaved) file".into(),
        });
    }
    Ok(store)
}

/// Parse a FASTQ file from a path.
pub fn parse_fastq_path(path: impl AsRef<Path>, paired: bool) -> Result<ReadStore, FastqError> {
    let f = std::fs::File::open(path)?;
    parse_fastq(BufReader::new(f), paired)
}

/// Parse a *two-file* paired-end dataset (`reads_1.fastq` + `reads_2.fastq`,
/// mate `i` of each file forming fragment `i`) into one interleaved store.
///
/// This is the layout the paper's chunker handles in §4.3 ("after finding
/// the chunk offset in one FASTQ file, the same read has to be located in
/// the other FASTQ file"); internally METAPREP-RS always works on the
/// interleaved form, so this adapter does the mate alignment once up
/// front and errors on count mismatches instead of silently mispairing.
pub fn parse_fastq_pair_files(
    path1: impl AsRef<Path>,
    path2: impl AsRef<Path>,
) -> Result<ReadStore, FastqError> {
    let r1 = parse_fastq_path(path1, false)?;
    let r2 = parse_fastq_path(path2, false)?;
    if r1.len() != r2.len() {
        return Err(FastqError::Malformed {
            record: r1.len().min(r2.len()) + 1,
            what: format!("mate files disagree: {} vs {} records", r1.len(), r2.len()),
        });
    }
    let mut out = ReadStore::new();
    for i in 0..r1.len() {
        let frag = i as u32;
        out.push_with_frag(r1.seq(i), frag);
        if let Some(n) = r1.name(i) {
            out.set_last_name(n);
        }
        if let Some(q) = r1.qual(i) {
            out.set_last_qual(q);
        }
        out.push_with_frag(r2.seq(i), frag);
        if let Some(n) = r2.name(i) {
            out.set_last_name(n);
        }
        if let Some(q) = r2.qual(i) {
            out.set_last_qual(q);
        }
    }
    Ok(out)
}

/// Split an interleaved paired store back into `(mate1, mate2)` stores —
/// the inverse of [`parse_fastq_pair_files`], for writing two-file output.
///
/// # Panics
/// Panics if the store is not strictly interleaved (every fragment exactly
/// two consecutive sequences).
pub fn deinterleave(store: &ReadStore) -> (ReadStore, ReadStore) {
    assert_eq!(store.len() % 2, 0, "interleaved store needs an even length");
    let mut m1 = ReadStore::new();
    let mut m2 = ReadStore::new();
    for i in (0..store.len()).step_by(2) {
        assert_eq!(
            store.frag_id(i),
            store.frag_id(i + 1),
            "sequences {i} and {} are not mates",
            i + 1
        );
        for (out, j) in [(&mut m1, i), (&mut m2, i + 1)] {
            out.push_single(store.seq(j));
            if let Some(n) = store.name(j) {
                out.set_last_name(n);
            }
            if let Some(q) = store.qual(j) {
                out.set_last_qual(q);
            }
        }
    }
    (m1, m2)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "@r0\nACGT\n+\nIIII\n@r1\nGGCC\n+\nJJJJ\n";

    #[test]
    fn parses_two_records() {
        let s = parse_fastq(SAMPLE.as_bytes(), false).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.seq(0), b"ACGT");
        assert_eq!(s.seq(1), b"GGCC");
        assert_eq!(s.name(0), Some("r0"));
        assert_eq!(s.qual(1), Some(&b"JJJJ"[..]));
        assert_eq!(s.num_fragments(), 2);
    }

    #[test]
    fn paired_mode_shares_fragment_ids() {
        let s = parse_fastq(SAMPLE.as_bytes(), true).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_fragments(), 1);
        assert_eq!(s.frag_id(0), s.frag_id(1));
    }

    #[test]
    fn paired_mode_rejects_odd_count() {
        let input = "@r0\nACGT\n+\nIIII\n";
        assert!(matches!(
            parse_fastq(input.as_bytes(), true),
            Err(FastqError::Malformed { .. })
        ));
    }

    #[test]
    fn crlf_line_endings() {
        let input = "@r0\r\nACGT\r\n+\r\nIIII\r\n";
        let s = parse_fastq(input.as_bytes(), false).unwrap();
        assert_eq!(s.seq(0), b"ACGT");
        assert_eq!(s.qual(0), Some(&b"IIII"[..]));
    }

    #[test]
    fn plus_line_may_repeat_name() {
        let input = "@r0\nACGT\n+r0 extra\nIIII\n";
        let s = parse_fastq(input.as_bytes(), false).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn qual_line_starting_with_at_is_fine() {
        let input = "@r0\nACGT\n+\n@III\n@r1\nGG\n+\nII\n";
        let s = parse_fastq(input.as_bytes(), false).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.qual(0), Some(&b"@III"[..]));
    }

    #[test]
    fn missing_at_rejected() {
        let input = "r0\nACGT\n+\nIIII\n";
        assert!(parse_fastq(input.as_bytes(), false).is_err());
    }

    #[test]
    fn truncated_record_rejected() {
        for input in ["@r0\n", "@r0\nACGT\n", "@r0\nACGT\n+\n"] {
            assert!(parse_fastq(input.as_bytes(), false).is_err(), "{input:?}");
        }
    }

    #[test]
    fn qual_length_mismatch_rejected() {
        let input = "@r0\nACGT\n+\nII\n";
        assert!(parse_fastq(input.as_bytes(), false).is_err());
    }

    #[test]
    fn empty_input_is_empty_store() {
        let s = parse_fastq(&b""[..], false).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn pair_files_interleave_and_roundtrip() {
        let dir = std::env::temp_dir().join("metaprep_io_pairfiles_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("r1.fastq"),
            "@a/1\nACGT\n+\nIIII\n@b/1\nGGGG\n+\nJJJJ\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("r2.fastq"),
            "@a/2\nTTTT\n+\nKKKK\n@b/2\nCCCC\n+\nLLLL\n",
        )
        .unwrap();
        let s = parse_fastq_pair_files(dir.join("r1.fastq"), dir.join("r2.fastq")).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.num_fragments(), 2);
        assert_eq!(s.seq(0), b"ACGT");
        assert_eq!(s.seq(1), b"TTTT"); // mate 2 of fragment 0
        assert_eq!(s.frag_id(0), s.frag_id(1));
        assert_eq!(s.name(1), Some("a/2"));

        let (m1, m2) = deinterleave(&s);
        assert_eq!(m1.len(), 2);
        assert_eq!(m2.len(), 2);
        assert_eq!(m1.seq(1), b"GGGG");
        assert_eq!(m2.seq(0), b"TTTT");
        assert_eq!(m2.qual(1), Some(&b"LLLL"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pair_files_count_mismatch_rejected() {
        let dir = std::env::temp_dir().join("metaprep_io_pairmismatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("r1.fastq"), "@a\nAC\n+\nII\n@b\nGG\n+\nJJ\n").unwrap();
        std::fs::write(dir.join("r2.fastq"), "@a\nTT\n+\nKK\n").unwrap();
        assert!(parse_fastq_pair_files(dir.join("r1.fastq"), dir.join("r2.fastq")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic]
    fn deinterleave_rejects_non_interleaved() {
        let mut s = ReadStore::new();
        s.push_single(b"AC");
        s.push_single(b"GG"); // distinct fragments, not mates
        let _ = deinterleave(&s);
    }

    #[test]
    fn error_reports_record_index() {
        let input = "@r0\nACGT\n+\nIIII\n@r1\nAC\n+\nI\n";
        match parse_fastq(input.as_bytes(), false) {
            Err(FastqError::Malformed { record, .. }) => assert_eq!(record, 2),
            other => panic!("expected malformed error, got {other:?}"),
        }
    }
}
