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

/// Errors produced by the FASTQ parser.
#[derive(Debug)]
pub enum FastqError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem: the 1-based record number, the file offset of
    /// that record's header line, and a description.
    Malformed {
        record: usize,
        byte_offset: u64,
        what: String,
    },
    /// Well-formed input past a pipeline limit (a count that overflows the
    /// 32-bit id or count space). No single record is at fault, so none is
    /// named.
    Limit(String),
}

impl fmt::Display for FastqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastqError::Io(e) => write!(f, "I/O error: {e}"),
            FastqError::Malformed {
                record,
                byte_offset,
                what,
            } => write!(
                f,
                "malformed FASTQ at record {record} (byte {byte_offset}): {what}"
            ),
            FastqError::Limit(what) => write!(f, "input exceeds a pipeline limit: {what}"),
        }
    }
}

impl std::error::Error for FastqError {}

impl From<io::Error> for FastqError {
    fn from(e: io::Error) -> Self {
        FastqError::Io(e)
    }
}

/// Read one line into `buf` (excluding the terminator), advancing `pos` by
/// the bytes consumed. Returns `false` at EOF with nothing read. Accepts both
/// `\n` and `\r\n` endings.
fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>, pos: &mut u64) -> io::Result<bool> {
    buf.clear();
    let n = r.read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(false);
    }
    *pos += n as u64;
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
    // Bytes consumed so far, and where the last record's header started.
    let (mut pos, mut last_at) = (0u64, 0u64);
    let mut pending_pair = false;

    loop {
        let at = pos;
        if !read_line(&mut r, &mut header, &mut pos)? {
            break;
        }
        if header.is_empty() {
            // Tolerate blank lines between records (and before EOF).
            continue;
        }
        record += 1;
        let malformed = |what: String| FastqError::Malformed {
            record,
            byte_offset: at,
            what,
        };
        if header[0] != b'@' {
            let got = header[0] as char;
            return Err(malformed(format!(
                "header must start with '@', got {got:?}"
            )));
        }
        if !read_line(&mut r, &mut seq, &mut pos)? {
            return Err(malformed("EOF before sequence line".into()));
        }
        if !read_line(&mut r, &mut plus, &mut pos)? {
            return Err(malformed("EOF before '+' line".into()));
        }
        if plus.first() != Some(&b'+') {
            return Err(malformed("third line must start with '+'".into()));
        }
        if !read_line(&mut r, &mut qual, &mut pos)? {
            return Err(malformed("EOF before quality line".into()));
        }
        if qual.len() != seq.len() {
            return Err(malformed(format!(
                "quality length {} != sequence length {}",
                qual.len(),
                seq.len()
            )));
        }

        if paired && pending_pair {
            // Second mate of the pair: reuse the previous fragment id.
            let frag = store.num_fragments() - 1;
            store.push_with_frag(&seq, frag);
        } else {
            store.push_single(&seq);
        }
        pending_pair = paired && !pending_pair;
        let name = std::str::from_utf8(&header[1..])
            .map_err(|_| malformed("header is not UTF-8".into()))?;
        store.set_last_name(name);
        store.set_last_qual(&qual);
        last_at = at;
    }

    if paired && pending_pair {
        return Err(FastqError::Malformed {
            record,
            byte_offset: last_at,
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
    fn errors_name_the_record_and_its_header_byte() {
        let odd = [SAMPLE, "@r2\nAC\n+\nII\n"].concat();
        for (input, paired, want) in [
            (
                "@r0\r\nACGT\r\n+\r\nIIII\r\n\n@r1\nAC\n+\nI\n",
                false,
                "record 2 (byte 21)",
            ),
            // An odd paired file is named at its last record.
            (&SAMPLE[..16], true, "record 1 (byte 0)"),
            (&odd, true, "record 3 (byte 32)"),
        ] {
            let err = parse_fastq(input.as_bytes(), paired).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }
}
