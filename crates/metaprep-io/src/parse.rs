//! FASTQ parsing into a [`ReadStore`].
//!
//! Only the 4-line FASTQ form is supported — the form emitted by sequencers
//! and consumed by the paper's toolchain. Records are read by the one
//! record reader, [`record_views`] ([`RecordWalker`] for a file, one window
//! at a time), so a store is built from exactly the records the file-based
//! pipeline accepts, and a malformed file fails with the same record number
//! and byte. Paired-end data is conventionally interleaved (mate 1 then
//! mate 2); [`parse_fastq`] takes a flag saying whether to pair consecutive
//! records under one fragment id.

use crate::store::ReadStore;
use crate::stream::{input_len, RecordWalker, WALK_WINDOW};
use crate::view::{record_views, RecordView};
use std::path::Path;
use std::{fmt, io};

/// Errors produced by the FASTQ readers.
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

impl FastqError {
    /// A paired (interleaved) file whose record count is odd, named at its
    /// last record: the `record`-th, whose header is at `byte_offset`.
    pub fn odd_paired(record: usize, byte_offset: u64) -> Self {
        FastqError::Malformed {
            record,
            byte_offset,
            what: "odd number of records in paired (interleaved) file".into(),
        }
    }
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

/// Parse FASTQ bytes into a [`ReadStore`].
///
/// When `paired` is true, consecutive records are treated as mates and share
/// a fragment id; the record count must then be even.
pub fn parse_fastq(bytes: &[u8], paired: bool) -> Result<ReadStore, FastqError> {
    collect(paired, |push| {
        record_views(bytes, 0, 0).try_for_each(|view| view.map(|view| push(&view)))
    })
}

/// Parse a FASTQ file from a path, as [`parse_fastq`] parses its bytes. The
/// file is read one window of about [`WALK_WINDOW`] bytes at a time, never
/// whole; it must be a regular file ([`input_len`]).
pub fn parse_fastq_path(path: impl AsRef<Path>, paired: bool) -> Result<ReadStore, FastqError> {
    parse_fastq_windowed(path.as_ref(), paired, WALK_WINDOW)
}

/// [`parse_fastq_path`] with windows of about `window` bytes.
fn parse_fastq_windowed(path: &Path, paired: bool, window: u64) -> Result<ReadStore, FastqError> {
    let len = input_len(path)?;
    collect(paired, |push| {
        RecordWalker::new(window)
            .walk(path, (0, len), 0, |views| {
                views.iter().for_each(&mut *push);
                Ok(())
            })
            .map(drop)
    })
}

/// Fill a store with the records `walk` hands to its argument, in file
/// order. When `paired`, consecutive records are mates sharing a fragment
/// id, and an odd count is an error named at the last record.
fn collect(
    paired: bool,
    walk: impl FnOnce(&mut dyn FnMut(&RecordView<'_>)) -> Result<(), FastqError>,
) -> Result<ReadStore, FastqError> {
    let mut store = ReadStore::new();
    let mut last = 0;
    walk(&mut |view| {
        if paired && store.len() % 2 == 1 {
            // Second mate of the pair: reuse the previous fragment id.
            store.push_with_frag(view.seq, store.num_fragments() - 1);
        } else {
            store.push_single(view.seq);
        }
        store.set_last_name(view.header);
        store.set_last_qual(view.qual);
        last = view.offset;
    })?;
    if paired && store.len() % 2 == 1 {
        return Err(FastqError::odd_paired(store.len(), last));
    }
    Ok(store)
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
    fn a_windowed_file_parse_is_the_parse_of_its_bytes() {
        let dir = std::env::temp_dir().join("metaprep_io_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let crlf = "@r0 a\r\nACGT\r\n+r0 a\r\n@III\r\n\r\n@r1\r\nGG\r\n+\r\nII\r\n";
        let odd = [SAMPLE, "\n@r2 long name\nACGTACGTAC\n+\nIIIIIIIIII"].concat();
        let bad = [SAMPLE, "@r2\nACGT\n-\nIIII\n", SAMPLE].concat();
        // The whole store, or the error's message.
        let show = |r: Result<ReadStore, FastqError>| {
            r.map(|s| format!("{s:?}")).map_err(|e| e.to_string())
        };
        for (i, input) in [SAMPLE, crlf, &odd, &bad, ""].into_iter().enumerate() {
            let path = dir.join(format!("in{i}.fastq"));
            std::fs::write(&path, input).unwrap();
            for paired in [false, true] {
                let want = show(parse_fastq(input.as_bytes(), paired));
                // Windows of a few bytes cut every record; 1 MiB holds
                // the whole file.
                for window in [1, 2, 3, 5, 8, 13, WALK_WINDOW] {
                    let got = show(parse_fastq_windowed(&path, paired, window));
                    assert_eq!(got, want, "input {i} paired {paired} window {window}");
                }
            }
        }
        // The odd paired file is named at its last record, the spoiled one
        // where it is.
        let err = |input: &str, paired| parse_fastq(input.as_bytes(), paired).unwrap_err();
        assert!(err(&odd, true).to_string().contains("record 3 (byte 33)"));
        assert!(err(&bad, false).to_string().contains("record 3 (byte 32)"));
        assert_eq!(
            parse_fastq(crlf.as_bytes(), true).unwrap().num_fragments(),
            1
        );
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
