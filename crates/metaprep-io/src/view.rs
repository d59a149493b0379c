//! Zero-copy FASTQ record views.
//!
//! [`record_views`] walks a byte slice of 4-line FASTQ in place and yields
//! one [`RecordView`] per record: three sub-slices of the input, nothing
//! allocated, nothing copied. It is the crate's one FASTQ grammar: the
//! file path (IndexCreate's histogram scan, KmerGen's per-pass chunk load,
//! the streamed partition writer) reads records through it, and
//! [`parse_fastq`](crate::parse_fastq) builds a `ReadStore` from it, so a
//! file is accepted or rejected by one set of rules no matter which of
//! them meets it first.
//!
//! The rules: `\n` and `\r\n` line endings, blank lines tolerated where a
//! header is due, a last line without its newline, `+anything` third
//! lines, a quality line as long as its sequence line, a UTF-8 header. A
//! record that breaks one is named in [`FastqError::Malformed`] by its
//! 1-based number and the byte offset of its header line;
//! `tests/fastq_grammar.rs` holds both readers to generated records and
//! faults.
//!
//! The walk is also how records are counted and located
//! ([`RecordView::offset`]): every record count IndexCreate stores, and
//! every pair-rounded chunk boundary, comes from it.

use crate::parse::FastqError;
use metaprep_kmer::simd::find_byte;

/// One FASTQ record, borrowed from the bytes it was read from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// File offset of the header line.
    pub offset: u64,
    /// Header line without the leading `@`.
    pub header: &'a str,
    /// Sequence line.
    pub seq: &'a [u8],
    /// Quality line (same length as `seq`).
    pub qual: &'a [u8],
}

/// Iterator over the records of a FASTQ byte slice; see [`record_views`].
pub struct RecordViews<'a> {
    data: &'a [u8],
    pos: usize,
    /// Number of the last record started (file-global).
    record: usize,
    /// File offset of `data[0]`.
    base: u64,
    /// A line was wanted past the end of `data`. Read right after an error,
    /// it tells a record cut short there ("EOF before …") from one
    /// malformed in lines it has.
    pub(crate) ran_out: bool,
}

/// Walk the FASTQ records of `data`, which must start at a record boundary
/// and lies at byte `offset` of its file. Records are numbered from
/// `first_record + 1` and placed from `offset`, so a walk over one chunk of
/// a file reports file-global record numbers and byte offsets. The iterator
/// ends after the first error.
pub fn record_views(data: &[u8], first_record: usize, offset: u64) -> RecordViews<'_> {
    RecordViews {
        data,
        pos: 0,
        record: first_record,
        base: offset,
        ran_out: false,
    }
}

impl<'a> RecordViews<'a> {
    /// The next line without its terminator (`\n` or `\r\n`; the last line
    /// may lack one), or `None` at the end of the data.
    fn line(&mut self) -> Option<&'a [u8]> {
        let Some(rest) = self.data.get(self.pos..).filter(|r| !r.is_empty()) else {
            self.ran_out = true;
            return None;
        };
        let end = find_byte(rest, b'\n').unwrap_or(rest.len());
        self.pos += (end + 1).min(rest.len());
        let line = &rest[..end];
        Some(line.strip_suffix(b"\r").unwrap_or(line))
    }

    /// The three lines after `header`, which starts at file byte `offset`,
    /// checked in file order.
    fn rest_of_record(
        &mut self,
        header: &'a [u8],
        offset: u64,
    ) -> Result<RecordView<'a>, FastqError> {
        let record = self.record;
        let malformed = move |what: String| FastqError::Malformed {
            record,
            byte_offset: offset,
            what,
        };
        if header[0] != b'@' {
            let got = header[0] as char;
            return Err(malformed(format!(
                "header must start with '@', got {got:?}"
            )));
        }
        let Some(seq) = self.line() else {
            return Err(malformed("EOF before sequence line".into()));
        };
        let Some(plus) = self.line() else {
            return Err(malformed("EOF before '+' line".into()));
        };
        if plus.first() != Some(&b'+') {
            return Err(malformed("third line must start with '+'".into()));
        }
        let Some(qual) = self.line() else {
            return Err(malformed("EOF before quality line".into()));
        };
        if qual.len() != seq.len() {
            return Err(malformed(format!(
                "quality length {} != sequence length {}",
                qual.len(),
                seq.len()
            )));
        }
        let header = std::str::from_utf8(&header[1..])
            .map_err(|_| malformed("header is not UTF-8".into()))?;
        Ok(RecordView {
            offset,
            header,
            seq,
            qual,
        })
    }
}

impl<'a> Iterator for RecordViews<'a> {
    type Item = Result<RecordView<'a>, FastqError>;

    fn next(&mut self) -> Option<Self::Item> {
        // Blank lines are tolerated between records (and before EOF).
        let (header, offset) = loop {
            let offset = self.base + self.pos as u64;
            let line = self.line()?;
            if !line.is_empty() {
                break (line, offset);
            }
        };
        self.record += 1;
        let item = self.rest_of_record(header, offset);
        if item.is_err() {
            self.pos = self.data.len();
        }
        Some(item)
    }
}
