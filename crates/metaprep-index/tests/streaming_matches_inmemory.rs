//! Property-based differential test: the streaming file indexer must
//! produce byte-identical index tables (`MerHist`, `FastqPart`, sequence
//! count) to the in-memory reference path for random FASTQ inputs —
//! paired and unpaired, LF and CRLF records, blank lines before, between
//! and after records, with and without a trailing newline, including N
//! bases, across probe windows small enough to force the chunker's
//! window-doubling path. The same inputs, with one record spoiled, hold
//! the windowed range walker to one walk of the whole range.

use metaprep_index::{index_fastq_bytes, index_fastq_file_streaming, StreamingOptions};
use metaprep_io::{record_views, RecordView, RecordWalker, StreamChunker, WALK_WINDOW};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a generated read is spelled: CRLF line endings or not, and how many
/// blank lines come before its header.
type Spelling = (bool, usize);

/// Serialize a read list as 4-line FASTQ records, each spelled as
/// `spellings` says (LF and no blank lines when it runs out), followed by
/// `trailing_blanks` blank lines.
fn fastq_bytes(
    reads: &[Vec<u8>],
    spellings: &[Spelling],
    trailing_blanks: usize,
    trailing_newline: bool,
) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, seq) in reads.iter().enumerate() {
        let (crlf, blanks) = spellings.get(i).copied().unwrap_or((false, 0));
        let eol: &[u8] = if crlf { b"\r\n" } else { b"\n" };
        for _ in 0..blanks {
            out.extend_from_slice(eol);
        }
        out.extend_from_slice(format!("@r{i}").as_bytes());
        out.extend_from_slice(eol);
        out.extend_from_slice(seq);
        out.extend_from_slice(eol);
        out.push(b'+');
        out.extend_from_slice(eol);
        out.extend(std::iter::repeat_n(b'J', seq.len()));
        out.extend_from_slice(eol);
    }
    out.extend(std::iter::repeat_n(b'\n', trailing_blanks));
    if !trailing_newline && out.ends_with(b"\n") {
        out.pop();
    }
    out
}

/// Mostly plain records; some CRLF, some behind one or two blank lines.
fn spellings() -> impl Strategy<Value = Vec<Spelling>> {
    let blanks = proptest::sample::select(vec![0usize, 0, 0, 0, 1, 2]);
    proptest::collection::vec((proptest::bool::ANY, blanks), 0..40)
}

/// Unique temp path per proptest case (cases run within one process).
fn temp_fastq(bytes: &[u8]) -> std::path::PathBuf {
    // ORDERING: Relaxed suffices — the counter only needs uniqueness, no
    // ordering with other memory operations.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "metaprep_stream_prop_{}_{n}.fastq",
        std::process::id()
    ));
    std::fs::write(&path, bytes).expect("write temp FASTQ");
    path
}

/// Spoil record `at % records` of valid FASTQ `bytes` one of five ways
/// `parse_fastq` rejects: a short quality line, no `+`, no `@`, the file
/// cut after its sequence line, a header that is not UTF-8.
fn spoil(bytes: &mut Vec<u8>, at: usize, how: usize) {
    let views: Vec<RecordView<'_>> = record_views(bytes, 0, 0).map(|r| r.unwrap()).collect();
    if views.is_empty() {
        return;
    }
    let r = views[at % views.len()];
    let pos = |s: &[u8]| s.as_ptr() as usize - bytes.as_ptr() as usize;
    let (header, seq_end, qual) = (r.offset as usize, pos(r.seq) + r.seq.len(), pos(r.qual));
    let plus = seq_end + bytes[seq_end..].iter().position(|&b| b == b'\n').unwrap() + 1;
    match how {
        0 => drop(bytes.remove(qual)),
        1 => bytes[plus] = b'x',
        2 => bytes[header] = b'>',
        3 => bytes.truncate(plus),
        _ => bytes.insert(header + 1, 0xFF),
    }
}

/// What a walk of a range reports: its records, pass A's (count, second
/// start, last start), and its count or its error.
type Walked = (
    Vec<(u64, String, Vec<u8>, Vec<u8>)>,
    (u64, u64, u64),
    Result<u64, String>,
);

fn owned(v: &RecordView<'_>) -> (u64, String, Vec<u8>, Vec<u8>) {
    (
        v.offset,
        v.header.to_string(),
        v.seq.to_vec(),
        v.qual.to_vec(),
    )
}

/// Pass A's fold over one record at `offset`.
fn pass_a(a: &mut (u64, u64, u64), offset: u64) {
    if a.0 == 1 {
        a.1 = offset;
    }
    a.2 = offset;
    a.0 += 1;
}

fn whole_walk(bytes: &[u8], (lo, hi): (u64, u64), first: usize) -> Walked {
    let (mut records, mut a, mut end) = (Vec::new(), (0, hi, lo), Ok(0));
    for view in record_views(&bytes[lo as usize..hi as usize], first, lo) {
        match view {
            Ok(v) => {
                pass_a(&mut a, v.offset);
                records.push(owned(&v));
            }
            Err(e) => end = Err(e.to_string()),
        }
    }
    let end = end.map(|_| records.len() as u64);
    (records, a, end)
}

fn windowed_walk(
    path: &std::path::Path,
    (lo, hi): (u64, u64),
    first: usize,
    window: u64,
) -> Walked {
    let (mut records, mut a) = (Vec::new(), (0, hi, lo));
    let end = RecordWalker::new(window).walk(path, (lo, hi), first, |views| {
        for v in views {
            pass_a(&mut a, v.offset);
            records.push(owned(v));
        }
        Ok(())
    });
    (records, a, end.map_err(|e| e.to_string()))
}

fn base() -> impl Strategy<Value = u8> {
    proptest::sample::select(vec![b'A', b'C', b'G', b'T', b'N'])
}

proptest! {
    #[test]
    fn prop_streaming_matches_in_memory(
        mut reads in proptest::collection::vec(
            proptest::collection::vec(base(), 1..60), 0..40),
        c in 1usize..10,
        k in proptest::sample::select(vec![5usize, 21, 33]),
        paired in proptest::bool::ANY,
        spelled in proptest::bool::ANY,
        spellings in spellings(),
        trailing_blanks in 0usize..3,
        trailing_newline in proptest::bool::ANY,
    ) {
        if paired && reads.len() % 2 == 1 {
            reads.pop();
        }
        let m = 4;
        // Half the files are plain, strict 4-line LF FASTQ.
        let (spellings, trailing_blanks) = if spelled {
            (spellings, trailing_blanks)
        } else {
            (Vec::new(), 0)
        };
        let bytes = fastq_bytes(&reads, &spellings, trailing_blanks, trailing_newline);
        let path = temp_fastq(&bytes);

        let want = index_fastq_bytes(&bytes, paired, c, k, m)
            .expect("in-memory reference indexing");

        // 16 is the chunker's minimum window; 17 exercises odd, repeatedly
        // doubled windows; 4096 usually covers the whole file in one probe.
        for window in [16usize, 17, 4096] {
            let opts = StreamingOptions { window, threads: 2 };
            let got = index_fastq_file_streaming(&path, paired, c, k, m, opts)
                .expect("streaming indexing");
            prop_assert_eq!(&got.0, &want.0, "MerHist, window {}", window);
            prop_assert_eq!(&got.1, &want.1, "FastqPart, window {}", window);
            prop_assert_eq!(got.2, want.2, "total_seqs, window {}", window);
        }
        std::fs::remove_file(&path).ok();
    }

    /// The windowed walker reports what one walk of the whole range does —
    /// records, numbers, offsets, pass A's fold and the error string — over
    /// the whole file, the chunker's tentative ranges and, when the file
    /// is valid, the chunk table of either pairing.
    #[test]
    fn prop_windowed_walk_matches_the_whole_range(
        mut reads in proptest::collection::vec(
            proptest::collection::vec(base(), 1..60), 0..40),
        c in 1usize..10,
        paired in proptest::bool::ANY,
        spellings in spellings(),
        trailing_blanks in 0usize..3,
        trailing_newline in proptest::bool::ANY,
        spoil_at in any::<usize>(),
        spoil_how in 0usize..6,
        window in 1u64..=64,
    ) {
        if paired && reads.len() % 2 == 1 {
            reads.pop();
        }
        let mut bytes = fastq_bytes(&reads, &spellings, trailing_blanks, trailing_newline);
        // Five ways to spoil one record, and a sixth that leaves it be.
        if spoil_how < 5 {
            spoil(&mut bytes, spoil_at, spoil_how);
        }
        let path = temp_fastq(&bytes);
        let len = bytes.len() as u64;
        let mut ranges = vec![((0, len), 0), ((0, len), 17)];
        let tentative = StreamChunker::open(&path, 16).and_then(|mut ch| ch.ranges(c));
        ranges.extend(tentative.expect("chunk cuts").into_iter().map(|r| (r, 0)));
        if let Ok(specs) = metaprep_io::chunk_fastq_bytes(&bytes, c, paired) {
            let spec_range = |s: &metaprep_io::ChunkSpec| (s.offset, s.offset + s.bytes);
            ranges.extend(specs.iter().map(|s| (spec_range(s), s.first_seq as usize)));
        }
        for (range, first) in ranges {
            let want = whole_walk(&bytes, range, first);
            for window in [window, WALK_WINDOW] {
                let got = windowed_walk(&path, range, first, window);
                prop_assert_eq!(&got, &want, "range {:?} window {}", range, window);
            }
        }
        std::fs::remove_file(&path).ok();
    }

}
