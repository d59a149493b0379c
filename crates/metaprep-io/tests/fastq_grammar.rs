//! Property-based test of the FASTQ grammar against what was written.
//!
//! `record_views` is the crate's one FASTQ grammar: the file path
//! (IndexCreate, KmerGen-I/O, the streamed partition writer) reads records
//! through it and `parse_fastq` builds a `ReadStore` from it. The generator
//! below knows every record it writes, the fault it gave each one and the
//! byte where each header starts, so both readers are held to that truth:
//! the same records (name, sequence, quality; the walker's header offsets
//! too), or the number and header byte of the first record that is
//! faulted or cut short. Inputs mix what real files do (CRLF endings,
//! `+name` third lines, blank lines between records, a last line without
//! its newline, `@` as the first quality byte) with every way a record is
//! rejected (length mismatch, missing `+`, missing `@`, non-UTF-8 header,
//! truncation after each line of the last record). The walker hunts
//! newlines through the runtime-dispatched byte scanner, so CI re-runs this
//! suite with `METAPREP_SIMD=scalar`.

use metaprep_io::{parse_fastq, record_views, FastqError};
use proptest::prelude::*;

/// A record's name, sequence and quality.
type Record = (String, Vec<u8>, Vec<u8>);

/// Records, or the number and header byte of the malformed one.
fn outcome<T>(r: Result<T, FastqError>) -> Result<T, (usize, u64)> {
    r.map_err(|e| match e {
        FastqError::Malformed {
            record,
            byte_offset,
            ..
        } => (record, byte_offset),
        FastqError::Io(e) => panic!("slices cannot fail to read: {e}"),
        FastqError::Limit(what) => panic!("record readers hit no pipeline limit: {what}"),
    })
}

fn by_parse(bytes: &[u8], paired: bool) -> Result<Vec<Record>, (usize, u64)> {
    let store = outcome(parse_fastq(bytes, paired))?;
    Ok((0..store.len())
        .map(|i| {
            let name = store.name(i).expect("parsed reads carry names");
            let qual = store.qual(i).expect("parsed reads carry qualities");
            (name.to_string(), store.seq(i).to_vec(), qual.to_vec())
        })
        .collect())
}

/// Each record with its header's file offset.
fn by_view(
    bytes: &[u8],
    first_record: usize,
    offset: u64,
) -> Result<Vec<(u64, Record)>, (usize, u64)> {
    outcome(
        record_views(bytes, first_record, offset)
            .map(|v| {
                v.map(|v| {
                    let record = (v.header.to_string(), v.seq.to_vec(), v.qual.to_vec());
                    (v.offset, record)
                })
            })
            .collect(),
    )
}

/// One generated record: what it holds, how it is spelled, how it is broken.
#[derive(Clone, Debug)]
struct Spec {
    name: Vec<u8>,
    seq: Vec<u8>,
    /// 0 = well-formed; 1 quality too long, 2 too short, 3 third line
    /// without `+`, 4 non-UTF-8 header, 5 header without `@`.
    fault: u8,
    plus_name: bool,
    at_first_qual: bool,
    crlf: bool,
    blank_lines_before: usize,
}

fn spec() -> impl Strategy<Value = Spec> {
    let name = proptest::collection::vec(proptest::sample::select(b"r01 /:@+".to_vec()), 0..8);
    let seq = proptest::collection::vec(proptest::sample::select(b"ACGTN".to_vec()), 0..24);
    // Mostly well-formed, so that most files have a few good records
    // before anything goes wrong and many have nothing wrong at all.
    let fault = proptest::sample::select(vec![0u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5]);
    let blanks = proptest::sample::select(vec![0usize, 0, 0, 0, 1, 2]);
    // Three independent spelling choices, one bit each.
    let spelling = 0u8..8;
    (name, seq, (fault, blanks), spelling).prop_map(
        |(name, seq, (fault, blank_lines_before), spelling)| Spec {
            name,
            seq,
            fault,
            plus_name: spelling & 1 != 0,
            at_first_qual: spelling & 2 != 0,
            crlf: spelling & 4 != 0,
            blank_lines_before,
        },
    )
}

/// The record's four lines, without terminators.
fn lines_of(s: &Spec) -> [Vec<u8>; 4] {
    let mut header = if s.fault == 5 {
        b"r".to_vec()
    } else {
        b"@".to_vec()
    };
    header.extend_from_slice(&s.name);
    if s.fault == 4 {
        header.push(0xFF);
    }
    let mut plus = if s.fault == 3 {
        Vec::new()
    } else {
        b"+".to_vec()
    };
    if s.plus_name {
        plus.extend_from_slice(&s.name);
    }
    let mut qual = vec![b'I'; s.seq.len()];
    if s.at_first_qual && !qual.is_empty() {
        qual[0] = b'@';
    }
    match s.fault {
        2 if !qual.is_empty() => drop(qual.pop()),
        1 | 2 => qual.push(b'J'),
        _ => {}
    }
    [header, s.seq.clone(), plus, qual]
}

/// What `fastq_bytes(specs, last_lines, final_newline)` holds: every
/// record with its header's byte, or the number and header byte of the
/// first record that is faulted or cut short.
fn truth(
    specs: &[Spec],
    last_lines: usize,
    final_newline: bool,
) -> Result<Vec<(u64, Record)>, (usize, u64)> {
    let mut records = Vec::new();
    let mut at = 0u64;
    for (i, s) in specs.iter().enumerate() {
        let eol = if s.crlf { 2 } else { 1 };
        at += (s.blank_lines_before * eol) as u64;
        let lines = lines_of(s);
        let faulted = match s.fault {
            0 => false,
            // A name that begins with `+` makes the third line a `+` line.
            3 => !lines[2].starts_with(b"+"),
            _ => true,
        };
        // The last record loses lines to truncation, and an empty last
        // line (LF only: CRLF leaves its `\r`) goes with the final newline.
        let cut = i + 1 == specs.len()
            && (last_lines < 4 || !final_newline && !s.crlf && lines[3].is_empty());
        if faulted || cut {
            return Err((i + 1, at));
        }
        let name = String::from_utf8(s.name.clone()).expect("names are ASCII");
        records.push((at, (name, s.seq.clone(), lines[3].clone())));
        at += lines.iter().map(|l| (l.len() + eol) as u64).sum::<u64>();
    }
    Ok(records)
}

/// Serialize `specs`, keeping only the first `last_lines` lines of the
/// last record and optionally dropping the file's final terminator.
fn fastq_bytes(specs: &[Spec], last_lines: usize, final_newline: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let eol: &[u8] = if s.crlf { b"\r\n" } else { b"\n" };
        for _ in 0..s.blank_lines_before {
            out.extend_from_slice(eol);
        }
        let keep = if i + 1 == specs.len() { last_lines } else { 4 };
        for line in lines_of(s).iter().take(keep) {
            out.extend_from_slice(line);
            out.extend_from_slice(eol);
        }
    }
    if !final_newline && out.ends_with(b"\n") {
        out.pop();
    }
    out
}

proptest! {
    // Cheap cases (a few hundred bytes each); enough of them that every
    // fault meets every spelling and every truncation point.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn prop_fastq_readers_match_the_written_records(
        specs in proptest::collection::vec(spec(), 0..8),
        last_lines in proptest::sample::select(vec![4usize, 4, 4, 4, 3, 2, 1]),
        final_newline in proptest::bool::ANY,
    ) {
        let bytes = fastq_bytes(&specs, last_lines, final_newline);
        let input = String::from_utf8_lossy(&bytes);
        let want = truth(&specs, last_lines, final_newline);
        prop_assert_eq!(&by_view(&bytes, 0, 0), &want, "input {:?}", input);
        // A chunk walk numbers and places its records file-globally.
        let shifted = want
            .clone()
            .map(|records| records.into_iter().map(|(at, r)| (at + 5000, r)).collect())
            .map_err(|(r, b)| (r + 1000, b + 5000));
        prop_assert_eq!(by_view(&bytes, 1000, 5000), shifted);
        // A paired parse wants an even count, and names an odd one at its
        // last record.
        for paired in [false, true] {
            let want = want.clone().and_then(|records| match records.last() {
                Some(&(at, _)) if paired && records.len() % 2 == 1 => Err((records.len(), at)),
                _ => Ok(records.into_iter().map(|(_, r)| r).collect::<Vec<_>>()),
            });
            prop_assert_eq!(by_parse(&bytes, paired), want, "paired {} input {:?}", paired, input);
        }
    }
}

#[test]
fn walker_is_fused_after_an_error() {
    let mut views = record_views(b"@r0\nAC\n+\nI\n@r1\nAC\n+\nII\n", 0, 0);
    assert!(matches!(
        views.next(),
        Some(Err(FastqError::Malformed {
            record: 1,
            byte_offset: 0,
            ..
        }))
    ));
    assert!(views.next().is_none());
}

#[test]
fn views_borrow_the_input_bytes() {
    let data = b"@r0 x\r\nACGT\r\n+r0 x\r\n@III\r\n\r\n@r1\nGG\n+\nII";
    let views: Vec<_> = record_views(data, 0, 10).map(Result::unwrap).collect();
    assert_eq!(views.len(), 2);
    // Header offsets in the file: past the CRLF record and the blank line.
    assert_eq!((views[0].offset, views[1].offset), (10, 10 + 28));
    assert_eq!(
        (views[0].header, views[0].seq, views[0].qual),
        ("r0 x", &b"ACGT"[..], &b"@III"[..])
    );
    assert_eq!(
        (views[1].header, views[1].seq, views[1].qual),
        ("r1", &b"GG"[..], &b"II"[..])
    );
    let inside = data.as_ptr_range();
    for v in views {
        assert!(inside.contains(&v.seq.as_ptr()) && inside.contains(&v.qual.as_ptr()));
    }
}
