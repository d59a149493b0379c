//! Property-based differential test for the record-boundary scanner.
//!
//! `find_record_start` and the `record_views` walker hunt newlines through
//! the runtime-dispatched SIMD byte scanner (`metaprep_kmer::simd::find_byte`).
//! Here the probe is checked against a byte-at-a-time reference on
//! adversarial inputs: well-formed FASTQ, quality lines starting with `@`,
//! junk bytes, and `@`/`+`/newline soup designed to hit every branch of
//! the record-start disambiguation; and on well-formed FASTQ the walker
//! counts every record and starts each one where the probe lands. CI
//! re-runs this suite with `METAPREP_SIMD=scalar` so both dispatch routes
//! are covered.

use metaprep_io::{find_record_start, record_views};
use proptest::prelude::*;

/// Byte-at-a-time reference: same record-start definition (`@` line whose
/// line-after-next begins with `+`), no vectorized scanning.
fn naive_find_record_start(data: &[u8], pos: usize) -> Option<usize> {
    fn next_nl(data: &[u8], from: usize) -> Option<usize> {
        (from..data.len()).find(|&i| data[i] == b'\n')
    }
    if pos >= data.len() {
        return None;
    }
    let mut at = if pos == 0 {
        0
    } else {
        next_nl(data, pos - 1)? + 1
    };
    loop {
        if at >= data.len() {
            return None;
        }
        if data[at] == b'@' {
            let l1 = next_nl(data, at)? + 1;
            let l2 = next_nl(data, l1)? + 1;
            if l2 < data.len() && data[l2] == b'+' {
                return Some(at);
            }
        }
        at = next_nl(data, at)? + 1;
    }
}

/// Serialize reads as strict 4-line FASTQ; quality strings deliberately
/// start with `@` so the quality-line/header-line ambiguity is exercised.
fn fastq_bytes(reads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, seq) in reads.iter().enumerate() {
        out.extend_from_slice(format!("@r{i}\n").as_bytes());
        out.extend_from_slice(seq);
        out.push(b'\n');
        out.extend_from_slice(b"+\n");
        out.push(b'@');
        out.extend(std::iter::repeat_n(b'J', seq.len().saturating_sub(1)));
        out.push(b'\n');
    }
    out
}

/// Structural soup: heavy on the bytes the scanner branches on.
fn soup() -> impl Strategy<Value = Vec<u8>> {
    const STRUCTURAL: &[u8] = b"@+\nACGTN";
    let byte = (0u8..4, any::<u8>()).prop_map(|(class, raw)| match class {
        0..=2 => STRUCTURAL[raw as usize % STRUCTURAL.len()],
        _ => raw,
    });
    proptest::collection::vec(byte, 0..300)
}

proptest! {
    /// Scanner output equals the naive reference on FASTQ followed by
    /// soup, from every probe position.
    #[test]
    fn prop_find_record_start_matches_naive(
        reads in proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(b"ACGTN".to_vec()), 1..40),
            0..6),
        tail in soup(),
        pos in 0usize..600,
    ) {
        let mut data = fastq_bytes(&reads);
        data.extend_from_slice(&tail);
        prop_assert_eq!(
            find_record_start(&data, pos),
            naive_find_record_start(&data, pos)
        );
    }

    /// On well-formed FASTQ the walker counts exactly the records, and each
    /// record starts where the probe from just past the previous one lands
    /// — the cut a seeking reader makes is a record the walker reads.
    #[test]
    fn prop_walker_counts_and_places_wellformed_fastq(
        reads in proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(b"ACGTN".to_vec()), 1..40),
            0..8),
    ) {
        let data = fastq_bytes(&reads);
        let starts: Vec<usize> = record_views(&data, 0, 0)
            .map(|r| r.unwrap().offset as usize)
            .collect();
        prop_assert_eq!(starts.len(), reads.len());
        let mut probed = Vec::new();
        let mut at = 0;
        while let Some(s) = naive_find_record_start(&data, at) {
            probed.push(s);
            at = s + 1;
        }
        prop_assert_eq!(starts, probed);
    }
}
