//! Scalar canonical k-mer enumeration over reads.
//!
//! A read may contain `N` (or other ambiguity codes); METAPREP never
//! enumerates a k-mer containing such a position (paper §3.2). The
//! enumerator therefore splits the read into maximal valid runs and rolls a
//! k-mer window through each run.

use crate::alphabet::{encode_base_checked, INVALID_CODE};
use crate::kmer::Kmer;
use crate::simd;
use std::cell::RefCell;
use std::ops::Range;

/// Below this length the dispatched path falls back to the scalar
/// enumerator: a read shorter than one vector register gains nothing
/// from the classify kernel, and skipping the code-buffer borrow keeps
/// tiny inputs allocation-free.
const SIMD_MIN_LEN: usize = 32;

thread_local! {
    // Recycled per-thread code buffer for the dispatched path: one read's
    // classify output at a time, so in-flight memory is O(longest read)
    // per thread regardless of how many reads stream through.
    static CODE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Call `f(canonical_value, offset)` for every canonical k-mer of `seq`,
/// where `offset` is the 0-based position of the window's first base.
///
/// Windows overlapping an invalid byte (e.g. `N`) are skipped. Does nothing
/// when `seq.len() < k`.
///
/// Dispatched hot path: the read is classified and 2-bit-encoded in one
/// vectorized pass ([`simd::encode_classify`]), then the canonical values
/// roll over the packed code lanes with no per-byte table lookups. The
/// emitted `(value, offset)` sequence — including order — is identical to
/// [`for_each_canonical_kmer_scalar`]'s on every backend (property-tested
/// in `tests/simd_equivalence.rs`).
#[inline]
pub fn for_each_canonical_kmer<K: Kmer>(seq: &[u8], k: usize, mut f: impl FnMut(K::Repr, usize)) {
    assert!(k >= 1 && k <= K::MAX_K);
    if simd::active() == simd::Backend::Scalar || seq.len() < SIMD_MIN_LEN {
        return for_each_canonical_kmer_scalar::<K>(seq, k, f);
    }
    CODE_BUF.with(|cell| match cell.try_borrow_mut() {
        Ok(mut codes) => {
            simd::encode_classify(seq, &mut codes);
            for_each_in_codes::<K>(&codes, k, &mut f);
        }
        // Re-entrant call (f itself enumerates k-mers on this thread):
        // the buffer is busy, and correctness beats vectorization.
        Err(_) => for_each_canonical_kmer_scalar::<K>(seq, k, f),
    })
}

/// Enumerate canonical k-mers over a packed 2-bit code buffer (one code
/// or [`INVALID_CODE`] per input byte, as produced by
/// [`simd::encode_classify`]). Runs are split on invalid codes exactly
/// like the byte-level enumerator splits on invalid bases.
fn for_each_in_codes<K: Kmer>(codes: &[u8], k: usize, f: &mut impl FnMut(K::Repr, usize)) {
    for run in valid_runs(codes) {
        if run.len() < k {
            continue;
        }
        let (start, run) = (run.start, &codes[run]);
        let mut km = K::zero(k);
        // Warm the first k-1 codes, then emit one window per remaining
        // code — the steady-state loop carries no fill-count branch.
        for &c in &run[..k - 1] {
            km.roll(c);
        }
        for (w, &c) in run[k - 1..].iter().enumerate() {
            km.roll(c);
            f(km.canonical_value(), start + w);
        }
    }
}

/// The maximal runs of valid codes of a code buffer (one code or
/// [`INVALID_CODE`] per input byte, as [`simd::encode_classify`] writes
/// it), in order: what the enumeration rolls over, and what
/// [`simd::owned_kmers`] takes.
pub fn valid_runs(codes: &[u8]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        // Invalid runs are rare and short (N stretches); skip them byte-wise.
        while codes.get(i) == Some(&INVALID_CODE) {
            i += 1;
        }
        if i == codes.len() {
            return None;
        }
        let start = i;
        // Valid runs are long (often the whole read): find their end with
        // the vectorized scanner instead of a per-byte compare loop.
        i = simd::find_byte(&codes[i..], INVALID_CODE).map_or(codes.len(), |j| i + j);
        Some(start..i)
    })
}

/// Scalar reference enumerator: per-byte table lookups, no code buffer.
/// This is the oracle the dispatched path is property-tested against and
/// the baseline `BENCH_kmergen.json` ratios are measured from.
#[inline]
pub fn for_each_canonical_kmer_scalar<K: Kmer>(
    seq: &[u8],
    k: usize,
    mut f: impl FnMut(K::Repr, usize),
) {
    assert!(k >= 1 && k <= K::MAX_K);
    let mut i = 0;
    while i < seq.len() {
        // Find the next maximal run of valid bases starting at or after `i`.
        while i < seq.len() && encode_base_checked(seq[i]).is_none() {
            i += 1;
        }
        let start = i;
        while i < seq.len() && encode_base_checked(seq[i]).is_some() {
            i += 1;
        }
        let run = &seq[start..i];
        if run.len() < k {
            continue;
        }
        let mut km = K::zero(k);
        for (j, &b) in run.iter().enumerate() {
            // EXPECT: the run was split on invalid bases, so every byte in it encodes.
            km.roll(encode_base_checked(b).expect("run contains only valid bases"));
            if j + 1 >= k {
                f(km.canonical_value(), start + j + 1 - k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{complement_code, decode_base, encode_base};
    use crate::kmer::{Kmer128, Kmer64};
    use proptest::prelude::*;

    fn collect64(seq: &[u8], k: usize) -> Vec<(u64, usize)> {
        let mut v = Vec::new();
        for_each_canonical_kmer::<Kmer64>(seq, k, |x, o| v.push((x, o)));
        v
    }

    /// Reference: canonical value via naive string construction per window.
    fn naive(seq: &[u8], k: usize) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        if seq.len() < k {
            return out;
        }
        'w: for o in 0..=seq.len() - k {
            let win = &seq[o..o + k];
            let mut codes = Vec::with_capacity(k);
            for &b in win {
                match encode_base_checked(b) {
                    Some(c) => codes.push(c),
                    None => continue 'w,
                }
            }
            let km = Kmer64::from_codes(&codes);
            out.push((km.canonical_value(), o));
        }
        out
    }

    #[test]
    fn simple_sequence_counts() {
        let v = collect64(b"ACGTACGT", 4);
        assert_eq!(v.len(), 5);
        assert_eq!(v, naive(b"ACGTACGT", 4));
    }

    #[test]
    fn skips_windows_with_n() {
        let v = collect64(b"ACGNTACG", 3);
        // Valid runs: ACG (1 window), TACG (2 windows).
        assert_eq!(v.len(), 3);
        assert_eq!(v, naive(b"ACGNTACG", 3));
    }

    #[test]
    fn short_sequence_yields_nothing() {
        assert!(collect64(b"ACG", 4).is_empty());
        assert!(collect64(b"", 4).is_empty());
        assert!(collect64(b"NNNNNNNN", 4).is_empty());
    }

    #[test]
    fn run_shorter_than_k_is_skipped() {
        // Runs: AC (too short), GGGG (one 4-window).
        let v = collect64(b"ACNGGGG", 4);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 3);
    }

    #[test]
    fn offsets_are_window_starts() {
        let v = collect64(b"AAAAA", 3);
        assert_eq!(v.iter().map(|&(_, o)| o).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn kmer128_handles_large_k() {
        let seq: Vec<u8> = b"ACGT".iter().cycle().take(80).copied().collect();
        let mut v = Vec::new();
        for_each_canonical_kmer::<Kmer128>(&seq, 63, |x, o| v.push((x, o)));
        assert_eq!(v.len(), 80 - 63 + 1);
        // All windows of a period-4 sequence at offsets ≡ mod 4 are equal.
        assert_eq!(v[0].0, v[4].0);
    }

    #[test]
    fn dispatched_matches_scalar_in_order() {
        // Long mixed-case read with N runs: the dispatched path must
        // reproduce the scalar sequence exactly, offsets and order
        // included (not just the multiset).
        let seq: Vec<u8> = b"acgtACGTnNtgcaTTggccAANrya"
            .iter()
            .cycle()
            .take(500)
            .copied()
            .collect();
        for k in [1, 2, 5, 31, 32] {
            let mut a = Vec::new();
            for_each_canonical_kmer::<Kmer64>(&seq, k, |x, o| a.push((x, o)));
            let mut b = Vec::new();
            for_each_canonical_kmer_scalar::<Kmer64>(&seq, k, |x, o| b.push((x, o)));
            assert_eq!(a, b, "k={k}");
        }
    }

    proptest! {
        #[test]
        fn prop_matches_naive(
            seq in proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T', b'N']), 0..64),
            k in 1usize..9,
        ) {
            prop_assert_eq!(collect64(&seq, k), naive(&seq, k));
        }

        #[test]
        fn prop_reverse_complement_read_yields_same_multiset(
            seq in proptest::collection::vec(
                proptest::sample::select(vec![b'A', b'C', b'G', b'T']), 8..48),
            k in 2usize..8,
        ) {
            let rc: Vec<u8> = seq.iter().rev().map(|&b| decode_base(complement_code(encode_base(b)))).collect();
            let mut a: Vec<u64> = collect64(&seq, k).into_iter().map(|(x, _)| x).collect();
            let mut b: Vec<u64> = collect64(&rc, k).into_iter().map(|(x, _)| x).collect();
            a.sort_unstable();
            b.sort_unstable();
            // Canonicalization makes enumeration strand-independent.
            prop_assert_eq!(a, b);
        }
    }
}
