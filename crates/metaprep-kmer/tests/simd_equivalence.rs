//! Property-based equivalence tests for the runtime-dispatched SIMD layer.
//!
//! Every vectorized kernel must be bit-identical to its scalar reference on
//! arbitrary input — including lowercase and mixed-case bases, IUPAC
//! ambiguity codes (`R`, `Y`, `S`, `W`, ...), `N` runs that split
//! enumeration, and outright junk bytes. The tests run each kernel through
//! every backend [`simd::available_backends`] reports on this machine, so
//! on an AVX2 box the AVX2 lanes are exercised against scalar, on aarch64
//! the NEON lanes, and on anything else the suite still passes (scalar vs
//! scalar) rather than silently skipping.

use metaprep_kmer::simd;
use metaprep_kmer::{
    classify_base, for_each_canonical_kmer, for_each_canonical_kmer_scalar, Kmer, Kmer128, Kmer64,
};
use proptest::prelude::*;

/// Bytes weighted toward the cases that matter for classification: valid
/// bases in both cases, `N`/`n`, IUPAC ambiguity codes, and raw junk
/// (digits, punctuation, whitespace, high-bit bytes).
fn dna_ish_byte() -> impl Strategy<Value = u8> {
    const AMBIG: &[u8] = b"NnRYSWKMBDHVryswkmbdhvUu";
    (0u8..10, any::<u8>()).prop_map(|(class, raw)| match class {
        0..=3 => b"ACGT"[(raw % 4) as usize],
        4..=6 => b"acgt"[(raw % 4) as usize],
        7..=8 => AMBIG[raw as usize % AMBIG.len()],
        _ => raw,
    })
}

/// Reads long enough to cross the SIMD cutover (32 bytes) and several
/// vector widths, short enough to keep case counts high.
fn read() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(dna_ish_byte(), 0..300)
}

/// Collect `(canonical, offset)` pairs from the dispatched closure path.
fn enumerate_dispatched<K: Kmer>(seq: &[u8], k: usize) -> Vec<(K::Repr, usize)> {
    let mut out = Vec::new();
    for_each_canonical_kmer::<K>(seq, k, |v, off| out.push((v, off)));
    out
}

/// Collect `(canonical, offset)` pairs from the scalar reference path.
fn enumerate_scalar<K: Kmer>(seq: &[u8], k: usize) -> Vec<(K::Repr, usize)> {
    let mut out = Vec::new();
    for_each_canonical_kmer_scalar::<K>(seq, k, |v, off| out.push((v, off)));
    out
}

proptest! {
    /// The whole-read encode+classify kernel matches the scalar
    /// classification table byte-for-byte on every available backend.
    #[test]
    fn prop_encode_classify_matches_scalar(seq in read()) {
        let expected: Vec<u8> = seq.iter().map(|&b| classify_base(b)).collect();
        for backend in simd::available_backends() {
            let mut got = Vec::new();
            simd::encode_classify_with(backend, &seq, &mut got);
            prop_assert_eq!(
                &got, &expected,
                "backend {} disagrees with classify_base", backend
            );
        }
    }

    /// The vectorized byte scanner finds the same first occurrence as
    /// `Iterator::position` for every backend, needle and starting offset.
    #[test]
    fn prop_find_byte_matches_position(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        needle in any::<u8>(),
        from in 0usize..220,
    ) {
        let slice = &data[from.min(data.len())..];
        let expected = slice.iter().position(|&b| b == needle);
        for backend in simd::available_backends() {
            prop_assert_eq!(
                simd::find_byte_with(backend, slice, needle), expected,
                "backend {} disagrees on needle {:#04x}", backend, needle
            );
        }
    }

    /// Full enumeration through the dispatched path — SIMD classify feeding
    /// the run-splitting roll loop — yields exactly the scalar sequence of
    /// `(canonical, offset)` pairs, in order, for `Kmer64`-range k.
    #[test]
    fn prop_enumeration_dispatched_matches_scalar_k64(
        seq in read(),
        k in proptest::sample::select(vec![1usize, 2, 5, 16, 31, 32]),
    ) {
        prop_assert_eq!(
            enumerate_dispatched::<Kmer64>(&seq, k),
            enumerate_scalar::<Kmer64>(&seq, k)
        );
    }

    /// Same at the `Kmer128` representation sizes, including the k = 63
    /// upper boundary.
    #[test]
    fn prop_enumeration_dispatched_matches_scalar_k128(
        seq in read(),
        k in proptest::sample::select(vec![33usize, 47, 62, 63]),
    ) {
        prop_assert_eq!(
            enumerate_dispatched::<Kmer128>(&seq, k),
            enumerate_scalar::<Kmer128>(&seq, k)
        );
    }
}

/// Bases of either case: what a valid run is encoded from.
fn base_byte() -> impl Strategy<Value = u8> {
    (0usize..8).prop_map(|i| b"ACGTacgt"[i])
}

/// Longest run the owned-k-mer property builds, and the most runs.
const MAX_RUN: usize = 70;
const MAX_RUNS: usize = 9;

/// Bins `[lo, hi)` of `4^m`: empty, one bin, a random part, or all.
fn bin_range(kind: u8, (a, b): (u64, u64), m: usize) -> std::ops::Range<u64> {
    let bins = 1u64 << (2 * m);
    let lo = a % bins;
    match kind {
        0 => lo..lo,
        1 => lo..lo + 1,
        2 => lo..lo + 1 + b % (bins - lo),
        _ => 0..bins,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The owned-k-mer kernel of every available backend returns, run by
    /// run and in position order, exactly its scalar form's values — and
    /// the scalar form returns what the byte-level enumerator keeps of
    /// each run under the same bin test. Runs are shorter than, equal to
    /// and longer than k, of unequal lengths, of both cases, and sit in
    /// one code buffer between `N`/`n` gaps.
    #[test]
    fn prop_owned_kmers_match_scalar(
        k in proptest::sample::select(vec![1usize, 2, 16, 27, 31, 32]),
        lens in proptest::collection::vec((0u8..4, 0..=MAX_RUN), 1..=MAX_RUNS),
        pool in proptest::collection::vec(base_byte(), MAX_RUNS * MAX_RUN),
        gaps in proptest::collection::vec(1usize..4, MAX_RUNS),
        m in 1usize..=16,
        (kind, ab) in (0u8..4, (any::<u64>(), any::<u64>())),
    ) {
        let m = m.min(k);
        let shift = 2 * (k - m) as u32;
        let bins = bin_range(kind, ab, m);
        let mut read = Vec::new();
        let mut runs = Vec::new();
        let mut want = Vec::new();
        for (i, (&(len_kind, free), &gap)) in lens.iter().zip(&gaps).enumerate() {
            let len = match len_kind {
                0 => free,
                1 => k,
                2 => k - 1,
                _ => k + 1,
            };
            let seg = &pool[i * MAX_RUN..][..len.min(MAX_RUN)];
            runs.push(read.len()..read.len() + seg.len());
            read.extend_from_slice(seg);
            read.extend(b"Nn".iter().cycle().take(gap));
            let mut owned = Vec::new();
            for_each_canonical_kmer_scalar::<Kmer64>(seg, k, |v, _| {
                if bins.contains(&(v >> shift)) {
                    owned.push(v);
                }
            });
            want.push(owned);
        }
        let mut codes = Vec::new();
        simd::encode_classify(&read, &mut codes);
        let mut out = simd::OwnedKmers::default();
        for backend in simd::available_backends() {
            simd::owned_kmers_with(backend, &codes, &runs, (k, shift), bins.clone(), &mut out);
            let got: Vec<Vec<u64>> = out.runs().map(<[u64]>::to_vec).collect();
            prop_assert_eq!(&got, &want, "backend {}", backend);
        }
    }
}

/// k = 64 exceeds `Kmer128::MAX_K` and must panic at every entry point
/// rather than silently clamp to 63.
#[test]
fn k64_panics_at_every_entry_point() {
    let seq = b"ACGT".repeat(32);
    assert_eq!(<Kmer128 as Kmer>::MAX_K, 63);
    for beyond in [64usize, 65] {
        assert!(
            std::panic::catch_unwind(|| enumerate_dispatched::<Kmer128>(&seq, beyond)).is_err(),
            "for_each_canonical_kmer accepted k={beyond}"
        );
        assert!(
            std::panic::catch_unwind(|| enumerate_scalar::<Kmer128>(&seq, beyond)).is_err(),
            "for_each_canonical_kmer_scalar accepted k={beyond}"
        );
    }
}

/// A callback that re-enters the enumerator must not poison the
/// thread-local code buffer: the outer dispatched pass falls back to
/// scalar only for the inner call, and both stay correct.
#[test]
fn reentrant_callback_stays_correct() {
    let seq: Vec<u8> = b"ACGTACGTacgtNNacgtACGTACGTACGTACGTTGCA".to_vec();
    let mut outer = Vec::new();
    let mut inner_total = 0usize;
    for_each_canonical_kmer::<Kmer64>(&seq, 4, |v, off| {
        outer.push((v, off));
        for_each_canonical_kmer::<Kmer64>(&seq, 4, |_, _| inner_total += 1);
    });
    let reference = enumerate_scalar::<Kmer64>(&seq, 4);
    assert_eq!(outer, reference);
    assert_eq!(inner_total, reference.len() * reference.len());
}
