//! Portable scalar kernels — the always-available dispatch arm and the
//! reference implementation the vector backends are property-tested
//! against.

use crate::alphabet::classify_base;
use crate::kmer::{Kmer, Kmer64};
use std::ops::Range;

/// Scalar [`super::encode_classify`]: one table lookup per byte.
pub fn encode_classify(seq: &[u8], out: &mut [u8]) {
    debug_assert_eq!(seq.len(), out.len());
    for (o, &b) in out.iter_mut().zip(seq) {
        *o = classify_base(b);
    }
}

/// Scalar [`super::find_byte`]: the definitionally-correct linear scan.
#[inline]
pub fn find_byte(data: &[u8], needle: u8) -> Option<usize> {
    data.iter().position(|&b| b == needle)
}

/// Scalar [`super::owned_kmers`]: the enumeration's roll, one window at a
/// time, plus the bin test. `(lo, width)` are the owned bins
/// `[lo, lo + width)`; every value is stored and the cursor advances only
/// for an owned one, so the range test is data, not a branch. The runs'
/// spans are consecutive.
pub fn owned_kmers(
    codes: &[u8],
    runs: &[Range<usize>],
    (k, shift): (usize, u32),
    (lo, width): (u64, u64),
    values: &mut Vec<u64>,
    spans: &mut Vec<Range<usize>>,
) {
    values.clear();
    spans.clear();
    for run in runs {
        let run = &codes[run.clone()];
        let start = values.len();
        if run.len() >= k {
            let mut n = start;
            values.resize(n + run.len() - k + 1, 0);
            let mut km = Kmer64::zero(k);
            for &c in &run[..k - 1] {
                km.roll(c);
            }
            for &c in &run[k - 1..] {
                km.roll(c);
                let v = km.canonical_value();
                values[n] = v;
                n += usize::from((v >> shift).wrapping_sub(lo) < width);
            }
            values.truncate(n);
        }
        spans.push(start..values.len());
    }
}
