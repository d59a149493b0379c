//! Packed k-mer values with rolling updates.
//!
//! [`Kmer64`] packs up to 32 bases into a `u64`; [`Kmer128`] packs up to 63
//! bases into a `u128` (the paper's extension for `k` up to 63, §4.4).
//! Packing is MSB-first within the low `2k` bits: the *first* base of the
//! string occupies the highest bit pair, so `packed(a) < packed(b)` iff
//! string `a < b` lexicographically for equal `k`.
//!
//! Both types support O(1) rolling: [`Kmer::roll`] appends one base to the
//! forward strand while simultaneously updating the reverse complement, which
//! is how the KmerGen step enumerates all `l - k + 1` windows of a read in
//! O(l) total work.

use crate::alphabet::complement_code;

/// Abstraction over the two packed k-mer widths.
///
/// The pipeline is generic over this trait so every step (enumeration,
/// histogramming, sorting, connectivity) works identically for `k <= 32`
/// (12-byte tuples) and `k <= 63` (the paper's 20-byte tuples).
///
/// ```
/// use metaprep_kmer::{Kmer, Kmer64};
///
/// // Build GATT, roll in an A: window becomes ATTA.
/// let mut km = Kmer64::from_codes(&[2, 0, 3, 3]); // G A T T
/// km.roll(0);                                     // push A
/// assert_eq!(km.to_ascii(), b"ATTA");
/// // Canonical = min(fwd, revcomp): ATTA vs TAAT -> ATTA.
/// assert_eq!(km.canonical_value(), km.value());
/// ```
pub trait Kmer: Copy + Clone + Eq + Ord + std::fmt::Debug + Send + Sync + 'static {
    /// Unsigned integer type holding the packed value.
    type Repr: Copy + Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync + 'static;

    /// Largest supported `k` for this width.
    const MAX_K: usize;

    /// Construct the all-zero (`AAA...A`) k-mer of length `k`.
    fn zero(k: usize) -> Self;

    /// k-mer length in bases.
    fn k(&self) -> usize;

    /// Packed forward-strand value (low `2k` bits, MSB-first).
    fn value(&self) -> Self::Repr;

    /// Packed reverse-complement value.
    fn rc_value(&self) -> Self::Repr;

    /// Packed canonical value: `min(value, rc_value)`, chosen without a
    /// branch, since which strand is smaller is a coin flip per k-mer.
    fn canonical_value(&self) -> Self::Repr;

    /// Append base code `c` (0..4) on the right, dropping the leftmost base.
    /// Updates forward and reverse-complement strands in O(1).
    fn roll(&mut self, c: u8);

    /// Build a k-mer from exactly `k` base codes.
    fn from_codes(codes: &[u8]) -> Self;

    /// Build a k-mer of length `k` from a packed forward value.
    fn from_value(k: usize, v: Self::Repr) -> Self;

    /// The same physical k-mer viewed from the opposite strand (forward and
    /// reverse-complement values swapped). Walking right on `flipped()`
    /// walks left on the original — how the assembler extends unitigs in
    /// both directions with one routine.
    fn flipped(&self) -> Self;

    /// Decode the forward strand into an ASCII string.
    fn to_ascii(&self) -> Vec<u8>;

    /// Convert the packed representation to `u128` for width-agnostic math
    /// (range planning, m-mer binning).
    fn repr_to_u128(v: Self::Repr) -> u128;

    /// m-mer prefix bin of the *packed value* `v`: its top `2m` bits within
    /// the `2k`-bit field. This is the histogram bin used by `merHist` and
    /// `FASTQPart` (paper §3.1.1).
    fn prefix_bin(&self, v: Self::Repr, m: usize) -> u32 {
        debug_assert!(m <= self.k());
        (Self::repr_to_u128(v) >> (2 * (self.k() - m))) as u32
    }
}

/// `min(a, b)` as a conditional move: which strand of a k-mer is smaller
/// is a coin flip, so a branch on it mispredicts every other k-mer.
#[inline(always)]
fn min_u64(a: u64, b: u64) -> u64 {
    std::hint::select_unpredictable(a <= b, a, b)
}

/// [`min_u64`] for 128-bit values. LLVM lowers a 128-bit select to two
/// 64-bit conditional moves and then, by a cost model that looks at the
/// whole loop, may turn them into a branch whatever the hint says: the
/// k = 63 IndexCreate scan ran a third slower whenever an unrelated edit
/// near its loop tipped that choice. On x86-64 the moves are therefore
/// written out.
#[inline(always)]
fn min_u128(a: u128, b: u128) -> u128 {
    #[cfg(target_arch = "x86_64")]
    {
        let (mut lo, mut hi) = (a as u64, (a >> 64) as u64);
        // SAFETY: register-only arithmetic on the operands named here; no memory or stack.
        unsafe {
            std::arch::asm!(
                // Carry out of `a - b` is `a < b`; keep `a` then, else take `b`.
                "cmp {lo}, {blo}",
                "mov {t}, {hi}",
                "sbb {t}, {bhi}",
                "cmovae {lo}, {blo}",
                "cmovae {hi}, {bhi}",
                lo = inout(reg) lo,
                hi = inout(reg) hi,
                blo = in(reg) b as u64,
                bhi = in(reg) (b >> 64) as u64,
                t = out(reg) _,
                options(pure, nomem, nostack),
            )
        };
        u128::from(hi) << 64 | u128::from(lo)
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::cmp::min(a, b)
}

/// k-mer packed into a `u64`; supports `k <= 32`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Kmer64 {
    fwd: u64,
    rc: u64,
    k: u32,
}

/// k-mer packed into a `u128`; supports `k <= 63`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Kmer128 {
    fwd: u128,
    rc: u128,
    k: u32,
}

macro_rules! impl_kmer {
    ($name:ident, $repr:ty, $max_k:expr, $min:ident) => {
        impl $name {
            /// Mask selecting the low `2k` bits.
            #[inline(always)]
            fn mask(k: u32) -> $repr {
                if k as usize == $max_k && 2 * $max_k == <$repr>::BITS as usize {
                    <$repr>::MAX
                } else {
                    (1 as $repr << (2 * k)) - 1
                }
            }
        }

        impl Kmer for $name {
            type Repr = $repr;
            const MAX_K: usize = $max_k;

            #[inline]
            fn zero(k: usize) -> Self {
                assert!((1..=Self::MAX_K).contains(&k), "k={k} out of range");
                // `AA..A` reverse-complements to `TT..T`.
                Self {
                    fwd: 0,
                    rc: Self::mask(k as u32),
                    k: k as u32,
                }
            }

            #[inline(always)]
            fn k(&self) -> usize {
                self.k as usize
            }

            #[inline(always)]
            fn value(&self) -> $repr {
                self.fwd
            }

            #[inline(always)]
            fn rc_value(&self) -> $repr {
                self.rc
            }

            #[inline(always)]
            fn canonical_value(&self) -> $repr {
                $min(self.fwd, self.rc)
            }

            #[inline(always)]
            fn roll(&mut self, c: u8) {
                debug_assert!(c < 4);
                let k = self.k;
                self.fwd = ((self.fwd << 2) | c as $repr) & Self::mask(k);
                self.rc = (self.rc >> 2)
                    | ((complement_code(c) as $repr) << (2 * (k - 1)));
            }

            fn from_codes(codes: &[u8]) -> Self {
                let mut km = Self::zero(codes.len());
                // Rolling `k` times through a zero k-mer leaves exactly the
                // pushed codes in the window, and keeps `rc` consistent.
                for &c in codes {
                    km.roll(c);
                }
                km
            }

            fn from_value(k: usize, v: $repr) -> Self {
                let mut km = Self::zero(k);
                for i in (0..k).rev() {
                    km.roll(((v >> (2 * i)) & 3) as u8);
                }
                km
            }

            #[inline]
            fn flipped(&self) -> Self {
                Self {
                    fwd: self.rc,
                    rc: self.fwd,
                    k: self.k,
                }
            }

            fn to_ascii(&self) -> Vec<u8> {
                let k = self.k as usize;
                (0..k)
                    .map(|i| {
                        let shift = 2 * (k - 1 - i);
                        crate::alphabet::decode_base(((self.fwd >> shift) & 3) as u8)
                    })
                    .collect()
            }

            #[inline(always)]
            fn repr_to_u128(v: $repr) -> u128 {
                v as u128
            }
        }
    };
}

impl_kmer!(Kmer64, u64, 32, min_u64);
impl_kmer!(Kmer128, u128, 63, min_u128);

/// Fold a packed k-mer value into the `u64` key space of the count-min
/// presolve sketch.
///
/// For `k <= 32` the packed value already fits in 64 bits and is returned
/// unchanged — distinct k-mers stay distinct, so the only estimation error
/// is the sketch's own. For wider k-mers the high word is passed through a
/// SplitMix64 finalizer before xoring with the low word, so k-mers that
/// share a 32-base suffix (identical low words) or differ only in word
/// order still land on well-spread keys. Folding 126 bits into 64 can
/// collide, but a collision only ever *raises* an estimate — the filter's
/// no-false-negative guarantee is unaffected.
#[inline]
pub fn fold_kmer_key(v: u128) -> u64 {
    let lo = v as u64;
    let hi = (v >> 64) as u64;
    if hi == 0 {
        return lo;
    }
    let mut z = hi.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) ^ lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{decode_base, encode_base};
    use proptest::prelude::*;

    fn codes(s: &[u8]) -> Vec<u8> {
        s.iter().map(|&b| encode_base(b)).collect()
    }

    fn pack_naive(s: &[u8]) -> u128 {
        s.iter()
            .fold(0u128, |acc, &b| (acc << 2) | encode_base(b) as u128)
    }

    #[test]
    fn from_codes_packs_msb_first() {
        let km = Kmer64::from_codes(&codes(b"ACGT"));
        // A=00 C=01 G=10 T=11 -> 0b00011011
        assert_eq!(km.value(), 0b0001_1011);
    }

    #[test]
    fn to_ascii_roundtrips() {
        for s in [&b"ACGT"[..], b"TTTT", b"GATTACA", b"A", b"CCCCCCCCCCCCCCCC"] {
            let km = Kmer64::from_codes(&codes(s));
            assert_eq!(km.to_ascii(), s.to_ascii_uppercase());
        }
    }

    #[test]
    fn rc_value_matches_string_reverse_complement() {
        for s in [&b"ACGT"[..], b"AAAA", b"GATTACA", b"TGCATGCA"] {
            let km = Kmer64::from_codes(&codes(s));
            let rc: Vec<u8> = s
                .iter()
                .rev()
                .map(|&b| decode_base(complement_code(encode_base(b))))
                .collect();
            assert_eq!(km.rc_value() as u128, pack_naive(&rc));
        }
    }

    #[test]
    fn canonical_is_min_of_strands() {
        // GGG < CCC is false (C=01 < G=10), so canonical of CCC is CCC,
        // canonical of GGG is CCC (its RC).
        let ccc = Kmer64::from_codes(&codes(b"CCC"));
        let ggg = Kmer64::from_codes(&codes(b"GGG"));
        assert_eq!(ccc.canonical_value(), ccc.value());
        assert_eq!(ggg.canonical_value(), ggg.rc_value());
        assert_eq!(ccc.canonical_value(), ggg.canonical_value());
    }

    #[test]
    fn min_u128_borrows_across_the_halves() {
        let h = |hi: u64, lo: u64| u128::from(hi) << 64 | u128::from(lo);
        let cases = [
            (h(1, 0), h(0, u64::MAX)),
            (h(0, 5), h(0, 7)),
            (h(7, 1), h(7, 1)),
            (h(3, u64::MAX), h(4, 0)),
            (0, u128::MAX >> 2),
        ];
        for (a, b) in cases {
            assert_eq!(min_u128(a, b), a.min(b), "{a:#x} {b:#x}");
            assert_eq!(min_u128(b, a), a.min(b), "{b:#x} {a:#x}");
        }
    }

    #[test]
    fn roll_slides_the_window() {
        let s = b"ACGTACGTT";
        let k = 4;
        let mut km = Kmer64::from_codes(&codes(&s[..k]));
        for i in k..s.len() {
            km.roll(encode_base(s[i]));
            let want = Kmer64::from_codes(&codes(&s[i + 1 - k..=i]));
            assert_eq!(km.value(), want.value(), "window at {i}");
            assert_eq!(km.rc_value(), want.rc_value(), "rc window at {i}");
        }
    }

    #[test]
    fn max_k_masks_do_not_overflow() {
        // k = 32 for Kmer64 uses the full 64 bits.
        let s: Vec<u8> = std::iter::repeat_n(b'T', 32).collect();
        let km = Kmer64::from_codes(&codes(&s));
        assert_eq!(km.value(), u64::MAX);
        assert_eq!(km.rc_value(), 0); // RC of T^32 is A^32

        // k = 63 for Kmer128 uses 126 of the 128 bits.
        let s: Vec<u8> = std::iter::repeat_n(b'T', 63).collect();
        let km = Kmer128::from_codes(&codes(&s));
        assert_eq!(km.value(), (1u128 << 126) - 1);
        assert_eq!(km.rc_value(), 0);
    }

    #[test]
    fn from_value_reconstructs_both_strands() {
        for s in [&b"ACGT"[..], b"GATTACA", b"TTTT"] {
            let km = Kmer64::from_codes(&codes(s));
            let re = Kmer64::from_value(s.len(), km.value());
            assert_eq!(re.value(), km.value());
            assert_eq!(re.rc_value(), km.rc_value());
        }
    }

    #[test]
    fn flipped_swaps_strands() {
        let km = Kmer64::from_codes(&codes(b"GATTACA"));
        let f = km.flipped();
        assert_eq!(f.value(), km.rc_value());
        assert_eq!(f.rc_value(), km.value());
        assert_eq!(f.flipped().value(), km.value());
        assert_eq!(f.canonical_value(), km.canonical_value());
    }

    #[test]
    fn prefix_bin_extracts_top_bits() {
        let km = Kmer64::from_codes(&codes(b"ACGTACGT"));
        // m = 2 -> top 4 bits = AC = 0b0001
        assert_eq!(km.prefix_bin(km.value(), 2), 0b0001);
        // m = k -> whole value
        assert_eq!(km.prefix_bin(km.value(), 8), km.value() as u32);
    }

    #[test]
    fn fold_kmer_key_is_identity_for_narrow_kmers() {
        for s in [&b"ACGT"[..], b"GATTACA", b"TTTT"] {
            let km = Kmer64::from_codes(&codes(s));
            assert_eq!(fold_kmer_key(km.value() as u128), km.value());
        }
        // Any value fitting 64 bits folds to itself.
        assert_eq!(fold_kmer_key(u64::MAX as u128), u64::MAX);
    }

    #[test]
    fn fold_kmer_key_separates_shared_suffixes() {
        // Wide k-mers sharing their entire low word must not fold to the
        // same key just because only high-word bits differ.
        let lo = 0x0123_4567_89AB_CDEFu128;
        let a = fold_kmer_key((1u128 << 64) | lo);
        let b = fold_kmer_key((2u128 << 64) | lo);
        let c = fold_kmer_key(lo);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    #[should_panic]
    fn zero_rejects_k_too_large() {
        let _ = Kmer64::zero(33);
    }

    #[test]
    #[should_panic]
    fn zero_rejects_k_zero() {
        let _ = Kmer64::zero(0);
    }

    proptest! {
        #[test]
        fn prop_order_matches_lexicographic(
            a in proptest::collection::vec(0u8..4, 10),
            b in proptest::collection::vec(0u8..4, 10),
        ) {
            let ka = Kmer64::from_codes(&a);
            let kb = Kmer64::from_codes(&b);
            prop_assert_eq!(ka.value() < kb.value(), a < b);
        }

        #[test]
        fn prop_rc_is_involution(s in proptest::collection::vec(0u8..4, 1..32)) {
            let km = Kmer64::from_codes(&s);
            // Build k-mer of the RC string and check it flips strands.
            let rc_codes: Vec<u8> =
                s.iter().rev().map(|&c| complement_code(c)).collect();
            let rkm = Kmer64::from_codes(&rc_codes);
            prop_assert_eq!(rkm.value(), km.rc_value());
            prop_assert_eq!(rkm.rc_value(), km.value());
            prop_assert_eq!(rkm.canonical_value(), km.canonical_value());
        }

        #[test]
        fn prop_kmer128_agrees_with_kmer64(s in proptest::collection::vec(0u8..4, 1..32)) {
            let k64 = Kmer64::from_codes(&s);
            let k128 = Kmer128::from_codes(&s);
            prop_assert_eq!(k64.value() as u128, k128.value());
            prop_assert_eq!(k64.rc_value() as u128, k128.rc_value());
            prop_assert_eq!(k64.canonical_value() as u128, k128.canonical_value());
        }

        #[test]
        fn prop_roll_equals_rebuild(
            s in proptest::collection::vec(0u8..4, 8..40),
            k in 2usize..8,
        ) {
            let mut km = Kmer64::from_codes(&s[..k]);
            for &code in &s[k..] {
                km.roll(code);
            }
            let want = Kmer64::from_codes(&s[s.len() - k..]);
            prop_assert_eq!(km.value(), want.value());
            prop_assert_eq!(km.rc_value(), want.rc_value());
        }
    }
}
