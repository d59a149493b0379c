//! 2-bit DNA alphabet encoding.
//!
//! Bases map to codes `A=0, C=1, G=2, T=3` so that the integer order of
//! packed k-mers equals lexicographic order of the base strings, and the
//! complement of a code is its bitwise NOT in 2 bits (`c ^ 3`).

/// Code returned by [`encode_base_checked`] for bytes that are not
/// `A/C/G/T` (any case). `N` and every other byte are invalid: METAPREP
/// never enumerates k-mers containing them.
pub const INVALID_CODE: u8 = 0xFF;

/// Lookup table mapping ASCII bytes to 2-bit codes (or [`INVALID_CODE`]).
static ENCODE: [u8; 256] = {
    let mut t = [INVALID_CODE; 256];
    t[b'A' as usize] = 0;
    t[b'a' as usize] = 0;
    t[b'C' as usize] = 1;
    t[b'c' as usize] = 1;
    t[b'G' as usize] = 2;
    t[b'g' as usize] = 2;
    t[b'T' as usize] = 3;
    t[b't' as usize] = 3;
    t
};

/// Encode an ASCII base into its 2-bit code.
///
/// # Panics
/// Panics in debug builds if `b` is not one of `ACGTacgt`; in release
/// builds the result for invalid bytes is unspecified garbage. Use
/// [`encode_base_checked`] when the input may contain `N`.
#[inline(always)]
pub fn encode_base(b: u8) -> u8 {
    let c = ENCODE[b as usize];
    debug_assert!(c != INVALID_CODE, "invalid base byte {b:#x}");
    c & 3
}

/// Encode an ASCII base, returning `None` for anything that is not
/// `A/C/G/T` in either case (including `N`).
#[inline(always)]
pub fn encode_base_checked(b: u8) -> Option<u8> {
    let c = ENCODE[b as usize];
    if c == INVALID_CODE {
        None
    } else {
        Some(c)
    }
}

/// Encode an ASCII base into its 2-bit code, or [`INVALID_CODE`] for any
/// byte outside `ACGTacgt` — the raw table lookup without the `Option`
/// wrapper. This is the scalar reference for the vectorized
/// classify-and-encode kernels in [`crate::simd`]: a code buffer produced
/// by any backend is byte-identical to mapping this function over the
/// input.
#[inline(always)]
pub fn classify_base(b: u8) -> u8 {
    ENCODE[b as usize]
}

/// Complement of a 2-bit base code (`A<->T`, `C<->G`).
#[inline(always)]
pub fn complement_code(c: u8) -> u8 {
    debug_assert!(c < 4);
    c ^ 3
}

/// Decode a 2-bit code back to an upper-case ASCII base.
#[inline(always)]
pub fn decode_base(c: u8) -> u8 {
    debug_assert!(c < 4);
    b"ACGT"[(c & 3) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_maps_acgt_in_order() {
        assert_eq!(encode_base(b'A'), 0);
        assert_eq!(encode_base(b'C'), 1);
        assert_eq!(encode_base(b'G'), 2);
        assert_eq!(encode_base(b'T'), 3);
    }

    #[test]
    fn encode_is_case_insensitive() {
        for (lo, up) in [(b'a', b'A'), (b'c', b'C'), (b'g', b'G'), (b't', b'T')] {
            assert_eq!(encode_base(lo), encode_base(up));
        }
    }

    #[test]
    fn checked_encode_rejects_n_and_others() {
        assert_eq!(encode_base_checked(b'N'), None);
        assert_eq!(encode_base_checked(b'n'), None);
        assert_eq!(encode_base_checked(b'.'), None);
        assert_eq!(encode_base_checked(0), None);
        assert_eq!(encode_base_checked(b'U'), None);
    }

    #[test]
    fn complement_is_an_involution() {
        for c in 0..4u8 {
            assert_eq!(complement_code(complement_code(c)), c);
        }
        assert_eq!(complement_code(encode_base(b'A')), encode_base(b'T'));
        assert_eq!(complement_code(encode_base(b'C')), encode_base(b'G'));
    }

    #[test]
    fn decode_roundtrips() {
        for b in [b'A', b'C', b'G', b'T'] {
            assert_eq!(decode_base(encode_base(b)), b);
        }
    }
}
