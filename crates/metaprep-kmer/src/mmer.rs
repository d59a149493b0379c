//! m-mer prefix binning.
//!
//! The `merHist` and `FASTQPart` index tables (paper §3.1) bin canonical
//! k-mers by their length-`m` prefix (`m < k`; the paper uses `m = 10`).
//! Because packed k-mers are MSB-first, the prefix bin is simply the top
//! `2m` bits of the packed value, and bin order equals k-mer value order —
//! the property that lets bins partition the k-mer *range* for passes,
//! tasks, and threads.

/// A configured m-mer space: bin extraction for a fixed `(k, m)` pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MmerSpace {
    k: usize,
    m: usize,
}

impl MmerSpace {
    /// Create the space. Requires `1 <= m <= k` and `4^m` to fit in `u32`
    /// bin indices (`m <= 16`).
    pub fn new(k: usize, m: usize) -> Self {
        assert!(m >= 1 && m <= k, "require 1 <= m <= k (m={m}, k={k})");
        assert!(m <= 16, "m-mer bins must fit u32 (m={m})");
        Self { k, m }
    }

    /// k-mer length this space was configured for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// m-mer prefix length.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of histogram bins, `4^m`.
    #[inline]
    pub fn bins(&self) -> usize {
        1usize << (2 * self.m)
    }

    /// Bin of a packed canonical k-mer value (given as `u128` so both k-mer
    /// widths share one code path).
    #[inline(always)]
    pub fn bin_of(&self, packed: u128) -> u32 {
        (packed >> (2 * (self.k - self.m))) as u32
    }

    /// Smallest packed k-mer value whose bin is `bin` (inclusive lower
    /// boundary of the bin's k-mer sub-range).
    #[inline]
    pub fn bin_lower_bound(&self, bin: u32) -> u128 {
        (bin as u128) << (2 * (self.k - self.m))
    }

    /// One past the largest packed value in `bin` (exclusive upper
    /// boundary). For the last bin this is `4^k`.
    #[inline]
    pub fn bin_upper_bound(&self, bin: u32) -> u128 {
        self.bin_lower_bound(bin + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer::{Kmer, Kmer64};
    use proptest::prelude::*;

    #[test]
    fn bin_count() {
        assert_eq!(MmerSpace::new(27, 10).bins(), 1 << 20);
        assert_eq!(MmerSpace::new(8, 1).bins(), 4);
        assert_eq!(MmerSpace::new(4, 2).bins(), 16);
    }

    #[test]
    fn bin_of_extracts_prefix() {
        // k=4, m=2: bin of ACGT is AC = 0b0001.
        let km = Kmer64::from_codes(&[0, 1, 2, 3]);
        let sp = MmerSpace::new(4, 2);
        assert_eq!(sp.bin_of(km.value() as u128), 0b0001);
    }

    #[test]
    fn bounds_bracket_the_bin() {
        let sp = MmerSpace::new(6, 2);
        for bin in 0..sp.bins() as u32 {
            let lo = sp.bin_lower_bound(bin);
            let hi = sp.bin_upper_bound(bin);
            assert!(lo < hi);
            assert_eq!(sp.bin_of(lo), bin);
            assert_eq!(sp.bin_of(hi - 1), bin);
        }
        // Ranges tile [0, 4^k) exactly.
        assert_eq!(sp.bin_upper_bound(sp.bins() as u32 - 1), 1u128 << (2 * 6));
    }

    #[test]
    fn m_equals_k_is_identity() {
        let sp = MmerSpace::new(5, 5);
        assert_eq!(sp.bin_of(0b11_00_01_10_11), 0b11_00_01_10_11);
    }

    #[test]
    #[should_panic]
    fn rejects_m_larger_than_k() {
        let _ = MmerSpace::new(4, 5);
    }

    proptest! {
        #[test]
        fn prop_bins_are_monotone_in_value(
            a in 0u64..(1 << 40),
            b in 0u64..(1 << 40),
            m in 1usize..10,
        ) {
            let sp = MmerSpace::new(20, m);
            let (a, b) = (a as u128, b as u128);
            if a <= b {
                prop_assert!(sp.bin_of(a) <= sp.bin_of(b));
            } else {
                prop_assert!(sp.bin_of(a) >= sp.bin_of(b));
            }
        }

        #[test]
        fn prop_value_within_its_bin_bounds(v in 0u64..(1 << 40), m in 1usize..10) {
            let sp = MmerSpace::new(20, m);
            let bin = sp.bin_of(v as u128);
            prop_assert!(sp.bin_lower_bound(bin) <= v as u128);
            prop_assert!((v as u128) < sp.bin_upper_bound(bin));
        }
    }
}
