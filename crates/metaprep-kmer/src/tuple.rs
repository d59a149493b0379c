//! `(k-mer, read id)` tuples — the unit of work of the whole pipeline.
//!
//! The paper stores 12-byte tuples for `k <= 27` (64-bit k-mer + 32-bit
//! global read id) and 20-byte tuples for `k <= 63` (§4.4), and so do these
//! types: `repr(C, packed(4))` drops the padding that `u64`/`u128`
//! alignment would add, so every tuple buffer, all-to-all message and sort
//! pass moves exactly the bytes the §3.7 memory model (metaprep-core)
//! charges. Alignment is 4, so a field cannot be borrowed in place — copy
//! it out (`{ t.kmer }`) before taking a reference.

use std::mem::{align_of, size_of};

/// Tuple for `k <= 32`: packed canonical k-mer plus global read id.
#[repr(C, packed(4))]
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KmerReadTuple {
    /// Packed canonical k-mer value (sort key).
    pub kmer: u64,
    /// Global read id; both mates of a paired-end read share one id so that
    /// pairing survives partitioning (paper §3.2).
    pub read: u32,
}

impl KmerReadTuple {
    /// Construct a tuple.
    #[inline(always)]
    pub fn new(kmer: u64, read: u32) -> Self {
        Self { kmer, read }
    }
}

/// Tuple for `k <= 63`.
#[repr(C, packed(4))]
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KmerReadTuple128 {
    /// Packed canonical k-mer value (sort key).
    pub kmer: u128,
    /// Global read id.
    pub read: u32,
}

impl KmerReadTuple128 {
    /// Construct a tuple.
    #[inline(always)]
    pub fn new(kmer: u128, read: u32) -> Self {
        Self { kmer, read }
    }
}

// The paper's layout (§4.4), pinned at compile time: every buffer size in
// the pipeline is `size_of::<Tuple>()`, so these are the bytes it moves.
const _: () = assert!(size_of::<KmerReadTuple>() == 12 && align_of::<KmerReadTuple>() == 4);
const _: () = assert!(size_of::<KmerReadTuple128>() == 20 && align_of::<KmerReadTuple128>() == 4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_kmer_major() {
        let a = KmerReadTuple::new(1, 99);
        let b = KmerReadTuple::new(2, 0);
        let c = KmerReadTuple::new(2, 1);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn sizes_match_paper() {
        assert_eq!(size_of::<KmerReadTuple>(), 12);
        assert_eq!(size_of::<KmerReadTuple128>(), 20);
        assert_eq!(size_of::<[KmerReadTuple; 3]>(), 36);
        assert_eq!(size_of::<[KmerReadTuple128; 3]>(), 60);
    }

    #[test]
    fn fields_round_trip_at_unaligned_offsets() {
        // Odd array indices put the k-mer at 4 mod 8 (and 4 mod 16 for the
        // 128-bit tuple): reads and writes through the packed fields must
        // still see exactly what was stored.
        let mut a = [KmerReadTuple::default(); 3];
        let mut b = [KmerReadTuple128::default(); 3];
        for i in 0..3 {
            a[i] = KmerReadTuple::new(u64::MAX - i as u64, i as u32);
            b[i] = KmerReadTuple128::new(u128::MAX - i as u128, i as u32);
        }
        for i in 0..3 {
            assert_eq!(
                ({ a[i].kmer }, { a[i].read }),
                (u64::MAX - i as u64, i as u32)
            );
            assert_eq!(
                ({ b[i].kmer }, { b[i].read }),
                (u128::MAX - i as u128, i as u32)
            );
        }
        assert!(a[2] < a[1] && b[2] < b[1]);
    }
}
