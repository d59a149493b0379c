//! The fully parallel LSB radix sort: the comparator LocalSort is measured
//! against (paper §4.2.2).

use crate::partition::{ScatterTracker, SharedSlice};
use crate::radix::{Keyed, SortKey};
use rayon::prelude::*;

/// Fully parallel, stable, out-of-place LSB radix sort — the stand-in for
/// the NUMA-aware sort of Polychroniou & Ross used as the paper's
/// state-of-the-art comparator (§4.2.2). Every pass does a parallel
/// histogram, a global (bucket-major, chunk-minor) prefix sum, and a
/// parallel scatter.
pub fn parallel_lsb_sort<T: Keyed + Default>(
    data: &mut Vec<T>,
    scratch: &mut Vec<T>,
    bits: u32,
    key_bits: u32,
) {
    assert!((1..=16).contains(&bits));
    assert!(key_bits <= T::Key::BITS);
    assert_eq!(data.len(), scratch.len());
    let n = data.len();
    if n <= 1 {
        return;
    }
    let buckets = 1usize << bits;
    let mask = (buckets - 1) as u64;
    let passes = key_bits.div_ceil(bits);
    let chunk_size = n.div_ceil(rayon::current_num_threads().max(1)).max(1);

    // One debug-build write tracker reused (reset, not reallocated) by
    // every pass's scatter.
    let mut tracker = ScatterTracker::new();
    let mut src_is_data = true;
    for p in 0..passes {
        let shift = p * bits;
        let (src, dst): (&mut [T], &mut [T]) = if src_is_data {
            (&mut *data, &mut *scratch)
        } else {
            (&mut *scratch, &mut *data)
        };

        let chunks: Vec<&[T]> = src.chunks(chunk_size).collect();
        let hists: Vec<Vec<usize>> = chunks
            .par_iter()
            .map(|chunk| {
                let mut h = vec![0usize; buckets];
                for t in chunk.iter() {
                    h[t.key().digit(shift, mask)] += 1;
                }
                h
            })
            .collect();

        // Skip identity passes (single occupied bucket across all chunks).
        let totals: Vec<usize> = (0..buckets)
            .map(|b| hists.iter().map(|h| h[b]).sum())
            .collect();
        if totals.contains(&n) {
            continue;
        }

        // Cursor for chunk c, bucket b: sum of totals[..b] + sum of
        // hists[c'][b] for c' < c (bucket-major keeps the pass stable).
        let mut bucket_starts = vec![0usize; buckets];
        let mut sum = 0usize;
        for b in 0..buckets {
            bucket_starts[b] = sum;
            sum += totals[b];
        }
        let mut cursors: Vec<Vec<usize>> = Vec::with_capacity(chunks.len());
        let mut running = bucket_starts;
        for h in &hists {
            cursors.push(running.clone());
            for b in 0..buckets {
                running[b] += h[b];
            }
        }

        let shared = SharedSlice::new(dst, &mut tracker);
        chunks
            .par_iter()
            .zip(cursors.into_par_iter())
            .for_each(|(chunk, mut cur)| {
                for t in chunk.iter() {
                    let b = t.key().digit(shift, mask);
                    // SAFETY: per-(chunk, bucket) windows are disjoint.
                    unsafe { shared.write(cur[b], *t) };
                    cur[b] += 1;
                }
            });
        src_is_data = !src_is_data;
    }

    if !src_is_data {
        data.copy_from_slice(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_kmer::KmerReadTuple;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_tuples(n: usize, seed: u64, key_bits: u32) -> Vec<KmerReadTuple> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let k = if key_bits >= 64 {
                    rng.gen()
                } else {
                    rng.gen::<u64>() & ((1u64 << key_bits) - 1)
                };
                KmerReadTuple::new(k, i as u32)
            })
            .collect()
    }

    #[test]
    fn parallel_lsb_matches_std_sort() {
        let v = random_tuples(80_000, 3, 64);
        let mut a = v.clone();
        let mut s = vec![KmerReadTuple::default(); a.len()];
        parallel_lsb_sort(&mut a, &mut s, 8, 64);
        let mut want = v;
        want.sort_by_key(|t| (t.kmer, t.read));
        assert_eq!(a, want);
    }

    #[test]
    fn parallel_lsb_stability() {
        let v: Vec<KmerReadTuple> = (0..10_000)
            .map(|i| KmerReadTuple::new((i % 7) as u64, i as u32))
            .collect();
        let mut a = v.clone();
        let mut s = vec![KmerReadTuple::default(); a.len()];
        parallel_lsb_sort(&mut a, &mut s, 8, 64);
        // Within each key, read ids must be increasing.
        for w in a.windows(2) {
            if w[0].kmer == w[1].kmer {
                assert!(w[0].read < w[1].read);
            }
        }
    }

    #[test]
    fn parallel_lsb_various_digit_widths() {
        let v = random_tuples(20_000, 4, 54);
        let mut want = v.clone();
        want.sort_by_key(|t| (t.kmer, t.read));
        for bits in [4, 8, 11, 16] {
            let mut a = v.clone();
            let mut s = vec![KmerReadTuple::default(); a.len()];
            parallel_lsb_sort(&mut a, &mut s, bits, 54);
            assert_eq!(a, want, "bits={bits}");
        }
    }
}
