//! AVX2 kernels (x86_64): the byte kernels take 32 bytes per iteration,
//! the owned-k-mer kernel four 64-bit lanes.
//!
//! The kernels are `unsafe fn` with an `avx2` target-feature contract;
//! the dispatcher in [`super`] only reaches them after
//! `is_x86_feature_detected!("avx2")` succeeded. The byte kernels hand
//! tails shorter than one vector to the scalar kernels, so any slice
//! length is handled; every output is identical to [`super::scalar`]'s.

use super::scalar;
use std::arch::x86_64::*;
use std::ops::Range;

/// Bytes processed per vector iteration.
const LANES: usize = 32;

/// AVX2 [`super::encode_classify`].
///
/// Per 32-byte block:
/// 1. clear the ASCII case bit (`b & 0xDF`) and compare against
///    `A/C/G/T` — the OR of the four equality masks marks valid lanes;
/// 2. translate the low nibble through a 16-entry shuffle table
///    (uppercase and lowercase of each base share a low nibble:
///    `A/a→1, C/c→3, G/g→7, T/t→4`) to the 2-bit code;
/// 3. force invalid lanes to `INVALID_CODE` (0xFF) by OR-ing the
///    complement of the validity mask.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` only for the avx2 target-feature contract above —
// the dispatcher calls it strictly after feature detection succeeded.
pub unsafe fn encode_classify(seq: &[u8], out: &mut [u8]) {
    debug_assert_eq!(seq.len(), out.len());
    // Low-nibble -> code table: index 1 = A/a -> 0, 3 = C/c -> 1,
    // 7 = G/g -> 2, 4 = T/t -> 3; every other slot is don't-care (the
    // validity mask overrides it). One 128-bit row, used in both lanes.
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 0, 0, 1, 3, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 1, 3, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0,
    );
    let low4 = _mm256_set1_epi8(0x0F);
    let case_mask = _mm256_set1_epi8(0xDFu8 as i8);
    let ones = _mm256_set1_epi8(-1);
    let ba = _mm256_set1_epi8(b'A' as i8);
    let bc = _mm256_set1_epi8(b'C' as i8);
    let bg = _mm256_set1_epi8(b'G' as i8);
    let bt = _mm256_set1_epi8(b'T' as i8);

    let n = seq.len();
    let mut i = 0;
    while i + LANES <= n {
        // SAFETY: i + 32 <= seq.len() == out.len(); unaligned load/store
        // intrinsics have no alignment requirement.
        unsafe {
            let v = _mm256_loadu_si256(seq.as_ptr().add(i) as *const __m256i);
            let up = _mm256_and_si256(v, case_mask);
            let valid = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpeq_epi8(up, ba), _mm256_cmpeq_epi8(up, bc)),
                _mm256_or_si256(_mm256_cmpeq_epi8(up, bg), _mm256_cmpeq_epi8(up, bt)),
            );
            let code = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low4));
            // valid lanes keep their code; invalid lanes become 0xFF.
            let res = _mm256_or_si256(code, _mm256_xor_si256(valid, ones));
            _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, res);
        }
        i += LANES;
    }
    scalar::encode_classify(&seq[i..], &mut out[i..]);
}

/// AVX2 [`super::find_byte`]: 32-byte equality compare + movemask, first
/// set bit wins; the sub-vector tail is scanned scalar.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` only for the avx2 target-feature contract above —
// the dispatcher calls it strictly after feature detection succeeded.
pub unsafe fn find_byte(data: &[u8], needle: u8) -> Option<usize> {
    let nv = _mm256_set1_epi8(needle as i8);
    let n = data.len();
    let mut i = 0;
    while i + LANES <= n {
        // SAFETY: i + 32 <= data.len(); unaligned load.
        let mask = unsafe {
            let v = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, nv)) as u32
        };
        if mask != 0 {
            return Some(i + mask.trailing_zeros() as usize);
        }
        i += LANES;
    }
    scalar::find_byte(&data[i..], needle).map(|p| i + p)
}

/// Runs rolled at once: one per 64-bit lane.
const RUN_LANES: usize = 4;

/// Codes one lane loads at a time: one little-endian `u64`.
const BLOCK: usize = 8;

/// AVX2 [`super::owned_kmers`]: four runs roll at once, one per 64-bit
/// lane, each from its own start.
///
/// A lane takes the next run when its own ends, so runs of unequal length
/// keep all four lanes busy; the loop between two such refills steps every
/// lane with no branch, loading each lane's codes eight at a time. Per
/// step, in-register: roll the forward and reverse-complement words,
/// `min(fwd, rc)`, and the ownership test. AVX2 compares only signed
/// 64-bit words, so for k = 32 (every bit of the word in use) both the min
/// and the test `bin - lo < width` flip the sign bit to compare unsigned;
/// below k = 32 values stay under `2^62` and the test compares the value
/// with the range's bounds directly. A lane stays silent for its run's
/// first `k - 1` codes (its countdown is not yet positive). Each lane
/// writes into its run's own region of `values`' allocation — every value
/// stored, the lane's cursor advanced by its ownership bit, so nothing
/// branches on ownership — and a run's span is the part of its region the
/// lane filled; nothing moves afterwards. A lane with no run left reads
/// another lane's codes, never emits, and writes to a sink slot past the
/// last region.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and `1 <= k <= 32`.
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` only for the avx2 target-feature contract above —
// the dispatcher calls it strictly after feature detection succeeded, with
// `k` asserted in range.
pub unsafe fn owned_kmers(
    codes: &[u8],
    runs: &[Range<usize>],
    (k, shift): (usize, u32),
    bins: (u64, u64),
    values: &mut Vec<u64>,
    spans: &mut Vec<Range<usize>>,
) {
    // SAFETY: same contract, passed on.
    unsafe {
        if k == 32 {
            owned_lanes::<true>(codes, runs, (k, shift), bins, values, spans)
        } else {
            owned_lanes::<false>(codes, runs, (k, shift), bins, values, spans)
        }
    }
}

/// [`owned_kmers`] for `WIDE == (k == 32)`.
///
/// # Safety
/// As [`owned_kmers`].
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` only for the contract above, which `owned_kmers`
// passes on.
unsafe fn owned_lanes<const WIDE: bool>(
    codes: &[u8],
    runs: &[Range<usize>],
    (k, shift): (usize, u32),
    (lo, width): (u64, u64),
    values: &mut Vec<u64>,
    spans: &mut Vec<Range<usize>>,
) {
    debug_assert_eq!(WIDE, k == 32);
    let windows = |run: &Range<usize>| (run.len() + 1).saturating_sub(k);
    let sink: usize = runs.iter().map(windows).sum();
    values.clear();
    values.reserve(sink + 1);
    let out = values.as_mut_ptr();
    spans.clear();
    spans.resize(runs.len(), 0..0);

    // Lane state between refills. `left[l] == 0`: lane `l` has no run.
    let mut at = [codes.as_ptr(); RUN_LANES]; // next code of the lane's run
    let mut left = [0usize; RUN_LANES]; // codes still to roll
    let mut cursor = [sink; RUN_LANES]; // where the lane's next value goes
    let mut run_of = [usize::MAX; RUN_LANES];
    let mut fwd = [0u64; RUN_LANES];
    let mut rc = [0u64; RUN_LANES];
    // Positive once the lane's window is full.
    let mut countdown = [0i64; RUN_LANES];
    // Never positive within any run: the value of a lane without one.
    let silent = i64::MIN / 2;
    let (mut next, mut region) = (0usize, 0usize);

    let splat = |x: u64| _mm256_set1_epi64x(x as i64);
    let mask = if WIDE {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let flip = splat(1 << 63);
    let maskv = splat(mask);
    let three = splat(3);
    let one = splat(1);
    let zero = _mm256_setzero_si256();
    let rc_at = splat(2 * (k as u64 - 1));
    // k = 32: the bin test, `(v >> shift) - lo < width` unsigned.
    let bin_at = splat(u64::from(shift));
    let lov = splat(lo);
    let widthv = _mm256_xor_si256(splat(width), flip);
    // k < 32: the value test, `below < v < above` signed. Values are under
    // 2^62, so bounds clamped there test the same.
    let bound = |bin: u64| (u128::from(bin) << shift).min(1 << 62) as u64;
    let below = splat(bound(lo).wrapping_sub(1));
    let above = splat(bound(lo.saturating_add(width)));

    let mut lane_values = [0u64; RUN_LANES];
    loop {
        // Close the lanes whose run ended; hand each idle lane the next run
        // that has a window.
        for l in 0..RUN_LANES {
            if left[l] != 0 {
                continue;
            }
            if let Some(span) = spans.get_mut(run_of[l]) {
                span.end = cursor[l];
            }
            (run_of[l], cursor[l], countdown[l]) = (usize::MAX, sink, silent);
            while let Some(run) = runs.get(next) {
                let r = next;
                next += 1;
                if run.len() < k {
                    continue;
                }
                at[l] = codes[run.clone()].as_ptr();
                (left[l], cursor[l], run_of[l]) = (run.len(), region, r);
                spans[r].start = region;
                countdown[l] = 1 - k as i64;
                region += windows(run);
                break;
            }
        }
        // Step every lane to the first run end; idle lanes shadow a live one.
        let Some(live) = (0..RUN_LANES).find(|&l| left[l] != 0) else {
            break;
        };
        let steps = (0..RUN_LANES)
            .filter(|&l| left[l] != 0)
            .map(|l| left[l])
            .min()
            .unwrap_or(0);
        for l in 0..RUN_LANES {
            if left[l] == 0 {
                at[l] = at[live];
            }
        }
        // SAFETY: every lane reads `at[l]..at[l] + steps` — inside its own
        // run (`steps <= left[l]`) or, for an idle lane, inside `live`'s —
        // and stores at `cursor[l]`, which stays below its run's region end
        // (a run of `n` codes emits at most `n - k + 1` values and stores
        // each before advancing) or is the sink, `sink < capacity`.
        unsafe {
            let load = |a: &[u64; RUN_LANES]| _mm256_loadu_si256(a.as_ptr() as *const __m256i);
            let (mut f, mut r) = (load(&fwd), load(&rc));
            let mut warm = _mm256_loadu_si256(countdown.as_ptr() as *const __m256i);
            let [mut c0, mut c1, mut c2, mut c3] = cursor;
            // One step: roll code `c` into every lane, store each lane's
            // value at its cursor, advance the owning lanes' cursors.
            let mut step = |c: __m256i| {
                f = _mm256_and_si256(_mm256_or_si256(_mm256_slli_epi64::<2>(f), c), maskv);
                r = _mm256_or_si256(
                    _mm256_srli_epi64::<2>(r),
                    _mm256_sllv_epi64(_mm256_xor_si256(c, three), rc_at),
                );
                warm = _mm256_add_epi64(warm, one);
                let (v, owned) = if WIDE {
                    // min(fwd, rc) and bin - lo < width, unsigned.
                    let rc_less =
                        _mm256_cmpgt_epi64(_mm256_xor_si256(f, flip), _mm256_xor_si256(r, flip));
                    let v = _mm256_blendv_epi8(f, r, rc_less);
                    let off = _mm256_sub_epi64(_mm256_srlv_epi64(v, bin_at), lov);
                    (v, _mm256_cmpgt_epi64(widthv, _mm256_xor_si256(off, flip)))
                } else {
                    let v = _mm256_blendv_epi8(f, r, _mm256_cmpgt_epi64(f, r));
                    let inside = _mm256_and_si256(
                        _mm256_cmpgt_epi64(v, below),
                        _mm256_cmpgt_epi64(above, v),
                    );
                    (v, inside)
                };
                let owned = _mm256_and_si256(owned, _mm256_cmpgt_epi64(warm, zero));
                let bits = _mm256_movemask_pd(_mm256_castsi256_pd(owned)) as usize;
                _mm256_storeu_si256(lane_values.as_mut_ptr() as *mut __m256i, v);
                *out.add(c0) = lane_values[0];
                *out.add(c1) = lane_values[1];
                *out.add(c2) = lane_values[2];
                *out.add(c3) = lane_values[3];
                c0 += bits & 1;
                c1 += (bits >> 1) & 1;
                c2 += (bits >> 2) & 1;
                c3 += bits >> 3;
            };
            let mut t = 0;
            while t + BLOCK <= steps {
                let word = |l: usize| (at[l].add(t) as *const i64).read_unaligned();
                let mut block = _mm256_set_epi64x(word(3), word(2), word(1), word(0));
                for _ in 0..BLOCK {
                    step(_mm256_and_si256(block, three));
                    block = _mm256_srli_epi64::<8>(block);
                }
                t += BLOCK;
            }
            for t in t..steps {
                let code = |l: usize| i64::from(*at[l].add(t));
                step(_mm256_set_epi64x(code(3), code(2), code(1), code(0)));
            }
            cursor = [c0, c1, c2, c3];
            let store = |a: &mut [u64; RUN_LANES], v| {
                _mm256_storeu_si256(a.as_mut_ptr() as *mut __m256i, v)
            };
            store(&mut fwd, f);
            store(&mut rc, r);
            _mm256_storeu_si256(countdown.as_mut_ptr() as *mut __m256i, warm);
        }
        for l in 0..RUN_LANES {
            if left[l] != 0 {
                // SAFETY: `steps <= left[l]`, so this stays inside the run.
                at[l] = unsafe { at[l].add(steps) };
                left[l] -= steps;
            }
        }
    }
}
