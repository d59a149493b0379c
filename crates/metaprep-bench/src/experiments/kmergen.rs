//! KmerGen + FASTQ-scan throughput: runtime-dispatched SIMD lanes vs the
//! scalar reference (§4.1 KmerGen, §4.3 record-boundary scanning).
//!
//! Four measurements on a simulated HG-profile read set:
//!
//! 1. **KmerGen end-to-end** — canonical 27-mer enumeration over every
//!    read through [`metaprep_kmer::for_each_canonical_kmer`] (dispatched:
//!    vectorized classify feeding the roll loop) vs
//!    [`metaprep_kmer::for_each_canonical_kmer_scalar`] (per-byte table
//!    lookups). A value/offset checksum is asserted identical every round,
//!    so the speedup is never measured against a diverged result.
//! 2. **Classify kernel** — whole-read 2-bit encode + validity
//!    classification, best backend vs scalar, isolating the vector lanes
//!    from the roll loop.
//! 3. **Newline scan** — the memchr-style byte scanner that
//!    `metaprep-io`'s `record_views` walker, `find_record_start` and the
//!    `StreamChunker` probe ride, best backend vs scalar, hunting `\n`
//!    across the serialized FASTQ image.
//! 4. **Emit** — enumeration plus what KmerGen does with each k-mer: one
//!    tuple written through [`metaprep_sort::SharedSlice`] at a
//!    precomputed cursor of a freshly allocated, uninitialised buffer,
//!    with the k-mers spread over 1, 2^9 and 2^11 write streams by their
//!    top bits. One stream is the old per-destination push; the others
//!    are the bucketed emit at a typical and at the maximal bucket count,
//!    so the cost of scattering from KmerGen is on record.
//! 5. **Owned k-mers** — the kernel a pass of a multi-pass KmerGen runs,
//!    [`simd::owned_kmers`], best backend vs its scalar form, over the
//!    reads' valid runs in batches the size KmerGen uses, keeping the
//!    lowest ¼ and ½ of the k-mers by m-mer bin. Rounds alternate the two
//!    forms and their order-sensitive checksums are asserted equal every
//!    round.
//!
//! The headline `dispatched_over_scalar` in `BENCH_kmergen.json` is the
//! end-to-end KmerGen ratio — the number `cargo xtask bench-smoke` gates
//! (≥1.2x when a vector backend is active; the gate is skipped when the
//! box resolves to scalar, where the ratio is 1 by construction).
//! `owned_quarter_over_scalar`, the owned-k-mer ratio at ¼ ownership, is
//! gated the same way (≥1.3x), and waived where `owned_backend` is scalar
//! (NEON resolves the kernel to its scalar form).

use crate::harness::{dataset, print_table, write_artifact};
use metaprep_io::{record_views, write_fastq, ReadStore};
use metaprep_kmer::simd::{self, Backend};
use metaprep_kmer::{
    for_each_canonical_kmer, for_each_canonical_kmer_scalar, valid_runs, Kmer64, KmerReadTuple,
};
use metaprep_sort::{ScatterTracker, SharedSlice};
use metaprep_synth::DatasetId;
use std::ops::Range;
use std::time::Instant;

/// The paper's k for the assembly-support experiments.
const K: usize = 27;
/// Timed rounds per path (best round scored).
const ROUNDS: usize = 5;

struct PathResult {
    secs: f64,
    mbases_per_s: f64,
}

fn path_json(p: &PathResult) -> String {
    format!(
        "{{\"secs\": {:.6}, \"mbases_per_s\": {:.3}}}",
        p.secs, p.mbases_per_s
    )
}

/// Value/offset checksum of an enumeration pass: order-sensitive, so a
/// reordered emission (not just a wrong value) also diverges.
#[derive(Default, PartialEq, Eq, Debug, Clone, Copy)]
struct Checksum {
    count: u64,
    acc: u64,
}

impl Checksum {
    #[inline]
    fn feed(&mut self, value: u64, offset: usize) {
        self.count += 1;
        self.acc = self
            .acc
            .rotate_left(1)
            .wrapping_add(value ^ (offset as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}

/// Time `f` over `ROUNDS` rounds (plus one untimed warm-up) and score the
/// best round — on shared/1-core boxes the minimum is far more robust to
/// scheduler noise than the mean, and both paths get the same treatment.
fn measure(bytes: usize, mut f: impl FnMut()) -> PathResult {
    f(); // warm-up: page in the data, resolve dispatch, size buffers
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    PathResult {
        secs: best,
        mbases_per_s: bytes as f64 / best / 1e6,
    }
}

fn enumerate_all(reads: &ReadStore, dispatched: bool) -> Checksum {
    let mut sum = Checksum::default();
    for (seq, _) in reads.iter() {
        if dispatched {
            for_each_canonical_kmer::<Kmer64>(seq, K, |v, off| sum.feed(v, off));
        } else {
            for_each_canonical_kmer_scalar::<Kmer64>(seq, K, |v, off| sum.feed(v, off));
        }
    }
    sum
}

/// Write-stream counts of the emit measurement, as powers of two.
const EMIT_STREAM_BITS: [u32; 3] = [0, 9, 11];

/// Enumerate every k-mer and write its tuple at the next free position of
/// its stream (`cursors`, one per stream, laid out back to back) in a
/// fresh buffer — allocation and first touch included, as in a pass.
fn emit_all(reads: &ReadStore, stream_bits: u32, cursors: &[usize]) -> Vec<KmerReadTuple> {
    let total = cursors.last().copied().unwrap_or(0);
    let mut next = cursors.to_vec();
    let mut out: Vec<KmerReadTuple> = Vec::with_capacity(total);
    let mut tracker = ScatterTracker::new();
    let dst = SharedSlice::uninit(&mut out.spare_capacity_mut()[..total], &mut tracker);
    for (seq, frag) in reads.iter() {
        for_each_canonical_kmer::<Kmer64>(seq, K, |v, _| {
            let cur = &mut next[stream_of(v, stream_bits)];
            // SAFETY: single writer; every position below a stream's end is handed out once.
            unsafe { dst.write(*cur, KmerReadTuple::new(v, frag)) };
            *cur += 1;
        });
    }
    // SAFETY: the cursors are exact prefix sums of the stream sizes, so the enumeration above wrote every slot below `total` exactly once.
    unsafe { out.set_len(total) };
    out
}

/// Stream of a packed k-mer: its top `stream_bits` bits.
#[inline(always)]
fn stream_of(v: u64, stream_bits: u32) -> usize {
    (v >> (2 * K as u32 - stream_bits)) as usize
}

/// Start of every stream (and the total, last) for `stream_bits`.
fn emit_cursors(reads: &ReadStore, stream_bits: u32) -> Vec<usize> {
    let mut starts = vec![0usize; (1 << stream_bits) + 1];
    for (seq, _) in reads.iter() {
        for_each_canonical_kmer::<Kmer64>(seq, K, |v, _| {
            starts[stream_of(v, stream_bits) + 1] += 1;
        });
    }
    for s in 1..starts.len() {
        starts[s] += starts[s - 1];
    }
    starts
}

/// Count newlines by repeated `find_byte_with` — the exact scan shape of
/// `metaprep-io`'s record-boundary hunting.
fn newline_scan(backend: Backend, data: &[u8]) -> u64 {
    let mut count = 0u64;
    let mut at = 0usize;
    while let Some(i) = simd::find_byte_with(backend, &data[at..], b'\n') {
        count += 1;
        at += i + 1;
    }
    count
}

/// m-mer length of the owned-k-mer measurement (the paper's m = 10).
const OWNED_M: usize = 10;
/// Codes per kernel call: KmerGen's batch (`metaprep-core`'s
/// `BATCH_CODES`).
const OWNED_BATCH: usize = 8 << 10;
/// Alternating rounds per ownership share (best round of each form scored).
const OWNED_ROUNDS: usize = 11;

/// Every read's valid runs, encoded back to back, cut into batches of
/// about [`OWNED_BATCH`] codes.
fn owned_batches(reads: &ReadStore) -> (Vec<u8>, Vec<Vec<Range<usize>>>) {
    let (mut codes, mut read) = (Vec::new(), Vec::new());
    let mut batches = vec![Vec::new()];
    for (seq, _) in reads.iter() {
        simd::encode_classify(seq, &mut read);
        for run in valid_runs(&read) {
            let at = codes.len();
            codes.extend_from_slice(&read[run]);
            // UNWRAP: `batches` starts with one batch and only grows.
            batches.last_mut().unwrap().push(at..codes.len());
        }
        if codes.len() >= OWNED_BATCH * batches.len() {
            batches.push(Vec::new());
        }
    }
    (codes, batches)
}

/// The bin range `[0, hi)` holding at least `share` of the k-mers.
fn lowest_bins(reads: &ReadStore, share: f64) -> Range<u64> {
    let shift = 2 * (K - OWNED_M);
    let mut hist = vec![0u64; 1 << (2 * OWNED_M)];
    for (seq, _) in reads.iter() {
        for_each_canonical_kmer::<Kmer64>(seq, K, |v, _| hist[(v >> shift) as usize] += 1);
    }
    let want = (hist.iter().sum::<u64>() as f64 * share).ceil() as u64;
    let mut seen = 0;
    let hi = hist.iter().position(|&n| {
        seen += n;
        seen >= want
    });
    0..hi.map_or(hist.len(), |b| b + 1) as u64
}

/// The owned values of every batch under `backend`, folded into a
/// checksum, and the seconds spent in the kernel (the fold is not timed).
fn owned_all(
    backend: Backend,
    (codes, batches): &(Vec<u8>, Vec<Vec<Range<usize>>>),
    bins: &Range<u64>,
    out: &mut simd::OwnedKmers,
) -> (Checksum, f64) {
    let shift = 2 * (K - OWNED_M) as u32;
    let mut sum = Checksum::default();
    let mut secs = 0.0;
    for runs in batches {
        let t0 = Instant::now();
        simd::owned_kmers_with(backend, codes, runs, (K, shift), bins.clone(), out);
        secs += t0.elapsed().as_secs_f64();
        for (r, values) in out.runs().enumerate() {
            for &v in values {
                sum.feed(v, r);
            }
        }
    }
    (sum, secs)
}

/// One ownership share timed on `backend` and on the scalar form, in
/// alternating rounds after one warm-up of each: best rounds and the
/// owned count.
fn owned_pair(
    backend: Backend,
    batches: &(Vec<u8>, Vec<Vec<Range<usize>>>),
    bins: &Range<u64>,
    bases: usize,
) -> (PathResult, PathResult, u64) {
    let mut out = simd::OwnedKmers::default();
    let mut best = [f64::INFINITY; 2];
    let mut owned = 0;
    for round in 0..=OWNED_ROUNDS {
        let mut sums = [Checksum::default(); 2];
        for (i, b) in [backend, Backend::Scalar].into_iter().enumerate() {
            let secs;
            (sums[i], secs) = owned_all(b, batches, bins, &mut out);
            if round > 0 {
                best[i] = best[i].min(secs);
            }
        }
        assert_eq!(
            sums[0], sums[1],
            "owned-k-mer kernel diverged from its scalar form"
        );
        owned = sums[0].count;
    }
    let path = |secs: f64| PathResult {
        secs,
        mbases_per_s: bases as f64 / secs / 1e6,
    };
    (path(best[0]), path(best[1]), owned)
}

/// Run the experiment; writes `BENCH_kmergen.json`.
pub fn run(scale: f64) {
    let backend = simd::active();
    let data = dataset(DatasetId::Hg, scale);
    let reads = &data.reads;
    let bases = reads.total_bases();
    let mut fastq = Vec::new();
    write_fastq(&mut fastq, reads).expect("serialize FASTQ to memory");

    // --- 1. KmerGen end-to-end: dispatched vs scalar --------------------
    let mut sum_dispatched = Checksum::default();
    let kmergen_dispatched = measure(bases, || {
        sum_dispatched = enumerate_all(reads, true);
    });
    let mut sum_scalar = Checksum::default();
    let kmergen_scalar = measure(bases, || {
        sum_scalar = enumerate_all(reads, false);
    });
    assert_eq!(
        sum_dispatched, sum_scalar,
        "dispatched KmerGen diverged from the scalar reference"
    );
    let kmergen_ratio = kmergen_dispatched.mbases_per_s / kmergen_scalar.mbases_per_s;

    // --- 2. classify kernel: best backend vs scalar ---------------------
    let mut codes = Vec::new();
    let classify_best = measure(bases, || {
        for (seq, _) in reads.iter() {
            simd::encode_classify_with(backend, seq, &mut codes);
        }
    });
    let classify_scalar = measure(bases, || {
        for (seq, _) in reads.iter() {
            simd::encode_classify_with(Backend::Scalar, seq, &mut codes);
        }
    });
    let classify_ratio = classify_best.mbases_per_s / classify_scalar.mbases_per_s;

    // --- 3. newline scan over the FASTQ image ---------------------------
    let mut nl_best = 0u64;
    let scan_best = measure(fastq.len(), || {
        nl_best = newline_scan(backend, &fastq);
    });
    let mut nl_scalar = 0u64;
    let scan_scalar = measure(fastq.len(), || {
        nl_scalar = newline_scan(Backend::Scalar, &fastq);
    });
    assert_eq!(nl_best, nl_scalar, "newline scan diverged across backends");
    assert_eq!(
        // The walk stops at its first error, so only a clean file counts
        // every read.
        record_views(&fastq, 0, 0).filter(Result::is_ok).count(),
        reads.len(),
        "record walker miscounted the serialized FASTQ"
    );
    let scan_ratio = scan_best.mbases_per_s / scan_scalar.mbases_per_s;

    // --- 4. emit: enumeration + one scattered tuple write per k-mer ------
    let emit: Vec<(u32, PathResult)> = EMIT_STREAM_BITS
        .iter()
        .map(|&bits| {
            let cursors = emit_cursors(reads, bits);
            let mut emitted = 0;
            let res = measure(bases, || emitted = emit_all(reads, bits, &cursors).len());
            assert_eq!(emitted as u64, sum_dispatched.count, "emit lost k-mers");
            (bits, res)
        })
        .collect();

    // --- 5. owned k-mers: the pass kernel vs its scalar form ------------
    let batches = owned_batches(reads);
    let owned: Vec<(u32, PathResult, PathResult, u64)> = [4u32, 2]
        .into_iter()
        .map(|per| {
            let bins = lowest_bins(reads, 1.0 / f64::from(per));
            let (best, scalar, n) = owned_pair(backend, &batches, &bins, bases);
            (per, best, scalar, n)
        })
        .collect();
    let owned_ratio = |i: usize| owned[i].2.secs / owned[i].1.secs;

    print_table(
        &format!(
            "KmerGen + FASTQ scan, backend {backend}, {} reads / {:.1} Mbases, \
             k={K}, {ROUNDS} rounds",
            reads.len(),
            bases as f64 / 1e6
        ),
        &["Measurement", "Time (s)", "Mbases/s", "vs scalar"],
        &[
            vec![
                "KmerGen dispatched".into(),
                format!("{:.3}", kmergen_dispatched.secs),
                format!("{:.1}", kmergen_dispatched.mbases_per_s),
                format!("{kmergen_ratio:.2}x"),
            ],
            vec![
                "KmerGen scalar".into(),
                format!("{:.3}", kmergen_scalar.secs),
                format!("{:.1}", kmergen_scalar.mbases_per_s),
                "1.00x".into(),
            ],
            vec![
                "classify kernel".into(),
                format!("{:.3}", classify_best.secs),
                format!("{:.1}", classify_best.mbases_per_s),
                format!("{classify_ratio:.2}x"),
            ],
            vec![
                "newline scan".into(),
                format!("{:.3}", scan_best.secs),
                format!("{:.1}", scan_best.mbases_per_s),
                format!("{scan_ratio:.2}x"),
            ],
        ]
        .into_iter()
        .chain(emit.iter().map(|(bits, p)| {
            vec![
                format!("emit, 2^{bits} write streams"),
                format!("{:.3}", p.secs),
                format!("{:.1}", p.mbases_per_s),
                "-".into(),
            ]
        }))
        .chain(
            owned
                .iter()
                .enumerate()
                .flat_map(|(i, (per, best, scalar, _))| {
                    [
                        vec![
                            format!("owned 1/{per} kernel"),
                            format!("{:.3}", best.secs),
                            format!("{:.1}", best.mbases_per_s),
                            format!("{:.2}x", owned_ratio(i)),
                        ],
                        vec![
                            format!("owned 1/{per} scalar"),
                            format!("{:.3}", scalar.secs),
                            format!("{:.1}", scalar.mbases_per_s),
                            "1.00x".into(),
                        ],
                    ]
                }),
        )
        .collect::<Vec<_>>(),
    );
    println!(
        "  {} canonical {K}-mers per pass, checksums identical on both paths",
        sum_dispatched.count
    );

    // --- JSON report (hand-rolled: numbers/fixed labels only) -----------
    let mut json = String::from("{\n  \"experiment\": \"kmergen\",\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"backend\": \"{}\",\n", backend.name()));
    json.push_str(&format!("  \"k\": {K},\n"));
    json.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    json.push_str(&format!("  \"reads\": {},\n", reads.len()));
    json.push_str(&format!("  \"bases\": {bases},\n"));
    json.push_str(&format!("  \"fastq_bytes\": {},\n", fastq.len()));
    json.push_str(&format!(
        "  \"kmers_per_pass\": {},\n",
        sum_dispatched.count
    ));
    json.push_str(&format!(
        "  \"kmergen\": {{\"dispatched\": {}, \"scalar\": {}, \"ratio\": {kmergen_ratio:.3}}},\n",
        path_json(&kmergen_dispatched),
        path_json(&kmergen_scalar),
    ));
    json.push_str(&format!(
        "  \"classify\": {{\"dispatched\": {}, \"scalar\": {}, \"ratio\": {classify_ratio:.3}}},\n",
        path_json(&classify_best),
        path_json(&classify_scalar),
    ));
    json.push_str(&format!(
        "  \"scan\": {{\"dispatched\": {}, \"scalar\": {}, \"ratio\": {scan_ratio:.3}}},\n",
        path_json(&scan_best),
        path_json(&scan_scalar),
    ));
    let emit_json: Vec<String> = emit
        .iter()
        .map(|(bits, p)| format!("\"streams_2^{bits}\": {}", path_json(p)))
        .collect();
    json.push_str(&format!("  \"emit\": {{{}}},\n", emit_json.join(", ")));
    let owned_json: Vec<String> = owned
        .iter()
        .enumerate()
        .map(|(i, (per, best, scalar, n))| {
            format!(
                "\"share_1/{per}\": {{\"owned\": {n}, \"kernel\": {}, \"scalar\": {}, \"ratio\": {:.3}}}",
                path_json(best),
                path_json(scalar),
                owned_ratio(i)
            )
        })
        .collect();
    json.push_str(&format!(
        "  \"owned\": {{\"m\": {OWNED_M}, \"batch_codes\": {OWNED_BATCH}, {}}},\n",
        owned_json.join(", ")
    ));
    // NEON resolves the owned-k-mer kernel to its scalar form.
    let owned_backend = match backend {
        Backend::Avx2 => backend,
        _ => Backend::Scalar,
    };
    json.push_str(&format!(
        "  \"owned_backend\": \"{}\",\n",
        owned_backend.name()
    ));
    json.push_str(&format!(
        "  \"owned_quarter_over_scalar\": {:.3},\n",
        owned_ratio(0)
    ));
    json.push_str(&format!(
        "  \"dispatched_over_scalar\": {kmergen_ratio:.3}\n}}\n"
    ));

    write_artifact("BENCH_kmergen.json", json);
}
