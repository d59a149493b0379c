//! IndexCreate (paper §3.1): one histogram kernel over FASTQ bytes.
//!
//! Every index build is "chunk rows → `assemble`": a row is a chunk's
//! `ChunkSpec` plus the m-mer histogram `hist` computes over the chunk's
//! sequences, and the global merHist is the bin-wise sum of the rows. Two
//! entry points read the rows, both through `metaprep_io::record_views`:
//!
//! * [`index_fastq_bytes`] — a whole FASTQ file held as bytes, O(file)
//!   memory, cut by `metaprep_io::chunk_fastq_bytes`: the differential
//!   oracle for the file indexer, and what `MerHist::build` and
//!   `FastqPart::build` run over a store written as FASTQ;
//! * [`index_fastq_file_streaming`] — a FASTQ file on disk, never
//!   materialized, and the parallel IndexCreate every pipeline run takes:
//!
//!   1. a [`StreamChunker`] cuts the file where the in-memory chunker
//!      does, at the first record start at or after each byte target
//!      `j·len/c`, by seeking and probing bounded windows (O(window)
//!      memory); for paired input pass A walks every range in parallel and
//!      moves each boundary with an odd record count before it one record
//!      on, to the second record start its walk saw;
//!   2. per-chunk histogramming is dispatched over a rayon thread pool,
//!      each worker walking its chunk's records in place, one window of
//!      about 1 MiB at a time (`metaprep_io::RecordWalker`, which pass A
//!      reads with too): sequences are histogrammed where they lie, names
//!      and qualities are checked and never copied, and the walk is the
//!      chunk's record count.
//!
//!   Every count IndexCreate stores comes from a `record_views` walk, the
//!   one FASTQ grammar, so the file indexer accepts and rejects what every
//!   other reader does, paired or not, and names a malformed record by its
//!   file-global number and byte.
//!
//!   Peak memory is O(threads × window + chunks × 4^m), never
//!   O(file) — the bound the `index_create` bench (`BENCH_index.json`)
//!   demonstrates with a counting allocator — plus, with presolve on, the
//!   worker sketches: at most `SKETCH_BUDGET` of them, or one sketch
//!   larger than that.
//!
//! The two entries produce identical tables (property-tested in
//! `tests/streaming_matches_inmemory.rs`).

use crate::fastqpart::ChunkRecord;
use crate::{FastqPart, MerHist};
use metaprep_io::{
    record_views, write_fastq, ChunkSpec, FastqError, ReadStore, RecordWalker, StreamChunker,
    WALK_WINDOW,
};
use metaprep_kmer::{fold_kmer_key, for_each_canonical_kmer, Kmer, Kmer128, Kmer64, MmerSpace};
use metaprep_norm::{CountMinSketch, SketchParams};
use metaprep_obs::{CounterKind, MemRecorder};
use rayon::prelude::*;
use std::path::Path;

/// Options for [`index_fastq_file_streaming`].
#[derive(Copy, Clone, Debug, Default)]
pub struct StreamingOptions {
    /// Probe window in bytes for the chunk cuts (0 =
    /// `metaprep_io::DEFAULT_INDEX_WINDOW`).
    pub window: usize,
    /// Threads for per-chunk histogramming (0 = the rayon default).
    pub threads: usize,
}

/// The IndexCreate kernel: add the canonical k-mers of every sequence to
/// `hist`, a row of `space`'s m-mer bins (one row of `FASTQPart`),
/// stopping at the first sequence its source reports malformed.
///
/// `for_each_canonical_kmer` is the runtime-dispatched hot path: on
/// AVX2/NEON hosts each read is classified and 2-bit-packed by the
/// vectorized kernels in `metaprep_kmer::simd` before the canonical
/// values roll over the packed lanes (`METAPREP_SIMD=scalar` pins the
/// scalar reference; both arms are differentially tested there and in
/// the scalar-forced CI job).
///
/// An optional count-min sketch is fed from the same enumeration: the
/// presolve frequency sketch rides the scan that already exists instead of
/// costing a second pass. Keys are the packed canonical value for
/// `k <= 32` and [`fold_kmer_key`] above that — the same derivation
/// KmerGen's `HighFreqFilter` probes with — and reach the sketch through
/// a [`Sketcher`], in scan order.
fn hist<'a>(
    seqs: impl Iterator<Item = Result<&'a [u8], FastqError>>,
    space: MmerSpace,
    k: usize,
    mut sketch: Option<&mut Sketcher>,
    hist: &mut [u32],
) -> Result<(), FastqError> {
    for seq in seqs {
        let seq = seq?;
        if k <= 32 {
            for_each_canonical_kmer::<Kmer64>(seq, k, |v, _| {
                hist[space.bin_of(Kmer64::repr_to_u128(v)) as usize] += 1;
                if let Some(s) = sketch.as_deref_mut() {
                    s.push(v);
                }
            });
        } else {
            for_each_canonical_kmer::<Kmer128>(seq, k, |v, _| {
                hist[space.bin_of(v) as usize] += 1;
                if let Some(s) = sketch.as_deref_mut() {
                    s.push(fold_kmer_key(v));
                }
            });
        }
    }
    Ok(())
}

/// Keys a [`Sketcher`] gathers before it adds them to its sketch: long
/// runs of updates with no call per key, in a buffer (32 KiB) that stays
/// cached while the sketch takes it.
const SKETCH_BATCH: usize = 4096;

/// Bytes of worker sketches a sketched IndexCreate holds at once. Each
/// share of the scan feeds a full-size sketch of its own, so the scan runs
/// on no more shares than fit, and on one when a single sketch is larger:
/// the default 1 MiB sketch still gets 16 workers, while a sketch sized to
/// a whole dataset is built by one sequential scan, not copied per worker.
const SKETCH_BUDGET: usize = 16 << 20;

/// An IndexCreate worker's presolve sketch and the keys it has gathered
/// but not yet added: [`hist`] pushes every key, and the sketch takes
/// them [`SKETCH_BATCH`] at a time through `CountMinSketch::add_batch`,
/// which ends where one `add` per key would.
struct Sketcher {
    sketch: CountMinSketch,
    keys: Vec<u64>,
}

impl Sketcher {
    fn new(params: SketchParams) -> Self {
        Self {
            sketch: params.build(),
            keys: Vec::with_capacity(SKETCH_BATCH),
        }
    }

    #[inline]
    fn push(&mut self, key: u64) {
        self.keys.push(key);
        if self.keys.len() == SKETCH_BATCH {
            self.sketch.add_batch(&self.keys);
            self.keys.clear();
        }
    }

    /// The sketch with every pushed key added.
    fn finish(mut self) -> CountMinSketch {
        self.sketch.add_batch(&self.keys);
        self.sketch
    }
}

/// Shift a malformed-record number so a chunk walk, which numbers its
/// records from 1 before the records ahead of it are counted, reports the
/// file-global one. (Its byte offset is file-global already.)
fn offset_record(e: FastqError, by: u64) -> FastqError {
    match e {
        FastqError::Malformed {
            record,
            byte_offset,
            what,
        } => FastqError::Malformed {
            record: record + by as usize,
            byte_offset,
            what,
        },
        other => other,
    }
}

fn fit_u32(v: u64, what: &str) -> Result<u32, FastqError> {
    u32::try_from(v).map_err(|_| FastqError::Limit(format!("{what} {v} exceeds the u32 id space")))
}

/// Assemble the final tables from per-chunk `(spec, hist)` rows: the global
/// merHist is the bin-wise sum of the chunk histograms, so the two tables
/// are consistent by construction. A sum past `u32::MAX` is an error, not
/// a wrapped or clamped count: the plans size buffers from these counts.
fn assemble(
    space: MmerSpace,
    rows: Vec<(ChunkSpec, Vec<u32>)>,
) -> Result<(MerHist, FastqPart, u64), FastqError> {
    let mut global = vec![0u32; space.bins()];
    let mut chunks = Vec::with_capacity(rows.len());
    let mut total_seqs = 0u64;
    for (spec, hist) in rows {
        for (bin, (g, &h)) in global.iter_mut().zip(&hist).enumerate() {
            *g = g.checked_add(h).ok_or_else(|| {
                FastqError::Limit(format!("m-mer bin {bin} exceeds the u32 count space"))
            })?;
        }
        total_seqs += spec.seqs as u64;
        chunks.push(ChunkRecord { spec, hist });
    }
    Ok((
        MerHist::from_parts(space, global),
        FastqPart::from_parts(space, chunks),
        total_seqs,
    ))
}

/// [`index_fastq_bytes`] over `store` written as FASTQ, paired as the
/// store's layout says (`ReadStore::paired`): the tables a pipeline run
/// over the same reads builds. Panics on a store that mixes mate pairs
/// with single reads, which no FASTQ file holds, and on an m-mer bin past
/// the u32 count space, which no plan can be built from.
pub(crate) fn index_as_fastq(
    store: &ReadStore,
    c: usize,
    k: usize,
    m: usize,
) -> (MerHist, FastqPart) {
    let paired = store.paired().unwrap_or_else(|i| {
        panic!("sequence {i} mixes mate pairs with single reads; no FASTQ file holds the store")
    });
    let mut bytes = Vec::new();
    // EXPECT: writing into a Vec cannot fail.
    write_fastq(&mut bytes, store).expect("write to memory");
    // EXPECT: `write_fastq` writes well-formed records; what is left is a bin past the u32 count space.
    let (merhist, fastqpart, _) =
        index_fastq_bytes(&bytes, paired, c, k, m).expect("m-mer bin overflow");
    (merhist, fastqpart)
}

/// IndexCreate over a whole FASTQ file held as bytes — O(file) memory. The
/// differential-testing oracle for the file indexer and the slurp baseline
/// in the bench.
pub fn index_fastq_bytes(
    bytes: &[u8],
    paired: bool,
    c: usize,
    k: usize,
    m: usize,
) -> Result<(MerHist, FastqPart, u64), FastqError> {
    let specs = metaprep_io::chunk_fastq_bytes(bytes, c, paired)?;
    let space = MmerSpace::new(k, m);
    let mut rows = Vec::with_capacity(specs.len());
    for spec in specs {
        let lo = spec.offset as usize;
        let records = record_views(
            &bytes[lo..lo + spec.bytes as usize],
            spec.first_seq as usize,
            spec.offset,
        );
        let mut row = vec![0; space.bins()];
        hist(records.map(|r| r.map(|r| r.seq)), space, k, None, &mut row)?;
        rows.push((spec, row));
    }
    assemble(space, rows)
}

fn pool_of(threads: usize) -> rayon::ThreadPool {
    let n = if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        // EXPECT: pool build fails only when the OS cannot spawn threads, unrecoverable for the streaming planner.
        .expect("vendored rayon pool build cannot fail")
}

/// A chunk to histogram: a byte range, and for paired input the record
/// count pass A walked in it.
struct StreamChunk {
    offset: u64,
    bytes: u64,
    seqs: u64,
}

/// What pass A learns from walking one tentative range of a paired file:
/// its record count, and where its second and its last record start.
struct RangeWalk {
    records: u64,
    second: u64,
    last: u64,
}

/// Pass A of a paired file: walk every tentative range in parallel, then,
/// in file order, move each boundary that has an odd number of records
/// before it to the start of its range's second record (to the range's end
/// when it holds one record), so every chunk holds whole mate pairs. A
/// malformed record, bytes before the first record start included, is
/// reported by the walk that meets it, with its file-global number: walks
/// number a range's records from 1 (only this stitch knows the records
/// before the range), and offsets are file-global.
fn pair_chunks(
    path: &Path,
    walker: &RecordWalker,
    ranges: &[(u64, u64)],
    pool: &rayon::ThreadPool,
) -> Result<Vec<StreamChunk>, FastqError> {
    let walks: Vec<Result<RangeWalk, FastqError>> = pool.install(|| {
        ranges
            .par_iter()
            .map(|&(lo, hi)| {
                let mut w = RangeWalk {
                    records: 0,
                    second: hi,
                    last: lo,
                };
                walker.walk(path, (lo, hi), 0, |views| {
                    for view in views {
                        if w.records == 1 {
                            w.second = view.offset;
                        }
                        w.last = view.offset;
                        w.records += 1;
                    }
                    Ok(())
                })?;
                Ok(w)
            })
            .collect()
    });
    // (records before, byte) of every boundary; range 0 starts at byte 0.
    let mut bounds = vec![(0u64, 0u64)];
    let (mut total, mut last) = (0u64, 0u64);
    for (&(lo, _), walk) in ranges.iter().zip(walks) {
        let walk = walk.map_err(|e| offset_record(e, total))?;
        let bound = if total.is_multiple_of(2) {
            (total, lo)
        } else {
            (total + 1, walk.second)
        };
        // EXPECT: `bounds` is seeded before the loop and only ever pushed to.
        if bound.0 > bounds.last().expect("nonempty").0 {
            bounds.push(bound);
        }
        if walk.records > 0 {
            last = walk.last;
        }
        total += walk.records;
    }
    if !total.is_multiple_of(2) {
        return Err(FastqError::odd_paired(total as usize, last));
    }
    let len = ranges.last().map_or(0, |r| r.1);
    bounds.push((total, len));
    Ok(bounds
        .windows(2)
        .filter(|w| w[0].0 < w[1].0)
        .map(|w| StreamChunk {
            offset: w[0].1,
            bytes: w[1].1 - w[0].1,
            seqs: w[1].0 - w[0].0,
        })
        .collect())
}

/// One chunk's record count and m-mer histogram, or why it is malformed —
/// with a *chunk-local* record number: an unpaired chunk's first record id
/// is only known once every chunk before it has been counted, so the
/// sequential stitch shifts the number to a file-global one.
type ChunkRow = Result<(u64, Vec<u32>), FastqError>;

/// Walk + histogram one chunk where it lies, window by window — names and
/// qualities are checked by the walker and otherwise untouched; no
/// `ReadStore` is built. The walk is also the chunk's record count.
fn chunk_hist(
    path: &Path,
    walker: &RecordWalker,
    ch: &StreamChunk,
    space: MmerSpace,
    k: usize,
    mut sketch: Option<&mut Sketcher>,
) -> ChunkRow {
    let mut row = vec![0; space.bins()];
    let n = walker.walk(path, (ch.offset, ch.offset + ch.bytes), 0, |views| {
        let seqs = views.iter().map(|v| Ok(v.seq));
        hist(seqs, space, k, sketch.as_deref_mut(), &mut row)
    })?;
    Ok((n, row))
}

/// Shares of a scan of `chunks` chunks on `workers` threads: one per
/// worker and at least one chunk each, and with a sketch no more than
/// [`SKETCH_BUDGET`] holds (one at least).
fn share_count(workers: usize, chunks: usize, params: Option<SketchParams>) -> usize {
    let fit = params.map_or(usize::MAX, |p| SKETCH_BUDGET / p.memory_bytes().max(1));
    workers.min(fit).clamp(1, chunks.max(1))
}

/// Histogram every chunk on the pool (the KmerGen-style fan-out of
/// IndexCreate), fused with the presolve frequency sketch when `params`
/// asks for one; rows come back in chunk order. Chunks are dealt
/// round-robin into one share per pool worker, and each worker scans its
/// share sequentially (the vendored rayon gives each thread one contiguous
/// part of a parallel call, here one share). With a sketch, each share
/// feeds its own (conservative updates need exclusive counters and do not
/// merge independently of order), and the worker sketches are folded into
/// the first one; the share count is then capped at the sketches that fit
/// [`SKETCH_BUDGET`]. The share count comes from the pool's configured
/// thread count and the sketch's shape, so for an explicitly-sized pool the
/// merged sketch is a pure function of the input, the thread *setting* and
/// the sketch parameters, not of scheduling.
fn par_histogram(
    path: &Path,
    walker: &RecordWalker,
    chunks: &[StreamChunk],
    space: MmerSpace,
    k: usize,
    pool: &rayon::ThreadPool,
    params: Option<SketchParams>,
) -> (Vec<ChunkRow>, Option<CountMinSketch>) {
    let n_shares = share_count(pool.current_num_threads(), chunks.len(), params);
    let shares: Vec<Vec<usize>> = (0..n_shares)
        .map(|w| (w..chunks.len()).step_by(n_shares).collect())
        .collect();
    let results: Vec<(Vec<ChunkRow>, Option<CountMinSketch>)> = pool.install(|| {
        shares
            .par_iter()
            .map(|idxs| {
                let mut sketch = params.map(Sketcher::new);
                let rows = idxs
                    .iter()
                    .map(|&i| chunk_hist(path, walker, &chunks[i], space, k, sketch.as_mut()))
                    .collect();
                (rows, sketch.map(Sketcher::finish))
            })
            .collect()
    });
    let mut merged: Option<CountMinSketch> = None;
    let mut rows: Vec<Option<ChunkRow>> = chunks.iter().map(|_| None).collect();
    for (idxs, (share_rows, sketch)) in shares.iter().zip(results) {
        // The first worker's sketch is the accumulator and each later one
        // is freed once folded in. Saturating counter addition is
        // associative and commutative, so the fold order cannot change the
        // merged sketch.
        if let Some(s) = sketch {
            match merged.as_mut() {
                Some(m) => m.merge(&s),
                None => merged = Some(s),
            }
        }
        for (&i, row) in idxs.iter().zip(share_rows) {
            rows[i] = Some(row);
        }
    }
    let rows = rows
        .into_iter()
        .map(|r| {
            // UNWRAP: the shares above cover every chunk index exactly once.
            r.unwrap()
        })
        .collect();
    (rows, merged)
}

/// Streaming, thread-parallel IndexCreate over a FASTQ file. Produces the
/// same `(MerHist, FastqPart, total_seqs)` as [`index_fastq_bytes`] on the
/// file's contents, with peak memory O(threads × window + histograms).
pub fn index_fastq_file_streaming(
    path: impl AsRef<Path>,
    paired: bool,
    c: usize,
    k: usize,
    m: usize,
    opts: StreamingOptions,
) -> Result<(MerHist, FastqPart, u64), FastqError> {
    let rec = MemRecorder::off();
    let (mh, fp, total, _) =
        index_fastq_file_streaming_sketched_recorded(path, paired, c, k, m, opts, None, rec)?;
    Ok((mh, fp, total))
}

/// [`index_fastq_file_streaming`] in full: telemetry, and optionally the
/// presolve count-min sketch built during the same parallel histogram
/// fan-out (`sketch_params = Some(..)`) and returned alongside the tables,
/// which are byte-identical whether or not sketching is on.
///
/// The chunk-boundary scan and the fan-out become sub-spans
/// (`index-chunking`, `index-histogram`, attributed to task 0 — IndexCreate
/// runs on the driver thread before the cluster exists, so events go
/// through the recorder's driver-side API), and the number of records
/// streamed lands in the [`CounterKind::ChunkRecordsStreamed`] counter.
#[allow(clippy::too_many_arguments)]
pub fn index_fastq_file_streaming_sketched_recorded(
    path: impl AsRef<Path>,
    paired: bool,
    c: usize,
    k: usize,
    m: usize,
    opts: StreamingOptions,
    sketch_params: Option<SketchParams>,
    rec: &MemRecorder,
) -> Result<(MerHist, FastqPart, u64, Option<CountMinSketch>), FastqError> {
    let path = path.as_ref();
    let space = MmerSpace::new(k, m);
    let clock = rec.clock();
    let mut chunker = StreamChunker::open(path, opts.window)?;
    let pool = pool_of(opts.threads);

    let t0 = clock.now_ns();
    let ranges = chunker.ranges(c)?;
    drop(chunker);
    // One window per worker, kept from pass A for the histogram walk.
    let walker = RecordWalker::new(WALK_WINDOW);
    let chunks = if paired {
        pair_chunks(path, &walker, &ranges, &pool)?
    } else {
        // The histogram walk counts an unpaired chunk's records.
        ranges
            .iter()
            .map(|&(lo, hi)| StreamChunk {
                offset: lo,
                bytes: hi - lo,
                seqs: 0,
            })
            .collect()
    };
    rec.record_driver_span("index-chunking", t0, clock.now_ns());

    let t0 = clock.now_ns();
    let (per_chunk, sketch) = par_histogram(path, &walker, &chunks, space, k, &pool, sketch_params);
    rec.record_driver_span("index-histogram", t0, clock.now_ns());

    // Sequential stitch: prefix-sum first_seq, report the first malformed
    // chunk in file order with a file-global record number, and narrow to
    // the u32 id space used by `ChunkSpec`. A range holding only blank lines
    // (the head of a file, before its first record) gives its bytes to the
    // next chunk, as the in-memory chunker does.
    let mut rows = Vec::with_capacity(chunks.len());
    let (mut first, mut lo) = (0u64, 0u64);
    for (ch, row) in chunks.iter().zip(per_chunk) {
        let (n, hist) = row.map_err(|e| offset_record(e, first))?;
        if paired && n != ch.seqs {
            return Err(FastqError::Malformed {
                record: first as usize + 1,
                byte_offset: ch.offset,
                what: format!(
                    "input changed while indexing: chunk holds {n} records, pass A counted {}",
                    ch.seqs
                ),
            });
        }
        if n == 0 {
            continue;
        }
        let hi = ch.offset + ch.bytes;
        let spec = ChunkSpec {
            offset: lo,
            bytes: hi - lo,
            first_seq: fit_u32(first, "first sequence id")?,
            seqs: fit_u32(n, "chunk record count")?,
        };
        (first, lo) = (first + n, hi);
        rows.push((spec, hist));
    }
    fit_u32(first, "total sequence count")?;
    let (merhist, fastqpart, total_seqs) = assemble(space, rows)?;
    rec.record_counter(0, CounterKind::ChunkRecordsStreamed, total_seqs);
    Ok((merhist, fastqpart, total_seqs, sketch))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store(n: usize) -> ReadStore {
        let mut s = ReadStore::new();
        let mut x = 7u64;
        for _ in 0..n {
            let seq: Vec<u8> = (0..30 + (x % 25) as usize)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                    b"ACGT"[(x >> 61) as usize & 3]
                })
                .collect();
            s.push_single(&seq);
        }
        s
    }

    fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("metaprep_index_streaming_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn streaming_matches_reference_unpaired() {
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &sample_store(37)).unwrap();
        let path = write_temp("unpaired.fastq", &bytes);
        for c in [1, 3, 8] {
            let want = index_fastq_bytes(&bytes, false, c, 11, 4).unwrap();
            for (window, threads) in [(17, 1), (64, 3), (0, 0)] {
                let got = index_fastq_file_streaming(
                    &path,
                    false,
                    c,
                    11,
                    4,
                    StreamingOptions { window, threads },
                )
                .unwrap();
                assert_eq!(got.0, want.0, "merhist c={c} window={window}");
                assert_eq!(got.1, want.1, "fastqpart c={c} window={window}");
                assert_eq!(got.2, want.2, "total c={c} window={window}");
            }
        }
    }

    #[test]
    fn streaming_matches_reference_paired() {
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &sample_store(24)).unwrap();
        let path = write_temp("paired.fastq", &bytes);
        for c in [1, 2, 5, 9] {
            let want = index_fastq_bytes(&bytes, true, c, 11, 4).unwrap();
            let got = index_fastq_file_streaming(
                &path,
                true,
                c,
                11,
                4,
                StreamingOptions {
                    window: 19,
                    threads: 2,
                },
            )
            .unwrap();
            assert_eq!(got.0, want.0, "merhist c={c}");
            assert_eq!(got.1, want.1, "fastqpart c={c}");
            assert_eq!(got.2, want.2, "total c={c}");
        }
    }

    #[test]
    fn a_head_of_blank_lines_joins_chunk_zero() {
        // Targets inside the blank head all cut at the first record, so
        // range 0 holds no record: its bytes go to the chunk after it.
        let mut bytes = vec![b'\n'; 200];
        write_fastq(&mut bytes, &sample_store(6)).unwrap();
        let path = write_temp("blank_head.fastq", &bytes);
        for paired in [false, true] {
            let want = index_fastq_bytes(&bytes, paired, 8, 11, 4).unwrap();
            let got =
                index_fastq_file_streaming(&path, paired, 8, 11, 4, StreamingOptions::default())
                    .unwrap();
            assert_eq!(got.1, want.1, "paired={paired}");
            assert_eq!(got.1.chunks()[0].spec.offset, 0, "paired={paired}");
            assert!(got.1.chunks()[0].spec.seqs > 0, "paired={paired}");
        }
    }

    #[test]
    fn sketched_streaming_matches_unsketched_tables() {
        let store = sample_store(31);
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &store).unwrap();
        let path = write_temp("sketched.fastq", &bytes);
        let params = SketchParams {
            width: 1 << 12,
            depth: 3,
            seed: 21,
        };
        let mut keys = Vec::new();
        for (seq, _) in store.iter() {
            for_each_canonical_kmer::<Kmer64>(seq, 11, |v, _| keys.push(v));
        }
        for threads in [1, 2, 3] {
            let opts = StreamingOptions { window: 0, threads };
            let (mh, fp, total) = index_fastq_file_streaming(&path, false, 6, 11, 4, opts).unwrap();
            let (smh, sfp, stotal, sketch) = index_fastq_file_streaming_sketched_recorded(
                &path,
                false,
                6,
                11,
                4,
                opts,
                Some(params),
                MemRecorder::off(),
            )
            .unwrap();
            assert_eq!(mh, smh, "threads={threads}");
            assert_eq!(fp, sfp, "threads={threads}");
            assert_eq!(total, stotal, "threads={threads}");
            let sketch = sketch.unwrap();
            // The fused sketch is the saturating sum of one conservative
            // sketch per worker share, share `w` fed chunks `w, w +
            // threads, ...` in file order: each built here directly.
            assert_eq!(fp.len(), 6, "every range holds records");
            let mut shares: Vec<CountMinSketch> = (0..threads).map(|_| params.build()).collect();
            for (i, chunk) in fp.chunks().iter().enumerate() {
                let (first, n) = (chunk.spec.first_seq as usize, chunk.spec.seqs as usize);
                for (seq, _) in store.iter().skip(first).take(n) {
                    for_each_canonical_kmer::<Kmer64>(seq, 11, |v, _| shares[i % threads].add(v));
                }
            }
            let mut want = shares.pop().unwrap();
            shares.iter().for_each(|s| want.merge(s));
            let estimates =
                |s: &CountMinSketch| -> Vec<u64> { keys.iter().map(|&v| s.estimate(v)).collect() };
            assert_eq!(estimates(&sketch), estimates(&want), "threads={threads}");
            assert_eq!(
                sketch.fill_ratio_permille(),
                want.fill_ratio_permille(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn sketch_shares_fit_the_budget() {
        let default = Some(SketchParams::default());
        let over = Some(SketchParams {
            width: SKETCH_BUDGET,
            ..SketchParams::default()
        });
        // (workers, chunks, sketch) -> shares
        for (workers, chunks, params, want) in [
            (4, 10, None, 4),
            (32, 64, None, 32),
            (4, 10, default, 4),
            (32, 64, default, 16),
            (4, 3, default, 3),
            (4, 10, over, 1),
            (4, 0, None, 1),
        ] {
            assert_eq!(
                share_count(workers, chunks, params),
                want,
                "{workers} {chunks}"
            );
        }
    }

    #[test]
    fn sketched_file_build_matches_plain_and_counts_kmers() {
        // Small enough that a handful of distinct k-mers registers as a
        // non-zero permille fill ratio.
        let params = SketchParams {
            width: 16,
            depth: 4,
            seed: 3,
        };
        let narrow: [&[u8]; 3] = [b"ACGTACGTACGT", b"ACGTACGTACGT", b"TTTTTTTT"];
        let wide: Vec<u8> = b"ACGT".iter().cycle().take(80).copied().collect();
        for (k, m, seqs) in [(5, 2, &narrow[..]), (35, 2, &[&wide[..], &wide[..]][..])] {
            let mut store = ReadStore::new();
            for seq in seqs {
                store.push_single(seq);
            }
            let mut bytes = Vec::new();
            write_fastq(&mut bytes, &store).unwrap();
            let path = write_temp(&format!("sketched_k{k}.fastq"), &bytes);
            let opts = StreamingOptions {
                window: 0,
                threads: 1,
            };
            let (mh, fp, _, sketch) = index_fastq_file_streaming_sketched_recorded(
                &path,
                false,
                2,
                k,
                m,
                opts,
                Some(params),
                MemRecorder::off(),
            )
            .unwrap();
            assert_eq!(mh, MerHist::build(&store, k, m), "k={k}");
            assert_eq!(fp, FastqPart::build(&store, 2, k, m), "k={k}");
            let sketch = sketch.unwrap();
            assert!(sketch.fill_ratio_permille() > 0, "k={k}");
            if k <= 32 {
                // Narrow path keys by the raw packed value: a k-mer seen
                // twice estimates at least 2.
                let km = Kmer64::from_codes(&[0, 1, 2, 3, 0]); // ACGTA
                assert!(sketch.estimate(km.canonical_value()) >= 2);
            }
        }
    }

    #[test]
    fn assemble_rejects_a_bin_past_the_u32_count_space() {
        let space = MmerSpace::new(4, 1);
        let spec = ChunkSpec {
            offset: 0,
            bytes: 0,
            first_seq: 0,
            seqs: 1,
        };
        let row = |bin0| (spec, vec![bin0, 0, 7, 0]);
        let (merhist, ..) = assemble(space, vec![row(u32::MAX - 1), row(1)]).unwrap();
        assert_eq!(merhist.counts(), [u32::MAX, 0, 14, 0]);
        let err = assemble(space, vec![row(u32::MAX), row(1)]).unwrap_err();
        assert!(matches!(err, FastqError::Limit(_)), "{err:?}");
        let err = err.to_string();
        assert!(
            err.contains("m-mer bin 0 exceeds the u32 count space"),
            "{err}"
        );
        // A limit is not a malformed record: the message names none.
        assert!(!err.contains("record"), "{err}");
    }

    #[test]
    fn streaming_rejects_odd_paired_file() {
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &sample_store(5)).unwrap();
        let path = write_temp("odd.fastq", &bytes);
        let want = metaprep_io::parse_fastq(&bytes[..], true).unwrap_err();
        for c in [1, 2, 4] {
            let err =
                index_fastq_file_streaming(&path, true, c, 11, 4, StreamingOptions::default())
                    .unwrap_err();
            // Named as `parse_fastq` names it: the last record, at its header.
            assert_eq!(err.to_string(), want.to_string(), "c={c}");
        }
    }

    #[test]
    fn streaming_rejects_malformed_file() {
        let mut bytes = Vec::new();
        write_fastq(&mut bytes, &sample_store(12)).unwrap();
        let mut lines: Vec<String> = String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines[6 * 4 + 3].pop(); // record 7's quality line, one byte short
        let bytes = (lines.join("\n") + "\n").into_bytes();
        let path = write_temp("malformed.fastq", &bytes);
        for paired in [false, true] {
            let want = metaprep_io::parse_fastq(&bytes[..], paired).unwrap_err();
            assert!(
                matches!(want, FastqError::Malformed { record: 7, .. }),
                "{want}"
            );
            for c in [1, 3, 8] {
                let opts = StreamingOptions {
                    window: 17,
                    threads: 2,
                };
                let err = index_fastq_file_streaming(&path, paired, c, 11, 4, opts).unwrap_err();
                assert_eq!(err.to_string(), want.to_string(), "paired={paired} c={c}");
            }
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = index_fastq_file_streaming(
            "/nonexistent/reads.fastq",
            false,
            2,
            11,
            4,
            StreamingOptions::default(),
        );
        assert!(matches!(r, Err(FastqError::Io(_))));
    }

    #[test]
    fn empty_file_yields_empty_tables() {
        let path = write_temp("empty.fastq", b"");
        for paired in [false, true] {
            let (mh, fp, total) =
                index_fastq_file_streaming(&path, paired, 4, 11, 4, StreamingOptions::default())
                    .unwrap();
            assert_eq!(mh.total(), 0, "paired={paired}");
            assert!(fp.is_empty(), "paired={paired}");
            assert_eq!(total, 0, "paired={paired}");
        }
    }
}
