//! Streaming (windowed) chunk-boundary discovery for FASTQ files.
//!
//! [`chunk_fastq_bytes`](crate::chunk_fastq_bytes) and
//! [`chunk_fastq_bytes_paired`](crate::chunk_fastq_bytes_paired) need the
//! whole file in memory. For the paper's memory-efficient IndexCreate the
//! chunk table must be computable in O(window) memory instead: the
//! [`StreamChunker`] seeks to each byte target and probes a bounded window
//! with [`find_record_start`], growing the window only when a record
//! straddles it (and fetching only the window's new tail on each growth,
//! so one probe reads each file byte at most once — see
//! [`StreamChunker::probe_bytes_read`]). The boundaries it finds are
//! byte-identical to the
//! in-memory chunkers' (property-tested in `metaprep-index`), so switching
//! a pipeline between the two paths changes memory, not results.
//!
//! Why a verified hit inside a window is a hit for the whole file:
//! `find_record_start` accepts a position only after inspecting bytes that
//! all lie *before* the line-after-next's first byte. If that inspection
//! completes inside the window, the same bytes (and hence the same verdict)
//! exist in the full file. If it runs off the window's end the probe
//! returns `None`, which is final only when the window already reaches EOF;
//! otherwise the caller doubles the window and retries.

use crate::chunk::find_record_start;
use crate::parse::FastqError;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

/// Default probe/read window in bytes for streaming IndexCreate. A window
/// only needs to span a few FASTQ records (a record is typically a few
/// hundred bytes), so 64 KiB leaves two orders of magnitude of headroom
/// while keeping per-thread memory trivial.
pub const DEFAULT_INDEX_WINDOW: usize = 64 * 1024;

/// Smallest window the chunker will probe with. Below this the doubling
/// loop just wastes syscalls.
const MIN_WINDOW: usize = 16;

/// One pair-aligned chunk resolved by [`StreamChunker::resolve_paired`]:
/// a byte range plus its record-index range.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StreamChunk {
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Size of the chunk in bytes.
    pub bytes: u64,
    /// Global index of the first record in the chunk.
    pub first_seq: u64,
    /// Number of records in the chunk.
    pub seqs: u64,
}

/// Windowed record-boundary finder over an open FASTQ file.
pub struct StreamChunker {
    file: File,
    len: u64,
    window: usize,
    buf: Vec<u8>,
    /// Total bytes fetched by [`Self::find_record_start_at`] probes. A
    /// probe that doubles its window extends the buffer with only the new
    /// tail, so one probe reads each file byte at most once; this counter
    /// is how the regression test pins that bound.
    probe_bytes: u64,
}

impl StreamChunker {
    /// Open `path` with the given probe window (`0` = [`DEFAULT_INDEX_WINDOW`]).
    pub fn open(path: impl AsRef<Path>, window: usize) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let window = if window == 0 {
            DEFAULT_INDEX_WINDOW
        } else {
            window.max(MIN_WINDOW)
        };
        Ok(Self {
            file,
            len,
            window,
            buf: Vec::new(),
            probe_bytes: 0,
        })
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Read the byte range `[lo, hi)` of `file` into `out`, replacing its
    /// contents but reusing its capacity (the buffer-recycling primitive of
    /// the streaming indexer).
    pub fn read_range_into(file: &mut File, lo: u64, hi: u64, out: &mut Vec<u8>) -> io::Result<()> {
        debug_assert!(lo <= hi);
        // No `clear` first: `read_exact` overwrites every byte, so only a
        // buffer that has to grow gets (its new tail) zero-filled.
        out.resize((hi - lo) as usize, 0);
        file.seek(SeekFrom::Start(lo))?;
        file.read_exact(out)?;
        Ok(())
    }

    /// Read the byte range `[lo, hi)` of this chunker's file into `out`.
    pub fn read_range(&mut self, lo: u64, hi: u64, out: &mut Vec<u8>) -> io::Result<()> {
        Self::read_range_into(&mut self.file, lo, hi, out)
    }

    /// Append the byte range `[lo, hi)` of `file` to `out`, growing it in
    /// place — the window-doubling primitive: already-read bytes stay put
    /// and only the new tail touches the disk.
    fn append_range(file: &mut File, lo: u64, hi: u64, out: &mut Vec<u8>) -> io::Result<()> {
        debug_assert!(lo <= hi);
        let old = out.len();
        out.resize(old + (hi - lo) as usize, 0);
        file.seek(SeekFrom::Start(lo))?;
        file.read_exact(&mut out[old..])
    }

    /// Total bytes [`Self::find_record_start_at`] has fetched from disk.
    pub fn probe_bytes_read(&self) -> u64 {
        self.probe_bytes
    }

    /// First record start at or after byte `pos`, probing bounded windows.
    /// Returns exactly what `find_record_start(&whole_file, pos)` would,
    /// without ever holding more than the current window in memory.
    pub fn find_record_start_at(&mut self, pos: u64) -> io::Result<Option<u64>> {
        if pos >= self.len {
            return Ok(None);
        }
        // find_record_start(data, pos) first rewinds to the line start at
        // or after `pos`, which inspects data[pos - 1]; keep that byte in
        // the window so relative and absolute probing agree.
        let base = pos.saturating_sub(1);
        let rel = (pos - base) as usize;
        let mut hi = (base + self.window as u64).min(self.len);
        Self::read_range_into(&mut self.file, base, hi, &mut self.buf)?;
        self.probe_bytes += hi - base;
        loop {
            match find_record_start(&self.buf, rel) {
                Some(r) => return Ok(Some(base + r as u64)),
                // A miss is final only when the window reaches EOF;
                // otherwise the probe may have been cut mid-record.
                None if hi == self.len => return Ok(None),
                None => {
                    // Double the window, fetching only the new tail. The
                    // bytes already in `buf` are immutable file contents;
                    // re-reading them from `base` (as this loop once did)
                    // cost O(w log w) byte traffic plus a long seek per
                    // doubling whenever a record straddled the window.
                    let new_hi = (base + (hi - base).saturating_mul(2)).min(self.len);
                    Self::append_range(&mut self.file, hi, new_hi, &mut self.buf)?;
                    self.probe_bytes += new_hi - hi;
                    hi = new_hi;
                }
            }
        }
    }

    /// Unpaired chunk byte ranges, replicating `chunk_fastq_bytes`' target
    /// arithmetic (`want = i * (len / c)`, dedup on strictly-increasing
    /// starts) so both paths produce identical `ChunkSpec` tables.
    pub fn ranges(&mut self, c: usize) -> io::Result<Vec<(u64, u64)>> {
        assert!(c >= 1);
        let mut bounds = vec![0u64];
        let target = self.len / c as u64;
        for i in 1..c as u64 {
            let want = i * target;
            match self.find_record_start_at(want)? {
                // EXPECT: `bounds` is seeded with 0 above and only ever pushed to.
                Some(s) if s > *bounds.last().expect("nonempty") => bounds.push(s),
                _ => {}
            }
        }
        bounds.push(self.len);
        Ok(bounds
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| (w[0], w[1]))
            .collect())
    }

    /// Tentative paired boundaries: the first record start at or after each
    /// byte target `j * len / c` (the paired chunker's rounding, which
    /// differs from the unpaired `i * (len / c)`). Record-index parity is
    /// not yet known at this point, so a boundary may split a mate pair;
    /// [`Self::resolve_paired`] fixes that up once per-range record counts
    /// are available.
    pub fn tentative_ranges_paired(&mut self, c: usize) -> io::Result<Vec<(u64, u64)>> {
        assert!(c >= 1);
        let Some(first) = self.find_record_start_at(0)? else {
            return Ok(Vec::new());
        };
        let mut bounds = vec![first];
        for j in 1..c as u64 {
            let target = j * self.len / c as u64;
            match self.find_record_start_at(target)? {
                // EXPECT: `bounds` is seeded with `first` above and only ever pushed to.
                Some(s) if s > *bounds.last().expect("nonempty") => bounds.push(s),
                _ => {}
            }
        }
        bounds.push(self.len);
        Ok(bounds
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| (w[0], w[1]))
            .collect())
    }

    /// Turn tentative paired ranges plus their record counts into whole-pair
    /// chunks, replaying `chunk_fastq_bytes_paired`'s round-to-even + dedup
    /// at the record-index level: a boundary with an odd number of records
    /// before it moves one record to the right (found by probing past the
    /// tentative byte), exactly as `idx += idx % 2` does on the in-memory
    /// record-start array.
    pub fn resolve_paired(
        &mut self,
        ranges: &[(u64, u64)],
        counts: &[u64],
    ) -> Result<Vec<StreamChunk>, FastqError> {
        assert_eq!(ranges.len(), counts.len());
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Ok(Vec::new());
        }
        if !total.is_multiple_of(2) {
            return Err(FastqError::Malformed {
                record: total as usize,
                what: "paired FASTQ must hold an even record count".into(),
            });
        }
        // Record-index bounds with their byte positions. ranges[0].0 is the
        // first record start (record index 0).
        let mut bounds: Vec<(u64, u64)> = vec![(0, ranges[0].0)];
        let mut cumulative = 0u64;
        for (i, &(lo, _)) in ranges.iter().enumerate().skip(1) {
            cumulative += counts[i - 1];
            let (mut r, mut byte) = (cumulative, lo);
            if r % 2 == 1 {
                // Round up to even: the boundary becomes the start of the
                // record *after* the one starting at `lo`.
                r += 1;
                byte = match self.find_record_start_at(lo + 1) {
                    Ok(Some(b)) => b,
                    // No further record start: the rounded boundary is EOF
                    // (r == total, matching the in-memory hi_byte rule).
                    Ok(None) => self.len,
                    Err(e) => return Err(e.into()),
                };
            }
            let r = r.min(total);
            // EXPECT: `bounds` is seeded before the loop and only ever pushed to.
            if r > bounds.last().expect("nonempty").0 {
                bounds.push((r, byte));
            }
        }
        bounds.push((total, self.len));

        Ok(bounds
            .windows(2)
            .filter(|w| w[0].0 < w[1].0)
            .map(|w| StreamChunk {
                offset: w[0].1,
                bytes: w[1].1 - w[0].1,
                first_seq: w[0].0,
                seqs: w[1].0 - w[0].0,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{chunk_fastq_bytes, chunk_fastq_bytes_paired, count_record_starts};
    use crate::store::ReadStore;
    use crate::write::write_fastq;

    fn sample_bytes(n: usize) -> Vec<u8> {
        let mut s = ReadStore::new();
        for i in 0..n {
            let seq: Vec<u8> = b"ACGTTGCA"
                .iter()
                .cycle()
                .skip(i % 8)
                .take(20 + (i % 9) * 4)
                .copied()
                .collect();
            s.push_single(&seq);
        }
        let mut buf = Vec::new();
        write_fastq(&mut buf, &s).unwrap();
        buf
    }

    fn write_temp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("metaprep_io_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn windowed_probe_matches_in_memory_probe() {
        let data = sample_bytes(12);
        let path = write_temp("probe.fastq", &data);
        // Tiny windows force the doubling path; big ones the direct path.
        for window in [16, 23, 64, 4096] {
            let mut ch = StreamChunker::open(&path, window).unwrap();
            for pos in 0..=data.len() as u64 + 2 {
                let want = find_record_start(&data, pos as usize).map(|s| s as u64);
                let got = ch.find_record_start_at(pos).unwrap();
                assert_eq!(got, want, "pos={pos} window={window}");
            }
        }
    }

    #[test]
    fn unpaired_ranges_match_in_memory_chunker() {
        let data = sample_bytes(30);
        let path = write_temp("unpaired.fastq", &data);
        for c in [1, 2, 3, 7, 13, 40] {
            let specs = chunk_fastq_bytes(&data, c).unwrap();
            let mut ch = StreamChunker::open(&path, 17).unwrap();
            let ranges = ch.ranges(c).unwrap();
            let want: Vec<(u64, u64)> = specs
                .iter()
                .map(|s| (s.offset, s.offset + s.bytes))
                .collect();
            assert_eq!(ranges, want, "c={c}");
        }
    }

    #[test]
    fn paired_resolution_matches_in_memory_chunker() {
        let data = sample_bytes(26);
        let path = write_temp("paired.fastq", &data);
        for c in [1, 2, 3, 5, 9, 30] {
            let specs = chunk_fastq_bytes_paired(&data, c).unwrap();
            let mut ch = StreamChunker::open(&path, 19).unwrap();
            let ranges = ch.tentative_ranges_paired(c).unwrap();
            let counts: Vec<u64> = ranges
                .iter()
                .map(|&(lo, hi)| count_record_starts(&data[lo as usize..hi as usize]))
                .collect();
            let chunks = ch.resolve_paired(&ranges, &counts).unwrap();
            assert_eq!(chunks.len(), specs.len(), "c={c}");
            for (got, want) in chunks.iter().zip(&specs) {
                assert_eq!(got.offset, want.offset, "c={c}");
                assert_eq!(got.bytes, want.bytes, "c={c}");
                assert_eq!(got.first_seq, want.first_seq as u64, "c={c}");
                assert_eq!(got.seqs, want.seqs as u64, "c={c}");
            }
        }
    }

    #[test]
    fn paired_odd_count_is_error() {
        let data = sample_bytes(5);
        let path = write_temp("odd.fastq", &data);
        let mut ch = StreamChunker::open(&path, 64).unwrap();
        let ranges = ch.tentative_ranges_paired(2).unwrap();
        let counts: Vec<u64> = ranges
            .iter()
            .map(|&(lo, hi)| count_record_starts(&data[lo as usize..hi as usize]))
            .collect();
        assert!(matches!(
            ch.resolve_paired(&ranges, &counts),
            Err(FastqError::Malformed { .. })
        ));
    }

    #[test]
    fn window_growth_fetches_each_byte_at_most_once() {
        // One oversized record (~1 KiB quality/sequence lines) behind a
        // 16-byte probe window: the probe must double several times. With
        // the old read-from-base loop the byte traffic was
        // 16 + 32 + ... + len ≈ 2×len per probe; tail-extension fetches
        // every byte at most once, so a single probe is bounded by len.
        let seq: Vec<u8> = b"ACGT".iter().cycle().take(1024).copied().collect();
        let mut s = ReadStore::new();
        s.push_single(&seq);
        s.push_single(b"ACGTACGT");
        let mut data = Vec::new();
        write_fastq(&mut data, &s).unwrap();
        let path = write_temp("big_record.fastq", &data);

        let mut ch = StreamChunker::open(&path, 16).unwrap();
        let got = ch.find_record_start_at(1).unwrap();
        let want = find_record_start(&data, 1).map(|s| s as u64);
        assert_eq!(got, want);
        assert!(
            ch.probe_bytes_read() <= data.len() as u64,
            "probe fetched {} bytes of a {}-byte file (tail-extension \
             must read each byte at most once)",
            ch.probe_bytes_read(),
            data.len()
        );
    }

    #[test]
    fn empty_file_yields_no_ranges() {
        let path = write_temp("empty.fastq", b"");
        let mut ch = StreamChunker::open(&path, 64).unwrap();
        assert!(ch.ranges(4).unwrap().is_empty());
        assert!(ch.tentative_ranges_paired(4).unwrap().is_empty());
    }

    #[test]
    fn read_range_recycles_buffer() {
        let data = sample_bytes(4);
        let path = write_temp("range.fastq", &data);
        let mut ch = StreamChunker::open(&path, 64).unwrap();
        let mut buf = Vec::new();
        ch.read_range(0, 10, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..10]);
        let cap = buf.capacity();
        ch.read_range(2, 8, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[2..8]);
        assert_eq!(buf.capacity(), cap, "buffer must be reused, not regrown");
    }
}
