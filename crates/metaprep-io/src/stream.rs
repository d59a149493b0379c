//! Streaming (windowed) chunk-boundary discovery for FASTQ files.
//!
//! [`chunk_fastq_bytes`](crate::chunk_fastq_bytes) needs the whole file in
//! memory. For the paper's memory-efficient IndexCreate the chunk table
//! must be computable in O(window) memory instead: the [`StreamChunker`]
//! seeks to each byte target and probes a bounded window with
//! [`find_record_start`], growing the window only when a record straddles
//! it (and fetching only the window's new tail on each growth, so one probe
//! reads each file byte at most once — see
//! [`StreamChunker::probe_bytes_read`]). Its [`ranges`](StreamChunker::ranges)
//! are the in-memory chunker's cuts; `metaprep-index` counts their records
//! with the record walker and rounds paired boundaries, and a proptest there
//! holds the resulting tables byte-identical to the in-memory ones.
//!
//! Why a verified hit inside a window is a hit for the whole file:
//! `find_record_start` accepts a position only after inspecting bytes that
//! all lie *before* the line-after-next's first byte. If that inspection
//! completes inside the window, the same bytes (and hence the same verdict)
//! exist in the full file. If it runs off the window's end the probe
//! returns `None`, which is final only when the window already reaches EOF;
//! otherwise the caller doubles the window and retries.

use crate::chunk::find_record_start;
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

    /// Chunk byte ranges for `c` chunks: the first starts at byte 0, and
    /// every later one at the first record start at or after byte
    /// `j·len/c` (skipped when it does not move past the one before) —
    /// `chunk_fastq_bytes`' cut, before any pair rounding. A range is only
    /// tentative for paired input: which boundaries move to the next record
    /// is known once each range's records are counted.
    pub fn ranges(&mut self, c: usize) -> io::Result<Vec<(u64, u64)>> {
        assert!(c >= 1);
        let mut bounds = vec![0u64];
        for j in 1..c as u64 {
            match self.find_record_start_at(j * self.len / c as u64)? {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::chunk_fastq_bytes;
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
    fn ranges_are_the_in_memory_chunker_cuts() {
        // Unpaired, the in-memory chunker's table is the ranges themselves.
        let data = sample_bytes(30);
        let path = write_temp("unpaired.fastq", &data);
        for c in [1, 2, 3, 7, 13, 40] {
            let specs = chunk_fastq_bytes(&data, c, false).unwrap();
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
