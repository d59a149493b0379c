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
//!
//! [`RecordWalker`] is the one reader of a byte range of the file: it
//! takes the range's records a window of about [`WALK_WINDOW`] bytes at a
//! time, and needs no probe — it walks whole lines only and carries a
//! record the window cuts short into the next window.

use crate::chunk::find_record_start;
use crate::parse::FastqError;
use crate::view::{record_views, RecordView};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Default probe/read window in bytes for streaming IndexCreate. A window
/// only needs to span a few FASTQ records (a record is typically a few
/// hundred bytes), so 64 KiB leaves two orders of magnitude of headroom
/// while keeping per-thread memory trivial.
pub const DEFAULT_INDEX_WINDOW: usize = 64 * 1024;

/// Smallest window the chunker will probe with. Below this the doubling
/// loop just wastes syscalls.
const MIN_WINDOW: usize = 16;

/// The length of the FASTQ file at `path`, which must be a regular file.
/// Every reader of an input file seeks to byte ranges below a length taken
/// from its metadata, so a pipe or a device would read as an empty input;
/// it is an error that names the path instead.
pub fn input_len(path: &Path) -> io::Result<u64> {
    let meta = std::fs::metadata(path)?;
    if !meta.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{} is not a regular file (input is read by byte range; \
                 write a pipe to a file first)",
                path.display()
            ),
        ));
    }
    Ok(meta.len())
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
    /// `path` must be a regular file ([`input_len`]).
    pub fn open(path: impl AsRef<Path>, window: usize) -> io::Result<Self> {
        let len = input_len(path.as_ref())?;
        let file = File::open(path)?;
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

    /// Read the byte range `[lo, hi)` of `file` into `out`, replacing its
    /// contents but reusing its capacity; it grows to exactly the largest
    /// range read. The bytes land in spare capacity, never zero-filled first.
    fn read_range_into(file: &mut File, lo: u64, hi: u64, out: &mut Vec<u8>) -> io::Result<()> {
        out.clear();
        out.reserve_exact((hi - lo) as usize);
        file.seek(SeekFrom::Start(lo))?;
        file.by_ref().take(hi - lo).read_to_end(out)?;
        if out.len() as u64 != hi - lo {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
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

/// Bytes a [`RecordWalker`] adds to its window at a time.
pub const WALK_WINDOW: u64 = 1 << 20;

/// Walks the records of byte ranges of FASTQ files, one window at a time:
/// IndexCreate's pass A and histogram walk, KmerGen's per-pass chunk loads
/// and the partition writer all read the file through it. It keeps the
/// window buffers of its walks for the next ones, so a walker shared by
/// the workers of a parallel call holds one window per worker.
pub struct RecordWalker {
    window: u64,
    free: Mutex<Vec<Vec<u8>>>,
}

impl RecordWalker {
    /// A walker with windows of about `window` bytes ([`WALK_WINDOW`] in
    /// production).
    pub fn new(window: u64) -> Self {
        let free = Mutex::new(Vec::new());
        let window = window.max(1);
        Self { window, free }
    }

    /// Walk the records of `[lo, hi)`, which starts at a record boundary,
    /// handing `each` the records of one window at a time, in file order;
    /// returns how many there were. Records are numbered from
    /// `first_record + 1` and placed at their file offsets.
    ///
    /// The walk reports what one [`record_views`] walk of the whole range
    /// does: the same records, numbers and offsets, and the same first
    /// error, returned once `each` has had the records before it. The end
    /// of a window moves on `window` bytes at a time and the walk stops at
    /// its last newline, so every line walked is whole; a record a window
    /// cuts short is walked again from its header in the next window, so
    /// an error is reported only for a record that fails with complete
    /// lines or at `hi`. A window spans at most `window` bytes plus the
    /// longest record.
    pub fn walk(
        &self,
        path: &Path,
        (lo, hi): (u64, u64),
        first_record: usize,
        mut each: impl FnMut(&[RecordView<'_>]) -> Result<(), FastqError>,
    ) -> Result<u64, FastqError> {
        // A panic elsewhere leaves the list of free buffers whole.
        let free = || self.free.lock().unwrap_or_else(PoisonError::into_inner);
        let mut buf = free().pop().unwrap_or_default();
        let mut file = File::open(path)?;
        let (mut start, mut end, mut records) = (lo, lo, first_record);
        while start < hi {
            end = (end + self.window).min(hi);
            StreamChunker::read_range_into(&mut file, start, end, &mut buf)?;
            let whole = if end < hi {
                buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
            } else {
                buf.len()
            };
            let mut walk = record_views(&buf[..whole], records, start);
            // The records up to the first error, and the error.
            let mut views = Vec::new();
            let failed = walk.by_ref().find_map(|v| v.map(|v| views.push(v)).err());
            records += views.len();
            each(&views)?;
            match failed {
                Some(FastqError::Malformed { byte_offset, .. }) if walk.ran_out && end < hi => {
                    start = byte_offset;
                }
                Some(e) => return Err(e),
                None => start += whole as u64,
            }
        }
        // Kept for the next walk; a failed walk drops it, as its caller fails.
        free().push(buf);
        Ok((records - first_record) as u64)
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
    fn only_a_regular_file_is_an_input() {
        let bytes = sample_bytes(3);
        let path = write_temp("regular.fastq", &bytes);
        assert_eq!(input_len(&path).unwrap(), bytes.len() as u64);
        let dir = path.parent().unwrap();
        for not_a_file in [dir, Path::new("/dev/null")] {
            let err = StreamChunker::open(not_a_file, 0)
                .err()
                .expect("not a regular file");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            let named = format!("{} is not a regular file", not_a_file.display());
            assert!(err.to_string().starts_with(&named), "{err}");
        }
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
    fn a_walk_holds_one_window_plus_the_longest_record() {
        // ~3 MiB of records, every 97th one 4 kbp long.
        let mut s = ReadStore::new();
        for i in 0..12_000usize {
            let len = if i % 97 == 0 { 4000 } else { 60 + i % 150 };
            let seq: Vec<u8> = b"ACGT"
                .iter()
                .cycle()
                .skip(i % 4)
                .take(len)
                .copied()
                .collect();
            s.push_single(&seq);
        }
        let mut data = Vec::new();
        write_fastq(&mut data, &s).unwrap();
        let longest = record_views(&data, 0, 0)
            .map(|r| r.unwrap())
            .map(|r| r.header.len() + 2 * r.seq.len() + 6)
            .max()
            .unwrap();
        assert!(data.len() as u64 > 3 * WALK_WINDOW, "{} bytes", data.len());
        let path = write_temp("walk_bound.fastq", &data);
        // Then with record 6000's `+` line spoiled: reported where it is.
        let spoiled = record_views(&data, 0, 0).nth(6000).unwrap().unwrap();
        let plus = spoiled.seq.as_ptr() as usize - data.as_ptr() as usize + spoiled.seq.len() + 1;
        let mut bad = data.clone();
        bad[plus] = b'x';
        let bad_path = write_temp("walk_bound_bad.fastq", &bad);
        let whole_err = record_views(&bad, 0, 0).find_map(|r| r.err()).unwrap();
        let ok = (Ok(s.len() as u64), s.len());
        let spoiled_end = plus + longest;
        let cases = [
            (&path, ok, data.len()),
            (&bad_path, (Err(whole_err.to_string()), 6000), spoiled_end),
        ];
        for (path, want, reach) in cases {
            for window in [WALK_WINDOW, 1000] {
                let walker = RecordWalker::new(window);
                let (mut seen, mut windows) = (0, 0);
                let n = walker.walk(path, (0, data.len() as u64), 0, |views| {
                    (seen, windows) = (seen + views.len(), windows + 1);
                    Ok(())
                });
                let ok = n.is_ok();
                assert_eq!((n.map_err(|e| e.to_string()), seen), want);
                // An error ends the walk in the window that completes its
                // record, not at the end of the range.
                let most = reach / window as usize + 2;
                assert!(windows <= most, "window {window}: {windows} windows");
                if ok {
                    let held = walker.free.lock().unwrap()[0].capacity();
                    assert!(
                        held <= window as usize + longest,
                        "window {window}: held {held} bytes, longest record {longest}"
                    );
                }
            }
        }
    }

    #[test]
    fn read_range_recycles_buffer() {
        let data = sample_bytes(4);
        let path = write_temp("range.fastq", &data);
        let mut file = File::open(&path).unwrap();
        let mut buf = Vec::new();
        StreamChunker::read_range_into(&mut file, 0, 10, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[..10]);
        let cap = buf.capacity();
        StreamChunker::read_range_into(&mut file, 2, 8, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[2..8]);
        assert_eq!(buf.capacity(), cap, "buffer must be reused, not regrown");
    }
}
