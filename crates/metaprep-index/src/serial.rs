//! Binary (de)serialization of the index tables.
//!
//! The paper writes `merHist` and `FASTQPart` to disk in a binary format so
//! they are built once per dataset and reused across runs and machines
//! (§3.1, Table 5). The format here is little-endian, versioned, and
//! self-describing enough to validate `(k, m)` on load.

use crate::fastqpart::{ChunkRecord, FastqPart};
use crate::merhist::MerHist;
use metaprep_io::ChunkSpec;
use metaprep_kmer::{Kmer, Kmer128, MmerSpace};
use std::io::{self, Read, Write};
use std::path::Path;

const MERHIST_MAGIC: u32 = 0x4D50_4D48; // "MPMH"
const FASTQPART_MAGIC: u32 = 0x4D50_4650; // "MPFP"
const VERSION: u32 = 1;

/// Deserialization failure.
#[derive(Debug)]
pub enum IndexFormatError {
    /// I/O failure.
    Io(io::Error),
    /// Structural problem in the bytes.
    Corrupt(&'static str),
}

impl std::fmt::Display for IndexFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexFormatError::Io(e) => write!(f, "I/O error: {e}"),
            IndexFormatError::Corrupt(what) => write!(f, "corrupt index file: {what}"),
        }
    }
}

impl std::error::Error for IndexFormatError {}

impl From<io::Error> for IndexFormatError {
    fn from(e: io::Error) -> Self {
        IndexFormatError::Io(e)
    }
}

fn check(cond: bool, what: &'static str) -> Result<(), IndexFormatError> {
    if cond {
        Ok(())
    } else {
        Err(IndexFormatError::Corrupt(what))
    }
}

/// The `(k, m)` of a header, if it names a space [`MmerSpace::new`] accepts
/// with a k a tuple can hold.
fn header_space(k: u32, m: u32) -> Result<MmerSpace, IndexFormatError> {
    let (k, m) = (k as usize, m as usize);
    check((1..=Kmer128::MAX_K).contains(&k), "k out of range")?;
    check((1..=16).contains(&m) && m <= k, "invalid (k, m)")?;
    Ok(MmerSpace::new(k, m))
}

/// Little-endian integers read off the front of a byte slice; running out
/// of bytes is a corrupt file, never a panic.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], IndexFormatError> {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .ok_or(IndexFormatError::Corrupt("truncated"))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, IndexFormatError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, IndexFormatError> {
        self.take().map(u64::from_le_bytes)
    }
}

/// Serialize a [`MerHist`] into bytes.
pub fn merhist_to_bytes(h: &MerHist) -> Vec<u8> {
    let sp = h.space();
    let mut buf = Vec::with_capacity(24 + 4 * h.counts().len());
    buf.extend_from_slice(&MERHIST_MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(sp.k() as u32).to_le_bytes());
    buf.extend_from_slice(&(sp.m() as u32).to_le_bytes());
    buf.extend_from_slice(&(h.counts().len() as u64).to_le_bytes());
    for &c in h.counts() {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf
}

/// Deserialize a [`MerHist`] from bytes.
pub fn merhist_from_bytes(buf: &[u8]) -> Result<MerHist, IndexFormatError> {
    let mut buf = Cursor(buf);
    check(buf.remaining() >= 24, "merHist header truncated")?;
    check(buf.u32()? == MERHIST_MAGIC, "bad merHist magic")?;
    check(buf.u32()? == VERSION, "unsupported merHist version")?;
    let (k, m) = (buf.u32()?, buf.u32()?);
    let space = header_space(k, m)?;
    let n = buf.u64()?;
    check(n == space.bins() as u64, "bin count mismatch")?;
    check(
        buf.remaining() as u64 == 4 * n,
        "merHist payload size mismatch",
    )?;
    let counts = (0..n).map(|_| buf.u32()).collect::<Result<_, _>>()?;
    Ok(MerHist::from_parts(space, counts))
}

/// Serialize a [`FastqPart`] into bytes.
pub fn fastqpart_to_bytes(fp: &FastqPart) -> Vec<u8> {
    let sp = fp.space();
    let bins = sp.bins();
    let mut buf = Vec::with_capacity(28 + fp.len() * (24 + 4 * bins));
    buf.extend_from_slice(&FASTQPART_MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(sp.k() as u32).to_le_bytes());
    buf.extend_from_slice(&(sp.m() as u32).to_le_bytes());
    buf.extend_from_slice(&(fp.len() as u64).to_le_bytes());
    for rec in fp.chunks() {
        buf.extend_from_slice(&rec.spec.offset.to_le_bytes());
        buf.extend_from_slice(&rec.spec.bytes.to_le_bytes());
        buf.extend_from_slice(&rec.spec.first_seq.to_le_bytes());
        buf.extend_from_slice(&rec.spec.seqs.to_le_bytes());
        for &c in &rec.hist {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    buf
}

/// Deserialize a [`FastqPart`] from bytes.
pub fn fastqpart_from_bytes(buf: &[u8]) -> Result<FastqPart, IndexFormatError> {
    let mut buf = Cursor(buf);
    check(buf.remaining() >= 24, "FASTQPart header truncated")?;
    check(buf.u32()? == FASTQPART_MAGIC, "bad FASTQPart magic")?;
    check(buf.u32()? == VERSION, "unsupported FASTQPart version")?;
    let (k, m) = (buf.u32()?, buf.u32()?);
    let space = header_space(k, m)?;
    let bins = space.bins();
    let n = buf.u64()?;
    let payload = n.checked_mul(24 + 4 * bins as u64);
    check(
        payload == Some(buf.remaining() as u64),
        "FASTQPart payload size mismatch",
    )?;
    let mut chunks = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let spec = ChunkSpec {
            offset: buf.u64()?,
            bytes: buf.u64()?,
            first_seq: buf.u32()?,
            seqs: buf.u32()?,
        };
        let hist = (0..bins).map(|_| buf.u32()).collect::<Result<_, _>>()?;
        chunks.push(ChunkRecord { spec, hist });
    }
    Ok(FastqPart::from_parts(space, chunks))
}

/// Write a [`MerHist`] to a file.
pub fn write_merhist(path: impl AsRef<Path>, h: &MerHist) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&merhist_to_bytes(h))
}

/// Read a [`MerHist`] from a file.
pub fn read_merhist(path: impl AsRef<Path>) -> Result<MerHist, IndexFormatError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    merhist_from_bytes(&buf)
}

/// Write a [`FastqPart`] to a file.
pub fn write_fastqpart(path: impl AsRef<Path>, fp: &FastqPart) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&fastqpart_to_bytes(fp))
}

/// Read a [`FastqPart`] from a file.
pub fn read_fastqpart(path: impl AsRef<Path>) -> Result<FastqPart, IndexFormatError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    fastqpart_from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_io::ReadStore;

    fn sample_store() -> ReadStore {
        let mut s = ReadStore::new();
        for i in 0..20 {
            let seq: Vec<u8> = b"ACGTTGCAGG"
                .iter()
                .cycle()
                .skip(i % 10)
                .take(35)
                .copied()
                .collect();
            s.push_single(&seq);
        }
        s
    }

    #[test]
    fn merhist_roundtrip() {
        let h = MerHist::build(&sample_store(), 8, 3);
        let bytes = merhist_to_bytes(&h);
        let back = merhist_from_bytes(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn fastqpart_roundtrip() {
        let fp = FastqPart::build(&sample_store(), 4, 8, 3);
        let bytes = fastqpart_to_bytes(&fp);
        let back = fastqpart_from_bytes(&bytes).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn merhist_rejects_bad_magic() {
        let h = MerHist::build(&sample_store(), 8, 3);
        let mut bytes = merhist_to_bytes(&h);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            merhist_from_bytes(&bytes),
            Err(IndexFormatError::Corrupt(_))
        ));
    }

    #[test]
    fn merhist_rejects_truncation() {
        let h = MerHist::build(&sample_store(), 8, 3);
        let bytes = merhist_to_bytes(&h);
        for cut in [0, 10, bytes.len() - 1] {
            assert!(merhist_from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn fastqpart_rejects_wrong_magic_and_size() {
        let fp = FastqPart::build(&sample_store(), 2, 8, 3);
        let mut bytes = fastqpart_to_bytes(&fp);
        bytes[0] ^= 1;
        assert!(fastqpart_from_bytes(&bytes).is_err());
        let bytes = fastqpart_to_bytes(&fp);
        assert!(fastqpart_from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("metaprep_index_serial_test");
        std::fs::create_dir_all(&dir).unwrap();
        let h = MerHist::build(&sample_store(), 8, 3);
        let fp = FastqPart::build(&sample_store(), 3, 8, 3);
        write_merhist(dir.join("mh.bin"), &h).unwrap();
        write_fastqpart(dir.join("fp.bin"), &fp).unwrap();
        assert_eq!(read_merhist(dir.join("mh.bin")).unwrap(), h);
        assert_eq!(read_fastqpart(dir.join("fp.bin")).unwrap(), fp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A FASTQPart header: magic, version, k, m, chunk count.
    fn fastqpart_header(k: u32, m: u32, n: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for word in [FASTQPART_MAGIC, VERSION, k, m] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes
    }

    #[test]
    fn hostile_headers_are_errors_not_panics() {
        // n * (24 + 4 * bins) overflows u64.
        let huge = fastqpart_header(27, 8, 1 << 61);
        assert!(matches!(
            fastqpart_from_bytes(&huge),
            Err(IndexFormatError::Corrupt(_))
        ));
        // k beyond what a tuple holds, in either table.
        assert!(fastqpart_from_bytes(&fastqpart_header(100, 8, 0)).is_err());
        let mut mh = merhist_to_bytes(&MerHist::build(&sample_store(), 8, 3));
        mh[8..12].copy_from_slice(&100u32.to_le_bytes());
        assert!(merhist_from_bytes(&mh).is_err());
        assert!(fastqpart_from_bytes(&fastqpart_header(0, 0, 0)).is_err());
        // Every truncation of a valid encoding.
        let fp = fastqpart_to_bytes(&FastqPart::build(&sample_store(), 3, 8, 3));
        for cut in 0..fp.len() {
            assert!(fastqpart_from_bytes(&fp[..cut]).is_err(), "cut={cut}");
        }
        let mh = merhist_to_bytes(&MerHist::build(&sample_store(), 8, 3));
        for cut in 0..mh.len() {
            assert!(merhist_from_bytes(&mh[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn cross_type_confusion_rejected() {
        let h = MerHist::build(&sample_store(), 8, 3);
        let bytes = merhist_to_bytes(&h);
        assert!(fastqpart_from_bytes(&bytes).is_err());
    }
}
