//! Binary serialization of the index tables.
//!
//! The paper writes `merHist` and `FASTQPart` to disk in a binary format
//! (§3.1); Table 5 reports their sizes. `metaprep index` is the IndexCreate
//! timing probe and writes both tables with these functions; nothing reads
//! them back (`partition` re-indexes its input). The format is
//! little-endian and versioned: a magic, the version, `k`, `m` and a count
//! head each table.

use crate::fastqpart::FastqPart;
use crate::merhist::MerHist;
use std::io::{self, Write};
use std::path::Path;

const MERHIST_MAGIC: u32 = 0x4D50_4D48; // "MPMH"
const FASTQPART_MAGIC: u32 = 0x4D50_4650; // "MPFP"
const VERSION: u32 = 1;

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

/// Write a [`MerHist`] to a file.
pub fn write_merhist(path: impl AsRef<Path>, h: &MerHist) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&merhist_to_bytes(h))
}

/// Write a [`FastqPart`] to a file.
pub fn write_fastqpart(path: impl AsRef<Path>, fp: &FastqPart) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&fastqpart_to_bytes(fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_io::ReadStore;

    /// 24 header bytes and 4^3 bins of 4 bytes.
    const MERHIST_LEN: usize = 280;
    const MERHIST_FNV: u64 = 0xc468_061e_9e4e_2d4f;
    /// 24 header bytes and 3 chunks of 24 + 4 * 4^3 bytes.
    const FASTQPART_LEN: usize = 864;
    const FASTQPART_FNV: u64 = 0x4b20_005d_68b0_3be9;

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

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The on-disk bytes of both tables, pinned by length and FNV-1a: a
    /// change to the header, the field order or the widths fails here.
    /// The files `write_merhist` / `write_fastqpart` leave hold exactly
    /// those bytes.
    #[test]
    fn written_tables_keep_their_bytes() {
        let mh = merhist_to_bytes(&MerHist::build(&sample_store(), 8, 3));
        let fp = fastqpart_to_bytes(&FastqPart::build(&sample_store(), 3, 8, 3));
        let got = [(mh.len(), fnv1a(&mh)), (fp.len(), fnv1a(&fp))];
        assert_eq!(
            got,
            [(MERHIST_LEN, MERHIST_FNV), (FASTQPART_LEN, FASTQPART_FNV)],
            "{got:#x?}"
        );
        let dir = std::env::temp_dir().join(format!("metaprep_serial_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_merhist(dir.join("mh.bin"), &MerHist::build(&sample_store(), 8, 3)).unwrap();
        write_fastqpart(
            dir.join("fp.bin"),
            &FastqPart::build(&sample_store(), 3, 8, 3),
        )
        .unwrap();
        assert_eq!(std::fs::read(dir.join("mh.bin")).unwrap(), mh);
        assert_eq!(std::fs::read(dir.join("fp.bin")).unwrap(), fp);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
