//! FASTQ output.
//!
//! Buffered writers are the caller's responsibility for file handles opened
//! elsewhere; the path-based helper wraps its file in a [`BufWriter`]. When
//! a store holds no names or qualities, names are generated as `r{index}`
//! and qualities are constant `'I'` (Phred 40), matching what the synthetic
//! data generator would produce.

use crate::store::ReadStore;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Write one 4-line FASTQ record: `@`·header·`\n`·seq·`\n+\n`·qual·`\n`.
/// The one place the output format is spelled; [`write_fastq`] and the
/// streamed partition writer both emit records through it.
pub fn write_fastq_record(
    mut w: impl Write,
    header: &[u8],
    seq: &[u8],
    qual: &[u8],
) -> io::Result<()> {
    w.write_all(b"@")?;
    w.write_all(header)?;
    w.write_all(b"\n")?;
    w.write_all(seq)?;
    w.write_all(b"\n+\n")?;
    w.write_all(qual)?;
    w.write_all(b"\n")
}

/// Write all sequences of `store` as 4-line FASTQ records.
pub fn write_fastq(mut w: impl Write, store: &ReadStore) -> io::Result<()> {
    let mut name_buf = Vec::new();
    let mut qual_buf = Vec::new();
    for i in 0..store.len() {
        let seq = store.seq(i);
        let name = match store.name(i) {
            Some(n) => n.as_bytes(),
            None => {
                name_buf.clear();
                write!(name_buf, "r{i}")?;
                &name_buf
            }
        };
        let qual = match store.qual(i) {
            Some(q) => q,
            None => {
                qual_buf.clear();
                qual_buf.resize(seq.len(), b'I');
                &qual_buf
            }
        };
        write_fastq_record(&mut w, name, seq, qual)?;
    }
    Ok(())
}

/// Write `store` to a FASTQ file at `path` (buffered, explicit flush).
pub fn write_fastq_path(path: impl AsRef<Path>, store: &ReadStore) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    write_fastq(&mut w, store)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_fastq;

    #[test]
    fn writes_generated_names_and_quals() {
        let mut s = ReadStore::new();
        s.push_single(b"ACGT");
        let mut out = Vec::new();
        write_fastq(&mut out, &s).unwrap();
        assert_eq!(out, b"@r0\nACGT\n+\nIIII\n");
    }

    #[test]
    fn roundtrips_through_parser() {
        let mut s = ReadStore::new();
        s.push_pair(b"ACGTACGT", b"TTGGCCAA");
        let mut buf = Vec::new();
        write_fastq(&mut buf, &s).unwrap();
        let back = parse_fastq(&buf[..], true).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.seq(0), s.seq(0));
        assert_eq!(back.seq(1), s.seq(1));
        assert_eq!(back.num_fragments(), 1);
    }

    #[test]
    fn preserves_existing_names() {
        let mut s = ReadStore::new();
        s.push_single(b"AC");
        s.set_last_name("myread/1");
        s.set_last_qual(b"!!");
        let mut buf = Vec::new();
        write_fastq(&mut buf, &s).unwrap();
        assert_eq!(buf, b"@myread/1\nAC\n+\n!!\n");
    }

    #[test]
    fn path_writer_creates_file() {
        let dir = std::env::temp_dir().join("metaprep_io_write_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.fastq");
        let mut s = ReadStore::new();
        s.push_single(b"ACGT");
        write_fastq_path(&path, &s).unwrap();
        let back = crate::parse::parse_fastq_path(&path, false).unwrap();
        assert_eq!(back.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
