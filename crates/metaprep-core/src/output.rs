//! Output partitioning (the tail of MergeCC, paper §3.6).
//!
//! The paper writes the reads of the largest component to one FASTQ file
//! and all remaining reads to another, because a giant component forms on
//! every dataset it examined. [`partition_reads`] does the split in memory
//! and [`write_partitions`] writes `lc.fastq` / `other.fastq` from it;
//! [`write_partitions_streamed`] writes the same two files — the same
//! bytes — straight from the input FASTQ file, one window of it in memory
//! at a time ([`write_multi_partition_streamed`] likewise for the top-`n`
//! split).

use metaprep_io::{
    input_len, write_fastq_path, write_fastq_record, FastqError, ReadStore, RecordWalker,
    WALK_WINDOW,
};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The two output read sets.
#[derive(Clone, Debug)]
pub struct PartitionedReads {
    /// Reads whose fragment is in the largest component.
    pub lc: ReadStore,
    /// All other reads.
    pub other: ReadStore,
    /// Fraction of fragments in the largest component.
    pub lc_fraction: f64,
}

/// Split `reads` by the final component labels (`labels[frag]`), putting
/// fragments labeled `largest_root` into `lc`. Pairing is preserved: both
/// mates of a fragment go to the same side.
pub fn partition_reads(reads: &ReadStore, labels: &[u32], largest_root: u32) -> PartitionedReads {
    assert_eq!(
        labels.len(),
        reads.num_fragments() as usize,
        "labels must cover every fragment"
    );
    let lc = reads.filter_fragments(|f| labels[f as usize] == largest_root);
    let other = reads.filter_fragments(|f| labels[f as usize] != largest_root);
    let lc_fraction = if labels.is_empty() {
        0.0
    } else {
        labels.iter().filter(|&&l| l == largest_root).count() as f64 / labels.len() as f64
    };
    PartitionedReads {
        lc,
        other,
        lc_fraction,
    }
}

/// Write the partition as `lc.fastq` and `other.fastq` under `dir`.
pub fn write_partitions(dir: impl AsRef<Path>, parts: &PartitionedReads) -> io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    write_fastq_path(dir.join("lc.fastq"), &parts.lc)?;
    write_fastq_path(dir.join("other.fastq"), &parts.other)
}

/// A multi-way component split (the paper's §5 "alternate component-
/// splitting strategies"): the `n` largest components each get their own
/// read set; everything else (including components below `min_size`
/// fragments) is pooled into `rest`. Each bucket can be fed to an
/// assembler independently — the "assemble partitions in parallel" use
/// case generalized beyond LC-vs-rest.
///
/// With [`partition_top_n`] and [`write_multi_partition`], the in-memory
/// reference the tests hold [`write_multi_partition_streamed`] (what the
/// CLI runs) against.
#[derive(Clone, Debug)]
pub struct MultiPartition {
    /// `(component root, reads)` for the top components, largest first.
    pub buckets: Vec<(u32, ReadStore)>,
    /// Pooled remainder.
    pub rest: ReadStore,
}

/// Split `reads` into the `n` largest components (each at least
/// `min_size` fragments) plus a pooled remainder.
pub fn partition_top_n(
    reads: &ReadStore,
    labels: &[u32],
    n: usize,
    min_size: usize,
) -> MultiPartition {
    assert_eq!(labels.len(), reads.num_fragments() as usize);
    let roots = top_roots(labels, n, min_size);
    let buckets: Vec<(u32, ReadStore)> = roots
        .iter()
        .map(|&root| (root, reads.filter_fragments(|f| labels[f as usize] == root)))
        .collect();
    let rest = reads.filter_fragments(|f| !roots.contains(&labels[f as usize]));
    MultiPartition { buckets, rest }
}

/// Roots of the `n` largest components of at least `min_size` fragments,
/// largest first (ties by root id).
fn top_roots(labels: &[u32], n: usize, min_size: usize) -> Vec<u32> {
    let mut size_of_root: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for &l in labels {
        *size_of_root.entry(l).or_insert(0) += 1;
    }
    let mut roots: Vec<(u32, usize)> = size_of_root
        .into_iter()
        .filter(|&(_, s)| s >= min_size)
        .collect();
    roots.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    roots.truncate(n);
    roots.into_iter().map(|(root, _)| root).collect()
}

/// Write a [`MultiPartition`] as `comp_<i>.fastq` files plus `rest.fastq`.
pub fn write_multi_partition(dir: impl AsRef<Path>, parts: &MultiPartition) -> io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for (i, (_, store)) in parts.buckets.iter().enumerate() {
        write_fastq_path(dir.join(format!("comp_{i}.fastq")), store)?;
    }
    write_fastq_path(dir.join("rest.fastq"), &parts.rest)
}

/// [`partition_reads`] + [`write_partitions`] without the reads in memory:
/// walk the FASTQ file `input` once, in file order, and write each record
/// to `lc.fastq` or `other.fastq` under `dir` by its fragment's label —
/// byte for byte the files the in-memory pair writes. Returns the reads
/// written to `[lc, other]`.
///
/// `paired` and `labels` must be those of the run that indexed `input`; a
/// file whose record count no longer matches `labels` is an error.
pub fn write_partitions_streamed(
    dir: impl AsRef<Path>,
    input: impl AsRef<Path>,
    paired: bool,
    labels: &[u32],
    largest_root: u32,
) -> Result<[u64; 2], FastqError> {
    let names = ["lc.fastq".to_string(), "other.fastq".to_string()];
    let side_of = |label| usize::from(label != largest_root);
    let (dir, input) = (dir.as_ref(), input.as_ref());
    let written = stream_split(dir, input, WALK_WINDOW, paired, labels, &names, side_of)?;
    Ok([written[0], written[1]])
}

/// [`partition_top_n`] + [`write_multi_partition`] without the reads in
/// memory (see [`write_partitions_streamed`]): `comp_<i>.fastq` for the
/// `n` largest components of at least `min_size` fragments, `rest.fastq`
/// for everything else. Returns the reads written per file, `rest` last.
pub fn write_multi_partition_streamed(
    dir: impl AsRef<Path>,
    input: impl AsRef<Path>,
    paired: bool,
    labels: &[u32],
    n: usize,
    min_size: usize,
) -> Result<Vec<u64>, FastqError> {
    let roots = top_roots(labels, n, min_size);
    let mut names: Vec<String> = (0..roots.len())
        .map(|i| format!("comp_{i}.fastq"))
        .collect();
    names.push("rest.fastq".into());
    let side_of = |label| {
        let bucket = roots.iter().position(|&r| r == label);
        bucket.unwrap_or(roots.len())
    };
    let (dir, input) = (dir.as_ref(), input.as_ref());
    stream_split(dir, input, WALK_WINDOW, paired, labels, &names, side_of)
}

/// The one streamed writer: route every record of `input` to
/// `names[side_of(labels[fragment])]`, written through the same
/// `write_fastq_record` as `metaprep_io::write_fastq` writes a store's.
///
/// The file is read by the one range walker, `metaprep_io::RecordWalker`,
/// in windows of about `window` bytes, so one window plus the writers'
/// buffers is all that is resident, and every record passes the walker's
/// checks again on its way out.
/// Sequential on purpose: a scan of the input is a fraction of the cost of
/// writing the same bytes, and placing records from several tasks at once
/// would need every window's output size per side before the first byte.
fn stream_split(
    dir: &Path,
    input: &Path,
    window: u64,
    paired: bool,
    labels: &[u32],
    names: &[String],
    side_of: impl Fn(u32) -> usize,
) -> Result<Vec<u64>, FastqError> {
    let changed = |record: usize, byte_offset: u64, what: String| FastqError::Malformed {
        record,
        byte_offset,
        what: format!("input changed since indexing: {what}"),
    };
    let len = input_len(input)?;
    std::fs::create_dir_all(dir)?;
    let mut outs = Vec::with_capacity(names.len());
    for name in names {
        outs.push(BufWriter::with_capacity(
            1 << 16,
            File::create(dir.join(name))?,
        ));
    }
    let mut written = vec![0u64; names.len()];

    let mut record = 0usize;
    RecordWalker::new(window).walk(input, (0, len), 0, |views| {
        for view in views {
            let frag = record >> u32::from(paired);
            let Some(&label) = labels.get(frag) else {
                let what = format!("more than the {} fragments labeled", labels.len());
                return Err(changed(record + 1, view.offset, what));
            };
            let side = side_of(label);
            write_fastq_record(&mut outs[side], view.header.as_bytes(), view.seq, view.qual)?;
            written[side] += 1;
            record += 1;
        }
        Ok(())
    })?;
    let expected = labels.len() << u32::from(paired);
    if record != expected {
        let what = format!("{record} records, {expected} were labeled");
        return Err(changed(record, len, what));
    }
    for out in &mut outs {
        out.flush()?;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ReadStore {
        let mut s = ReadStore::new();
        s.push_pair(b"AAAA", b"TTTT"); // frag 0
        s.push_pair(b"CCCC", b"GGGG"); // frag 1
        s.push_single(b"ACGT"); // frag 2
        s
    }

    #[test]
    fn splits_by_label() {
        let s = store();
        let labels = vec![7, 7, 2]; // frags 0,1 together
        let parts = partition_reads(&s, &labels, 7);
        assert_eq!(parts.lc.num_fragments(), 2);
        assert_eq!(parts.lc.len(), 4);
        assert_eq!(parts.other.num_fragments(), 1);
        assert_eq!(parts.other.len(), 1);
        assert!((parts.lc_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pairs_stay_together() {
        let s = store();
        let parts = partition_reads(&s, &[5, 1, 5], 5);
        // frag 0 (pair) and frag 2 (single) in LC.
        assert_eq!(parts.lc.len(), 3);
        assert_eq!(parts.lc.frag_id(0), parts.lc.frag_id(1));
    }

    #[test]
    fn empty_labels_empty_store() {
        let parts = partition_reads(&ReadStore::new(), &[], 0);
        assert!(parts.lc.is_empty());
        assert!(parts.other.is_empty());
        assert_eq!(parts.lc_fraction, 0.0);
    }

    #[test]
    #[should_panic]
    fn label_count_mismatch_rejected() {
        partition_reads(&store(), &[0, 1], 0);
    }

    #[test]
    fn top_n_buckets_ordered_and_disjoint() {
        let mut s = ReadStore::new();
        for _ in 0..10 {
            s.push_single(b"ACGT");
        }
        // Components: {0..4} root 9, {5,6} root 7, {7} root 1, {8,9} root 3.
        let labels = vec![9, 9, 9, 9, 9, 7, 7, 1, 3, 3];
        // Remap to sizes 5, 2, 1, 2.
        let parts = partition_top_n(&s, &labels, 2, 2);
        assert_eq!(parts.buckets.len(), 2);
        assert_eq!(parts.buckets[0].0, 9);
        assert_eq!(parts.buckets[0].1.num_fragments(), 5);
        assert_eq!(parts.buckets[1].1.num_fragments(), 2);
        // rest = the other two components (sizes 1 + 2).
        assert_eq!(parts.rest.num_fragments(), 3);
        let total: u32 = parts
            .buckets
            .iter()
            .map(|(_, b)| b.num_fragments())
            .sum::<u32>()
            + parts.rest.num_fragments();
        assert_eq!(total, 10);
    }

    #[test]
    fn top_n_min_size_pools_small_components() {
        let mut s = ReadStore::new();
        for _ in 0..4 {
            s.push_single(b"ACGT");
        }
        let labels = vec![0, 1, 2, 3]; // all singletons
        let parts = partition_top_n(&s, &labels, 3, 2);
        assert!(parts.buckets.is_empty());
        assert_eq!(parts.rest.num_fragments(), 4);
    }

    #[test]
    fn multi_partition_writes_files() {
        let dir = std::env::temp_dir().join("metaprep_core_multipart_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = ReadStore::new();
        for _ in 0..6 {
            s.push_single(b"ACGT");
        }
        let labels = vec![5, 5, 5, 2, 2, 0];
        let parts = partition_top_n(&s, &labels, 2, 2);
        write_multi_partition(&dir, &parts).unwrap();
        assert!(dir.join("comp_0.fastq").exists());
        assert!(dir.join("comp_1.fastq").exists());
        assert!(dir.join("rest.fastq").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_both_files() {
        let dir = std::env::temp_dir().join("metaprep_core_output_test");
        let _ = std::fs::remove_dir_all(&dir);
        let s = store();
        let parts = partition_reads(&s, &[9, 9, 0], 9);
        write_partitions(&dir, &parts).unwrap();
        let lc = metaprep_io::parse_fastq_path(dir.join("lc.fastq"), false).unwrap();
        let other = metaprep_io::parse_fastq_path(dir.join("other.fastq"), false).unwrap();
        assert_eq!(lc.len(), 4);
        assert_eq!(other.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    /// A FASTQ file spelled the ways real files are — CRLF on some records,
    /// the name repeated on some `+` lines, no final newline — holding 30
    /// mate pairs of varying length.
    fn spelled_fastq(dir: &Path) -> std::path::PathBuf {
        let mut bytes = Vec::new();
        for i in 0..60usize {
            let eol = if i % 3 == 0 { "\r\n" } else { "\n" };
            let plus = if i % 5 == 0 {
                format!("+read{i}/x")
            } else {
                "+".into()
            };
            let seq: String = (0..20 + i % 7)
                .map(|j| "ACGT".as_bytes()[(i + j * j) % 4] as char)
                .collect();
            let qual = "@".repeat(seq.len());
            bytes.extend(format!("@read{i}/x{eol}{seq}{eol}{plus}{eol}{qual}{eol}").bytes());
        }
        bytes.pop();
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("reads.fastq");
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn assert_same_files(want: &Path, got: &Path, names: &[&str]) {
        for name in names {
            let (w, g) = (
                std::fs::read(want.join(name)),
                std::fs::read(got.join(name)),
            );
            assert_eq!(w.unwrap(), g.unwrap(), "{name}");
        }
    }

    #[test]
    fn streamed_writers_match_the_in_memory_ones_across_window_cuts() {
        let dir = std::env::temp_dir().join("metaprep_core_streamed_output_test");
        let _ = std::fs::remove_dir_all(&dir);
        let input = spelled_fastq(&dir);
        for paired in [true, false] {
            let reads = metaprep_io::parse_fastq_path(&input, paired).unwrap();
            let frags = reads.num_fragments() as usize;
            // Three components of sizes ~1/2, ~1/3, ~1/6 and a few singletons.
            let labels: Vec<u32> = (0..frags)
                .map(|f| {
                    if f % 11 == 0 {
                        1000 + f as u32
                    } else {
                        [7, 7, 7, 2, 2, 5][f % 6]
                    }
                })
                .collect();
            let (want, got) = (dir.join("want"), dir.join("got"));
            // Windows of a few records, so cuts fall inside mate pairs and
            // on CRLF records, and the default window (one cut: EOF).
            for window in [64, 300, WALK_WINDOW] {
                let parts = partition_reads(&reads, &labels, 7);
                write_partitions(&want, &parts).unwrap();
                let names = ["lc.fastq".to_string(), "other.fastq".to_string()];
                let side_of = |label| usize::from(label != 7);
                let n = stream_split(&got, &input, window, paired, &labels, &names, side_of);
                assert_eq!(
                    n.unwrap(),
                    [parts.lc.len() as u64, parts.other.len() as u64]
                );
                assert_same_files(&want, &got, &["lc.fastq", "other.fastq"]);
            }

            let multi = partition_top_n(&reads, &labels, 2, 2);
            write_multi_partition(&want, &multi).unwrap();
            let n = write_multi_partition_streamed(&got, &input, paired, &labels, 2, 2).unwrap();
            let lens =
                [&multi.buckets[0].1, &multi.buckets[1].1, &multi.rest].map(|s| s.len() as u64);
            assert_eq!(n, lens);
            assert_same_files(&want, &got, &["comp_0.fastq", "comp_1.fastq", "rest.fastq"]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_writer_reports_an_input_that_no_longer_matches_the_labels() {
        let dir = std::env::temp_dir().join("metaprep_core_streamed_changed_test");
        let _ = std::fs::remove_dir_all(&dir);
        let input = spelled_fastq(&dir); // 60 records
        for (paired, labeled) in [(true, 29), (true, 31), (false, 59), (false, 61)] {
            let labels = vec![0u32; labeled];
            let err = write_partitions_streamed(dir.join("out"), &input, paired, &labels, 0);
            let err = err.unwrap_err().to_string();
            assert!(err.contains("input changed since indexing"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
