//! The forbidden-names gate of `cargo xtask check`: names of designs a
//! change removed, which must not come back.
//!
//! A pattern is literal text with two escapes, enough for the names below:
//! `*` stands for one or more of `[a-z_]`, and `\b` requires that no
//! identifier character follows. This file is the one that spells the
//! names, so it is the one file the gate does not read.

use std::path::{Path, PathBuf};

/// One removed design: the names that would bring it back, and where.
struct Forbidden {
    /// What the gate holds (printed with a hit).
    why: &'static str,
    /// Directories searched, relative to the workspace root: every file in
    /// them, at any depth.
    dirs: &'static [&'static str],
    names: &'static [&'static str],
}

/// The table.
const FORBIDDEN: &[Forbidden] = &[
    Forbidden {
        why: "the pipeline has one entry per input, with no _recorded twin",
        dirs: &["crates/metaprep-core/src"],
        names: &[r"pub fn *_recorded\b"],
    },
    Forbidden {
        why: "an injected crash is a return value, not a panic with a silencing hook",
        dirs: &["crates/metaprep-dist/src", "crates/metaprep-core/src"],
        names: &["panic_any", "set_hook"],
    },
    Forbidden {
        why: "MemRecorder is the only recorder",
        dirs: &["crates"],
        names: &["dyn Recorder"],
    },
    Forbidden {
        why: "IndexCreate counts records with the one record reader",
        dirs: &["crates"],
        names: &[
            r"fn count_records\b",
            r"fn count_record_starts\b",
            r"fn first_malformed\b",
            r"fn tentative_ranges_paired\b",
        ],
    },
    Forbidden {
        why: "file passes read through the one windowed walker, with no per-thread chunk buffer",
        dirs: &["crates"],
        names: &[r"static CHUNK_BUF\b", r"static CHUNK_BUFS\b"],
    },
    Forbidden {
        why: "the rank checkpoints (MPCK) are the only on-disk format",
        dirs: &["crates"],
        names: &["PlanCheckpoint", "plan_fingerprint", "MPPL"],
    },
    Forbidden {
        why: "one command and one renderer read a trace",
        dirs: &["crates", "xtask"],
        names: &["render_summary", "cmd_report"],
    },
    Forbidden {
        why: "the 4-lane KmerGen of §3.2.1 is the dispatched owned-k-mer kernel \
              (metaprep_kmer::simd::owned_kmers), not a scalar stand-in",
        dirs: &["crates", "src", "tests", "examples"],
        names: &["for_each_canonical_kmer_x4"],
    },
    Forbidden {
        why: "the exp_* bins and benchmark/ are the one measurement stack: no criterion \
              benches, no baselines only they ran, no parking_lot or bytes shim",
        dirs: &["crates", "src", "tests", "examples", "xtask"],
        names: &[
            "criterion",
            "parking_lot",
            "alltoall_naive",
            "locked_components",
            "use bytes::",
        ],
    },
    Forbidden {
        why: "SpanEvent and EdgeEvent are the one span and one edge type; a fault rule \
              covers every (src, dst) pair; LocalCC-Opt runs on every pass after the first",
        dirs: &["crates", "src", "tests", "examples", "xtask"],
        names: &[r"SpanRec\b", "SendHalf", "RecvHalf", "FaultScope", "cc_opt"],
    },
    Forbidden {
        why: "Merge-Comm and CC-I/O send one ComponentMsg, which picks the smaller \
              encoding itself: no sparse knob, no third message variant",
        dirs: &["crates", "src", "tests", "examples", "xtask"],
        names: &["merge_sparse", "SparseParents", "absorb_sparse_pairs"],
    },
    Forbidden {
        why: "fault recovery and trace fidelity are cargo test guarantees (metaprep-core's \
              pipeline tests, the CLI's chaos tests), not experiment bins; public items only \
              their own tests called stay deleted",
        dirs: &["crates", "src", "tests", "examples", "xtask"],
        names: &[
            "exp_faults",
            "exp_trace_smoke",
            r"mmer_bin\b",
            "mmer_bin_count",
            "is_valid_base",
            "CanonicalKmers",
            "count_valid_kmers",
            r"fn singletons\b",
            r".singletons()",
            "is_inert",
            "ten_gbe",
            "species_observed",
            "reverse_complement_ascii",
        ],
    },
    Forbidden {
        why: "record_views is metaprep-io's one FASTQ grammar: no line reader beside it",
        dirs: &["crates/metaprep-io/src"],
        names: &["BufRead", "read_until", r"fn read_line\b"],
    },
    Forbidden {
        why: "a run reads one input, a FASTQ file: run_reads writes its store to one and \
              runs the file path, with no store chunker, store IndexCreate or store source",
        dirs: &["crates", "src", "tests", "examples", "xtask"],
        names: &[
            r"index_store\b",
            r"chunk_store\b",
            "ChunkSource::Store",
            r"record_bytes\b",
        ],
    },
    Forbidden {
        why: "bucketed_local_sort is the one LocalSort and concat -> lsb_radix_sort its one \
              reference: no scatter entry, no two-stage partition-then-sort path",
        dirs: &["crates", "src", "tests", "examples", "xtask"],
        names: &[
            "scatter_from_parts",
            "ScatterResult",
            "BoundaryTable",
            "cut_digit",
            "MAX_CUT_BITS",
            r"const TABLE_BITS\b",
            "BRANCHLESS_MAX_BOUNDARIES",
            "fused_local_sort_budgeted",
            "ids: Vec<u16>",
            "tracker: ScatterTracker",
            r"metaprep_sort::local_sort\b",
            r"{local_sort\b",
            r", local_sort\b",
            " local_sort,",
            "local_sort_with_boundaries",
            "partition_by_ranges",
            "equal_boundaries_by_sample",
            r"fn range_of\b",
        ],
    },
];

/// Check the tree under `root`; print every hit as `file:line: ...` and
/// return how many there were.
pub fn check(root: &Path) -> usize {
    let this_file = root.join("xtask").join("src").join("forbidden.rs");
    let mut hits = 0;
    for rule in FORBIDDEN {
        let mut files = Vec::new();
        for dir in rule.dirs {
            collect_files(&root.join(dir), &mut files);
        }
        files.sort();
        for file in files.iter().filter(|f| **f != this_file) {
            let Ok(bytes) = std::fs::read(file) else {
                continue;
            };
            let text = String::from_utf8_lossy(&bytes);
            for (n, line) in text.lines().enumerate() {
                for name in rule.names.iter().filter(|name| found(name, line)) {
                    let rel = file.strip_prefix(root).unwrap_or(file);
                    eprintln!(
                        "{}:{}: forbidden name `{name}`: {}",
                        rel.display(),
                        n + 1,
                        rule.why
                    );
                    hits += 1;
                }
            }
        }
    }
    hits
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// True if `pattern` matches somewhere in `line`.
fn found(pattern: &str, line: &str) -> bool {
    let (pattern, line) = (pattern.as_bytes(), line.as_bytes());
    (0..=line.len()).any(|at| matches_at(pattern, &line[at..]))
}

/// True if `pattern` matches a prefix of `text`.
fn matches_at(pattern: &[u8], text: &[u8]) -> bool {
    let ident = |c: &u8| c.is_ascii_alphanumeric() || *c == b'_';
    match pattern {
        [] => true,
        [b'\\', b'b', rest @ ..] => !text.first().is_some_and(ident) && matches_at(rest, text),
        [b'*', rest @ ..] => {
            let run = text
                .iter()
                .take_while(|c| c.is_ascii_lowercase() || **c == b'_')
                .count();
            (1..=run).any(|n| matches_at(rest, &text[n..]))
        }
        [c, rest @ ..] => text.first() == Some(c) && matches_at(rest, &text[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_names_match_anywhere_in_a_line() {
        assert!(found(
            "set_hook",
            "    std::panic::set_hook(Box::new(|_| {}));"
        ));
        assert!(found("dyn Recorder", "fn f(r: &dyn Recorder) {}"));
        assert!(!found("dyn Recorder", "fn f(r: &MemRecorder) {}"));
    }

    #[test]
    fn a_word_boundary_needs_a_non_identifier_after_it() {
        let name = r"fn count_records\b";
        assert!(found(name, "pub fn count_records(data: &[u8]) -> usize {"));
        assert!(found(name, "fn count_records"));
        assert!(!found(name, "fn count_records_in(data: &[u8]) {"));
        assert!(found(
            r"static CHUNK_BUF\b",
            "static CHUNK_BUF: Cell<Vec<u8>> = ..."
        ));
        assert!(!found(r"static CHUNK_BUF\b", "static CHUNK_BUFS: ..."));
    }

    #[test]
    fn a_star_is_one_or_more_lowercase_or_underscore() {
        let name = r"pub fn *_recorded\b";
        assert!(found(name, "pub fn run_reads_recorded(&self) {"));
        assert!(found(name, "pub fn a_recorded_recorded()"));
        assert!(!found(name, "pub fn _recorded()"), "`*` needs a character");
        assert!(!found(name, "pub fn run_recorded2()"));
        assert!(!found(name, "pub fn Run_recorded()"));
        assert!(!found(name, "fn run_reads_recorded()"));
    }

    #[test]
    fn local_sort_is_forbidden_only_as_the_sort_crate_s_name() {
        let rule = FORBIDDEN.last().expect("the LocalSort rule");
        let hit = |line: &str| rule.names.iter().any(|name| found(name, line));
        assert!(hit("use metaprep_sort::local_sort;"));
        assert!(hit(
            "    metaprep_sort::local_sort(&mut v, &mut s, 4, 8, 54);"
        ));
        assert!(hit("use metaprep_sort::{local_sort, parallel_lsb_sort};"));
        assert!(hit("    bucketed_local_sort, local_sort, lsb_radix_sort,"));
        assert!(hit("    local_sort, lsb_radix_sort,"));
        assert!(hit("use metaprep_sort::{lsb_radix_sort, local_sort};"));
        assert!(!hit(
            "        let offsets = self.local_sort(parts, &mut st.sort_bufs, pass);"
        ));
        assert!(!hit("    fn local_sort("));
        assert!(!hit(
            "use metaprep_sort::{bucketed_local_sort, PassBuffers, BUCKET_BYTES};"
        ));
        assert!(!hit(
            "    bucketed_local_sort, fused_local_sort, lsb_radix_sort_pruned,"
        ));
    }

    #[test]
    fn deleted_sort_names_match_but_their_neighbours_do_not() {
        let rule = FORBIDDEN.last().expect("the LocalSort rule");
        let hit = |line: &str| rule.names.iter().any(|name| found(name, line));
        assert!(hit("const TABLE_BITS: u32 = 11;"));
        assert!(!hit("const MIN_TABLE_BITS: u32 = 8;"));
        assert!(hit(
            "fn range_of<K: Ord>(key: &K, boundaries: &[K]) -> usize {"
        ));
        assert!(!hit("    fn multi_range_offsets_respect_boundaries() {"));
        assert!(hit("    ids: Vec<u16>,"));
        assert!(hit("    tracker: ScatterTracker,"));
        assert!(!hit(
            "    let mut trackers: Vec<ScatterTracker> = Vec::new();"
        ));
        assert!(hit(
            "let sc = scatter_from_parts(&parts, &mut dst, &b, 0, 64, &mut t, &mut ids);"
        ));
        assert!(hit(
            "    let table = BoundaryTable::new(boundaries, key_bits);"
        ));
    }

    #[test]
    fn deleted_gate_bins_and_unused_items_match_but_their_neighbours_do_not() {
        let rule = FORBIDDEN
            .iter()
            .find(|rule| rule.names.contains(&"exp_faults"))
            .expect("the harness rule");
        let hit = |line: &str| rule.names.iter().any(|name| found(name, line));
        assert!(hit("        bin: \"exp_trace_smoke\","));
        assert!(hit("pub use mmer::{mmer_bin, MmerSpace};"));
        assert!(hit("    mmer_bin_count(m)"));
        assert!(!hit("    let bins = space.mmer_bins();"));
        assert!(hit("    pub fn singletons(&self) -> usize {"));
        assert!(hit("        assert_eq!(s.singletons(), 4);"));
        assert!(!hit("    fn all_singletons() {"));
        assert!(!hit("        // Star of 50 + chain of 3 + singletons."));
        assert!(hit(
            "pub fn reverse_complement_ascii(seq: &[u8]) -> Vec<u8> {"
        ));
        assert!(!hit("    let rc = km.rc_value();"));
    }

    #[test]
    fn the_store_input_path_matches_but_the_file_path_does_not() {
        let rule = FORBIDDEN
            .iter()
            .find(|rule| rule.names.contains(&"ChunkSource::Store"))
            .expect("the input-path rule");
        let hit = |line: &str| rule.names.iter().any(|name| found(name, line));
        assert!(hit(
            "use metaprep_index::{index_store, BucketPlan, FastqPart};"
        ));
        assert!(hit(
            "        let (.., sketch) = index_store(&reads, 1, 21, 6, None).unwrap();"
        ));
        assert!(hit(
            "pub use chunk::{chunk_fastq_bytes, chunk_store, ChunkSpec};"
        ));
        assert!(hit("    for spec in chunk_store(store, c) {"));
        assert!(hit(
            "            ChunkSource::Store(store) => store.num_fragments(),"
        ));
        assert!(hit("    pub fn record_bytes(&self, i: usize) -> usize {"));
        assert!(hit("        acc += store.record_bytes(i) as u64;"));
        assert!(!hit("    let (mh, fp) = index_as_fastq(store, c, k, m);"));
        assert!(!hit(
            "pub use chunk::{chunk_fastq_bytes, find_record_start, ChunkSpec};"
        ));
        assert!(!hit(
            "    let source = ChunkSource::new(path, paired, total_seqs);"
        ));
        assert!(!hit("    let n = walker.walk(path, range, seq, |views| {"));
        assert!(!hit("    fn chunk_record_bytes_sum() {"));
    }

    #[test]
    fn a_second_fastq_line_reader_matches_but_the_walker_does_not() {
        let rule = FORBIDDEN
            .iter()
            .find(|rule| rule.names.contains(&"read_until"))
            .expect("the grammar rule");
        let hit = |line: &str| rule.names.iter().any(|name| found(name, line));
        assert!(hit("use std::io::{self, BufRead, BufReader};"));
        assert!(hit("    parse_fastq(BufReader::new(f), paired)"));
        assert!(hit("    let n = r.read_until(b'\\n', buf)?;"));
        assert!(hit(
            "fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>) {"
        ));
        assert!(!hit("    fn line(&mut self) -> Option<&'a [u8]> {"));
        assert!(!hit("use std::io::{self, Read, Seek, SeekFrom};"));
        assert!(!hit(
            "    RecordWalker::new(window).walk(path, (0, len), 0, |views| {"
        ));
    }

    #[test]
    fn the_table_names_no_empty_pattern() {
        for rule in FORBIDDEN {
            assert!(
                !rule.dirs.is_empty() && !rule.names.is_empty(),
                "{}",
                rule.why
            );
            assert!(rule.names.iter().all(|name| !name.is_empty()));
        }
    }
}
