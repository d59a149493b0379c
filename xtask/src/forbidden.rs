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
