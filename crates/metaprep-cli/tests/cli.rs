//! End-to-end tests of the `metaprep` binary: exit codes, error
//! plumbing, and the chaos quick-start flow (simulate → partition with a
//! fault plan + checkpoints + trace → analyze --strict).

use std::path::PathBuf;
use std::process::{Command, Output};

fn metaprep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_metaprep"))
        .args(args)
        .output()
        .expect("spawn metaprep")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metaprep_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_subcommand_exits_nonzero_with_usage() {
    let out = metaprep(&["frobnicate"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("usage: metaprep"), "{err}");
}

#[test]
fn missing_required_option_shows_usage() {
    let out = metaprep(&["partition"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("usage: metaprep"), "{err}");
}

#[test]
fn io_errors_are_one_structured_line_without_usage_or_backtrace() {
    // A missing input file is an expected runtime failure, not a usage
    // mistake: exactly one `error:` line, no usage dump, no Debug/panic
    // noise.
    let out = metaprep(&["partition", "--input", "/nonexistent/reads.fastq"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.starts_with("error:"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    assert!(!err.contains("usage:"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(!err.contains("RUST_BACKTRACE"), "{err}");
}

#[test]
fn bad_fault_plan_spec_is_an_arg_error() {
    let out = metaprep(&[
        "partition",
        "--input",
        "whatever.fastq",
        "--fault-plan",
        "drop=not-a-number",
    ]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--fault-plan"), "{err}");
    assert!(err.contains("usage: metaprep"), "{err}");
}

#[test]
fn chaos_quickstart_partitions_and_analyzes_a_faulted_trace() {
    let dir = tmpdir("chaos");
    let reads = dir.join("reads.fastq");
    let trace = dir.join("trace.jsonl");
    let ckpt = dir.join("ckpt");
    let parts = dir.join("parts");

    let out = metaprep(&[
        "simulate",
        "--dataset",
        "hg",
        "--scale",
        "0.01",
        "--seed",
        "1",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "21",
        "--m",
        "6",
        "--tasks",
        "4",
        "--passes",
        "2",
        "--fault-plan",
        "seed=7,drop=0.05,dup=0.05,reorder=0.05,crash=rank1@pass1",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--watchdog-timeout",
        "20000",
        "--trace-out",
        trace.to_str().unwrap(),
        "--outdir",
        parts.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(ckpt.join("rank1.ckpt").exists(), "no checkpoint written");

    let out = metaprep(&["analyze", "--trace", trace.to_str().unwrap(), "--strict"]);
    assert!(
        out.status.success(),
        "--strict rejected the faulted trace: {}",
        stderr_of(&out)
    );
    let report = stdout_of(&out);
    assert!(report.contains("fault injection & recovery"), "{report}");
    assert!(report.contains("task 1 restarted"), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn memory_budget_alone_engages_the_planner() {
    let dir = tmpdir("budget");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--scale",
        "0.01",
        "--seed",
        "3",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "21",
        "--m",
        "6",
        "--tasks",
        "2",
        "--memory-budget",
        "1G",
        "--presolve",
        "50",
        "--outdir",
        dir.join("parts").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let report = stdout_of(&out);
    assert!(report.contains("passes planned"), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explicit_passes_with_budget_warns_and_wins_or_errors() {
    let dir = tmpdir("arbitrate");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--scale",
        "0.01",
        "--seed",
        "3",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Consistent pair: explicit --passes fits a huge budget. The run
    // succeeds and the arbitration note lands on stderr.
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "21",
        "--m",
        "6",
        "--tasks",
        "2",
        "--passes",
        "2",
        "--memory-budget",
        "4G",
        "--outdir",
        dir.join("parts").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("explicit --passes wins"),
        "{}",
        stderr_of(&out)
    );

    // Inconsistent pair: one pass cannot fit a 1-byte budget. Config
    // error, one structured line, no usage dump.
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--k",
        "21",
        "--m",
        "6",
        "--tasks",
        "2",
        "--passes",
        "1",
        "--memory-budget",
        "1",
        "--outdir",
        dir.join("parts2").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("memory budget"), "{err}");
    assert!(!err.contains("usage:"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_memory_budget_suffix_is_an_arg_error() {
    let out = metaprep(&[
        "partition",
        "--input",
        "whatever.fastq",
        "--memory-budget",
        "12Q",
    ]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("--memory-budget"), "{err}");
    assert!(err.contains("usage: metaprep"), "{err}");
}

#[test]
fn crashes_without_checkpoint_dir_are_rejected_up_front() {
    let dir = tmpdir("nockpt");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--scale",
        "0.01",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let out = metaprep(&[
        "partition",
        "--input",
        reads.to_str().unwrap(),
        "--tasks",
        "2",
        "--fault-plan",
        "seed=1,crash=rank0@pass0",
    ]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("checkpoint_dir"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `n` well-formed records (`r1`..`rn`, 40 bases each, distinct enough to
/// index) as one line list per record, so a test can break a single line.
fn good_records(n: usize) -> Vec<[Vec<u8>; 4]> {
    (1..=n)
        .map(|i| {
            let seq: Vec<u8> = (0..40)
                .map(|j| b"ACGT"[(i * 7 + j * j + j / 3) % 4])
                .collect();
            let qual = vec![b'I'; seq.len()];
            [format!("@r{i}").into_bytes(), seq, b"+".to_vec(), qual]
        })
        .collect()
}

fn fastq_of(records: &[[Vec<u8>; 4]]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in records.iter().flatten() {
        out.extend_from_slice(line);
        out.push(b'\n');
    }
    out
}

#[test]
fn stream_rejects_what_parse_fastq_rejected_before_any_pass_runs() {
    // With `--stream` nothing parses the file up front: IndexCreate is the
    // first reader, and everything `parse_fastq` used to reject must still
    // end as one `error:` line naming the file-global record — in a later
    // chunk here, and behind the paired chunker's record-start counting —
    // before a pass runs or the output directory exists.
    let broken = |record: usize, line: usize, with: &[u8]| {
        let mut records = good_records(40);
        records[record - 1][line] = with.to_vec();
        fastq_of(&records)
    };
    let truncated = {
        let mut bytes = fastq_of(&good_records(40));
        let cut = bytes.len() - "+\n".len() - 41;
        bytes.truncate(cut);
        bytes
    };
    let leading_junk = [b"junk\n".to_vec(), fastq_of(&good_records(40))].concat();
    let cases: [(&str, Vec<u8>, &[&str], &str); 8] = [
        ("qual_len", broken(30, 3, b"III"), &[], "record 30"),
        (
            "qual_len_unpaired",
            broken(30, 3, b"III"),
            &["--unpaired"],
            "record 30",
        ),
        ("no_plus", broken(30, 2, b"-"), &[], "record 30"),
        (
            "no_plus_unpaired",
            broken(30, 2, b"-"),
            &["--unpaired"],
            "record 30",
        ),
        ("truncated", truncated, &[], "record 40"),
        ("odd_pairs", fastq_of(&good_records(39)), &[], "record 39"),
        ("non_utf8", broken(30, 0, b"@r\xFF"), &[], "record 30"),
        ("leading_junk", leading_junk, &[], "record 1"),
    ];
    for (name, bytes, extra, names_record) in cases {
        let dir = tmpdir(&format!("stream_bad_{name}"));
        let reads = dir.join("reads.fastq");
        let parts = dir.join("parts");
        std::fs::write(&reads, bytes).unwrap();
        let mut args = vec!["partition", "--stream", "--k", "11", "--m", "4"];
        args.extend(["--input", reads.to_str().unwrap()]);
        args.extend(["--outdir", parts.to_str().unwrap()]);
        args.extend(extra);
        let out = metaprep(&args);
        assert!(!out.status.success(), "{name}");
        let err = stderr_of(&out);
        assert!(err.starts_with("error:"), "{name}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{name}: {err}");
        assert!(err.contains(names_record), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
        assert!(!parts.exists(), "{name}: output directory created");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn stream_and_in_memory_partition_write_identical_directories() {
    let dir = tmpdir("stream_vs_memory");
    let reads = dir.join("reads.fastq");
    let out = metaprep(&[
        "simulate",
        "--dataset",
        "hg",
        "--scale",
        "0.01",
        "--seed",
        "3",
        "--output",
        reads.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));

    let variants: [&[&str]; 4] = [
        &["--tasks", "1"],
        &["--tasks", "3", "--passes", "2"],
        &["--tasks", "2", "--unpaired"],
        &["--tasks", "2", "--top", "2"],
    ];
    for (i, variant) in variants.into_iter().enumerate() {
        let mut files_seen = 0;
        let (streamed, in_memory) = (dir.join(format!("s{i}")), dir.join(format!("m{i}")));
        for (outdir, stream) in [(&streamed, true), (&in_memory, false)] {
            let mut args = vec!["partition", "--k", "21", "--m", "6"];
            args.extend(["--input", reads.to_str().unwrap()]);
            args.extend(["--outdir", outdir.to_str().unwrap()]);
            args.extend(variant);
            if stream {
                args.push("--stream");
            }
            let out = metaprep(&args);
            assert!(out.status.success(), "{variant:?}: {}", stderr_of(&out));
            let stdout = stdout_of(&out);
            assert!(stdout.contains("  Output  "), "{stdout}");
        }
        for entry in std::fs::read_dir(&in_memory).unwrap() {
            let name = entry.unwrap().file_name();
            let want = std::fs::read(in_memory.join(&name)).unwrap();
            let got = std::fs::read(streamed.join(&name)).unwrap();
            assert!(got == want, "{variant:?}: {name:?} differs");
            files_seen += 1;
        }
        assert_eq!(
            files_seen,
            std::fs::read_dir(&streamed).unwrap().count(),
            "{variant:?}: file sets differ"
        );
        assert!(files_seen >= 2, "{variant:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
