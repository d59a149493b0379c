//! Self-tests of the harness: the whole thing on quickstart-sized inputs,
//! the metric catalog against `BENCHMARK.json`, and the failure paths.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::session::Session;
use crate::workload::{self, WorkloadSpec};
use crate::{json, measure, report, Env};
use metaprep_synth::CommunityProfile;
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A fresh directory under `benchmark/out/` (tests, like the benchmark,
/// write nowhere else).
pub fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("test-scratch")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quickstart(name: &'static str) -> WorkloadSpec {
    WorkloadSpec {
        name,
        why: "self-test",
        profile: CommunityProfile::quickstart(),
        k: 27,
        tasks: 1,
        threads: 1,
        passes: None,
        kf: None,
        presolve: None,
        memory_budget: None,
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn benchmark_json_declares_exactly_the_catalog() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();
    let text = |v: &json::Value, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();

    let declared: Vec<(String, String)> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    let catalog: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared, catalog);
    assert!(catalog.iter().all(|(n, _)| valid_name(n)));

    let declared: Vec<(String, String, f64, String)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            (text(m, "name"), text(m, "unit"), bound, text(m, "better"))
        })
        .collect();
    let catalog: Vec<(String, String, f64, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.bound, "lower".into()))
        .collect();
    assert_eq!(declared, catalog);

    let declared: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let specs: Vec<(String, String)> = workload::all()
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(declared, specs);
    assert!(specs
        .iter()
        .all(|(n, why)| valid_name(n) && why.len() <= 200));
    assert_eq!(list("paths"), vec![json::Value::str("benchmark")]);
}

#[test]
fn full_harness_on_quickstart_inputs() {
    let env = Env {
        launcher: None,
        out: scratch("harness"),
        ..Env::locate().unwrap()
    };
    let specs = [
        // Through metaprep-dist, exact against the oracle.
        WorkloadSpec {
            tasks: 2,
            passes: Some(2),
            ..quickstart("quick_2x1_s2")
        },
        // Threads, 128-bit tuples, filter + presolve: refinement.
        WorkloadSpec {
            k: 63,
            threads: 2,
            kf: Some((1, 30)),
            presolve: Some(40),
            ..quickstart("quick_k63")
        },
    ];
    let reports = measure(&env, &specs, 7, 0.0, 2, true).unwrap();
    for (report, spec) in reports.iter().zip(&specs) {
        assert!(report.correct(), "{}", report.render());
        assert_eq!(report.end_to_end.as_ref().unwrap()[0].n, crate::MIN_REPS);

        // The result lines carry exactly the declared metric names.
        let names = |traced| -> Vec<String> {
            let line = report::contract_line(report, traced).unwrap();
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            metrics.iter().map(|(name, _)| name.clone()).collect()
        };
        assert_eq!(
            names(false),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(true),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );

        let layers = report.per_layer.as_ref().unwrap();
        assert!(layers.get("kmer.kmers") > 0.0);
        assert_eq!(layers.get("dist.bytes_sent") == 0.0, spec.tasks == 1);
        let walk =
            layers.get("io.parse_s") + layers.get("core.pipeline_s") + layers.get("core.output_s");
        assert_eq!(layers.get("cli.walk_s"), walk);

        let spans =
            std::fs::read_to_string(env.out.join(format!("{}.spans.jsonl", spec.name))).unwrap();
        let roots = spans
            .lines()
            .filter(|l| l.contains("\"parent\":null"))
            .count();
        assert_eq!(roots, 2, "{spans}");
    }
}

#[test]
fn oracle_rejects_swapped_outputs() {
    let env = Env::locate().unwrap();
    let dir = scratch("swapped");
    let spec = quickstart("quick_swap");
    let mut session = Session::start(&spec, &env.program, None, dir.clone(), 3, 1).unwrap();
    // `partition` deletes what it checked, so run the program once more by hand.
    let run = session.repetition(&[]).expect("a correct run");
    let outdir = dir.join("kept");
    let status = std::process::Command::new(&env.program)
        .arg("partition")
        .arg("--input")
        .arg(&session.prepared.input)
        .arg("--outdir")
        .arg(&outdir)
        .args(spec.partition_flags())
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let check = |s: &Session| {
        s.prepared
            .oracle
            .check_output(&s.prepared.reads, &outdir, run.components)
    };
    assert_eq!(check(&session).unwrap(), run.output);

    std::fs::rename(outdir.join("lc.fastq"), outdir.join("tmp")).unwrap();
    std::fs::rename(outdir.join("other.fastq"), outdir.join("lc.fastq")).unwrap();
    std::fs::rename(outdir.join("tmp"), outdir.join("other.fastq")).unwrap();
    assert!(check(&session).is_err());
}

#[test]
fn failing_and_hanging_children_are_counted_not_fatal() {
    let dir = scratch("failing");
    let script = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    };
    let spec = quickstart("quick_fail");

    let exits_one = script("exits_one", "echo broken >&2; exit 1");
    let mut s = Session::start(&spec, &exits_one, None, dir.join("a"), 3, 1).unwrap();
    s.timed_rep();
    s.timed_rep();
    assert_eq!((s.attempted, s.failed, s.timed.len()), (2, 2, 0));
    assert!(
        s.problems[0].contains("exit code Some(1): broken"),
        "{:?}",
        s.problems
    );

    let hangs = script("hangs", "exec sleep 30");
    let mut s = Session::start(&spec, &hangs, None, dir.join("b"), 3, 1).unwrap();
    s.timeout = Duration::from_millis(200);
    s.timed_rep();
    assert_eq!((s.attempted, s.failed), (1, 1));
    assert!(s.problems[0].contains("timed out"), "{:?}", s.problems);

    // A program that "succeeds" without writing the partition fails the check.
    let lies = script(
        "lies",
        "echo '2000 fragments -> 1 components; largest = 100%'",
    );
    let mut s = Session::start(&spec, &lies, None, dir.join("c"), 3, 1).unwrap();
    s.timed_rep();
    assert_eq!((s.attempted, s.failed), (1, 1));
    let report = report::WorkloadReport::of(&s, None);
    assert!(!report.correct() && report::contract_line(&report, false).is_none());
}
