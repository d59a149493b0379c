//! The benchmark's workloads: what is generated, which `metaprep partition`
//! flags run over it, and why each one is here.

use crate::oracle::{fingerprint_file, Oracle};
use metaprep_core::PipelineConfig;
use metaprep_io::{write_fastq_path, ReadStore};
use metaprep_synth::{scaled_profile, simulate_community, CommunityProfile, DatasetId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `--watchdog-timeout` for every run, in place of the program's 5 s: the
/// reference VM can stall a whole process for seconds, and a rank that waits
/// that long for its peer must not report a deadlock (one sizing run did).
/// A run that truly hangs still dies at the session's 120 s timeout.
const WATCHDOG_TIMEOUT_MS: u64 = 60_000;

/// One workload: a synthetic community and a `partition` configuration.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what this workload stresses.
    pub why: &'static str,
    pub profile: CommunityProfile,
    pub k: usize,
    pub tasks: usize,
    pub threads: usize,
    /// `--passes`; `None` leaves the count to the planner.
    pub passes: Option<usize>,
    /// `--kf lo:hi`.
    pub kf: Option<(u32, u32)>,
    /// `--presolve`.
    pub presolve: Option<u32>,
    /// `--memory-budget`, bytes.
    pub memory_budget: Option<u64>,
}

// Inputs are a quarter of the sizes ISSUE.md sketches (≈ 11–12 Mbp, ≈ 24 MB
// of FASTQ, ≈ 1 s per run on 2 cores): the contract gives 92 runs 3420 s, and
// shrinking the input was preferred over dropping below 7 repetitions. The
// tuple buffers (≈ 10 M tuples × 16 B per pass·task) still dwarf any LLC.
pub fn all() -> Vec<WorkloadSpec> {
    let base = |name, why, profile| WorkloadSpec {
        name,
        why,
        profile,
        k: 27,
        tasks: 1,
        threads: 1,
        passes: None,
        kf: None,
        presolve: None,
        memory_budget: None,
    };
    vec![
        WorkloadSpec {
            passes: Some(1),
            ..base(
                "mm_1x1_s1",
                "plain single-threaded baseline: LocalSort + KmerGen dominate, no messages, no \
                 thread contention, one read of the file; where core.step_cover must reconcile",
                scaled_profile(DatasetId::Mm, 1.0),
            )
        },
        WorkloadSpec {
            tasks: 2,
            passes: Some(2),
            ..base(
                "mm_2x1_s2",
                "same file through metaprep-dist: all-to-all, Merge-Comm, label broadcast, \
                 half-size sorts and a second chunk re-read; fixed-size scaling vs mm_1x1_s1",
                scaled_profile(DatasetId::Mm, 1.0),
            )
        },
        WorkloadSpec {
            threads: 2,
            passes: Some(4),
            ..base(
                "ll_1x2_s4",
                "threads inside one task: rayon sub-range sorts, contended union-find, four \
                 chunk re-reads, LocalCC-Opt look-ups; passes traded for footprint (lowest RSS)",
                scaled_profile(DatasetId::Ll, 2.4),
            )
        },
        WorkloadSpec {
            k: 63,
            tasks: 2,
            kf: Some((1, 3)),
            presolve: Some(4),
            memory_budget: Some(64 << 20),
            ..base(
                "hg_k63_budget",
                "same layers used differently: 128-bit tuples, sketch fused into IndexCreate, \
                 planner-chosen passes, k-mer filter, many small components; sort does least here",
                scaled_profile(DatasetId::Hg, 4.0),
            )
        },
    ]
}

impl WorkloadSpec {
    /// With presolve on, sketch collisions may legitimately drop extra
    /// k-mers, so the output is only required to refine the reference.
    pub fn exact(&self) -> bool {
        self.presolve.is_none()
    }

    /// The `metaprep partition` options of this workload (everything but
    /// `--input` / `--outdir`). `--stream` makes the CLI run the file-based
    /// pipeline (`Pipeline::run_fastq_file`), the path the paper describes.
    pub fn partition_flags(&self) -> Vec<String> {
        let mut f = vec!["--stream".to_string()];
        let mut opt = |key: &str, val: String| f.extend([format!("--{key}"), val]);
        opt("tasks", self.tasks.to_string());
        opt("threads", self.threads.to_string());
        opt("k", self.k.to_string());
        if let Some(s) = self.passes {
            opt("passes", s.to_string());
        }
        if let Some((lo, hi)) = self.kf {
            opt("kf", format!("{lo}:{hi}"));
        }
        if let Some(t) = self.presolve {
            opt("presolve", t.to_string());
        }
        if let Some(b) = self.memory_budget {
            opt("memory-budget", b.to_string());
        }
        opt("watchdog-timeout", WATCHDOG_TIMEOUT_MS.to_string());
        f
    }

    /// The same configuration for the in-process traced run. Everything not
    /// set here keeps `PipelineConfig`'s default, as it does in the CLI.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut b = PipelineConfig::builder()
            .k(self.k)
            .tasks(self.tasks)
            .threads(self.threads)
            .watchdog_timeout_ms(WATCHDOG_TIMEOUT_MS);
        if let Some(s) = self.passes {
            b = b.passes(s);
        }
        if let Some((lo, hi)) = self.kf {
            b = b.kf_filter(lo, hi);
        }
        if let Some(t) = self.presolve {
            b = b.presolve_threshold(t);
        }
        if let Some(bytes) = self.memory_budget {
            b = b.memory_budget(bytes);
        }
        b.build()
    }

    /// The plain single-task, single-thread, single-pass run of the same
    /// problem — the base of `cli.speedup_vs_1x1`.
    pub fn baseline_1x1(&self) -> WorkloadSpec {
        WorkloadSpec {
            tasks: 1,
            threads: 1,
            passes: self.passes.map(|_| 1),
            ..self.clone()
        }
    }
}

/// A workload's generated input and its reference partition.
pub struct Prepared {
    pub input: PathBuf,
    /// The reads as generated (the program only ever sees the file).
    pub reads: ReadStore,
    pub oracle: Oracle,
    pub input_bytes: u64,
    pub input_fingerprint: u64,
    /// Generation + FASTQ write + oracle, seconds.
    pub setup_s: f64,
}

/// Set a workload up under `dir`: simulate the community from `seed`, write
/// it as interleaved FASTQ, compute the reference partition.
pub fn prepare(spec: &WorkloadSpec, seed: u64, dir: &Path) -> std::io::Result<Prepared> {
    let start = Instant::now();
    std::fs::create_dir_all(dir)?;
    let input = dir.join("input.fastq");
    let reads = simulate_community(&spec.profile, seed).reads;
    write_fastq_path(&input, &reads)?;
    let oracle = Oracle::compute(&reads, spec.k, spec.kf, spec.exact());
    let setup_s = start.elapsed().as_secs_f64();
    Ok(Prepared {
        input_bytes: std::fs::metadata(&input)?.len(),
        input_fingerprint: fingerprint_file(&input)?,
        input,
        reads,
        oracle,
        setup_s,
    })
}
