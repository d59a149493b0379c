//! One workload's runs of the real `metaprep partition` process: set-up,
//! warm-up, timed repetitions, and the bookkeeping of what failed.

use crate::child::{run_isolated, run_measured, ChildRun};
use crate::oracle::OutputSummary;
use crate::stats::Summary;
use crate::workload::{prepare, Prepared, WorkloadSpec};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A run that takes longer than this is killed and counted as failed.
pub const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// What a checked, successful run reported.
pub struct PartitionRun {
    pub child: ChildRun,
    /// Components, from the program's own summary line.
    pub components: usize,
    pub output: OutputSummary,
}

pub struct Session<'a> {
    pub spec: &'a WorkloadSpec,
    /// The program under test (or, in self-tests, a stand-in).
    program: &'a Path,
    /// This benchmark's own executable, to measure through (see `child`);
    /// `None` measures directly, which only self-tests may do: their
    /// executable has no `measure` mode and they assert nothing about RSS.
    launcher: Option<&'a Path>,
    pub dir: PathBuf,
    pub prepared: Prepared,
    pub setup_samples: Vec<f64>,
    /// Successful timed repetitions.
    pub timed: Vec<PartitionRun>,
    /// Output and component count of the first successful repetition.
    pub reference: Option<(OutputSummary, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why runs failed, and which reconciliation checks did not hold.
    pub problems: Vec<String>,
    pub timeout: Duration,
}

impl<'a> Session<'a> {
    /// Set the workload up `setups` times under `dir` (same seed, same
    /// bytes; repeated so `setup_s` is a median, not one sample).
    pub fn start(
        spec: &'a WorkloadSpec,
        program: &'a Path,
        launcher: Option<&'a Path>,
        dir: PathBuf,
        seed: u64,
        setups: usize,
    ) -> std::io::Result<Session<'a>> {
        let mut prepared = prepare(spec, seed, &dir)?;
        let mut setup_samples = vec![prepared.setup_s];
        for _ in 1..setups {
            prepared = prepare(spec, seed, &dir)?;
            setup_samples.push(prepared.setup_s);
        }
        Ok(Session {
            spec,
            program,
            launcher,
            dir,
            prepared,
            setup_samples,
            timed: Vec::new(),
            reference: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            timeout: RUN_TIMEOUT,
        })
    }

    /// Run `partition` once with `flags` (plus `extra`) over the workload's
    /// input into a fresh output directory, and check what it wrote against
    /// the oracle. Every call counts as attempted; `None` means it failed
    /// (non-zero exit, timeout, or wrong output) and was recorded as such.
    pub fn partition(&mut self, flags: &[String], extra: &[String]) -> Option<PartitionRun> {
        self.attempted += 1;
        let outdir = self.dir.join("parts");
        let _ = std::fs::remove_dir_all(&outdir);
        let mut args: Vec<OsString> = vec!["partition".into(), "--input".into()];
        args.push(self.prepared.input.clone().into());
        args.push("--outdir".into());
        args.push(outdir.clone().into());
        args.extend(flags.iter().chain(extra).map(OsString::from));
        let log_stem = self.dir.join("run");
        let result = match self.launcher {
            Some(launcher) => run_isolated(launcher, self.program, &args, &log_stem, self.timeout),
            None => run_measured(self.program, &args, &log_stem, self.timeout)
                .map_err(|e| format!("spawn {}: {e}", self.program.display())),
        }
        .and_then(|child| self.check(child, &outdir));
        // Deleting the outputs before writeback starts keeps ~24 MB of
        // dirty pages per run off the disk and out of the next run's time.
        let _ = std::fs::remove_dir_all(&outdir);
        match result {
            Ok(run) => Some(run),
            Err(why) => {
                self.failed += 1;
                self.problems
                    .push(format!("{} run {}: {why}", self.spec.name, self.attempted));
                None
            }
        }
    }

    fn check(&self, child: ChildRun, outdir: &Path) -> Result<PartitionRun, String> {
        if child.timed_out {
            return Err(format!("timed out after {:?}", self.timeout));
        }
        if child.exit_code != Some(0) {
            let last = child.stderr.lines().last().unwrap_or("");
            return Err(format!("exit code {:?}: {last}", child.exit_code));
        }
        // "<n> fragments -> <c> components; largest = ..."
        let components = child
            .stdout
            .lines()
            .find_map(|l| {
                l.split_once(" fragments -> ")?
                    .1
                    .split(' ')
                    .next()?
                    .parse()
                    .ok()
            })
            .ok_or("no component count on stdout")?;
        let output = self
            .prepared
            .oracle
            .check_output(&self.prepared.reads, outdir, components)?;
        Ok(PartitionRun {
            child,
            components,
            output,
        })
    }

    /// One run of the workload's own configuration (plus `extra` options
    /// that must not change its output). Every such run must write the same
    /// bytes and report the same counts as the first.
    pub fn repetition(&mut self, extra: &[String]) -> Option<PartitionRun> {
        let flags = self.spec.partition_flags();
        let run = self.partition(&flags, extra)?;
        let seen = (run.output.clone(), run.components);
        let first = self.reference.get_or_insert_with(|| seen.clone());
        if *first != seen {
            self.failed += 1;
            self.problems.push(format!(
                "{} run {}: output {seen:?} differs from the first repetition's {first:?}",
                self.spec.name, self.attempted
            ));
            return None;
        }
        Some(run)
    }

    /// One repetition kept as a sample of the end-to-end metrics.
    pub fn timed_rep(&mut self) {
        if let Some(run) = self.repetition(&[]) {
            self.timed.push(run);
        }
    }

    fn timed_summary(&self, f: impl Fn(&ChildRun) -> f64) -> Option<Summary> {
        let samples: Vec<f64> = self.timed.iter().map(|r| f(&r.child)).collect();
        (!samples.is_empty()).then(|| Summary::of(&samples))
    }

    /// Wall clock of the timed runs, spawn to exit.
    pub fn wall_s(&self) -> Option<Summary> {
        self.timed_summary(|c| c.wall_s)
    }

    /// `ru_maxrss` of the timed runs.
    pub fn peak_rss_mb(&self) -> Option<Summary> {
        self.timed_summary(|c| c.peak_rss_mb)
    }

    /// User + system CPU of the timed runs.
    pub fn cpu_s(&self) -> Option<Summary> {
        self.timed_summary(|c| c.cpu_s)
    }

    pub fn setup_s(&self) -> Summary {
        Summary::of(&self.setup_samples)
    }

    /// Record a reconciliation check that did not hold.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems
                .push(format!("{}: {}", self.spec.name, what()));
        }
    }
}
