//! The paper's per-task memory model (§3.7) plus measured peaks.
//!
//! Modeled bytes per task:
//!
//! ```text
//! 4^{m+1} (C + 1)        merHist + FASTQPart
//! + T * s_c              FASTQBuffer (T chunks in flight)
//! + 2 * b * M / (S * P)  kmerOut + kmerIn (b = tuple bytes, 12 or 20)
//! + 8 R                  component arrays p and p'
//! ```
//!
//! The paper's example (IS, S=8, P=16, T=24) evaluates this to ~49 GB per
//! task; Table 3's memory column is this model evaluated per pass count.
//! We report the model alongside *measured* tuple-buffer peaks so the two
//! can be compared in EXPERIMENTS.md.
//!
//! The measured per-pass tuple peak (`peak_tuples`, serialized into the
//! checkpoints, so its formula is fixed) charges what a message-passing run
//! of the pass holds (DESIGN.md §7.2): distinct send and receive buffers
//! during the all-to-all (`kmer_out + kmer_in`), or the received parts next
//! to the destination they are gathered into (`2 × kmer_in`), whichever is
//! larger; the per-thread in-bucket sort workspace — the bucket scratch
//! window and the rank sort's key table, per-tuple ids and distinct-key
//! pairs, each sized by one cache-sized bucket — is not counted. The
//! in-process exchange undercuts that charge: the self-addressed buffer is
//! moved, never copied, so it is not resident twice, and a single-task run
//! sorts in the very buffer KmerGen wrote — one tuple copy where two are
//! charged (DESIGN.md §7 records the gap).
//! Capacity the pooled pass buffers carry between passes is covered by the
//! allocator-measured footprint, not this model.

use crate::planner::PlanInputs;

/// Per-task memory report.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MemoryReport {
    /// merHist table bytes (`4^{m+1}`).
    pub merhist_bytes: u64,
    /// FASTQPart table bytes (`4^{m+1} * C` plus fixed per-chunk fields).
    pub fastqpart_bytes: u64,
    /// FASTQ chunk buffers (`T * s_c`).
    pub fastq_buffer_bytes: u64,
    /// kmerOut buffer (`b * M / (S * P)`).
    pub kmer_out_bytes: u64,
    /// kmerIn buffer (same size as kmerOut in expectation).
    pub kmer_in_bytes: u64,
    /// Component arrays `p` + `p'` (`8 R`).
    pub component_bytes: u64,
    /// Measured: maximum tuples resident on any task in any pass.
    pub measured_peak_tuples: u64,
    /// Measured: that peak in bytes (`size_of` the tuple — the model's `b`).
    pub measured_peak_tuple_bytes: u64,
}

impl MemoryReport {
    /// Evaluate the §3.7 model for `inputs` at `passes` passes (`S`) — the
    /// single entrance to the model, shared by the planner and the run's
    /// report.
    pub fn model(inputs: &PlanInputs, passes: usize) -> Self {
        let table = 4u64.pow(inputs.m as u32 + 1);
        let per_pass_task = inputs
            .total_tuples
            .div_ceil(passes as u64 * inputs.tasks as u64);
        Self {
            merhist_bytes: table,
            fastqpart_bytes: table * inputs.chunks as u64,
            fastq_buffer_bytes: inputs.threads as u64 * inputs.avg_chunk_bytes,
            kmer_out_bytes: per_pass_task * inputs.tuple_bytes as u64,
            kmer_in_bytes: per_pass_task * inputs.tuple_bytes as u64,
            component_bytes: 8 * inputs.reads,
            measured_peak_tuples: 0,
            measured_peak_tuple_bytes: 0,
        }
    }

    /// Total modeled bytes per task.
    pub fn total_modeled(&self) -> u64 {
        self.merhist_bytes
            + self.fastqpart_bytes
            + self.fastq_buffer_bytes
            + self.kmer_out_bytes
            + self.kmer_in_bytes
            + self.component_bytes
    }

    /// Record a measured per-task tuple peak.
    pub fn record_peak(&mut self, tuples: u64, tuple_size: usize) {
        if tuples > self.measured_peak_tuples {
            self.measured_peak_tuples = tuples;
            self.measured_peak_tuple_bytes = tuples * tuple_size as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_magnitudes() {
        // IS dataset example from §3.7: M ≈ 223e9 bp upper-bounds tuples;
        // the paper states ~1.3e9 tuples per task-pass with S=8, P=16, and
        // per-task totals of ~49 GB. Check the model reproduces those
        // magnitudes with the paper's inputs.
        let tuples_total: u64 = 8 * 16 * 1_300_000_000; // per paper's ~1.3B/task/pass
        let inputs = PlanInputs {
            m: 10,
            chunks: 1536,
            threads: 24,
            avg_chunk_bytes: 300_000_000, // s_c ≈ 0.3 GB
            total_tuples: tuples_total,
            tuple_bytes: 12,
            tasks: 16,
            reads: 1_130_000_000, // R = 1.13e9
        };
        let r = MemoryReport::model(&inputs, 8);
        let gb = |x: u64| x as f64 / 1e9;
        assert!(
            (gb(r.fastqpart_bytes) - 6.4).abs() < 1.0,
            "{}",
            gb(r.fastqpart_bytes)
        );
        assert!((gb(r.fastq_buffer_bytes) - 7.2).abs() < 0.5);
        assert!((gb(r.kmer_out_bytes) - 15.6).abs() < 2.0);
        assert!((gb(r.component_bytes) - 9.0).abs() < 1.0);
        let total = gb(r.total_modeled());
        assert!((40.0..60.0).contains(&total), "total {total} GB");
    }

    #[test]
    fn more_passes_less_memory() {
        let inputs = PlanInputs {
            m: 8,
            chunks: 64,
            threads: 4,
            avg_chunk_bytes: 1 << 20,
            total_tuples: 100_000_000,
            tuple_bytes: 12,
            tasks: 4,
            reads: 1_000_000,
        };
        let mk = |s: usize| MemoryReport::model(&inputs, s).total_modeled();
        assert!(mk(2) < mk(1));
        assert!(mk(8) < mk(2));
    }

    #[test]
    fn record_peak_keeps_max() {
        let mut r = MemoryReport::default();
        r.record_peak(100, 12);
        r.record_peak(50, 12);
        assert_eq!(r.measured_peak_tuples, 100);
        assert_eq!(r.measured_peak_tuple_bytes, 1200);
    }

    #[test]
    fn total_sums_components() {
        let inputs = PlanInputs {
            m: 4,
            chunks: 2,
            threads: 1,
            avg_chunk_bytes: 10,
            total_tuples: 100,
            tuple_bytes: 12,
            tasks: 1,
            reads: 5,
        };
        let r = MemoryReport::model(&inputs, 1);
        assert_eq!(
            r.total_modeled(),
            r.merhist_bytes
                + r.fastqpart_bytes
                + r.fastq_buffer_bytes
                + r.kmer_out_bytes
                + r.kmer_in_bytes
                + r.component_bytes
        );
    }
}
