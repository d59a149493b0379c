//! The METAPREP preprocessing pipeline (paper §3).
//!
//! Partitions a metagenomic read set into connected components of the
//! implicit *read graph* (reads sharing a canonical k-mer are connected) so
//! that each component can be assembled independently. The pipeline runs on
//! the simulated cluster of `metaprep-dist` with the exact step structure
//! of the paper:
//!
//! ```text
//! IndexCreate -> for each pass s:                       (multi-pass, §3.1)
//!                  KmerGen        (enumerate tuples,    §3.2)
//!                  KmerGen-Comm   (P-stage all-to-all,  §3.3)
//!                  LocalSort      (group by k-mer,      §3.4)
//!                  LocalCC        (concurrent UF,       §3.5)
//!                -> MergeCC       (log P rounds,        §3.6)
//!                -> output partitioned FASTQ
//! ```
//!
//! A run has one input path: [`Pipeline::run_fastq_file`] indexes a FASTQ
//! file with the streaming IndexCreate and every pass re-reads its chunks
//! from it, never holding it ([`write_partitions_streamed`] writes the
//! partition from the same file). [`Pipeline::run_reads`] writes reads
//! held in memory to a temporary FASTQ file and runs that path; telemetry
//! goes to the recorder given with [`Pipeline::with_recorder`]. Configuration:
//! [`PipelineConfig`] (k, m, passes or a memory budget, presolve, tasks,
//! threads, k-mer frequency filter, fault plan, checkpoints), validated
//! when a run starts.
//! Results carry component labels, per-task per-step timings,
//! communication volumes and both modeled and measured memory.

mod checkpoint;
pub mod config;
pub mod kmergen;
pub mod localcc;
pub mod memmodel;
pub mod output;
pub mod pipeline;
pub mod planner;
mod source;
pub mod timings;

pub use config::{PipelineConfig, PipelineConfigBuilder, PipelineError};
pub use memmodel::MemoryReport;
pub use output::{
    partition_reads, partition_top_n, write_multi_partition, write_multi_partition_streamed,
    write_partitions, write_partitions_streamed, MultiPartition, PartitionedReads,
};
pub use pipeline::{Pipeline, PipelineResult};
pub use planner::{plan_passes, PassPlan, PlanInputs, MAX_PLANNED_PASSES};
pub use timings::{Step, StepTimings, TaskTimings};
