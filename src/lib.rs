//! # METAPREP-RS
//!
//! A Rust reproduction of **"Parallel and Memory-efficient Preprocessing for
//! Metagenome Assembly"** (Rengasamy, Medvedev, Madduri; IEEE IPDPSW 2017).
//!
//! METAPREP partitions a metagenomic read set into connected components of
//! the *read graph* — reads are vertices and an edge connects two reads that
//! share a canonical k-mer — so that each component can be assembled
//! independently, bounding assembler memory.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`kmer`] — canonical k-mer encoding and enumeration,
//! * [`io`] — FASTQ parsing, writing and logical chunking,
//! * [`synth`] — synthetic metagenome community / read simulation,
//! * [`index`] — `merHist` / `FASTQPart` index tables and range planning,
//! * [`sort`] — serial and parallel LSB radix sorts,
//! * [`cc`] — union-find and label-propagation connected components,
//! * [`dist`] — the simulated distributed-memory cluster,
//! * [`core`] — the METAPREP pipeline itself, over one input path: a FASTQ
//!   file (`run_fastq_file`), to which `run_reads` writes in-memory reads,
//! * [`kmc`] — the KMC2-style k-mer counting baseline,
//! * [`assembly`] — the compact de Bruijn graph unitig assembler,
//! * [`norm`] — digital normalization (count-min sketch based),
//! * [`obs`] — run telemetry: spans, counters, trace export, run reports.
//!
//! ## Quickstart
//!
//! ```no_run
//! use metaprep::core::{Pipeline, PipelineConfig};
//! use metaprep::synth::{CommunityProfile, simulate_community};
//!
//! // Generate a small synthetic community and partition its reads.
//! let data = simulate_community(&CommunityProfile::quickstart(), 42);
//! let cfg = PipelineConfig::builder().k(27).tasks(2).threads(2).build();
//! let result = Pipeline::new(cfg).run_reads(&data.reads).unwrap();
//! println!("largest component holds {:.1}% of reads",
//!          100.0 * result.components.largest_fraction());
//! ```

pub use metaprep_assembly as assembly;
pub use metaprep_cc as cc;
pub use metaprep_core as core;
pub use metaprep_dist as dist;
pub use metaprep_index as index;
pub use metaprep_io as io;
pub use metaprep_kmc as kmc;
pub use metaprep_kmer as kmer;
pub use metaprep_norm as norm;
pub use metaprep_obs as obs;
pub use metaprep_sort as sort;
pub use metaprep_synth as synth;
