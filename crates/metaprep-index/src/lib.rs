//! Index tables and k-mer range planning (IndexCreate, paper §3.1).
//!
//! METAPREP precomputes two tables per dataset so that every later step is
//! statically load-balanced and synchronization-free:
//!
//! * [`MerHist`] — counts of the length-`m` prefixes of all canonical
//!   k-mers (`4^m` bins of `u32`, §3.1.1). It drives the partitioning of
//!   the k-mer value range into passes × tasks × threads
//!   ([`RangePlan`]).
//! * [`FastqPart`] — the logical chunk table (§3.1.2): per chunk, its byte
//!   location, first read id, size, *and its own m-mer histogram*, from
//!   which exact send/receive buffer sizes and per-thread write offsets are
//!   computed before any tuple is generated.
//!
//! IndexCreate is one histogram kernel over FASTQ bytes — held whole (the
//! oracle, and the tables of a store written as FASTQ) or walked from a
//! file on disk, the path every run takes ([`streaming`]); the global
//! histogram is the sum of the chunk rows, so the two tables agree by
//! construction.
//!
//! Both tables serialize to a compact binary format ([`serial`]):
//! `metaprep index` is the IndexCreate timing probe and writes them, and
//! the paper's Table 5 reports their sizes. Nothing reads them back;
//! `partition` re-indexes its input.
//!
//! [`countmin`] is the count-min sketch that IndexCreate's sketched scan
//! fills for the probabilistic presolve, and the frozen filter KmerGen
//! probes.

pub mod countmin;
pub mod fastqpart;
pub mod merhist;
pub mod plan;
pub mod serial;
pub mod streaming;

pub use countmin::{CountMinSketch, HighFreqFilter, SketchParams};
pub use fastqpart::{ChunkRecord, FastqPart};
pub use merhist::MerHist;
pub use plan::{split_bins_by_weight, BucketPlan, RangePlan};
pub use streaming::{
    index_fastq_bytes, index_fastq_file_streaming, index_fastq_file_streaming_sketched_recorded,
    StreamingOptions,
};
