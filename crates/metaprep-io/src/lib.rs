//! FASTQ input/output and logical file chunking for METAPREP.
//!
//! The in-memory unit of input is a [`ReadStore`]: a flat, cache-friendly
//! container of read sequences where every sequence carries a *fragment id*
//! (global read id). Both mates of a paired-end read share one fragment id,
//! which is how METAPREP preserves pairing through partitioning (paper
//! §3.2). Stores can be built in memory (synthetic data) or parsed from
//! FASTQ files ([`parse`]), and written back out as FASTQ ([`write`]).
//!
//! [`view`] reads FASTQ records in place: a zero-copy walker over raw bytes
//! with `parse`'s exact accept/reject rules, which is how the file-based
//! pipeline (`metaprep partition` / `index`) reads its input without ever
//! building a store. The crate reads, writes and chunks reads; it does not
//! quality-control them.
//!
//! [`chunk`] implements the logical FASTQ chunking used by the `FASTQPart`
//! index (paper §3.1.2): a file is split into `C` byte ranges of roughly
//! equal size whose boundaries are aligned to record starts, so that threads
//! can read chunks independently and in parallel.

pub mod chunk;
pub mod parse;
pub mod store;
pub mod stream;
pub mod view;
pub mod write;

pub use chunk::{
    chunk_fastq_bytes, chunk_fastq_bytes_paired, chunk_store, count_record_starts, count_records,
    find_record_start, ChunkSpec,
};
pub use parse::{parse_fastq, parse_fastq_path, FastqError, FastqRecord};
pub use store::ReadStore;
pub use stream::{StreamChunk, StreamChunker, DEFAULT_INDEX_WINDOW};
pub use view::{record_views, RecordView, RecordViews};
pub use write::{write_fastq, write_fastq_path, write_fastq_record};
