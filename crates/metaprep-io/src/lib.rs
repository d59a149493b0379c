//! FASTQ input/output and logical file chunking for METAPREP.
//!
//! The in-memory unit of input is a [`ReadStore`]: a flat, cache-friendly
//! container of read sequences where every sequence carries a *fragment id*
//! (global read id). Both mates of a paired-end read share one fragment id,
//! which is how METAPREP preserves pairing through partitioning (paper
//! §3.2). Stores can be built in memory (synthetic data) or parsed from
//! FASTQ files ([`parse`]), and written back out as FASTQ ([`write`]).
//!
//! [`view`] reads FASTQ records in place: a zero-copy walker over raw bytes,
//! the crate's one FASTQ grammar. It decides which records a file holds and
//! names a malformed one by its record number and header byte offset, and
//! it is how the file-based pipeline (`metaprep partition` / `index`) reads
//! and counts its input without ever building a store; [`parse`] builds a
//! store from its records. No other reading of the bytes decides what a
//! record is. The crate reads, writes and chunks reads; it does not
//! quality-control them.
//!
//! [`chunk`] implements the logical FASTQ chunking used by the `FASTQPart`
//! index (paper §3.1.2): a file is split into `C` byte ranges of roughly
//! equal size whose boundaries are aligned to record starts — one rule for
//! paired and unpaired input, paired boundaries rounded to whole mate pairs
//! — so that threads can read chunks independently and in parallel;
//! [`stream`] finds the same cuts without holding the file, and its
//! [`RecordWalker`] reads any byte range of it one window at a time.

pub mod chunk;
pub mod parse;
pub mod store;
pub mod stream;
pub mod view;
pub mod write;

pub use chunk::{chunk_fastq_bytes, find_record_start, ChunkSpec};
pub use parse::{parse_fastq, parse_fastq_path, FastqError};
pub use store::ReadStore;
pub use stream::{input_len, RecordWalker, StreamChunker, DEFAULT_INDEX_WINDOW, WALK_WINDOW};
pub use view::{record_views, RecordView, RecordViews};
pub use write::{write_fastq, write_fastq_path, write_fastq_record};
