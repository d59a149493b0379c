//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each experiment reproduces one table or figure of the paper's
//! evaluation (§4) on the scaled synthetic datasets and prints a
//! paper-style table, or probes one step and writes a `BENCH_*.json`
//! artifact. The one `exp` binary runs them by name:
//!
//! ```text
//! cargo run --release -p metaprep-bench --bin exp -- table7
//! METAPREP_SCALE=0.25 cargo run --release -p metaprep-bench --bin exp -- fig6
//! cargo run --release -p metaprep-bench --bin exp -- all      # everything
//! ```
//!
//! `METAPREP_SCALE` scales dataset sizes (default 1.0 — roughly 1/50 000 of
//! the paper's base pairs, preserving relative dataset sizes).
//!
//! The experiment logic lives in [`experiments`]; `exp` looks each name up
//! in its [`experiments::EXPERIMENTS`] table. [`harness`] holds the dataset cache, the table printer and the artifact
//! writer. `exp` installs [`allocpeak::PeakAlloc`] as its global
//! allocator, so every experiment reads live allocator peaks.

pub mod allocpeak;
pub mod experiments;
pub mod harness;

pub use harness::{dataset, fmt_dur, fmt_gb, print_table, scale_from_env};
