//! Canonical k-mer primitives for METAPREP.
//!
//! This crate implements the sequence-level building blocks of the METAPREP
//! preprocessing pipeline (Rengasamy, Medvedev, Madduri; IPDPSW 2017):
//!
//! * 2-bit DNA base encoding ([`alphabet`]),
//! * packed k-mer values for `k <= 32` ([`Kmer64`]) and `k <= 63`
//!   ([`Kmer128`]) with rolling updates and reverse complements ([`kmer`]),
//! * canonical k-mer enumeration over reads, skipping `N` runs
//!   ([`enumerate`]),
//! * runtime-dispatched SIMD kernels (AVX2 / NEON / scalar) for whole-read
//!   2-bit encoding + validity classification, memchr-style byte scanning
//!   and the paper's 4-lane KmerGen (§3.2.1) restricted to the k-mers one
//!   pass owns, feeding the enumeration hot path, KmerGen and
//!   `metaprep-io`'s record scanner ([`simd`]),
//! * m-mer prefix binning used by the `merHist` / `FASTQPart` index tables
//!   ([`mmer`]),
//! * minimizers and super-k-mer splitting used by the KMC2-style baseline
//!   ([`minimizer`]).
//!
//! A *canonical* k-mer is the lexicographically smaller of a k-mer and its
//! reverse complement. Packing is MSB-first (the first base occupies the
//! highest bits), so integer order on packed values equals lexicographic
//! order on the underlying strings — the property every range-partitioning
//! step of the pipeline relies on.

pub mod alphabet;
pub mod enumerate;
pub mod kmer;
pub mod minimizer;
pub mod mmer;
pub mod simd;
pub mod tuple;

pub use alphabet::{classify_base, complement_code, decode_base, encode_base};
pub use enumerate::{for_each_canonical_kmer, for_each_canonical_kmer_scalar, valid_runs};
pub use kmer::{fold_kmer_key, Kmer, Kmer128, Kmer64};
pub use minimizer::{minimizer_of, superkmers, SuperKmer};
pub use mmer::MmerSpace;
pub use tuple::{KmerReadTuple, KmerReadTuple128};
