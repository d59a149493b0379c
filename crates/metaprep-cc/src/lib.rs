//! Connected components for the read graph (paper §3.5–§3.6).
//!
//! METAPREP labels weakly connected components of the *implicit* read graph
//! with a distributed union-find:
//!
//! * [`seq::DisjointSet`] — sequential union-find with path splitting and
//!   union-by-index (the building block, and MergeCC's workhorse);
//! * [`concurrent::ConcurrentDisjointSet`] — the paper's Algorithm 1:
//!   threads process edges with synchronization-free `Find`/`Union` (CAS on
//!   an atomic parent array), buffering edges that caused a `Union` and
//!   re-verifying them on the next iteration;
//! * [`sv::shiloach_vishkin`] — iterative Shiloach–Vishkin CC with iteration
//!   counting, standing in for the AP_LB comparator (paper Table 4: the
//!   O(log M)-iteration algorithm METAPREP's log P merge beats);
//! * [`merge`] — MergeCC: absorbing another task's components as edges,
//!   sent as a [`merge::ComponentMsg`] (dense array or non-root pairs,
//!   whichever is fewer bytes);
//! * [`stats::ComponentStats`] — component counts/sizes/largest fraction,
//!   the numbers behind paper Table 7.
//!
//! Union-by-index (the parent of the lower-index root is set to the
//! higher-index root) is used everywhere, because — as the paper notes —
//! it cannot introduce cycles when edges are processed concurrently.

pub mod concurrent;
pub mod merge;
pub mod seq;
pub mod stats;
pub mod sv;
pub mod sync;

pub use concurrent::{ConcurrentDisjointSet, UfOpStats};
pub use merge::{absorb_parent_array, ComponentMsg};
pub use seq::DisjointSet;
pub use stats::ComponentStats;
pub use sv::{shiloach_vishkin, SvResult};
