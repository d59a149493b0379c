//! Simulated distributed-memory cluster.
//!
//! The paper runs METAPREP with MPI across up to 64 Edison nodes. This
//! crate substitutes an in-process simulation that preserves the
//! *algorithmic* structure of the distributed implementation:
//!
//! * each MPI task is an OS thread with **private state** — tasks share
//!   nothing except the explicit message channels (so any forgotten
//!   communication is a compile error or a deadlock, not silent sharing);
//! * point-to-point messages move owned buffers between tasks over
//!   per-pair channels, and every send is **byte-accounted**, so the
//!   communication-volume columns of the scaling figures are exact even
//!   though wall-clock network time is not simulated;
//! * the custom `P`-stage all-to-all of paper §3.3 (stage `i`: task `p`
//!   sends to `(p + i) mod P`) is implemented verbatim — including the
//!   reason it exists: MPI's `Alltoallv` 32-bit count limitation does not
//!   apply here, but the staged structure is what the paper measures;
//! * each task owns a rayon thread pool of `T` threads for its OpenMP-style
//!   intra-task parallelism.
//!
//! One path per operation: [`run_cluster`] runs every rank under one
//! [`ClusterConfig`] (recorder + fault plan); a rank asks
//! [`TaskCtx::crash_due`] at each restart boundary and restarts itself from
//! its checkpoint, and a real panic in any rank aborts the run and releases
//! its peers. Each rank's `TaskObs` lives in its [`TaskCtx`], so `send`,
//! `recv_from`, [`alltoall`] and [`broadcast`] take no observer or stage
//! argument. The collectives are the two the pipeline runs (the staged
//! all-to-all and the label broadcast); MergeCC is the caller's own
//! pairwise `send` / `recv_from` tree, and there is no barrier — phases
//! synchronize through their messages. Each rank counts its own fault
//! tallies; the run's [`FaultStats`] is their sum once the ranks have
//! joined. Under `--cfg loom` only [`sync`], [`stage_peers`] and
//! [`DedupState`] are built — what `tests/loom.rs` models.

#[cfg(not(loom))]
pub mod cluster;
#[cfg(not(loom))]
pub mod collectives;
pub mod delivery;
pub mod faults;
pub mod netmodel;
pub mod stats;
pub mod sync;

#[cfg(not(loom))]
pub use cluster::{
    explore_schedules, run_cluster, ClusterConfig, ClusterResult, FaultStats, TaskCtx,
};
#[cfg(not(loom))]
pub use collectives::{alltoall, broadcast};
pub use delivery::{DedupState, DeliveryPolicy, Offer};
pub use faults::{Boundary, CrashSpec, FaultKind, FaultPlan, FaultReport, FaultRule, SendDecision};
pub use netmodel::NetworkModel;
pub use stats::{check_conservation, CommStats};

/// Peers of task `rank` in stage `stage` of the staged all-to-all:
/// `(to, from)` where this task sends to `(rank + stage) mod P` and
/// receives from `(rank - stage) mod P`.
///
/// Built under `--cfg loom` too, so `tests/loom.rs` explores the exact
/// schedule `alltoall` executes, not a reimplementation.
pub fn stage_peers(rank: usize, p: usize, stage: usize) -> (usize, usize) {
    debug_assert!(rank < p && stage < p);
    ((rank + stage) % p, (rank + p - stage) % p)
}

/// Payload types that can be sent between tasks with byte accounting.
pub trait Payload: Send + 'static {
    /// Wire size of this message in bytes (the quantity an MPI
    /// implementation would move).
    fn size_bytes(&self) -> usize;
}

impl<T: Send + 'static> Payload for Vec<T> {
    fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}
