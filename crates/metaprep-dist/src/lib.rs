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

pub mod cluster;
pub mod collectives;
pub mod delivery;
pub mod faults;
pub mod netmodel;
pub mod stats;
pub mod supervisor;
pub mod sync;

pub use cluster::{explore_schedules, run_cluster, ClusterConfig, ClusterResult, TaskCtx};
#[cfg(not(loom))]
pub use cluster::{run_cluster_faulted, FaultStats};
pub use collectives::{alltoall, alltoall_naive, alltoall_obs, broadcast, gather, stage_peers};
pub use delivery::{DedupState, DeliveryPolicy, Offer};
pub use faults::{
    Boundary, CrashSpec, FaultKind, FaultPlan, FaultReport, FaultRule, FaultScope, FaultTally,
    InjectedCrash, SendDecision,
};
pub use netmodel::NetworkModel;
pub use stats::{check_conservation, CommStats};
pub use supervisor::run_supervised;

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

impl Payload for () {
    fn size_bytes(&self) -> usize {
        0
    }
}
