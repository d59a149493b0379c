//! Radix sorts for k-mer tuples (LocalSort, paper §3.4).
//!
//! The paper's LocalSort splits `(k-mer, read id)` tuples into `T` disjoint
//! k-mer sub-ranges and sorts each with a serial out-of-place LSB radix
//! sort, 8 bits per pass: 256 bucket counters stay resident in L1, which
//! the paper found faster than 16-bit digits ([`radix::lsb_radix_sort`];
//! the digit width is a parameter).
//!
//! The pipeline has one LocalSort, [`fused::bucketed_local_sort`], and it
//! sorts **cache-sized buckets** with no partitioning stage of its own:
//! KmerGen writes every tuple into the sort bucket it belongs to (runs of
//! m-mer bins nested in the `T` thread sub-ranges, about [`BUCKET_BYTES`]
//! each), so the parts that come out of the all-to-all are already grouped.
//! The sort finds each bucket's run in each part by binary search, adopts
//! the task's own part as the destination (moving its runs apart to their
//! final offsets), copies the other senders' runs in and sorts each bucket
//! while it is cache-resident. The in-bucket sort is a stable counting sort
//! by distinct-key rank: one pass through a cache-resident hash table gives
//! every tuple the id of its k-mer, only the distinct `(k-mer, id)` pairs
//! are radix-sorted ([`radix::lsb_radix_sort_pruned`], 8 bits per pass,
//! skipping identity passes via a varying-bits mask taken in the sweep that
//! brings the bucket into cache), and one pass places every tuple. A bucket
//! whose mask leaves few digit passes, or whose table pass finds too many
//! distinct k-mers for the saving to pay for it, is radix-sorted tuple by
//! tuple instead, and so are the next few buckets of the same worker.
//! [`fused::fused_local_sort`] adapts parts in any order to it: each thread
//! sub-range becomes one bucket.
//!
//! The one reference is serial [`radix::lsb_radix_sort`] over the parts
//! concatenated sender-major. A stable split by key interval followed by a
//! stable sort of each piece is the unique stable order, so both entries
//! produce its bytes, and the tests hold them to it.
//!
//! [`parallel::parallel_lsb_sort`] is the fully-parallel stable LSB radix
//! sort standing in for the NUMA-aware sort of Polychroniou & Ross that the
//! paper benchmarks against (§4.2.2).

pub mod fused;
pub mod parallel;
pub mod partition;
pub mod radix;
mod rank;
pub mod sync;

pub use fused::{
    bucketed_local_sort, fused_local_sort, FusedSortResult, PassBuffers, BUCKET_BYTES,
};
pub use parallel::parallel_lsb_sort;
pub use partition::{ScatterTracker, SharedSlice};
pub use radix::{
    is_sorted_by_key, lsb_radix_sort, lsb_radix_sort_pruned, Keyed, RadixStats, SortKey,
};
