//! Radix sorts for k-mer tuples (LocalSort, paper §3.4).
//!
//! The paper's LocalSort sorts `(k-mer, read id)` tuples with the k-mer as
//! key in two stages, which this crate keeps as the reference:
//!
//! 1. **Parallel partitioning** — tuples are scattered into `T` disjoint
//!    k-mer sub-ranges so each can be sorted concurrently
//!    ([`partition::partition_by_ranges`]);
//! 2. **Serial radix sort** — each sub-range is sorted by a serial
//!    out-of-place LSB radix sort, 8 bits per pass; the paper found 8-bit
//!    digits faster than 16-bit because 256 bucket counters stay resident
//!    in L1 ([`radix::lsb_radix_sort`] — digit width is a parameter here so
//!    the ablation bench can reproduce that finding).
//!
//! [`parallel::parallel_lsb_sort`] is the fully-parallel stable LSB radix
//! sort standing in for the NUMA-aware sort of Polychroniou & Ross that the
//! paper benchmarks against (§4.2.2).
//!
//! The pipeline itself sorts **cache-sized buckets** and has no
//! partitioning stage of its own left: KmerGen writes every tuple into
//! the sort bucket it belongs to (runs of m-mer bins nested in the `T`
//! thread sub-ranges, about [`BUCKET_BYTES`] each), so the parts that come
//! out of the all-to-all are already grouped, and
//! [`fused::bucketed_local_sort`] only finds each bucket's run in each part
//! by binary search, gathers the runs sender by sender (or, with a single
//! part, adopts the buffer and moves nothing) and sorts each bucket while
//! it is cache-resident. The in-bucket sort is a stable counting sort by
//! distinct-key rank: one pass through a cache-resident hash table gives
//! every tuple the id of its k-mer, only the distinct `(k-mer, id)` pairs
//! are radix-sorted ([`radix::lsb_radix_sort_pruned`], 8 bits per pass,
//! skipping identity passes via a varying-bits mask taken in the sweep that
//! brings the bucket into cache), and one pass places every tuple. A bucket
//! holds each k-mer about as often as the reads cover it, so the digit
//! passes touch a fraction of the tuples, and the output is the radix
//! sort's to the byte. A bucket whose mask leaves few digit passes, or
//! whose table pass finds too many distinct k-mers for the saving to pay
//! for it, is radix-sorted tuple by tuple instead, and so are the next few
//! buckets of the same worker.
//!
//! [`fused::fused_local_sort`] is the entry for parts that are *not*
//! grouped: it refines the thread boundaries with fixed cuts on the top key
//! digit and pays one histogram and one scatter pass over DRAM to get the
//! same buckets, then shares the per-bucket back half. The two-stage path
//! at the top streams every sub-range through DRAM once per digit. A
//! stable split by key interval followed by a stable sort of each piece is
//! the unique stable order, so all three produce the same bytes; the tests
//! and `exp_sort_throughput` keep the two-stage path as the reference.

pub mod fused;
pub mod parallel;
pub mod partition;
pub mod radix;
mod rank;
pub mod sync;

pub use fused::{
    bucketed_local_sort, fused_local_sort, scatter_from_parts, BoundaryTable, FusedSortResult,
    PassBuffers, ScatterResult, BUCKET_BYTES,
};
pub use parallel::{local_sort, local_sort_with_boundaries, parallel_lsb_sort};
pub use partition::{equal_boundaries_by_sample, partition_by_ranges, ScatterTracker, SharedSlice};
pub use radix::{
    is_sorted_by_key, lsb_radix_sort, lsb_radix_sort_pruned, Keyed, RadixStats, SortKey,
};
