//! k-mer range planning for passes × tasks × threads.
//!
//! The k-mer value space `[0, 4^k)` is split, at m-mer bin granularity,
//! into `S · P · T` contiguous units of approximately equal *tuple count*
//! (weighted by the merHist bins). Units nest naturally:
//!
//! ```text
//! pass s   = units [s·P·T, (s+1)·P·T)
//! task p   = units [s·P·T + p·T, s·P·T + (p+1)·T)
//! thread t = unit   s·P·T + p·T + t
//! ```
//!
//! so a single boundary vector determines which pass enumerates a k-mer,
//! which task owns it, and which thread's sub-range it sorts into. This is
//! the static load balancing that replaces dynamic scheduling in METAPREP.

use crate::merhist::MerHist;
use metaprep_kmer::MmerSpace;

/// Split weighted bins into `units` contiguous groups of roughly equal
/// total weight. Returns `units + 1` bin indices (first 0, last
/// `weights.len()`), non-decreasing. Greedy cumulative split: boundary `j`
/// is placed at the first bin where the prefix weight reaches
/// `j / units` of the total.
pub fn split_bins_by_weight(weights: &[u32], units: usize) -> Vec<usize> {
    assert!(units >= 1);
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    let mut bounds = Vec::with_capacity(units + 1);
    bounds.push(0usize);
    let mut acc = 0u64;
    let mut bin = 0usize;
    for j in 1..units {
        let target = (total * j as u64) / units as u64;
        while bin < weights.len() && acc < target {
            acc += weights[bin] as u64;
            bin += 1;
        }
        bounds.push(bin);
    }
    bounds.push(weights.len());
    bounds
}

/// The full execution plan for one dataset/configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangePlan {
    k: usize,
    m: usize,
    passes: usize,
    tasks: usize,
    threads: usize,
    /// `S·P·T + 1` k-mer values; unit `u` owns `[bounds[u], bounds[u+1])`.
    bounds: Vec<u128>,
    /// Same boundaries expressed as m-mer bin indices (for histogram sums).
    bin_bounds: Vec<usize>,
}

impl RangePlan {
    /// Build a plan from the global m-mer histogram.
    pub fn build(hist: &MerHist, passes: usize, tasks: usize, threads: usize) -> Self {
        assert!(passes >= 1 && tasks >= 1 && threads >= 1);
        let space = hist.space();
        let units = passes * tasks * threads;
        let bin_bounds = split_bins_by_weight(hist.counts(), units);
        let bounds: Vec<u128> = bin_bounds
            .iter()
            .map(|&b| {
                if b == space.bins() {
                    space.bin_upper_bound(space.bins() as u32 - 1)
                } else {
                    space.bin_lower_bound(b as u32)
                }
            })
            .collect();
        Self {
            k: space.k(),
            m: space.m(),
            passes,
            tasks,
            threads,
            bounds,
            bin_bounds,
        }
    }

    /// k-mer length this plan was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of passes `S`.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Number of tasks `P`.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Threads per task `T`.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn unit(&self, pass: usize, task: usize, thread: usize) -> usize {
        debug_assert!(pass < self.passes && task < self.tasks && thread < self.threads);
        (pass * self.tasks + task) * self.threads + thread
    }

    /// k-mer value range `[lo, hi)` of one pass.
    pub fn pass_range(&self, pass: usize) -> (u128, u128) {
        let u0 = self.unit(pass, 0, 0);
        let u1 = u0 + self.tasks * self.threads;
        (self.bounds[u0], self.bounds[u1])
    }

    /// k-mer value range of one task within a pass.
    pub fn task_range(&self, pass: usize, task: usize) -> (u128, u128) {
        let u0 = self.unit(pass, task, 0);
        let u1 = u0 + self.threads;
        (self.bounds[u0], self.bounds[u1])
    }

    /// k-mer value range of one thread's sort sub-range.
    pub fn thread_range(&self, pass: usize, task: usize, thread: usize) -> (u128, u128) {
        let u = self.unit(pass, task, thread);
        (self.bounds[u], self.bounds[u + 1])
    }

    /// Which task of `pass` owns k-mer value `v` (which must lie in the
    /// pass's range).
    pub fn owner_task(&self, pass: usize, v: u128) -> usize {
        let u0 = self.unit(pass, 0, 0);
        let u1 = u0 + self.tasks * self.threads;
        debug_assert!(v >= self.bounds[u0] && v < self.bounds[u1].max(self.bounds[u0] + 1));
        // partition_point over the task starts within this pass.
        let mut lo = 0usize;
        let mut hi = self.tasks;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.bounds[self.unit(pass, mid, 0)] <= v {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// m-mer bin range `[lo, hi)` of one task within a pass — what the
    /// pipeline sums over chunk histograms to precompute send counts.
    pub fn task_bin_range(&self, pass: usize, task: usize) -> (usize, usize) {
        let u0 = self.unit(pass, task, 0);
        let u1 = u0 + self.threads;
        (self.bin_bounds[u0], self.bin_bounds[u1])
    }

    /// m-mer bin range of one thread's sub-range.
    pub fn thread_bin_range(&self, pass: usize, task: usize, thread: usize) -> (usize, usize) {
        let u = self.unit(pass, task, thread);
        (self.bin_bounds[u], self.bin_bounds[u + 1])
    }

    /// Boundaries (exclusive uppers) between thread sub-ranges of a task —
    /// the input LocalSort's partitioning stage needs.
    pub fn thread_boundaries(&self, pass: usize, task: usize) -> Vec<u128> {
        (1..self.threads)
            .map(|t| self.bounds[self.unit(pass, task, t)])
            .collect()
    }

    /// Derive the sort buckets of every `(pass, task)`: runs of m-mer bins
    /// that nest inside the thread sub-ranges and hold about `budget` tuples
    /// each by `hist` (the histogram this plan was built from). A bucket
    /// closes before the bin that would take it over budget, so a heavier
    /// bin is a bucket by itself; a task heavier than `2^11` budgets gets
    /// the budget `weight / 2^11`, which bounds its bucket count by
    /// `2^12 + T` (two consecutive buckets always outweigh one budget).
    /// A pure function of its inputs: every rank derives the same buckets.
    pub fn bucket_plan(&self, hist: &MerHist, budget: u64) -> BucketPlan {
        let counts = hist.counts();
        let mut starts = Vec::new();
        let mut unit_slots = vec![0usize];
        for task_units in self
            .bin_bounds
            .windows(self.threads + 1)
            .step_by(self.threads)
        {
            let weight = hist.count_in_bins(task_units[0], task_units[self.threads]);
            let budget = budget.max(weight.div_ceil(MAX_TASK_BUCKETS)).max(1);
            for unit in task_units.windows(2) {
                let mut acc = 0u64;
                for (bin, &w) in (unit[0]..).zip(&counts[unit[0]..unit[1]]) {
                    if bin == unit[0] || acc + u64::from(w) > budget {
                        starts.push(bin);
                        acc = 0;
                    }
                    acc += u64::from(w);
                }
                unit_slots.push(starts.len());
            }
        }
        assert!(
            u32::try_from(starts.len()).is_ok(),
            "bucket count overflows the u32 slot table"
        );
        let mut slot_of_bin = vec![0u32; counts.len()];
        starts.push(counts.len());
        for (slot, run) in starts.windows(2).enumerate() {
            slot_of_bin[run[0]..run[1]].fill(slot as u32);
        }
        BucketPlan {
            space: hist.space(),
            tasks: self.tasks,
            threads: self.threads,
            starts,
            unit_slots,
            slot_of_bin,
        }
    }
}

/// Most budgets' worth of tuples a task is cut into before the bucket
/// budget is raised instead: up to `2^11` write streams KmerGen's emit
/// measures flat (DESIGN.md §7.2).
const MAX_TASK_BUCKETS: u64 = 1 << 11;

/// The sort buckets [`RangePlan::bucket_plan`] derived: *slots*, numbered
/// in key order across the whole run, so the slots of a pass, of a task and
/// of a thread sub-range are each one contiguous run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketPlan {
    space: MmerSpace,
    tasks: usize,
    threads: usize,
    /// `slots + 1` bin indices: slot `s` is the bins `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    /// `S·P·T + 1` slot indices: thread unit `u` (see [`RangePlan`]) owns
    /// the slots `unit_slots[u]..unit_slots[u + 1]` — none, if it has no bins.
    unit_slots: Vec<usize>,
    slot_of_bin: Vec<u32>,
}

impl BucketPlan {
    /// The m-mer bin → slot table: KmerGen's per-k-mer dispatch. A slot
    /// outside [`Self::pass_slots`] belongs to another pass.
    pub fn slot_of_bin(&self) -> &[u32] {
        &self.slot_of_bin
    }

    /// The m-mer bins `[lo, hi)` of `slot`.
    pub fn slot_bins(&self, slot: usize) -> (usize, usize) {
        (self.starts[slot], self.starts[slot + 1])
    }

    /// Smallest k-mer value of `slot` — what the receiver searches a
    /// bucket-major part for to find where the slot's run begins.
    pub fn slot_lower_bound(&self, slot: usize) -> u128 {
        self.space.bin_lower_bound(self.starts[slot] as u32)
    }

    /// Slots of one pass.
    pub fn pass_slots(&self, pass: usize) -> std::ops::Range<usize> {
        let u = pass * self.tasks * self.threads;
        self.unit_slots[u]..self.unit_slots[u + self.tasks * self.threads]
    }

    /// Slots of one task within a pass.
    pub fn task_slots(&self, pass: usize, task: usize) -> std::ops::Range<usize> {
        let u = (pass * self.tasks + task) * self.threads;
        self.unit_slots[u]..self.unit_slots[u + self.threads]
    }

    /// The `T + 1` slot indices at which the thread sub-ranges of a task
    /// begin (the last entry closes the task).
    pub fn thread_slots(&self, pass: usize, task: usize) -> &[usize] {
        let u = (pass * self.tasks + task) * self.threads;
        &self.unit_slots[u..=u + self.threads]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaprep_io::ReadStore;
    use proptest::prelude::*;

    #[test]
    fn split_bins_even_weights() {
        let b = split_bins_by_weight(&[1; 8], 4);
        assert_eq!(b, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn split_bins_skewed_weights() {
        // One huge bin: it ends up alone in a unit; other units may be
        // empty but the cover is exact.
        let b = split_bins_by_weight(&[100, 1, 1, 1], 2);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&4));
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn split_bins_single_unit() {
        assert_eq!(split_bins_by_weight(&[3, 4], 1), vec![0, 2]);
    }

    #[test]
    fn split_bins_more_units_than_bins() {
        let b = split_bins_by_weight(&[5, 5], 4);
        assert_eq!(b.len(), 5);
        assert_eq!(*b.last().unwrap(), 2);
    }

    fn sample_hist() -> MerHist {
        let mut store = ReadStore::new();
        let mut x = 1u64;
        for _ in 0..200 {
            // Cheap LCG to vary sequences.
            let seq: Vec<u8> = (0..50)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    b"ACGT"[(x >> 60) as usize & 3]
                })
                .collect();
            store.push_single(&seq);
        }
        MerHist::build(&store, 11, 4)
    }

    #[test]
    fn plan_ranges_tile_the_kmer_space() {
        let h = sample_hist();
        let plan = RangePlan::build(&h, 2, 3, 4);
        // Pass ranges tile [0, 4^k).
        assert_eq!(plan.pass_range(0).0, 0);
        assert_eq!(plan.pass_range(1).1, 1u128 << (2 * 11));
        assert_eq!(plan.pass_range(0).1, plan.pass_range(1).0);
        // Task ranges tile each pass.
        for s in 0..2 {
            let (plo, phi) = plan.pass_range(s);
            assert_eq!(plan.task_range(s, 0).0, plo);
            assert_eq!(plan.task_range(s, 2).1, phi);
            for p in 0..2 {
                assert_eq!(plan.task_range(s, p).1, plan.task_range(s, p + 1).0);
            }
        }
        // Thread ranges tile each task.
        for s in 0..2 {
            for p in 0..3 {
                let (tlo, thi) = plan.task_range(s, p);
                assert_eq!(plan.thread_range(s, p, 0).0, tlo);
                assert_eq!(plan.thread_range(s, p, 3).1, thi);
            }
        }
    }

    #[test]
    fn owner_task_is_consistent_with_ranges() {
        let h = sample_hist();
        let plan = RangePlan::build(&h, 2, 4, 2);
        for s in 0..2 {
            for p in 0..4 {
                let (lo, hi) = plan.task_range(s, p);
                if lo < hi {
                    assert_eq!(plan.owner_task(s, lo), p, "pass {s} task {p} lo");
                    assert_eq!(plan.owner_task(s, hi - 1), p, "pass {s} task {p} hi");
                }
            }
        }
    }

    #[test]
    fn balanced_plan_has_roughly_equal_task_weights() {
        let h = sample_hist();
        let plan = RangePlan::build(&h, 1, 4, 1);
        let total = h.total() as f64;
        for p in 0..4 {
            let (blo, bhi) = plan.task_bin_range(0, p);
            let w = h.count_in_bins(blo, bhi) as f64;
            assert!(
                (w / total - 0.25).abs() < 0.15,
                "task {p} weight fraction {}",
                w / total
            );
        }
    }

    /// A histogram with the given bin counts over the `(k, m)` space whose
    /// bin count matches.
    fn hist_of(counts: Vec<u32>) -> MerHist {
        let m = counts.len().ilog2() as usize / 2;
        assert_eq!(counts.len(), 1 << (2 * m), "counts must fill 4^m bins");
        MerHist::from_parts(MmerSpace::new(11, m), counts)
    }

    /// Everything a bucket plan promises, for every (pass, task): its slots
    /// tile the task's bin range in order, nest in the thread sub-ranges,
    /// agree with the bin → slot table, and are at most `2^12 + T` many.
    fn check_bucket_plan(hist: &MerHist, plan: &RangePlan, budget: u64) -> BucketPlan {
        let buckets = plan.bucket_plan(hist, budget);
        let mut next_slot = 0;
        for s in 0..plan.passes() {
            assert_eq!(buckets.pass_slots(s).start, next_slot);
            for p in 0..plan.tasks() {
                let slots = buckets.task_slots(s, p);
                assert_eq!(slots.start, next_slot, "slots are numbered in key order");
                assert!(slots.len() <= (1 << 12) + plan.threads(), "{}", slots.len());
                let thread_slots = buckets.thread_slots(s, p);
                assert_eq!(thread_slots.len(), plan.threads() + 1);
                assert_eq!(
                    (thread_slots[0], thread_slots[plan.threads()]),
                    (slots.start, slots.end)
                );
                for t in 0..plan.threads() {
                    // The thread's slots tile its bin range exactly once.
                    let (mut bin, hi) = plan.thread_bin_range(s, p, t);
                    for slot in thread_slots[t]..thread_slots[t + 1] {
                        let (lo, end) = buckets.slot_bins(slot);
                        assert!(
                            lo == bin && lo < end,
                            "slot {slot}: {lo}..{end} after {bin}"
                        );
                        let table = &buckets.slot_of_bin()[lo..end];
                        assert!(table.iter().all(|&x| x as usize == slot));
                        let lower = buckets.slot_lower_bound(slot);
                        assert_eq!(lower, hist.space().bin_lower_bound(lo as u32));
                        // Over budget only as a single heavy bin (zero-weight
                        // bins may ride along). The budget in force is the
                        // caller's or the task's raised one.
                        let weight = hist.count_in_bins(lo, end);
                        let (tlo, thi) = plan.task_bin_range(s, p);
                        let cap = budget.max(hist.count_in_bins(tlo, thi).div_ceil(1 << 11));
                        let heavy = hist.counts()[lo..end].iter().filter(|&&c| c > 0).count();
                        assert!(weight <= cap || heavy == 1, "slot {slot} weighs {weight}");
                        bin = end;
                    }
                    assert_eq!(bin, hi, "pass {s} task {p} thread {t} not covered");
                }
                next_slot = slots.end;
            }
            assert_eq!(buckets.pass_slots(s).end, next_slot);
        }
        buckets
    }

    #[test]
    fn bucket_plan_of_a_sampled_histogram() {
        let h = sample_hist();
        for budget in [1, 7, 100, 1 << 20] {
            check_bucket_plan(&h, &RangePlan::build(&h, 2, 3, 2), budget);
        }
    }

    #[test]
    fn bucket_plan_gives_a_hot_bin_a_bucket_of_its_own() {
        let mut counts = vec![3u32; 64];
        counts[20] = 10_000;
        let h = hist_of(counts);
        let buckets = check_bucket_plan(&h, &RangePlan::build(&h, 1, 1, 1), 16);
        let hot = buckets.slot_of_bin()[20] as usize;
        assert_eq!(buckets.slot_bins(hot), (20, 21));
    }

    #[test]
    fn bucket_plan_with_empty_thread_ranges_and_a_task_without_bins() {
        // All the mass in one bin: the greedy split leaves most of the
        // 2 x 3 x 2 units without a single bin.
        let mut counts = vec![0u32; 16];
        counts[5] = 1000;
        let h = hist_of(counts);
        let plan = RangePlan::build(&h, 2, 3, 2);
        let buckets = check_bucket_plan(&h, &plan, 8);
        let empty_tasks = (0..2)
            .flat_map(|s| (0..3).map(move |p| (s, p)))
            .filter(|&(s, p)| buckets.task_slots(s, p).is_empty())
            .count();
        assert!(
            empty_tasks > 0,
            "the test input must leave a task without bins"
        );
    }

    #[test]
    fn bucket_plan_on_coarse_bins() {
        // m = 4: every one of the 256 bins outweighs the budget, so every
        // bin that holds anything is a bucket.
        let counts: Vec<u32> = (0..256u32).map(|b| (b % 7) * 1000).collect();
        let h = hist_of(counts);
        let buckets = check_bucket_plan(&h, &RangePlan::build(&h, 1, 2, 3), 100);
        assert!(buckets.pass_slots(0).len() > 200);
    }

    #[test]
    fn bucket_count_of_a_heavy_task_is_capped() {
        // 4^7 bins of ~25 tuples at a budget of one tuple: uncapped, every
        // bin would be a bucket.
        let mut x = 9u64;
        let counts: Vec<u32> = (0..1 << 14)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 59) as u32 + 9
            })
            .collect();
        let h = hist_of(counts);
        let buckets = check_bucket_plan(&h, &RangePlan::build(&h, 1, 1, 3), 1);
        let n = buckets.task_slots(0, 0).len();
        assert!(n > 1 << 10 && n <= (1 << 12) + 3, "{n} buckets");
    }

    #[test]
    fn thread_boundaries_length() {
        let h = sample_hist();
        let plan = RangePlan::build(&h, 1, 2, 4);
        assert_eq!(plan.thread_boundaries(0, 0).len(), 3);
        assert_eq!(plan.thread_boundaries(0, 1).len(), 3);
    }

    proptest! {
        #[test]
        fn prop_bucket_plan_covers_and_nests(
            m in 1usize..5,
            seed in any::<u64>(),
            zero_pct in 0u64..90,
            hot in proptest::collection::vec((any::<u16>(), 1_000u32..100_000), 0..3),
            (passes, tasks, threads) in (1usize..4, 1usize..5, 1usize..4),
            (budget, small) in (1u64..5_000, any::<bool>()),
        ) {
            let mut x = seed | 1;
            let mut counts: Vec<u32> = (0..1usize << (2 * m))
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if (x >> 33) % 100 < zero_pct { 0 } else { (x >> 56) as u32 }
                })
                .collect();
            for (bin, weight) in hot {
                let bins = counts.len();
                counts[bin as usize % bins] = weight;
            }
            let h = hist_of(counts);
            // Half the cases at a budget of a few tuples: many buckets.
            let budget = if small { budget % 50 + 1 } else { budget };
            check_bucket_plan(&h, &RangePlan::build(&h, passes, tasks, threads), budget);
        }

        #[test]
        fn prop_split_bins_cover_and_monotone(
            weights in proptest::collection::vec(0u32..50, 1..64),
            units in 1usize..10,
        ) {
            let b = split_bins_by_weight(&weights, units);
            prop_assert_eq!(b.len(), units + 1);
            prop_assert_eq!(b[0], 0);
            prop_assert_eq!(*b.last().unwrap(), weights.len());
            prop_assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn prop_split_units_reasonably_balanced(
            weights in proptest::collection::vec(1u32..10, 32..128),
            units in 2usize..8,
        ) {
            // With bounded bin weights no unit exceeds total/units by more
            // than the max bin weight.
            let b = split_bins_by_weight(&weights, units);
            let total: u64 = weights.iter().map(|&w| w as u64).sum();
            let maxbin = *weights.iter().max().unwrap() as u64;
            for w in b.windows(2) {
                let s: u64 = weights[w[0]..w[1]].iter().map(|&x| x as u64).sum();
                prop_assert!(s <= total / units as u64 + maxbin + 1);
            }
        }
    }
}
