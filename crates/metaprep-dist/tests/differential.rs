//! Differential checker for the distributed connected-components path.
//!
//! Replays the SAME edge stream two ways and asserts identical
//! components:
//!
//! 1. **distributed**: shard the stream across `P` simulated tasks,
//!    route every edge to the owner of its smaller endpoint with the
//!    staged [`alltoall`], union locally, then merge the per-task
//!    forests down the Figure-4 pairwise tree to rank 0 — the structure
//!    of the paper's multi-node LocalCC and MergeCC;
//! 2. **sequential oracle**: feed the stream straight through
//!    [`metaprep_cc::seq::DisjointSet`].
//!
//! The distributed run executes under [`explore_schedules`], so the
//! comparison is repeated across deterministic schedule jitters; the
//! harness's watchdog turns any routing/deadlock bug into a per-task
//! report instead of a hung test, and its conservation counter asserts
//! no message was dropped.

use metaprep_cc::seq::DisjointSet;
use metaprep_dist::collectives::alltoall;
use metaprep_dist::{explore_schedules, ClusterConfig};

/// Deterministic xorshift64* stream (no external RNG dependency).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_edges(seed: u64, n: u32, m: usize) -> Vec<(u32, u32)> {
    let mut rng = Rng(seed | 1);
    (0..m)
        .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
        .collect()
}

/// Two labelings describe the same partition iff label pairing is a
/// bijection.
fn same_partition(a: &[u32], b: &[u32]) -> bool {
    assert_eq!(a.len(), b.len());
    let mut fwd = std::collections::HashMap::new();
    let mut bwd = std::collections::HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        if *fwd.entry(x).or_insert(y) != y || *bwd.entry(y).or_insert(x) != x {
            return false;
        }
    }
    true
}

/// The distributed replay: every task owns the contiguous shard
/// `edges[rank * m/p ..]`, routes each edge to `min(u, v) % p`, unions
/// what it receives into a full-size local forest, and the forests merge
/// pairwise down to rank 0.
fn distributed_components(n: u32, edges: &[(u32, u32)], p: usize, seeds: &[u64]) -> Vec<Vec<u32>> {
    let edges = edges.to_vec();
    let runs =
        explore_schedules::<Vec<(u32, u32)>, _, _>(ClusterConfig::new(p, 1), seeds, move |ctx| {
            let rank = ctx.rank();
            let p = ctx.size();
            // Contiguous shard of the stream (last shard takes the tail).
            let per = edges.len().div_ceil(p);
            let lo = (rank * per).min(edges.len());
            let hi = ((rank + 1) * per).min(edges.len());

            // Route each local edge to the owner of its smaller endpoint.
            let mut outgoing: Vec<Vec<(u32, u32)>> = (0..p).map(|_| Vec::new()).collect();
            for &(u, v) in &edges[lo..hi] {
                outgoing[(u.min(v) as usize) % p].push((u, v));
            }
            let incoming = alltoall(ctx, outgoing);

            // Union everything this task owns into a full-size forest.
            let mut local = DisjointSet::new(n as usize);
            for buf in incoming {
                for (u, v) in buf {
                    local.union(u, v);
                }
            }

            // MergeCC (Figure 4): ranks `stride` apart pair up; the upper
            // one ships its forest as (vertex, root) pairs — the cluster's
            // message type is the edge-buffer type, and a parent array IS
            // a set of union edges (merge.rs's sparse representation) —
            // and retires; the lower one replays them into its own.
            let mut stride = 1;
            while stride < p {
                if rank % (2 * stride) == stride {
                    let mine = local.component_array().iter().enumerate();
                    ctx.send(rank - stride, mine.map(|(i, &r)| (i as u32, r)).collect());
                    return Vec::new();
                }
                if rank + stride < p {
                    for (u, v) in ctx.recv_from(rank + stride) {
                        local.union(u, v);
                    }
                }
                stride *= 2;
            }
            local.into_component_array()
        });
    runs.into_iter().map(|r| r.results[0].clone()).collect()
}

fn oracle(n: u32, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut ds = DisjointSet::new(n as usize);
    for &(u, v) in edges {
        ds.union(u, v);
    }
    ds.into_component_array()
}

#[test]
fn distributed_matches_sequential_across_schedules() {
    for (case, (seed, n, m, p)) in [
        (1u64, 64u32, 200usize, 2usize),
        (2, 100, 50, 3), // sparse: many components survive
        (3, 40, 400, 4), // dense: collapses to few components
        (4, 7, 30, 5),   // more tasks than distinct owners is fine
    ]
    .into_iter()
    .enumerate()
    {
        let edges = random_edges(seed, n, m);
        let want = oracle(n, &edges);
        for (i, got) in distributed_components(n, &edges, p, &[0, 11, 12, 13])
            .into_iter()
            .enumerate()
        {
            assert!(
                same_partition(&got, &want),
                "case {case}: distributed run under jitter seed #{i} diverged"
            );
        }
    }
}

#[test]
fn empty_and_self_edge_streams() {
    let want = oracle(16, &[]);
    for got in distributed_components(16, &[], 3, &[0, 5]) {
        assert!(same_partition(&got, &want));
    }
    let self_edges: Vec<(u32, u32)> = (0..16).map(|i| (i, i)).collect();
    let want = oracle(16, &self_edges);
    for got in distributed_components(16, &self_edges, 2, &[0, 5]) {
        assert!(same_partition(&got, &want));
    }
}

#[test]
fn single_task_degenerates_to_sequential() {
    let edges = random_edges(9, 32, 100);
    let want = oracle(32, &edges);
    for got in distributed_components(32, &edges, 1, &[0]) {
        assert!(same_partition(&got, &want));
    }
}
