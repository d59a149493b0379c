//! Property tests for the causal-tracing layer: Lamport clocks must be
//! monotone per rank and consistent across every send/recv pair, for any
//! cluster size and any (deadlock-free) mix of traced collectives.
//!
//! The communication scripts are built from the collectives the pipeline
//! actually uses — staged all-to-alls and root broadcasts — with
//! proptest choosing the cluster size, the number of rounds, the payload
//! shapes, and the broadcast roots.

use metaprep_dist::collectives::{alltoall, broadcast};
use metaprep_dist::{run_cluster, ClusterConfig};
use metaprep_obs::{EdgeDir, Event, MemRecorder, TraceAnalysis};
use proptest::prelude::*;

/// One traced collective step, executed by every rank.
#[derive(Copy, Clone, Debug)]
enum Op {
    /// Staged all-to-all; the payload for peer `q` has `base + q` words.
    Alltoall { base: usize },
    /// Broadcast of a `len`-word payload from `root` (taken mod P).
    Broadcast { root: usize, len: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    ((0usize..2), (0usize..8), (1usize..6)).prop_map(|(kind, root, len)| {
        if kind == 0 {
            Op::Alltoall { base: len }
        } else {
            Op::Broadcast { root, len }
        }
    })
}

/// Run the script on a fresh simulated cluster and return the recorded
/// event stream.
fn run_script(p: usize, ops: &[Op]) -> Vec<Event> {
    let rec = MemRecorder::new(p);
    let config = ClusterConfig::new(p, 1).with_recorder(&rec);
    run_cluster::<Vec<u64>, _, _>(config, |ctx| {
        for (round, op) in ops.iter().enumerate() {
            match *op {
                Op::Alltoall { base } => {
                    let outgoing: Vec<Vec<u64>> = (0..ctx.size())
                        .map(|q| vec![round as u64; base + q])
                        .collect();
                    ctx.span("KmerGen-Comm", Some(round as u32), None, || {
                        alltoall(ctx, outgoing)
                    });
                }
                Op::Broadcast { root, len } => {
                    let root = root % ctx.size();
                    let msg = (ctx.rank() == root).then(|| vec![round as u64; len]);
                    ctx.span("CC-I/O", None, None, || broadcast(ctx, root, msg));
                }
            }
        }
    });
    rec.into_events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per rank: Lamport stamps are all distinct, and physical-time order
    /// on one rank implies Lamport order (events later on a rank's own
    /// clock carry strictly larger stamps).
    #[test]
    fn lamport_is_monotone_per_rank(
        p in 2usize..5,
        ops in proptest::collection::vec(op_strategy(), 1..6),
    ) {
        let events = run_script(p, &ops);
        let mut per_rank: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
        for e in &events {
            match e {
                Event::Edge(e) => {
                    let rank = match e.dir {
                        EdgeDir::Send => e.src,
                        EdgeDir::Recv => e.dst,
                    };
                    per_rank[rank as usize].push((e.at_ns, e.lamport));
                }
                Event::Span(s) if s.lamport > 0 => {
                    per_rank[s.task as usize].push((s.end_ns, s.lamport));
                }
                _ => {}
            }
        }
        for (rank, evs) in per_rank.iter().enumerate() {
            let mut lamports: Vec<u64> = evs.iter().map(|&(_, l)| l).collect();
            lamports.sort_unstable();
            let before = lamports.len();
            lamports.dedup();
            prop_assert_eq!(before, lamports.len(), "duplicate stamp on rank {}", rank);
            for &(t_a, l_a) in evs {
                for &(t_b, l_b) in evs {
                    if t_a < t_b {
                        prop_assert!(
                            l_a < l_b,
                            "rank {}: event at {}ns (L={}) not before event at {}ns (L={})",
                            rank, t_a, l_a, t_b, l_b
                        );
                    }
                }
            }
        }
    }

    /// Across ranks: every send matches exactly one recv on its
    /// (src, dst, seq) channel slot, the recv's Lamport stamp strictly
    /// follows the send's, and stamps strictly increase along each FIFO
    /// channel — exactly the analyzer's conservation + causality checks.
    #[test]
    fn send_recv_pairs_are_conserved_and_causal(
        p in 2usize..5,
        ops in proptest::collection::vec(op_strategy(), 1..6),
    ) {
        let events = run_script(p, &ops);
        let a = TraceAnalysis::from_events(&events);
        prop_assert!(a.check_conservation().is_ok(), "{:?}", a.check_conservation());
        prop_assert!(a.check_causality().is_ok(), "{:?}", a.check_causality());
        // Every traced message produced a pair, and each pair individually
        // orders recv after send.
        let sends = events
            .iter()
            .filter(|e| matches!(e, Event::Edge(e) if e.dir == EdgeDir::Send))
            .count();
        prop_assert_eq!(a.pairs().len(), sends);
        for pair in a.pairs() {
            prop_assert!(
                pair.recv_lamport > pair.send_lamport,
                "pair {:?} violates Lamport order", pair
            );
            prop_assert!(pair.send_ns <= pair.recv_ns);
        }
    }
}
