//! Collective operations over the simulated cluster.
//!
//! [`alltoall`] is the paper's custom all-to-all (§3.3): `P` stages, where
//! in stage `i` task `p` sends its buffer for task `(p + i) mod P` and
//! receives from `(p - i) mod P` ([`stage_peers`]). Stage 0 is the local
//! "self-send" (no message). The staged schedule avoids the many-to-one
//! hot spot of a simultaneous exchange, where every task fires all its
//! sends at once.
//!
//! [`broadcast`] is CC-I/O's label fan-out. MergeCC's pairwise tree is not
//! a collective here: the pipeline sends and receives it directly.
//!
//! Every message goes through [`TaskCtx::send`] / [`TaskCtx::recv_from`],
//! so it is byte-accounted, Lamport-stamped and tagged with the caller's
//! enclosing [`TaskCtx::span`].

use crate::cluster::TaskCtx;
use crate::{stage_peers, Payload};
use metaprep_obs::event::ALLTOALL_STAGE;

/// Custom P-stage all-to-all. `outgoing[q]` is this task's buffer destined
/// for task `q`; returns `incoming` where `incoming[q]` came from task `q`.
///
/// When the recorder keeps events, each of the `P-1` communicating stages
/// becomes an [`ALLTOALL_STAGE`] sub-span (`pass` = the enclosing span's,
/// `detail` = stage index); the sub-spans do not retag the messages.
/// Byte/message counts are the cluster's [`crate::CommStats`], not spans.
///
/// Must be called collectively (by every task, with `outgoing.len() == P`).
pub fn alltoall<M: Payload>(ctx: &TaskCtx<'_, M>, outgoing: Vec<M>) -> Vec<M> {
    let p = ctx.size();
    assert_eq!(outgoing.len(), p, "alltoall requires one buffer per task");
    let rank = ctx.rank();

    // Collect into Option slots so buffers can be moved out one by one.
    let mut out: Vec<Option<M>> = outgoing.into_iter().map(Some).collect();
    let mut incoming: Vec<Option<M>> = (0..p).map(|_| None).collect();

    // Stage 0: keep own buffer.
    incoming[rank] = out[rank].take();

    let sub_spans = ctx.obs().export_enabled();
    for stage in 1..p {
        let (to, from) = stage_peers(rank, p, stage);
        // EXPECT: `stage_peers` visits each destination exactly once per round, so the slot is still `Some`.
        let buf = out[to].take().expect("buffer already sent");
        let open = sub_spans.then(|| ctx.obs().open());
        ctx.send(to, buf);
        incoming[from] = Some(ctx.recv_from(from));
        if let Some(open) = open {
            let pass = ctx.enclosing_pass();
            ctx.obs()
                .close_detail(open, ALLTOALL_STAGE, pass, Some(stage as u32));
        }
    }

    incoming
        .into_iter()
        // EXPECT: the stage loop received from every peer exactly once and the own-rank slot was moved directly.
        .map(|o| o.expect("missing incoming buffer"))
        .collect()
}

/// Broadcast `msg` from `root` to all tasks; every task returns its copy.
/// `msg` is only inspected on the root (others pass `None`). Every
/// root→peer copy is a send/recv edge pair, so the fan-out shows up in
/// the happens-before DAG (and as flow arrows in the Chrome export).
pub fn broadcast<M: Payload + Clone>(ctx: &TaskCtx<'_, M>, root: usize, msg: Option<M>) -> M {
    if ctx.rank() == root {
        // EXPECT: documented contract — the root caller passes `Some`; non-root `msg` is never read.
        let m = msg.expect("root must provide the message");
        for to in 0..ctx.size() {
            if to != root {
                ctx.send(to, m.clone());
            }
        }
        m
    } else {
        ctx.recv_from(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_cluster, ClusterConfig, ClusterResult};
    use crate::faults::FaultPlan;
    use metaprep_obs::{EdgeDir, EdgeEvent, Event, MemRecorder, SpanEvent};

    #[test]
    fn alltoall_exchanges_correctly() {
        for p in [1usize, 2, 3, 5, 8] {
            let r = run_cluster::<Vec<u32>, _, _>(ClusterConfig::new(p, 1), |ctx| {
                // Buffer for task q encodes (my rank, q).
                let outgoing: Vec<Vec<u32>> = (0..ctx.size())
                    .map(|q| vec![ctx.rank() as u32 * 100 + q as u32])
                    .collect();
                alltoall(ctx, outgoing)
            });
            for (rank, incoming) in r.results.iter().enumerate() {
                for (from, buf) in incoming.iter().enumerate() {
                    assert_eq!(
                        buf,
                        &vec![from as u32 * 100 + rank as u32],
                        "p={p} rank={rank} from={from}"
                    );
                }
            }
        }
    }

    #[test]
    fn alltoall_self_buffer_not_counted_as_traffic() {
        let r = run_cluster::<Vec<u64>, _, _>(ClusterConfig::new(2, 1), |ctx| {
            let outgoing = vec![vec![0u64; 10], vec![0u64; 10]];
            alltoall(ctx, outgoing);
        });
        // Each task sends exactly one remote buffer of 80 bytes.
        assert_eq!(r.stats[0].bytes_sent, 80);
        assert_eq!(r.stats[0].messages_sent, 1);
    }

    /// A staged all-to-all of 8-word buffers inside a `KmerGen-Comm`
    /// span of pass `pass`, recorded into `rec`.
    fn traced_alltoall(rec: &MemRecorder, p: usize, pass: u32) -> ClusterResult<usize> {
        let config = ClusterConfig::new(p, 1).with_recorder(rec);
        run_cluster::<Vec<u64>, _, _>(config, |ctx| {
            let outgoing: Vec<Vec<u64>> = (0..ctx.size()).map(|_| vec![0u64; 8]).collect();
            ctx.span("KmerGen-Comm", Some(pass), None, || {
                alltoall(ctx, outgoing).len()
            })
        })
    }

    #[test]
    fn alltoall_records_stage_spans_and_receive_bytes() {
        let p = 4usize;
        let rec = MemRecorder::new(p);
        let r = traced_alltoall(&rec, p, 0);
        for (rank, &n) in r.results.iter().enumerate() {
            assert_eq!(n, p);
            // 3 remote buffers of 64 bytes each land on every task —
            // accounted by the cluster itself, not by the collective.
            assert_eq!(r.stats[rank].bytes_received, 192);
        }
        let events = rec.into_events();
        let stage_spans = events
            .iter()
            .filter(
                |e| matches!(e, Event::Span(SpanEvent { name, pass: Some(0), .. }) if name == ALLTOALL_STAGE),
            )
            .count();
        assert_eq!(stage_spans, p * (p - 1));
    }

    #[test]
    fn alltoall_under_the_default_recorder_records_no_spans() {
        let r = run_cluster::<Vec<u32>, _, _>(ClusterConfig::new(3, 1), |ctx| {
            let outgoing: Vec<Vec<u32>> = (0..ctx.size())
                .map(|q| vec![ctx.rank() as u32 * 100 + q as u32])
                .collect();
            let incoming = alltoall(ctx, outgoing);
            (incoming, ctx.obs().spans().len())
        });
        for (rank, (incoming, n_spans)) in r.results.iter().enumerate() {
            assert_eq!(*n_spans, 0, "no sub-spans when disabled");
            for (from, buf) in incoming.iter().enumerate() {
                assert_eq!(buf, &vec![from as u32 * 100 + rank as u32]);
            }
        }
    }

    #[test]
    fn alltoall_edges_are_matched_and_causal() {
        use std::collections::BTreeMap;
        let p = 4usize;
        let rec = MemRecorder::new(p);
        traced_alltoall(&rec, p, 1);
        // Every send has exactly one matching recv on the same
        // (src, dst, seq) channel slot, with a strictly greater Lamport
        // stamp; bytes agree on both endpoints.
        let mut sends: BTreeMap<(u32, u32, u64), (u64, u64)> = BTreeMap::new();
        let mut recvs: BTreeMap<(u32, u32, u64), (u64, u64)> = BTreeMap::new();
        for e in rec.into_events() {
            if let Event::Edge(EdgeEvent {
                dir,
                src,
                dst,
                stage,
                round,
                bytes,
                seq,
                lamport,
                ..
            }) = e
            {
                assert_eq!(stage, "KmerGen-Comm");
                assert_eq!(round, Some(1));
                let side = match dir {
                    EdgeDir::Send => &mut sends,
                    EdgeDir::Recv => &mut recvs,
                };
                let prev = side.insert((src, dst, seq), (bytes, lamport));
                assert!(prev.is_none(), "duplicate edge endpoint");
            }
        }
        assert_eq!(sends.len(), p * (p - 1));
        assert_eq!(
            sends.keys().collect::<Vec<_>>(),
            recvs.keys().collect::<Vec<_>>()
        );
        for (key, &(sent_bytes, send_lamport)) in &sends {
            let &(recv_bytes, recv_lamport) = &recvs[key];
            assert_eq!(sent_bytes, recv_bytes, "{key:?}");
            assert_eq!(sent_bytes, 64, "8 u64s per buffer");
            assert!(
                recv_lamport > send_lamport,
                "{key:?}: recv lamport {recv_lamport} must follow send {send_lamport}"
            );
        }
    }

    #[test]
    fn edges_take_their_tag_from_the_enclosing_span() {
        // Three rules: (1) inside `ctx.span(n, p, d, ..)` an edge carries
        // `(n, p.or(d))`; (2) alltoall's stage sub-spans do not retag it;
        // (3) outside every span it carries stage "unspanned", round None.
        let rec = MemRecorder::new(2);
        let config = ClusterConfig::new(2, 1).with_recorder(&rec);
        run_cluster::<Vec<u8>, _, _>(config, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.span("Merge-Comm", None, Some(3), || {
                ctx.send(peer, vec![1]);
                ctx.recv_from(peer);
            });
            ctx.span("KmerGen-Comm", Some(2), Some(9), || {
                alltoall(ctx, vec![vec![2], vec![2]]);
                ctx.span("inner", None, None, || {
                    ctx.send(peer, vec![3]);
                    ctx.recv_from(peer);
                });
            });
            ctx.send(peer, vec![4]);
            ctx.recv_from(peer);
        });
        let mut tags: Vec<(u64, String, Option<u32>)> = rec
            .into_events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Edge(EdgeEvent {
                    dir: EdgeDir::Send,
                    src: 0,
                    seq,
                    stage,
                    round,
                    ..
                }) => Some((seq, stage.into_owned(), round)),
                _ => None,
            })
            .collect();
        tags.sort();
        let want = [
            ("Merge-Comm", Some(3)),
            ("KmerGen-Comm", Some(2)),
            ("inner", None),
            ("unspanned", None),
        ];
        let got: Vec<(&str, Option<u32>)> = tags.iter().map(|(_, s, r)| (s.as_str(), *r)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn an_inert_fault_plan_changes_nothing() {
        // A plan with no rules and no crashes runs through the fault
        // plane's code path but must be indistinguishable from no plan:
        // same results, same CommStats, same edge stream (timestamps
        // aside).
        let run = |plan: Option<&FaultPlan>| {
            let rec = MemRecorder::new(3);
            let mut config = ClusterConfig::new(3, 1).with_recorder(&rec);
            if let Some(plan) = plan {
                config = config.with_fault_plan(plan);
            }
            let r = run_cluster::<Vec<u32>, _, _>(config, |ctx| {
                let outgoing = (0..3).map(|q| vec![ctx.rank() as u32; q + 1]).collect();
                let got = ctx.span("KmerGen-Comm", Some(0), None, || alltoall(ctx, outgoing));
                let root = (ctx.rank() == 0).then(|| vec![7u32; 5]);
                let labels = ctx.span("CC-I/O", None, None, || broadcast(ctx, 0, root));
                (got, labels)
            });
            // The edge stream, wall-clock stamps zeroed.
            let mut edges: Vec<Event> = rec
                .into_events()
                .into_iter()
                .filter_map(|mut e| match &mut e {
                    Event::Edge(edge) => {
                        edge.at_ns = 0;
                        Some(e)
                    }
                    _ => None,
                })
                .collect();
            edges.sort_by_key(|e| format!("{e:?}"));
            (r.results, r.stats, edges)
        };
        let plan = FaultPlan::new(99);
        assert!(plan.rules.is_empty() && plan.crashes.is_empty());
        assert_eq!(run(Some(&plan)), run(None));
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let r = run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(4, 1), |ctx| {
            let msg = (ctx.rank() == 2).then(|| vec![7u8, 8, 9]);
            broadcast(ctx, 2, msg)
        });
        assert!(r.results.iter().all(|m| m == &vec![7u8, 8, 9]));
    }

    #[test]
    fn broadcast_traces_root_fanout() {
        let p = 4usize;
        let rec = MemRecorder::new(p);
        let config = ClusterConfig::new(p, 1).with_recorder(&rec);
        let r = run_cluster::<Vec<u8>, _, _>(config, |ctx| {
            let msg = (ctx.rank() == 0).then(|| vec![5u8; 16]);
            broadcast(ctx, 0, msg)
        });
        assert!(r.results.iter().all(|m| m == &vec![5u8; 16]));
        let events = rec.into_events();
        let count = |want: EdgeDir| {
            events
                .iter()
                .filter(|e| matches!(e, Event::Edge(EdgeEvent { dir, src: 0, .. }) if *dir == want))
                .count()
        };
        assert_eq!(count(EdgeDir::Send), p - 1);
        assert_eq!(count(EdgeDir::Recv), p - 1);
    }
}
