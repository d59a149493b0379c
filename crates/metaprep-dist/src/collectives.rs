//! Collective operations over the simulated cluster.
//!
//! [`alltoall`] is the paper's custom all-to-all (§3.3): `P` stages, where
//! in stage `i` task `p` sends its buffer for task `(p + i) mod P` and
//! receives from `(p - i) mod P`. Stage 0 is the local "self-send" (no
//! message). The staged schedule avoids the many-to-one hot spot of a
//! naive simultaneous exchange — `bench_alltoall` measures the difference.

use crate::cluster::TaskCtx;
use crate::Payload;
use metaprep_obs::{event::ALLTOALL_STAGE, TaskObs};

/// Peers of task `rank` in stage `stage` of the staged all-to-all:
/// `(to, from)` where this task sends to `(rank + stage) mod P` and
/// receives from `(rank - stage) mod P`.
///
/// Factored out so the loom model test (`tests/loom.rs`) explores the
/// exact schedule [`alltoall`] executes, not a reimplementation.
pub fn stage_peers(rank: usize, p: usize, stage: usize) -> (usize, usize) {
    debug_assert!(rank < p && stage < p);
    ((rank + stage) % p, (rank + p - stage) % p)
}

/// Custom P-stage all-to-all. `outgoing[q]` is this task's buffer destined
/// for task `q`; returns `incoming` where `incoming[q]` came from task `q`.
///
/// Must be called collectively (by every task, with `outgoing.len() == P`).
pub fn alltoall<M: Payload>(ctx: &TaskCtx<M>, outgoing: Vec<M>) -> Vec<M> {
    alltoall_inner(ctx, outgoing, None, None, "alltoall")
}

/// [`alltoall`] with telemetry: when the recorder is enabled, each of the
/// `P-1` communicating stages becomes an [`ALLTOALL_STAGE`] sub-span
/// (`detail` = stage index), and every message becomes a send/recv edge
/// pair tagged `edge_stage` (round = `pass`) carrying the sender's
/// Lamport clock. Byte/message counters are *not* recorded here — the
/// cluster's own [`crate::CommStats`] accounting (which also covers merge
/// rounds and broadcasts) is the single source of truth for communication
/// volume, and the pipeline surfaces it as counters after the run.
pub fn alltoall_obs<M: Payload>(
    ctx: &TaskCtx<M>,
    outgoing: Vec<M>,
    obs: &mut TaskObs<'_>,
    pass: Option<u32>,
    edge_stage: &'static str,
) -> Vec<M> {
    alltoall_inner(ctx, outgoing, Some(obs), pass, edge_stage)
}

fn alltoall_inner<M: Payload>(
    ctx: &TaskCtx<M>,
    mut outgoing: Vec<M>,
    mut obs: Option<&mut TaskObs<'_>>,
    pass: Option<u32>,
    edge_stage: &'static str,
) -> Vec<M> {
    let p = ctx.size();
    assert_eq!(outgoing.len(), p, "alltoall requires one buffer per task");
    let rank = ctx.rank();

    // Collect into Option slots so buffers can be moved out one by one.
    let mut out: Vec<Option<M>> = outgoing.drain(..).map(Some).collect();
    let mut incoming: Vec<Option<M>> = (0..p).map(|_| None).collect();

    // Stage 0: keep own buffer.
    incoming[rank] = out[rank].take();

    for stage in 1..p {
        let (to, from) = stage_peers(rank, p, stage);
        // EXPECT: `stage_peers` visits each destination exactly once per round, so the slot is still `Some`.
        let buf = out[to].take().expect("buffer already sent");
        let received = match obs.as_deref_mut() {
            Some(o) => {
                let open = o.export_enabled().then(|| o.open());
                ctx.send_traced(to, buf, o, edge_stage, pass);
                let received = ctx.recv_from_traced(from, o, edge_stage, pass);
                if let Some(open) = open {
                    o.close_detail(open, ALLTOALL_STAGE, pass, Some(stage as u32));
                }
                received
            }
            None => {
                ctx.send(to, buf);
                ctx.recv_from(from)
            }
        };
        incoming[from] = Some(received);
    }

    incoming
        .into_iter()
        // EXPECT: the stage loop received from every peer exactly once and the own-rank slot was moved directly.
        .map(|o| o.expect("missing incoming buffer"))
        .collect()
}

/// Naive all-to-all: every task fires all its sends immediately, then
/// drains its inbox. Kept as the ablation baseline for the staged schedule
/// (all `P-1` messages per task land at once instead of one per stage).
pub fn alltoall_naive<M: Payload>(ctx: &TaskCtx<M>, mut outgoing: Vec<M>) -> Vec<M> {
    let p = ctx.size();
    assert_eq!(outgoing.len(), p, "alltoall requires one buffer per task");
    let rank = ctx.rank();
    let mut out: Vec<Option<M>> = outgoing.drain(..).map(Some).collect();
    let mut incoming: Vec<Option<M>> = (0..p).map(|_| None).collect();
    incoming[rank] = out[rank].take();
    for (to, buf) in out.iter_mut().enumerate() {
        if to != rank {
            // EXPECT: the loop visits each destination slot exactly once.
            ctx.send(to, buf.take().expect("buffer already sent"));
        }
    }
    for (from, slot) in incoming.iter_mut().enumerate() {
        if from != rank {
            *slot = Some(ctx.recv_from(from));
        }
    }
    incoming
        .into_iter()
        // EXPECT: the receive loop filled every peer slot and the own-rank slot was moved directly.
        .map(|o| o.expect("missing incoming buffer"))
        .collect()
}

/// Broadcast `msg` from `root` to all tasks; every task returns its copy.
/// `msg` is only inspected on the root (others pass `None`). Every
/// root→peer copy becomes a send/recv edge pair tagged `stage` so the
/// fan-out shows up in the happens-before DAG (and as flow arrows in the
/// Chrome export).
pub fn broadcast<M: Payload + Clone>(
    ctx: &TaskCtx<M>,
    root: usize,
    msg: Option<M>,
    obs: &mut TaskObs<'_>,
    stage: &'static str,
) -> M {
    if ctx.rank() == root {
        // EXPECT: documented contract — the root caller passes `Some`; non-root `msg` is never read.
        let m = msg.expect("root must provide the message");
        for to in 0..ctx.size() {
            if to != root {
                ctx.send_traced(to, m.clone(), obs, stage, None);
            }
        }
        m
    } else {
        ctx.recv_from_traced(root, obs, stage, None)
    }
}

/// Gather every task's `msg` at `root`; returns `Some(all)` (rank-indexed)
/// on the root and `None` elsewhere.
pub fn gather<M: Payload>(ctx: &TaskCtx<M>, root: usize, msg: M) -> Option<Vec<M>> {
    if ctx.rank() == root {
        let mut all: Vec<Option<M>> = (0..ctx.size()).map(|_| None).collect();
        all[root] = Some(msg);
        for (from, slot) in all.iter_mut().enumerate() {
            if from != root {
                *slot = Some(ctx.recv_from(from));
            }
        }
        // EXPECT: `all[root]` was set directly and the loop filled every other slot.
        Some(all.into_iter().map(|o| o.expect("gathered")).collect())
    } else {
        ctx.send(root, msg);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_cluster, ClusterConfig};

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

    #[test]
    fn alltoall_naive_matches_staged() {
        for p in [2usize, 4, 7] {
            let run = |staged: bool| {
                run_cluster::<Vec<u32>, _, _>(ClusterConfig::new(p, 1), move |ctx| {
                    let outgoing: Vec<Vec<u32>> = (0..ctx.size())
                        .map(|q| vec![(ctx.rank() * 31 + q) as u32])
                        .collect();
                    if staged {
                        alltoall(ctx, outgoing)
                    } else {
                        alltoall_naive(ctx, outgoing)
                    }
                })
                .results
            };
            assert_eq!(run(true), run(false), "p={p}");
        }
    }

    #[test]
    fn alltoall_obs_records_stage_spans_and_receive_bytes() {
        use metaprep_obs::{Event, MemRecorder};
        let p = 4usize;
        let rec = MemRecorder::new(p);
        let rec_ref: &MemRecorder = &rec;
        let r = run_cluster::<Vec<u64>, _, _>(ClusterConfig::new(p, 1), move |ctx| {
            let mut obs = TaskObs::new(rec_ref, ctx.rank() as u32);
            let outgoing: Vec<Vec<u64>> = (0..ctx.size()).map(|_| vec![0u64; 8]).collect();
            let incoming = alltoall_obs(ctx, outgoing, &mut obs, Some(0), "KmerGen-Comm");
            obs.finish();
            incoming.len()
        });
        for (rank, &n) in r.results.iter().enumerate() {
            assert_eq!(n, p);
            // 3 remote buffers of 64 bytes each land on every task —
            // accounted by the cluster itself, not by the collective.
            assert_eq!(r.stats[rank].bytes_received, 192);
        }
        let events = rec.into_events();
        let stage_spans = events
            .iter()
            .filter(|e| matches!(e, Event::Span { name, .. } if name == ALLTOALL_STAGE))
            .count();
        assert_eq!(stage_spans, p * (p - 1));
    }

    #[test]
    fn alltoall_obs_noop_records_no_spans() {
        use metaprep_obs::NoopRecorder;
        let rec = NoopRecorder::new();
        let rec_ref: &NoopRecorder = &rec;
        let r = run_cluster::<Vec<u32>, _, _>(ClusterConfig::new(3, 1), move |ctx| {
            let mut obs = TaskObs::new(rec_ref, ctx.rank() as u32);
            let outgoing: Vec<Vec<u32>> = (0..ctx.size())
                .map(|q| vec![ctx.rank() as u32 * 100 + q as u32])
                .collect();
            let incoming = alltoall_obs(ctx, outgoing, &mut obs, None, "KmerGen-Comm");
            let n_spans = obs.spans().len();
            obs.finish();
            (incoming, n_spans)
        });
        for (rank, (incoming, n_spans)) in r.results.iter().enumerate() {
            assert_eq!(*n_spans, 0, "no sub-spans when disabled");
            for (from, buf) in incoming.iter().enumerate() {
                assert_eq!(buf, &vec![from as u32 * 100 + rank as u32]);
            }
        }
    }

    #[test]
    fn alltoall_obs_edges_are_matched_and_causal() {
        use metaprep_obs::{EdgeDir, Event, MemRecorder};
        use std::collections::BTreeMap;
        let p = 4usize;
        let rec = MemRecorder::new(p);
        let rec_ref: &MemRecorder = &rec;
        run_cluster::<Vec<u64>, _, _>(ClusterConfig::new(p, 1), move |ctx| {
            let mut obs = TaskObs::new(rec_ref, ctx.rank() as u32);
            let outgoing: Vec<Vec<u64>> = (0..ctx.size()).map(|_| vec![0u64; 8]).collect();
            alltoall_obs(ctx, outgoing, &mut obs, Some(1), "KmerGen-Comm");
            obs.finish();
        });
        // Every send has exactly one matching recv on the same
        // (src, dst, seq) channel slot, with a strictly greater Lamport
        // stamp; bytes agree on both endpoints.
        let mut sends: BTreeMap<(u32, u32, u64), (u64, u64)> = BTreeMap::new();
        let mut recvs: BTreeMap<(u32, u32, u64), (u64, u64)> = BTreeMap::new();
        for e in rec.into_events() {
            if let Event::Edge {
                dir,
                src,
                dst,
                stage,
                round,
                bytes,
                seq,
                lamport,
                ..
            } = e
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
    fn broadcast_reaches_everyone() {
        use metaprep_obs::NoopRecorder;
        let rec = NoopRecorder::new();
        let rec_ref: &NoopRecorder = &rec;
        let r = run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(4, 1), move |ctx| {
            let mut obs = TaskObs::new(rec_ref, ctx.rank() as u32);
            let msg = (ctx.rank() == 2).then(|| vec![7u8, 8, 9]);
            broadcast(ctx, 2, msg, &mut obs, "CC-I/O")
        });
        assert!(r.results.iter().all(|m| m == &vec![7u8, 8, 9]));
    }

    #[test]
    fn broadcast_traces_root_fanout() {
        use metaprep_obs::{EdgeDir, Event, MemRecorder};
        let p = 4usize;
        let rec = MemRecorder::new(p);
        let rec_ref: &MemRecorder = &rec;
        let r = run_cluster::<Vec<u8>, _, _>(ClusterConfig::new(p, 1), move |ctx| {
            let mut obs = TaskObs::new(rec_ref, ctx.rank() as u32);
            let msg = (ctx.rank() == 0).then(|| vec![5u8; 16]);
            let got = broadcast(ctx, 0, msg, &mut obs, "CC-I/O");
            obs.finish();
            got
        });
        assert!(r.results.iter().all(|m| m == &vec![5u8; 16]));
        let events = rec.into_events();
        let sends = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Edge {
                        dir: EdgeDir::Send,
                        src: 0,
                        ..
                    }
                )
            })
            .count();
        let recvs = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Edge {
                        dir: EdgeDir::Recv,
                        src: 0,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(sends, p - 1);
        assert_eq!(recvs, p - 1);
    }

    #[test]
    fn gather_collects_rank_indexed() {
        let r = run_cluster::<Vec<u32>, _, _>(ClusterConfig::new(4, 1), |ctx| {
            gather(ctx, 0, vec![ctx.rank() as u32])
        });
        let at_root = r.results[0].as_ref().unwrap();
        assert_eq!(at_root, &vec![vec![0], vec![1], vec![2], vec![3]]);
        assert!(r.results[1].is_none());
    }
}
