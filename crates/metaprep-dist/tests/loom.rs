//! Loom model tests for the staged all-to-all message schedule (§3.3).
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p metaprep-dist --test loom
//! ```
//!
//! The `run_cluster` harness (scoped threads + rayon pools + wall-clock
//! watchdog) is not built under `--cfg loom` at all; what IS modeled is
//! the part where the concurrency lives: the per-pair channel matrix, the
//! receive-side `DedupState` protocol, and the
//! staged send/recv schedule from [`metaprep_dist::stage_peers`] —
//! the exact peer arithmetic `collectives::alltoall` executes. Under
//! `--cfg loom`, `metaprep_dist::sync::channel` re-exports the modeled
//! mpsc channel whose every send/recv is a scheduling point, so the
//! model proves deadlock-freedom and message conservation over ALL
//! interleavings, not just the ones a lucky run happens to hit. The
//! model applies dynamic partial-order reduction (see `loom::dpor`), so
//! "all interleavings" means one representative per Mazurkiewicz trace
//! — operations on different queues commute and are explored once.
#![cfg(loom)]

use loom::thread;
use metaprep_dist::stage_peers;
use metaprep_dist::sync::channel::{unbounded, Receiver, Sender};

/// Message: (source rank, destination rank) so the receiver can verify
/// both provenance and routing.
type Msg = (usize, usize);

/// Build the p×p channel matrix and hand each rank its senders-to-all
/// row and receive-from-all column, mirroring `run_cluster`'s wiring.
fn wire(p: usize) -> (Vec<Vec<Sender<Msg>>>, Vec<Vec<Receiver<Msg>>>) {
    let mut senders: Vec<Vec<Sender<Msg>>> = (0..p).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for from in 0..p {
        for rx_row in receivers.iter_mut() {
            let (tx, rx) = unbounded::<Msg>();
            senders[from].push(tx);
            rx_row[from] = Some(rx);
        }
    }
    let receivers = receivers
        .into_iter()
        .map(|row| row.into_iter().map(|o| o.unwrap()).collect())
        .collect();
    (senders, receivers)
}

/// One rank's side of a staged all-to-all round: stage `s` sends to
/// `(rank + s) mod p` and receives from `(rank - s) mod p`. Returns the
/// messages received, in stage order.
fn staged_round(rank: usize, p: usize, txs: &[Sender<Msg>], rxs: &[Receiver<Msg>]) -> Vec<Msg> {
    let mut got = Vec::with_capacity(p - 1);
    for stage in 1..p {
        let (to, from) = stage_peers(rank, p, stage);
        txs[to].send((rank, to)).expect("receiver alive");
        got.push(rxs[from].recv().expect("sender alive"));
    }
    got
}

/// Run a p-task staged all-to-all round under the model and assert, for
/// EVERY interleaving: no deadlock (the model aborts with a report if
/// all threads block), every message conserved (received exactly once,
/// by the rank it was addressed to, from the stage-mandated source),
/// and nothing left queued. Returns the exploration report so callers
/// can bound the schedule count DPOR actually visited.
fn check_alltoall(p: usize, max_iters: usize) -> loom::model::Report {
    let builder = loom::model::Builder {
        max_iters,
        dpor: true,
    };
    builder.check_report(move || {
        let (senders, receivers) = wire(p);
        let mut parts: Vec<_> = senders.into_iter().zip(receivers).collect();
        // Rank 0 runs on the model's main thread (the loom idiom: the
        // model body is itself a schedulable thread), so p ranks cost p
        // actors, not p+1 — keeping the schedule space exhaustive yet
        // enumerable.
        let (txs0, rxs0) = parts.remove(0);
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, (txs, rxs))| {
                let rank = i + 1;
                thread::spawn(move || (staged_round(rank, p, &txs, &rxs), rxs))
            })
            .collect();
        let rank0 = (staged_round(0, p, &txs0, &rxs0), rxs0);

        let (mut all, mut rx_rows): (Vec<Vec<Msg>>, Vec<Vec<Receiver<Msg>>>) =
            handles.into_iter().map(|h| h.join().unwrap()).unzip();
        all.insert(0, rank0.0);
        rx_rows.insert(0, rank0.1);

        // Conservation (queues): checked after all joins, when only the
        // main thread is runnable, so the drain probes don't multiply
        // the schedule space. A stray message here would mean a send no
        // stage accounted for.
        for (rank, rxs) in rx_rows.iter().enumerate() {
            for rx in rxs {
                assert!(
                    rx.try_recv().is_err(),
                    "rank {rank}: message left queued after the round"
                );
            }
        }

        // Conservation (global): p*(p-1) messages sent, p*(p-1)
        // received, each (src, dst) pair exactly once, dst correct.
        let mut seen = std::collections::HashSet::new();
        for (rank, got) in all.iter().enumerate() {
            assert_eq!(got.len(), p - 1, "rank {rank} short on messages");
            for (i, &(src, dst)) in got.iter().enumerate() {
                let stage = i + 1;
                let (_, expect_from) = stage_peers(rank, p, stage);
                assert_eq!(dst, rank, "misrouted message at rank {rank}");
                assert_eq!(src, expect_from, "wrong source in stage {stage}");
                assert!(
                    seen.insert((src, dst)),
                    "duplicate delivery of {src}->{dst}"
                );
            }
        }
        assert_eq!(seen.len(), p * (p - 1), "lost messages");
    })
}

/// Two tasks: a single exchange stage. Small enough that the model
/// visits every interleaving of {send, recv} × {send, recv}, including
/// the order where both sends land before either recv.
#[test]
fn alltoall_two_tasks_all_interleavings() {
    check_alltoall(2, 250_000);
}

/// Stage 1 of the three-task round in isolation: a ring exchange where
/// each rank sends to `(rank + 1) mod 3` and receives from
/// `(rank + 2) mod 3` — the smallest instance where a rank's send and
/// the recv it pairs with involve three different ranks. Exhaustive in
/// a few thousand schedules.
#[test]
fn ring_stage_of_three_tasks_all_interleavings() {
    loom::model(|| {
        let p = 3;
        let (senders, receivers) = wire(p);
        let mut parts: Vec<_> = senders.into_iter().zip(receivers).collect();
        let (txs0, rxs0) = parts.remove(0);
        let one_stage = move |rank: usize, txs: &[Sender<Msg>], rxs: &[Receiver<Msg>]| {
            let (to, from) = stage_peers(rank, p, 1);
            txs[to].send((rank, to)).expect("receiver alive");
            rxs[from].recv().expect("sender alive")
        };
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(i, (txs, rxs))| thread::spawn(move || one_stage(i + 1, &txs, &rxs)))
            .collect();
        let got0 = one_stage(0, &txs0, &rxs0);
        let mut got: Vec<Msg> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.insert(0, got0);
        for (rank, &(src, dst)) in got.iter().enumerate() {
            let (_, expect_from) = stage_peers(rank, p, 1);
            assert_eq!((src, dst), (expect_from, rank), "ring exchange misrouted");
        }
    });
}

/// Three tasks, the full two-stage round. Brute-force enumeration of
/// this model is ~3.35M schedules (~5 min) — which is why it used to be
/// `#[ignore]`d. Dynamic partial-order reduction with sleep sets prunes
/// the interleavings of *independent* channel operations (different
/// queues), so the model now covers every Mazurkiewicz trace in a tiny
/// fraction of that and runs in the default `--cfg loom` suite. The
/// assertion pins the reduction: if a scheduler change regresses DPOR,
/// the explored count blowing past 1% of brute force fails loudly here
/// rather than silently costing minutes.
#[test]
fn alltoall_three_tasks_all_interleavings() {
    let report = check_alltoall(3, 4_000_000);
    assert!(
        report.schedules_explored <= 33_500,
        "DPOR regression: explored {} schedules, expected <= 33,500 \
         (>= 100x reduction vs ~3.35M brute-force)",
        report.schedules_explored
    );
}

/// The delivery protocol's receive side, under the model: a sender
/// whose wire stream carries duplicates (each message retransmitted,
/// plus a late retransmit of an old seq) races a receiver running the
/// `DedupState` classify loop. For EVERY interleaving of sends and
/// receives the receiver must deliver each logical message exactly
/// once, in seq order — the idempotence contract `run_cluster` relies on
/// under a fault plan when a duplicate ghost lands next to its envelope.
#[test]
fn dedup_delivers_exactly_once_under_all_interleavings() {
    use metaprep_dist::{DedupState, Offer};
    loom::model(|| {
        let (tx, rx) = unbounded::<u64>();
        let sender = thread::spawn(move || {
            for seq in 0u64..3 {
                tx.send(seq).expect("receiver alive");
                tx.send(seq).expect("receiver alive"); // duplicate
            }
            tx.send(0).expect("receiver alive"); // late retransmit
        });
        let mut dedup = DedupState::new();
        let mut next = 0u64;
        let mut delivered = Vec::new();
        // 7 wire items total; drain them all, delivering on classify.
        for _ in 0..7 {
            let seq = rx.recv().expect("sender alive");
            match dedup.classify(next, seq) {
                Offer::Deliver => {
                    delivered.push(seq);
                    next += 1;
                }
                Offer::Stash | Offer::Duplicate => {}
            }
        }
        sender.join().expect("sender clean");
        assert_eq!(delivered, vec![0, 1, 2], "exactly-once in-order broken");
        assert_eq!(dedup.duplicates(), 4);
    });
}

/// The stash path of the same protocol: the wire reorders seq 1 ahead
/// of seq 0 (what a receive-side reorder injection produces). Across
/// every interleaving the receiver must stash the early arrival and
/// deliver it exactly at its turn.
#[test]
fn reordered_arrivals_are_stashed_and_delivered_in_order() {
    use metaprep_dist::{DedupState, Offer};
    loom::model(|| {
        let (tx, rx) = unbounded::<u64>();
        let sender = thread::spawn(move || {
            for seq in [1u64, 0, 2] {
                tx.send(seq).expect("receiver alive");
            }
        });
        let mut dedup = DedupState::new();
        let mut stash = std::collections::BTreeMap::new();
        let mut next = 0u64;
        let mut delivered = Vec::new();
        while delivered.len() < 3 {
            if dedup.take_ready(next) {
                let seq = stash.remove(&next).expect("stashed value present");
                delivered.push(seq);
                next += 1;
                continue;
            }
            let seq = rx.recv().expect("sender alive");
            match dedup.classify(next, seq) {
                Offer::Deliver => {
                    delivered.push(seq);
                    next += 1;
                }
                Offer::Stash => {
                    stash.insert(seq, seq);
                }
                Offer::Duplicate => {}
            }
        }
        sender.join().expect("sender clean");
        assert_eq!(delivered, vec![0, 1, 2], "stash broke in-order delivery");
        assert_eq!(stash.len(), 0, "stash not drained");
    });
}

/// Negative control: an UNSTAGED schedule where rank 0 receives before
/// sending while rank 1 does the opposite-of-staged order would
/// deadlock if both ranks waited first. The model must detect the
/// cross-recv deadlock and abort with a report instead of hanging —
/// this is the property the watchdog enforces at runtime for schedules
/// the model cannot cover.
#[test]
fn cross_recv_without_staging_is_caught_by_model() {
    let caught = std::panic::catch_unwind(|| {
        loom::model(|| {
            let (senders, receivers) = wire(2);
            let mut parts: Vec<_> = senders.into_iter().zip(receivers).collect();
            let (txs1, rxs1) = parts.pop().unwrap();
            let (txs0, rxs0) = parts.pop().unwrap();
            let h0 = thread::spawn(move || {
                // Recv-first on both ranks: nobody ever sends.
                let _ = rxs0[1].recv();
                let _ = txs0[1].send((0, 1));
            });
            let h1 = thread::spawn(move || {
                let _ = rxs1[0].recv();
                let _ = txs1[0].send((1, 0));
            });
            let _ = h0.join();
            let _ = h1.join();
        });
    });
    let err = caught.expect_err("model must flag the deadlock");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&'static str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("DEADLOCK"),
        "expected a deadlock report, got: {msg:?}"
    );
}
