//! Byte-and-trace pins for the pipeline driver.
//!
//! One fixed-seed input, one fixed geometry (`tasks=3, threads=1,
//! passes=2, k=21, m=6`), run fault-free and under a two-crash plan with
//! checkpoints on. The input is written as an interleaved paired FASTQ file
//! and run through `Pipeline::run_fastq_file`, the path `metaprep
//! partition` takes: IndexCreate's streaming chunker cuts it, and every
//! pass re-reads its chunks from the file. Everything deterministic about
//! the run is rendered into a snapshot string and compared with a constant
//! recorded before the in-memory input path was folded into the file path:
//! labels, the bytes of every `rank{r}.ckpt` as left on disk, each task's
//! span sequence with its Lamport stamps, each task's message edges, every
//! deterministic counter, and the result totals. A refactor of
//! `metaprep-core::pipeline` that moves any of them fails here.
//!
//! `threads=1` because raw parent arrays are schedule-dependent above it.

use metaprep::core::{Pipeline, PipelineConfig, PipelineConfigBuilder, PipelineResult};
use metaprep::dist::FaultPlan;
use metaprep::io::write_fastq_path;
use metaprep::obs::{CounterKind, EdgeDir, EdgeEvent, Event, MemRecorder, SpanEvent};
use metaprep::synth::{simulate_community, CommunityProfile};
use std::fmt::Write;
use std::path::Path;

const TASKS: usize = 3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn labels_fnv(labels: &[u32]) -> u64 {
    let bytes: Vec<u8> = labels.iter().flat_map(|l| l.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn reads() -> metaprep::io::ReadStore {
    simulate_community(&CommunityProfile::quickstart(), 42).reads
}

fn cfg(k: usize) -> PipelineConfigBuilder {
    PipelineConfig::builder()
        .k(k)
        .m(6)
        .tasks(TASKS)
        .threads(1)
        .passes(2)
}

/// Render everything deterministic about a recorded, checkpointed run.
fn snapshot(res: &PipelineResult, events: &[Event], ckpt_dir: &Path) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "labels n={} fnv={:016x}",
        res.labels.len(),
        labels_fnv(&res.labels)
    )
    .unwrap();
    writeln!(
        s,
        "tuples_total={} presolve_dropped={} planned_passes={}",
        res.tuples_total, res.presolve_dropped, res.planned_passes
    )
    .unwrap();
    for (task, c) in res.comm.iter().enumerate() {
        writeln!(
            s,
            "comm[{task}] sent={}B/{} received={}B/{}",
            c.bytes_sent, c.messages_sent, c.bytes_received, c.messages_received
        )
        .unwrap();
    }
    for name in ["rank0.ckpt", "rank1.ckpt", "rank2.ckpt"] {
        let bytes = std::fs::read(ckpt_dir.join(name)).unwrap();
        writeln!(s, "{name} len={} fnv={:016x}", bytes.len(), fnv1a(&bytes)).unwrap();
    }
    for task in 0..TASKS as u32 {
        // Lamport order is the task's own program order (every span close
        // ticks the clock); driver-side spans carry stamp 0 and sort first.
        let mut spans: Vec<(u64, String)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(SpanEvent {
                    task: t,
                    name,
                    pass,
                    detail,
                    lamport,
                    ..
                }) if *t == task => {
                    let mut sig = name.to_string();
                    if let Some(p) = pass {
                        write!(sig, "@{p}").unwrap();
                    }
                    if let Some(d) = detail {
                        write!(sig, "#{d}").unwrap();
                    }
                    Some((*lamport, format!("{sig}:{lamport}")))
                }
                _ => None,
            })
            .collect();
        spans.sort_by_key(|(l, _)| *l);
        let spans: Vec<String> = spans.into_iter().map(|(_, sig)| sig).collect();
        writeln!(s, "spans[{task}] {}", spans.join(" ")).unwrap();

        let mut edges: Vec<(u64, String)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Edge(EdgeEvent {
                    dir,
                    src,
                    dst,
                    stage,
                    round,
                    bytes,
                    seq,
                    lamport,
                    ..
                }) => {
                    let (mine, arrow) = match dir {
                        EdgeDir::Send => (*src, "->"),
                        EdgeDir::Recv => (*dst, "<-"),
                    };
                    (mine == task).then(|| {
                        (
                            *lamport,
                            format!(
                                "{src}{arrow}{dst} {stage} {round:?} {bytes}B seq{seq} L{lamport}"
                            ),
                        )
                    })
                }
                _ => None,
            })
            .collect();
        edges.sort_by_key(|(l, _)| *l);
        let rendered: Vec<String> = edges.into_iter().map(|(_, e)| e).collect();
        writeln!(
            s,
            "edges[{task}] n={} fnv={:016x}",
            rendered.len(),
            fnv1a(rendered.join("\n").as_bytes())
        )
        .unwrap();
    }
    let counters: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            // The process high-water mark is the one counter the OS owns.
            Event::Counter { task, kind, value }
                if *value != 0 && *kind != CounterKind::VmHwmBytes =>
            {
                Some(format!("{task}:{}={value}", kind.as_str()))
            }
            _ => None,
        })
        .collect();
    writeln!(s, "counters {}", counters.join(" ")).unwrap();
    s
}

fn recorded_run(name: &str, fault_plan: Option<&str>) -> String {
    let dir = std::env::temp_dir().join(format!("metaprep_pins_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut b = cfg(21).checkpoint_dir(&dir);
    if let Some(spec) = fault_plan {
        b = b.fault_plan(FaultPlan::parse_spec(spec).unwrap());
    }
    let input = std::env::temp_dir().join(format!("metaprep_pins_{name}.fastq"));
    write_fastq_path(&input, &reads()).unwrap();
    let rec = MemRecorder::new(TASKS);
    let res = Pipeline::new(b.build())
        .with_recorder(&rec)
        .run_fastq_file(&input, true)
        .unwrap();
    let snap = snapshot(&res, &rec.into_events(), &dir);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_file(&input).unwrap();
    snap
}

const FAULT_FREE: &str = "\
labels n=2000 fnv=79d4ca39560982ed
tuples_total=316727 presolve_dropped=0 planned_passes=2
comm[0] sent=862996B/6 received=859516B/6
comm[1] sent=852044B/5 received=853772B/5
comm[2] sent=851564B/5 received=853316B/5
rank0.ckpt len=8121 fnv=794453daca55b790
rank1.ckpt len=8121 fnv=c7052dd7e6789839
rank2.ckpt len=8121 fnv=0df63cce68d3c78c
spans[0] IndexCreate:0 index-chunking:0 index-histogram:0 pass-plan:0 KmerGen-I/O@0:1 KmerGen@0:2 alltoall-stage@0#1:5 alltoall-stage@0#2:8 KmerGen-Comm@0:9 LocalSort@0:10 LocalCC-Opt@0:11 checkpoint#0:12 KmerGen-I/O@1:13 KmerGen@1:14 alltoall-stage@1#1:17 alltoall-stage@1#2:20 KmerGen-Comm@1:21 LocalSort@1:22 LocalCC-Opt@1:23 checkpoint#1:24 Merge-Comm#0:27 MergeCC#0:28 checkpoint#0:29 Merge-Comm#1:31 MergeCC#1:32 checkpoint#1:33 CC-I/O:36
edges[0] n=12 fnv=aba390982f0e26c2
spans[1] KmerGen-I/O@0:1 KmerGen@0:2 alltoall-stage@0#1:5 alltoall-stage@0#2:8 KmerGen-Comm@0:9 LocalSort@0:10 LocalCC-Opt@0:11 checkpoint#0:12 KmerGen-I/O@1:13 KmerGen@1:14 alltoall-stage@1#1:17 alltoall-stage@1#2:20 KmerGen-Comm@1:21 LocalSort@1:22 LocalCC-Opt@1:23 checkpoint#1:24 Merge-Comm#0:26 CC-I/O:36
edges[1] n=10 fnv=580070dcb06a8e1f
spans[2] KmerGen-I/O@0:1 KmerGen@0:2 alltoall-stage@0#1:5 alltoall-stage@0#2:8 KmerGen-Comm@0:9 LocalSort@0:10 LocalCC-Opt@0:11 checkpoint#0:12 KmerGen-I/O@1:13 KmerGen@1:14 alltoall-stage@1#1:17 alltoall-stage@1#2:20 KmerGen-Comm@1:21 LocalSort@1:22 LocalCC-Opt@1:23 checkpoint#1:24 Merge-Comm#1:26 CC-I/O:37
edges[2] n=10 fnv=263ab20f75b56a39
counters 0:tuples_emitted=105950 0:tuples_received=105660 0:sort_elements=105660 0:uf_finds=87136 0:uf_unions=1995 0:uf_path_splits=4168 0:merge_bytes=16000 0:chunk_records_streamed=4000 0:bytes_sent=862996 0:bytes_received=859516 0:messages_sent=6 0:messages_received=6 0:mem_modeled_bytes=1566144 0:mem_peak_tuple_bytes=1269912 0:radix_passes_run=30 0:radix_passes_pruned=6 0:scatter_bytes=1267920 0:checkpoint_writes=4 0:planned_passes=2 1:tuples_emitted=105484 1:tuples_received=105628 1:sort_elements=105628 1:uf_finds=87126 1:uf_unions=1995 1:uf_path_splits=3796 1:merge_bytes=8000 1:bytes_sent=852044 1:bytes_received=853772 1:messages_sent=5 1:messages_received=5 1:radix_passes_run=31 1:radix_passes_pruned=5 1:scatter_bytes=1267536 1:checkpoint_writes=2 2:tuples_emitted=105293 2:tuples_received=105439 2:sort_elements=105439 2:uf_finds=87244 2:uf_unions=1995 2:uf_path_splits=5161 2:merge_bytes=8000 2:bytes_sent=851564 2:bytes_received=853316 2:messages_sent=5 2:messages_received=5 2:radix_passes_run=32 2:radix_passes_pruned=4 2:scatter_bytes=1265268 2:checkpoint_writes=2
";

const TWO_CRASHES: &str = "\
labels n=2000 fnv=79d4ca39560982ed
tuples_total=316727 presolve_dropped=0 planned_passes=2
comm[0] sent=862996B/6 received=859516B/6
comm[1] sent=852044B/5 received=853772B/5
comm[2] sent=851564B/5 received=853316B/5
rank0.ckpt len=8121 fnv=794453daca55b790
rank1.ckpt len=8121 fnv=c7052dd7e6789839
rank2.ckpt len=8121 fnv=0df63cce68d3c78c
spans[0] IndexCreate:0 index-chunking:0 index-histogram:0 pass-plan:0 KmerGen-I/O@0:1 KmerGen@0:2 alltoall-stage@0#1:5 alltoall-stage@0#2:8 KmerGen-Comm@0:9 LocalSort@0:10 LocalCC-Opt@0:11 checkpoint#0:12 KmerGen-I/O@1:13 KmerGen@1:14 alltoall-stage@1#1:17 alltoall-stage@1#2:21 KmerGen-Comm@1:22 LocalSort@1:23 LocalCC-Opt@1:24 checkpoint#1:25 Merge-Comm#0:28 MergeCC#0:29 checkpoint#0:30 task-restart:31 Merge-Comm#1:33 MergeCC#1:34 checkpoint#1:35 CC-I/O:38
edges[0] n=12 fnv=bdaf08db50ebc249
spans[1] KmerGen-I/O@0:1 KmerGen@0:2 alltoall-stage@0#1:5 alltoall-stage@0#2:8 KmerGen-Comm@0:9 LocalSort@0:10 LocalCC-Opt@0:11 checkpoint#0:12 task-restart:13 KmerGen-I/O@1:14 KmerGen@1:15 alltoall-stage@1#1:18 alltoall-stage@1#2:21 KmerGen-Comm@1:22 LocalSort@1:23 LocalCC-Opt@1:24 checkpoint#1:25 Merge-Comm#0:27 CC-I/O:38
edges[1] n=10 fnv=67de00b55d41eba3
spans[2] KmerGen-I/O@0:1 KmerGen@0:2 alltoall-stage@0#1:5 alltoall-stage@0#2:8 KmerGen-Comm@0:9 LocalSort@0:10 LocalCC-Opt@0:11 checkpoint#0:12 KmerGen-I/O@1:13 KmerGen@1:14 alltoall-stage@1#1:18 alltoall-stage@1#2:21 KmerGen-Comm@1:22 LocalSort@1:23 LocalCC-Opt@1:24 checkpoint#1:25 Merge-Comm#1:27 CC-I/O:39
edges[2] n=10 fnv=945f0abc3c9ea3ac
counters 0:tuples_emitted=105950 0:tuples_received=105660 0:sort_elements=105660 0:uf_finds=87136 0:uf_unions=1995 0:uf_path_splits=4168 0:merge_bytes=16000 0:chunk_records_streamed=4000 0:bytes_sent=862996 0:bytes_received=859516 0:messages_sent=6 0:messages_received=6 0:mem_modeled_bytes=1566144 0:mem_peak_tuple_bytes=1269912 0:radix_passes_run=30 0:radix_passes_pruned=6 0:scatter_bytes=1267920 0:faults_injected=1 0:checkpoint_writes=4 0:task_restarts=1 0:planned_passes=2 1:tuples_emitted=105484 1:tuples_received=105628 1:sort_elements=105628 1:uf_finds=87126 1:uf_unions=1995 1:uf_path_splits=3796 1:merge_bytes=8000 1:bytes_sent=852044 1:bytes_received=853772 1:messages_sent=5 1:messages_received=5 1:radix_passes_run=31 1:radix_passes_pruned=5 1:scatter_bytes=1267536 1:faults_injected=1 1:checkpoint_writes=2 1:task_restarts=1 2:tuples_emitted=105293 2:tuples_received=105439 2:sort_elements=105439 2:uf_finds=87244 2:uf_unions=1995 2:uf_path_splits=5161 2:merge_bytes=8000 2:bytes_sent=851564 2:bytes_received=853316 2:messages_sent=5 2:messages_received=5 2:radix_passes_run=32 2:radix_passes_pruned=4 2:scatter_bytes=1265268 2:checkpoint_writes=2
";

#[test]
fn fault_free_run_is_pinned() {
    let got = recorded_run("fault_free", None);
    assert_eq!(got, FAULT_FREE, "\n--- actual snapshot ---\n{got}");
}

#[test]
fn crash_restarted_run_is_pinned() {
    let got = recorded_run(
        "two_crashes",
        Some("seed=1,crash=rank1@pass1,crash=rank0@merge1"),
    );
    assert_eq!(got, TWO_CRASHES, "\n--- actual snapshot ---\n{got}");
}

#[test]
fn wide_kmer_labels_are_pinned() {
    // k > 32 takes the `Kmer128` arm of the width dispatch.
    let res = Pipeline::new(cfg(33).build()).run_reads(&reads()).unwrap();
    assert_eq!(
        (res.labels.len(), labels_fnv(&res.labels), res.tuples_total),
        (2000, 6409973714217156335, 267731)
    );
}
