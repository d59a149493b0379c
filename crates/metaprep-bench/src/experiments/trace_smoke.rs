//! Trace smoke: run a small pipeline with the in-memory recorder, write
//! the Chrome trace + JSONL stream, and validate both.
//!
//! This is the observability layer's end-to-end gate (driven by
//! `cargo xtask bench-smoke`): the Chrome export must pass the schema
//! validator (Perfetto-loadable by construction), the JSONL stream must
//! round-trip through the parser, and the report rebuilt from the events
//! must reproduce the run's own `StepTimings` to the nanosecond.

use crate::{harness, print_table};
use metaprep_core::{Pipeline, PipelineConfig, Step};
use metaprep_obs::export::{parse_jsonl, validate_chrome, write_chrome, write_jsonl};
use metaprep_obs::{CounterKind, Event, MemRecorder, TraceAnalysis};
use metaprep_synth::DatasetId;

/// Run the smoke check; panics (fails the driver) on any validation
/// error. Writes `BENCH_trace.json` (Chrome) and `BENCH_trace.jsonl`
/// next to it; the base path comes from `METAPREP_BENCH_OUT`.
pub fn run(scale: f64) {
    let tasks = 4usize;
    let data = harness::dataset(DatasetId::Is, scale);
    let cfg = PipelineConfig::builder()
        .k(21)
        .m(6)
        .tasks(tasks)
        .threads(2)
        .passes(2)
        .build();
    let rec = MemRecorder::new(tasks);
    let res = Pipeline::new(cfg)
        .with_recorder(&rec)
        .run_reads(&data.reads)
        .expect("smoke pipeline must run");

    let mut events = rec.into_events();
    if let Some(hwm) = metaprep_obs::vm_hwm_bytes() {
        events.push(Event::Counter {
            task: 0,
            kind: CounterKind::VmHwmBytes,
            value: hwm,
        });
    }

    // Chrome export must satisfy the schema validator.
    let chrome = write_chrome(&events);
    validate_chrome(&chrome).expect("chrome trace must validate");

    // JSONL must round-trip, and the trace model rebuilt from it must
    // agree with the run's own timings exactly.
    let jsonl = write_jsonl(&events);
    let parsed = parse_jsonl(&jsonl).expect("jsonl must parse");
    let analysis = TraceAnalysis::from_events(&parsed);
    assert_eq!(
        analysis.index_create_ns(),
        res.timings.index_create.as_nanos() as u64,
        "IndexCreate drift between report and run"
    );
    for step in Step::all() {
        let per_task = analysis.step_task_ns(step.name(), None).unwrap_or_default();
        for (task, tt) in res.timings.per_task.iter().enumerate() {
            assert_eq!(
                per_task.get(task).copied().unwrap_or(0),
                tt.get(step).as_nanos() as u64,
                "step {} task {task} drift between report and run",
                step.name()
            );
        }
    }

    // Causal analysis gate: the happens-before DAG rebuilt from the
    // parsed stream must be complete (every send matched, Lamport order
    // intact) and its critical path must tile the run interval exactly.
    analysis
        .check_conservation()
        .expect("every traced send must pair with a recv");
    analysis
        .check_causality()
        .expect("lamport order must hold along every channel");
    assert_eq!(
        analysis.counter_total(CounterKind::EventsDropped),
        0,
        "recorder dropped events"
    );
    let path = analysis.critical_path();
    assert!(!path.is_empty(), "critical path must be non-empty");
    assert_eq!(
        path.iter().map(|s| s.dur_ns()).sum::<u64>(),
        analysis.makespan_ns(),
        "critical path must tile the makespan exactly"
    );
    assert!(
        !analysis.pairs().is_empty(),
        "a {tasks}-task run must move traced messages"
    );
    // The Chrome export carries the message edges as flow events.
    assert!(
        chrome.contains("\"ph\":\"s\"") && chrome.contains("\"ph\":\"f\""),
        "chrome trace must contain flow start/finish events"
    );

    let out = std::env::var("METAPREP_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("target/BENCH_trace.json"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, &chrome).expect("write chrome trace");
    let jsonl_path = out.with_extension("jsonl");
    std::fs::write(&jsonl_path, &jsonl).expect("write jsonl trace");

    let span_events = events
        .iter()
        .filter(|e| matches!(e, Event::Span { .. }))
        .count();
    let rows = vec![
        vec!["tasks".to_string(), analysis.tasks.to_string()],
        vec!["span events".to_string(), span_events.to_string()],
        vec![
            "message edges".to_string(),
            analysis.pairs().len().to_string(),
        ],
        vec!["critical path segments".to_string(), path.len().to_string()],
        vec![
            "tuples".to_string(),
            analysis
                .counter_total(CounterKind::TuplesEmitted)
                .to_string(),
        ],
        vec![
            "comm bytes".to_string(),
            analysis.counter_total(CounterKind::BytesSent).to_string(),
        ],
        vec!["chrome".to_string(), out.display().to_string()],
        vec!["jsonl".to_string(), jsonl_path.display().to_string()],
    ];
    print_table("trace_smoke: telemetry export validation", &["", ""], &rows);
    println!("\n{}", analysis.render_summary());
}
