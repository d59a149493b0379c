//! Golden-file tests for the two trace exporters.
//!
//! Both exporters are deterministic for a fixed event stream, so the full
//! Chrome JSON is pinned byte-for-byte in `tests/golden/chrome_trace.json`
//! and the JSONL stream in `tests/golden/trace.jsonl`; the JSONL golden
//! must also parse back to the same events. Regenerate after an
//! intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p metaprep-obs --test chrome_golden
//! ```

use metaprep_obs::event::EdgeDir;
use metaprep_obs::export::{parse_jsonl, validate_chrome, write_chrome, write_jsonl};
use metaprep_obs::json;
use metaprep_obs::{CounterKind, Event};
use metaprep_obs::{EdgeEvent, SpanEvent};

fn span(task: u32, name: &str, pass: Option<u32>, detail: Option<u32>, ns: (u64, u64)) -> Event {
    Event::Span(SpanEvent {
        task,
        name: name.to_string().into(),
        pass,
        detail,
        start_ns: ns.0,
        end_ns: ns.1,
        lamport: 0,
    })
}

fn edge(dir: EdgeDir, src: u32, dst: u32, seq: u64, lamport: u64, at_ns: u64) -> Event {
    Event::Edge(EdgeEvent {
        dir,
        src,
        dst,
        stage: "KmerGen-Comm".to_string().into(),
        round: Some(0),
        bytes: 4_096,
        seq,
        lamport,
        at_ns,
    })
}

/// A fixed two-task run touching every event shape the exporter handles:
/// the meta header, a driver-side IndexCreate span, per-pass step spans,
/// an all-to-all stage sub-span, message-edge flow events, and counters.
fn fixture() -> Vec<Event> {
    vec![
        Event::Meta { tasks: 2 },
        span(0, "IndexCreate", None, None, (0, 1_500_000)),
        span(0, "KmerGen-I/O", Some(0), None, (1_500_000, 1_750_000)),
        span(0, "KmerGen", Some(0), None, (1_750_000, 4_000_000)),
        span(1, "KmerGen-I/O", Some(0), None, (1_600_000, 1_900_000)),
        span(1, "KmerGen", Some(0), None, (1_900_000, 4_200_000)),
        span(0, "KmerGen-Comm", Some(0), None, (4_000_000, 5_000_000)),
        span(
            0,
            "alltoall-stage",
            Some(0),
            Some(1),
            (4_100_000, 4_900_000),
        ),
        span(1, "KmerGen-Comm", Some(0), None, (4_200_000, 5_100_000)),
        edge(EdgeDir::Send, 0, 1, 0, 3, 4_150_000),
        edge(EdgeDir::Recv, 0, 1, 0, 4, 4_300_000),
        span(0, "LocalSort", Some(0), None, (5_000_000, 7_250_500)),
        span(1, "LocalSort", Some(0), None, (5_100_000, 7_100_000)),
        span(0, "Merge-Comm", None, Some(0), (7_300_000, 7_400_000)),
        span(0, "CC-I/O", None, None, (7_400_000, 8_000_000)),
        Event::Counter {
            task: 0,
            kind: CounterKind::TuplesEmitted,
            value: 12_345,
        },
        Event::Counter {
            task: 1,
            kind: CounterKind::BytesSent,
            value: 98_304,
        },
    ]
}

/// Compare `out` with the golden file `name`, or rewrite the file when
/// `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, out: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        out, want,
        "{name} drifted from the golden file; if intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_export_matches_golden_file() {
    check_golden("chrome_trace.json", &write_chrome(&fixture()));
}

#[test]
fn jsonl_export_matches_golden_file_and_parses_back() {
    let out = write_jsonl(&fixture());
    check_golden("trace.jsonl", &out);
    assert_eq!(parse_jsonl(&out).expect("golden JSONL parses"), fixture());
}

#[test]
fn golden_trace_is_valid_and_well_shaped() {
    let out = write_chrome(&fixture());
    // The schema validator (used by the bench smoke) accepts it.
    validate_chrome(&out).expect("golden trace must validate");

    let v = json::parse(&out).expect("golden trace must be valid JSON");
    let evs = v
        .get("traceEvents")
        .and_then(|t| t.as_arr())
        .expect("traceEvents array");

    // One process per task, exactly: every span pid is 0 or 1, and both
    // have a process_name metadata record.
    let mut span_pids = std::collections::BTreeSet::new();
    let mut named_pids = std::collections::BTreeSet::new();
    let mut prev_ts = f64::NEG_INFINITY;
    for e in evs {
        let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
        let pid = e.get("pid").and_then(|p| p.as_u64()).unwrap();
        match ph {
            "X" => {
                span_pids.insert(pid);
                let ts = e.get("ts").and_then(|t| t.as_f64()).unwrap();
                assert!(ts >= prev_ts, "ts must be non-decreasing");
                prev_ts = ts;
                assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap() >= 0.0);
            }
            "M" if e.get("name").and_then(|n| n.as_str()) == Some("process_name") => {
                named_pids.insert(pid);
            }
            _ => {}
        }
    }
    assert_eq!(span_pids, [0u64, 1].into_iter().collect());
    assert!(named_pids.is_superset(&span_pids), "every task pid named");

    // The message edge shows up as a matched flow pair.
    let flows: Vec<&str> = evs
        .iter()
        .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
        .filter(|ph| matches!(*ph, "s" | "f"))
        .collect();
    assert_eq!(flows, vec!["s", "f"]);
}
