//! Exporters: JSONL event stream and Chrome `trace_event` JSON.
//!
//! JSONL is the lossless format (exact nanosecond integers; `metaprep
//! analyze` consumes it and reproduces `StepTimings` totals bit-for-bit).
//! The Chrome format targets Perfetto / `chrome://tracing`: one
//! "process" per simulated task, one named thread row per step, complete
//! (`ph:"X"`) events with microsecond `ts`/`dur`, and final counter
//! values as `ph:"C"` events at the end of the trace.

use crate::event::{
    CounterKind, EdgeDir, EdgeEvent, Event, SpanEvent, ALLTOALL_STAGE, INDEX_CREATE, STEP_NAMES,
};
use crate::json::{self, Value};
use std::fmt::Write as _;

/// Serialize events as one JSON object per line.
///
/// Wire schema (`version` 1):
/// `{"type":"meta","version":1,"tasks":N}`
/// `{"type":"span","task":T,"name":"KmerGen","pass":P,"detail":D,"start_ns":A,"end_ns":B,"lamport":L}`
/// (`pass`/`detail` omitted when absent; `lamport` omitted when 0)
/// `{"type":"send"|"recv","src":S,"dst":D,"stage":"KmerGen-Comm","round":R,"bytes":B,"seq":Q,"lamport":L,"at_ns":T}`
/// (`round` omitted when absent)
/// `{"type":"counter","task":T,"kind":"tuples_emitted","value":V}`
pub fn write_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        match ev {
            Event::Meta { tasks } => {
                let _ = writeln!(out, "{{\"type\":\"meta\",\"version\":1,\"tasks\":{tasks}}}");
            }
            Event::Span(s) => {
                let _ = write!(out, "{{\"type\":\"span\",\"task\":{},\"name\":", s.task);
                json::escape_into(&mut out, &s.name);
                if let Some(p) = s.pass {
                    let _ = write!(out, ",\"pass\":{p}");
                }
                if let Some(d) = s.detail {
                    let _ = write!(out, ",\"detail\":{d}");
                }
                if s.lamport != 0 {
                    let _ = write!(out, ",\"lamport\":{}", s.lamport);
                }
                let _ = writeln!(
                    out,
                    ",\"start_ns\":{},\"end_ns\":{}}}",
                    s.start_ns, s.end_ns
                );
            }
            Event::Edge(e) => {
                let typ = match e.dir {
                    EdgeDir::Send => "send",
                    EdgeDir::Recv => "recv",
                };
                let _ = write!(
                    out,
                    "{{\"type\":\"{typ}\",\"src\":{},\"dst\":{},\"stage\":",
                    e.src, e.dst
                );
                json::escape_into(&mut out, &e.stage);
                if let Some(r) = e.round {
                    let _ = write!(out, ",\"round\":{r}");
                }
                let _ = writeln!(
                    out,
                    ",\"bytes\":{},\"seq\":{},\"lamport\":{},\"at_ns\":{}}}",
                    e.bytes, e.seq, e.lamport, e.at_ns
                );
            }
            Event::Counter { task, kind, value } => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"counter\",\"task\":{task},\"kind\":\"{}\",\"value\":{value}}}",
                    kind.as_str()
                );
            }
        }
    }
    out
}

/// Parse a JSONL event stream written by [`write_jsonl`].
///
/// Unknown counter kinds and unknown `type`s are skipped (forward
/// compatibility); malformed lines are errors.
pub fn parse_jsonl(src: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let typ = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
        let field_u64 = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: missing integer \"{name}\"", lineno + 1))
        };
        let field_str = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing \"{name}\"", lineno + 1))
        };
        let field_opt = |name: &str| v.get(name).and_then(Value::as_u64).map(|x| x as u32);
        match typ {
            "meta" => events.push(Event::Meta {
                tasks: field_u64("tasks")? as u32,
            }),
            "span" => events.push(Event::Span(SpanEvent {
                name: field_str("name")?.into(),
                task: field_u64("task")? as u32,
                pass: field_opt("pass"),
                detail: field_opt("detail"),
                start_ns: field_u64("start_ns")?,
                end_ns: field_u64("end_ns")?,
                // Absent on pre-causal-tracing traces: default 0.
                lamport: v.get("lamport").and_then(Value::as_u64).unwrap_or(0),
            })),
            "send" | "recv" => events.push(Event::Edge(EdgeEvent {
                stage: field_str("stage")?.into(),
                dir: if typ == "send" {
                    EdgeDir::Send
                } else {
                    EdgeDir::Recv
                },
                src: field_u64("src")? as u32,
                dst: field_u64("dst")? as u32,
                round: field_opt("round"),
                bytes: field_u64("bytes")?,
                seq: field_u64("seq")?,
                lamport: field_u64("lamport")?,
                at_ns: field_u64("at_ns")?,
            })),
            "counter" => {
                let kind = v
                    .get("kind")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("line {}: missing \"kind\"", lineno + 1))?;
                if let Some(kind) = CounterKind::from_str(kind) {
                    events.push(Event::Counter {
                        task: field_u64("task")? as u32,
                        kind,
                        value: field_u64("value")?,
                    });
                }
            }
            _ => {}
        }
    }
    Ok(events)
}

/// Stable thread-row order inside each task's "process": the eight paper
/// steps, then IndexCreate, then all-to-all stage sub-spans, then
/// anything else in order of first appearance.
fn known_row(name: &str) -> Option<usize> {
    STEP_NAMES.iter().position(|&s| s == name).or(match name {
        INDEX_CREATE => Some(STEP_NAMES.len()),
        ALLTOALL_STAGE => Some(STEP_NAMES.len() + 1),
        _ => None,
    })
}

/// Serialize events as Chrome `trace_event` JSON (the "JSON object
/// format": `{"traceEvents":[...]}`), loadable in Perfetto and
/// `chrome://tracing`. `pid` = simulated task, `tid` = step row, `ts` and
/// `dur` in microseconds; `ph:"X"` events are emitted in non-decreasing
/// `ts` order. Message edges become flow events: `ph:"s"` on the sender's
/// stage row at send time, `ph:"f"` (binding point `"e"`) on the
/// receiver's, joined by a shared `id` — Perfetto renders each matched
/// pair as an arrow between the two tasks.
pub fn write_chrome<'a>(events: &'a [Event]) -> String {
    // Assign rows and collect the tasks that actually appear.
    let mut row_names: Vec<&str> = STEP_NAMES.to_vec();
    row_names.push(INDEX_CREATE);
    row_names.push(ALLTOALL_STAGE);
    let mut row_of = |name: &'a str| {
        known_row(name)
            .or_else(|| row_names.iter().position(|&n| n == name))
            .unwrap_or_else(|| {
                row_names.push(name);
                row_names.len() - 1
            })
    };
    let mut tasks: Vec<u32> = Vec::new();
    let mut spans: Vec<(&SpanEvent, usize)> = Vec::new();
    let mut edges: Vec<(&EdgeEvent, usize)> = Vec::new();
    let mut counters: Vec<(u32, CounterKind, u64)> = Vec::new();
    for ev in events {
        let task = match ev {
            Event::Meta { tasks: n } => {
                for t in 0..*n {
                    if !tasks.contains(&t) {
                        tasks.push(t);
                    }
                }
                continue;
            }
            Event::Span(s) => {
                spans.push((s, row_of(&s.name)));
                s.task
            }
            Event::Edge(e) => {
                edges.push((e, row_of(&e.stage)));
                match e.dir {
                    EdgeDir::Send => e.src,
                    EdgeDir::Recv => e.dst,
                }
            }
            Event::Counter { task, kind, value } => {
                counters.push((*task, *kind, *value));
                *task
            }
        };
        if !tasks.contains(&task) {
            tasks.push(task);
        }
    }
    tasks.sort_unstable();
    spans.sort_by_key(|(s, _)| (s.start_ns, s.task));
    let max_end_ns = spans.iter().map(|(s, _)| s.end_ns).max().unwrap_or(0);

    let us = |ns: u64| ns as f64 / 1000.0;
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(line);
    };

    for &t in &tasks {
        push(
            &mut out,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{t},\"tid\":0,\
                 \"args\":{{\"name\":\"task {t}\"}}}}"
            ),
        );
        for (row, name) in row_names.iter().enumerate() {
            let mut line = format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{t},\"tid\":{row},\"args\":{{\"name\":"
            );
            json::escape_into(&mut line, name);
            line.push_str("}}");
            push(&mut out, &line);
        }
    }

    for (s, row) in &spans {
        let mut line = String::from("{\"name\":");
        json::escape_into(&mut line, &s.name);
        let _ = write!(
            line,
            ",\"cat\":\"step\",\"ph\":\"X\",\"pid\":{},\"tid\":{row},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
            s.task,
            us(s.start_ns),
            us(s.dur_ns())
        );
        let mut sep = "";
        if let Some(p) = s.pass {
            let _ = write!(line, "\"pass\":{p}");
            sep = ",";
        }
        if let Some(d) = s.detail {
            let _ = write!(line, "{sep}\"detail\":{d}");
            sep = ",";
        }
        if s.lamport != 0 {
            let _ = write!(line, "{sep}\"lamport\":{}", s.lamport);
        }
        line.push_str("}}");
        push(&mut out, &line);
    }

    // Message edges as flow events. A send/recv pair shares
    // `id` = "f<src>-<dst>-<seq>" (seq is per-(src,dst) FIFO order, so
    // the id is unique run-wide); Perfetto draws the arrow from the "s"
    // endpoint to the "f" endpoint.
    edges.sort_by_key(|(e, _)| (e.at_ns, e.dir));
    for (e, row) in &edges {
        let (ph, bp, pid) = match e.dir {
            EdgeDir::Send => ("s", "", e.src),
            EdgeDir::Recv => ("f", ",\"bp\":\"e\"", e.dst),
        };
        let mut line = String::from("{\"name\":");
        json::escape_into(&mut line, &e.stage);
        let _ = write!(
            line,
            ",\"cat\":\"msg\",\"ph\":\"{ph}\"{bp},\"id\":\"f{}-{}-{}\",\
             \"pid\":{pid},\"tid\":{row},\"ts\":{:.3},\"args\":{{\"bytes\":{}",
            e.src,
            e.dst,
            e.seq,
            us(e.at_ns),
            e.bytes
        );
        if let Some(r) = e.round {
            let _ = write!(line, ",\"round\":{r}");
        }
        line.push_str("}}");
        push(&mut out, &line);
    }

    // Final counter values as ph:"C" samples at the end of the trace, so
    // the X-event ts ordering stays monotonic.
    for (task, kind, value) in counters {
        push(
            &mut out,
            &format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{task},\"tid\":0,\
                 \"ts\":{:.3},\"args\":{{\"value\":{value}}}}}",
                kind.as_str(),
                us(max_end_ns)
            ),
        );
    }

    out.push_str("\n]}\n");
    out
}

/// Schema check for a Chrome trace produced by [`write_chrome`] (also
/// accepts the bare-array variant). Verifies: valid JSON; every event is
/// an object with string `name`/`ph` and integer `pid`/`tid`; `ph:"X"`
/// events carry numeric `ts`/`dur` in non-decreasing `ts` order; flow
/// events (`ph:"s"/"t"/"f"`) carry a numeric `ts` and a non-empty string
/// `id`, and every flow `id` that starts is also finished (and vice
/// versa); every pid with `X` events has a `process_name` metadata
/// record.
pub fn validate_chrome(src: &str) -> Result<(), String> {
    let doc = json::parse(src)?;
    let events = match &doc {
        Value::Arr(items) => items.as_slice(),
        Value::Obj(_) => doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or_else(|| "missing \"traceEvents\" array".to_string())?,
        _ => return Err("trace is neither an array nor an object".to_string()),
    };
    let mut last_ts = f64::NEG_INFINITY;
    let mut named_pids: Vec<u64> = Vec::new();
    let mut span_pids: Vec<u64> = Vec::new();
    let mut flow_starts: Vec<String> = Vec::new();
    let mut flow_finishes: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if !ev.is_obj() {
            return Err(format!("event {i} is not an object"));
        }
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing integer \"pid\""))?;
        ev.get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i}: missing integer \"tid\""))?;
        match ph {
            "M" => {
                if name == "process_name" && !named_pids.contains(&pid) {
                    named_pids.push(pid);
                }
            }
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: X without numeric \"ts\""))?;
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: X without numeric \"dur\""))?;
                if !(ts.is_finite() && dur.is_finite() && dur >= 0.0) {
                    return Err(format!("event {i}: non-finite ts/dur"));
                }
                if ts < last_ts {
                    return Err(format!("event {i}: ts {ts} decreases (previous {last_ts})"));
                }
                last_ts = ts;
                if !span_pids.contains(&pid) {
                    span_pids.push(pid);
                }
            }
            "C" => {
                ev.get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: C without numeric \"ts\""))?;
            }
            "s" | "t" | "f" => {
                ev.get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: flow without numeric \"ts\""))?;
                let id = ev
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: flow without string \"id\""))?;
                if id.is_empty() {
                    return Err(format!("event {i}: flow with empty \"id\""));
                }
                match ph {
                    "s" => flow_starts.push(id.to_string()),
                    "f" => flow_finishes.push(id.to_string()),
                    _ => {}
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for pid in span_pids {
        if !named_pids.contains(&pid) {
            return Err(format!("pid {pid} has spans but no process_name metadata"));
        }
    }
    for id in &flow_starts {
        if !flow_finishes.contains(id) {
            return Err(format!("flow {id} starts but never finishes"));
        }
    }
    for id in &flow_finishes {
        if !flow_starts.contains(id) {
            return Err(format!("flow {id} finishes but never starts"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Meta { tasks: 2 },
            Event::Span(SpanEvent {
                task: 0,
                name: "KmerGen-I/O".into(),
                pass: Some(0),
                detail: None,
                start_ns: 1_000,
                end_ns: 4_500,
                lamport: 1,
            }),
            Event::Span(SpanEvent {
                task: 1,
                name: "KmerGen-Comm".into(),
                pass: Some(0),
                detail: Some(1),
                start_ns: 5_000,
                end_ns: 9_000,
                lamport: 0,
            }),
            Event::Edge(EdgeEvent {
                dir: EdgeDir::Send,
                src: 0,
                dst: 1,
                stage: "KmerGen-Comm".into(),
                round: Some(0),
                bytes: 256,
                seq: 0,
                lamport: 2,
                at_ns: 5_100,
            }),
            Event::Edge(EdgeEvent {
                dir: EdgeDir::Recv,
                src: 0,
                dst: 1,
                stage: "KmerGen-Comm".into(),
                round: None,
                bytes: 256,
                seq: 0,
                lamport: 3,
                at_ns: 5_200,
            }),
            Event::Counter {
                task: 0,
                kind: CounterKind::TuplesEmitted,
                value: 12345,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let mut events = sample_events();
        // Names that are no built-in constant, with characters JSON must
        // escape: they come back exactly as written.
        events.push(Event::Span(SpanEvent {
            task: 1,
            name: format!("phase \"{}\"\\x", 7).into(),
            pass: None,
            detail: Some(3),
            start_ns: 9_500,
            end_ns: 9_600,
            lamport: 11,
        }));
        events.push(Event::Edge(EdgeEvent {
            dir: EdgeDir::Recv,
            src: 1,
            dst: 0,
            stage: "stage\ttab é".to_string().into(),
            round: Some(4),
            bytes: 8,
            seq: 5,
            lamport: 12,
            at_ns: 9_700,
        }));
        let text = write_jsonl(&events);
        let back = parse_jsonl(&text).expect("parse back");
        assert_eq!(events, back);
    }

    #[test]
    fn jsonl_skips_unknown_types_and_kinds() {
        let src = "{\"type\":\"future\",\"x\":1}\n\
                   {\"type\":\"counter\",\"task\":0,\"kind\":\"not_a_kind\",\"value\":1}\n\
                   {\"type\":\"meta\",\"version\":1,\"tasks\":1}\n";
        let events = parse_jsonl(src).expect("parse");
        assert_eq!(events, vec![Event::Meta { tasks: 1 }]);
    }

    #[test]
    fn chrome_trace_validates() {
        let text = write_chrome(&sample_events());
        validate_chrome(&text).expect("schema-valid chrome trace");
    }

    #[test]
    fn chrome_trace_has_one_process_per_task() {
        let text = write_chrome(&sample_events());
        let doc = json::parse(&text).expect("valid json");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents");
        let mut pids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .filter_map(|e| e.get("pid").and_then(Value::as_u64))
            .collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![0, 1]);
    }

    // Fixtures are one raw-string segment per JSON line (joined with
    // concat!) rather than one multi-line literal: the xtask lint
    // scanner counts braces per line and would otherwise see the
    // literal's closing `]}` as real code.
    #[test]
    fn validate_rejects_decreasing_ts() {
        let bad = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"task 0"}},"#,
            r#"{"name":"a","ph":"X","pid":0,"tid":0,"ts":10.0,"dur":1.0},"#,
            r#"{"name":"b","ph":"X","pid":0,"tid":0,"ts":5.0,"dur":1.0}"#,
            r#"]}"#
        );
        assert!(validate_chrome(bad).is_err());
    }

    #[test]
    fn validate_rejects_unnamed_pid() {
        let bad = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"a","ph":"X","pid":7,"tid":0,"ts":1.0,"dur":1.0}"#,
            r#"]}"#
        );
        assert!(validate_chrome(bad).is_err());
    }

    #[test]
    fn chrome_emits_matched_flow_pair() {
        let text = write_chrome(&sample_events());
        let doc = json::parse(&text).expect("valid json");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents");
        let flow = |ph: &str| {
            events
                .iter()
                .find(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .unwrap_or_else(|| panic!("no ph {ph} event"))
        };
        let s = flow("s");
        let f = flow("f");
        assert_eq!(
            s.get("id").and_then(Value::as_str),
            f.get("id").and_then(Value::as_str)
        );
        assert_eq!(s.get("pid").and_then(Value::as_u64), Some(0));
        assert_eq!(f.get("pid").and_then(Value::as_u64), Some(1));
        assert_eq!(f.get("bp").and_then(Value::as_str), Some("e"));
    }

    #[test]
    fn validate_rejects_unbalanced_flow() {
        let bad = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"m","ph":"s","id":"f0-1-0","pid":0,"tid":0,"ts":1.0}"#,
            r#"]}"#
        );
        assert!(validate_chrome(bad).is_err());
        let bad2 = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"m","ph":"f","bp":"e","id":"f0-1-0","pid":1,"tid":0,"ts":2.0}"#,
            r#"]}"#
        );
        assert!(validate_chrome(bad2).is_err());
    }

    #[test]
    fn validate_rejects_flow_without_id() {
        let bad = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"m","ph":"s","pid":0,"tid":0,"ts":1.0}"#,
            r#"]}"#
        );
        assert!(validate_chrome(bad).is_err());
    }
}
