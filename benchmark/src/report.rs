//! What a benchmark run reports: the per-workload results, the
//! `BENCH_pipeline.json` document with its manifest, and the two ways of
//! comparing such documents (`compare`, `repeat-check`).

use crate::json::Value;
use crate::metrics::{metric_json, LayerMetrics, END_TO_END};
use crate::oracle::OutputSummary;
use crate::session::Session;
use crate::stats::Summary;
use std::fmt::Write as _;

/// Everything measured for one workload.
pub struct WorkloadReport {
    pub name: &'static str,
    pub why: &'static str,
    pub flags: Vec<String>,
    pub input_pairs: u64,
    pub input_bytes: u64,
    pub input_fingerprint: u64,
    /// One summary per `END_TO_END` entry, in that order; `None` when no
    /// timed run succeeded.
    pub end_to_end: Option<Vec<Summary>>,
    pub per_layer: Option<LayerMetrics>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Output and component count every repetition agreed on.
    pub output: Option<(OutputSummary, usize)>,
}

impl WorkloadReport {
    pub fn of(s: &Session, per_layer: Option<LayerMetrics>) -> WorkloadReport {
        let end_to_end = s
            .wall_s()
            .zip(s.peak_rss_mb())
            .map(|(wall, rss)| vec![wall, rss, s.setup_s()]);
        WorkloadReport {
            name: s.spec.name,
            why: s.spec.why,
            flags: s.spec.partition_flags(),
            input_pairs: u64::from(s.prepared.reads.num_fragments()),
            input_bytes: s.prepared.input_bytes,
            input_fingerprint: s.prepared.input_fingerprint,
            end_to_end,
            per_layer,
            attempted: s.attempted,
            failed: s.failed,
            problems: s.problems.clone(),
            output: s.reference.clone(),
        }
    }

    /// Every run succeeded, every output matched, every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.end_to_end.is_some()
    }

    /// Human-readable listing: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} ==  metaprep partition {}\n   input: {} pairs, {:.1} MB; runs attempted {}, failed {}\n",
            self.name,
            self.flags.join(" "),
            self.input_pairs,
            self.input_bytes as f64 / 1e6,
            self.attempted,
            self.failed
        );
        if let Some(summaries) = &self.end_to_end {
            for (metric, s) in END_TO_END.iter().zip(summaries) {
                let _ = writeln!(
                    out,
                    "   {:<28} {:>14.4} {:<10} q1 {:.4}  q3 {:.4}  min {:.4}  max {:.4}  n={}  (bound +{:.0}%)",
                    metric.name, s.median, metric.unit, s.q1, s.q3, s.min, s.max, s.n,
                    100.0 * metric.bound
                );
            }
        }
        if let Some(layers) = &self.per_layer {
            for (name, value, unit) in layers.iter() {
                let _ = writeln!(out, "   {name:<28} {value:>14.4} {unit}");
            }
            let _ = writeln!(
                out,
                "   bases: cli.glue_s = wall_s − cli.walk_s; obs.trace_overhead_pct is over wall_s; \
                 cli.speedup_vs_1x1 = wall of the same options with --tasks 1 --threads 1 \
                 [--passes 1] over wall_s"
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "   PROBLEM: {p}");
        }
        out
    }

    /// This workload's entry in `BENCH_pipeline.json`.
    pub fn to_json(&self) -> Value {
        let end_to_end = self
            .end_to_end
            .iter()
            .flatten()
            .zip(END_TO_END)
            .map(|(s, m)| {
                let mut fields = s.to_json();
                fields.push(("unit", Value::str(m.unit)));
                fields.push(("better", Value::str("lower")));
                fields.push(("bound", Value::Num(m.bound)));
                (m.name, Value::obj(fields))
            });
        let per_layer = self
            .per_layer
            .iter()
            .flat_map(LayerMetrics::iter)
            .map(|(name, value, unit)| (name, metric_json(value, unit)));
        let output = self.output.as_ref().map_or(Value::Null, |(o, components)| {
            Value::obj([
                ("fingerprint", Value::Str(format!("{:016x}", o.fingerprint))),
                ("lc_reads", Value::Num(o.lc_reads as f64)),
                ("other_reads", Value::Num(o.other_reads as f64)),
                ("components", Value::Num(*components as f64)),
            ])
        });
        Value::obj([
            ("name", Value::str(self.name)),
            ("why", Value::str(self.why)),
            ("flags", Value::str(self.flags.join(" "))),
            (
                "input",
                Value::obj([
                    ("pairs", Value::Num(self.input_pairs as f64)),
                    ("bytes", Value::Num(self.input_bytes as f64)),
                    (
                        "fnv1a",
                        Value::Str(format!("{:016x}", self.input_fingerprint)),
                    ),
                ]),
            ),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "failed_share",
                Value::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("output", output),
            ("end_to_end", Value::obj(end_to_end)),
            ("per_layer", Value::obj(per_layer)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(Value::str).collect()),
            ),
        ])
    }
}

/// The result line the benchmark contract reads: `--trace 0` carries the
/// end-to-end metrics, `--trace 1` the per-layer ones.
pub fn contract_line(report: &WorkloadReport, traced: bool) -> Option<Value> {
    let metrics: Vec<(&str, Value)> = if traced {
        let layers = report.per_layer.as_ref()?;
        layers
            .iter()
            .map(|(name, value, unit)| (name, metric_json(value, unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(report.end_to_end.as_ref()?)
            .map(|(m, s)| (m.name, metric_json(s.median, m.unit)))
            .collect()
    };
    Some(Value::obj([
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]))
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_arr).unwrap_or(&[])
}

fn workload_named<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    workloads(doc)
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn name_of(workload: &Value) -> &str {
    workload.get("name").and_then(Value::as_str).unwrap_or("?")
}

/// One row per (workload, end-to-end metric) of two `BENCH_pipeline.json`
/// documents: both medians with their quartiles, the ratio `b / a`, and a
/// spread-aware verdict. `unresolved` means either side's inter-quartile
/// spread exceeds the metric's bound, so a ratio inside it proves nothing;
/// `better` needs the gain to exceed `a`'s own inter-quartile distance.
pub fn compare(a: &Value, b: &Value) -> String {
    let mut out = format!(
        "{:<14} {:<12} {:>30} {:>30} {:>9}  verdict\n",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "b/a"
    );
    for wa in workloads(a) {
        let name = name_of(wa);
        let Some(wb) = workload_named(b, name) else {
            let _ = writeln!(out, "{name:<14} missing from b");
            continue;
        };
        for m in END_TO_END {
            let side = |w: &Value| {
                w.get("end_to_end")?
                    .get(m.name)
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                let _ = writeln!(out, "{name:<14} {:<12} not measured on both sides", m.name);
                continue;
            };
            let ratio = sb.median / sa.median;
            let verdict = if sa.spread().max(sb.spread()) > m.bound {
                "unresolved"
            } else if ratio > 1.0 + m.bound {
                "worse"
            } else if sa.median - sb.median > sa.q3 - sa.q1 {
                "better"
            } else {
                "same"
            };
            let cell = |s: Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            let _ = writeln!(
                out,
                "{name:<14} {:<12} {:>30} {:>30} {ratio:>8.3}x  {verdict} (base a, bound +{:.0}%)",
                m.name,
                cell(sa),
                cell(sb),
                100.0 * m.bound
            );
        }
    }
    out
}

/// What must hold between two runs of the same code: every end-to-end
/// median within its bound of the other, no failed run, and every count
/// (per-layer metrics in `count`, the output fingerprint) identical.
pub fn repeat_violations(a: &Value, b: &Value) -> Vec<String> {
    let mut bad = Vec::new();
    for wa in workloads(a) {
        let name = name_of(wa);
        let Some(wb) = workload_named(b, name) else {
            bad.push(format!("{name}: missing from the second run"));
            continue;
        };
        for w in [wa, wb] {
            if w.get("failed").and_then(Value::as_f64) != Some(0.0) {
                bad.push(format!("{name}: a run failed"));
            }
        }
        for m in END_TO_END {
            let med = |w: &Value| w.get("end_to_end")?.get(m.name)?.get("median")?.as_f64();
            match (med(wa), med(wb)) {
                (Some(x), Some(y)) if (y - x).abs() <= m.bound * x.min(y) => {}
                (x, y) => bad.push(format!(
                    "{name}: {} medians {x:?} and {y:?} differ by more than {:.0}%",
                    m.name,
                    100.0 * m.bound
                )),
            }
        }
        if wa.get("output") != wb.get("output") {
            bad.push(format!("{name}: the two runs wrote different outputs"));
        }
        let layers = |w: &Value| {
            w.get("per_layer")
                .and_then(Value::as_obj)
                .map(<[_]>::to_vec)
        };
        for (metric, va) in layers(wa).unwrap_or_default() {
            if va.get("unit").and_then(Value::as_str) != Some("count") {
                continue;
            }
            let vb = wb.get("per_layer").and_then(|l| l.get(&metric));
            if vb != Some(&va) {
                bad.push(format!("{name}: count {metric} differs: {va:?} vs {vb:?}"));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(wall: [f64; 3], kmers: f64) -> Value {
        let summary = |s: [f64; 3]| {
            Value::obj([
                ("median", Value::Num(s[1])),
                ("q1", Value::Num(s[0])),
                ("q3", Value::Num(s[2])),
                ("min", Value::Num(s[0])),
                ("max", Value::Num(s[2])),
                ("n", Value::Num(7.0)),
            ])
        };
        Value::obj([(
            "workloads",
            Value::Arr(vec![Value::obj([
                ("name", Value::str("w")),
                ("failed", Value::Num(0.0)),
                ("output", Value::str("x")),
                (
                    "end_to_end",
                    Value::obj([
                        ("wall_s", summary(wall)),
                        ("peak_rss_mb", summary([100.0, 100.0, 100.0])),
                        ("setup_s", summary([1.0, 1.0, 1.0])),
                    ]),
                ),
                (
                    "per_layer",
                    Value::obj([("kmer.kmers", metric_json(kmers, "count"))]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_is_spread_aware() {
        let base = doc([0.99, 1.0, 1.01], 5.0);
        let row = |b: &Value| {
            compare(&base, b)
                .lines()
                .find(|l| l.contains("wall_s"))
                .unwrap()
                .to_string()
        };
        assert!(row(&doc([1.29, 1.3, 1.31], 5.0)).contains("worse"));
        assert!(row(&doc([0.89, 0.9, 0.91], 5.0)).contains("better"));
        assert!(row(&doc([0.995, 1.005, 1.015], 5.0)).contains("same"));
        // A 40% wide inter-quartile range decides nothing.
        assert!(row(&doc([1.1, 1.3, 1.62], 5.0)).contains("unresolved"));
    }

    #[test]
    fn repeat_check_wants_bounds_and_identical_counts() {
        let base = doc([0.99, 1.0, 1.01], 5.0);
        assert!(repeat_violations(&base, &doc([1.0, 1.05, 1.1], 5.0)).is_empty());
        assert_eq!(
            repeat_violations(&base, &doc([1.2, 1.3, 1.4], 5.0)).len(),
            1
        );
        assert_eq!(
            repeat_violations(&base, &doc([0.99, 1.0, 1.01], 6.0)).len(),
            1
        );
    }
}
