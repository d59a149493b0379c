//! The metric catalog: every name the benchmark may emit, with its unit.
//! `BENCHMARK.json` declares the same names (a self-test keeps them equal),
//! and README.md says which end-to-end metric each layer metric should move.

use crate::json::Value;
use std::collections::BTreeMap;

/// An end-to-end metric; lower is better for all of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// Per-layer metrics as `(name, unit)`; a layer is a crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_s", "s"),
    ("io.parse_mb_per_s", "MB/s"),
    ("index.build_s", "s"),
    ("index.scan_mb_per_s", "MB/s"),
    ("kmer.kmers", "count"),
    ("kmer.enum_s", "s"),
    ("kmer.enum_mkmers_per_s", "Mkmers/s"),
    ("sort.tuples", "count"),
    ("sort.fused_s", "s"),
    ("sort.fused_mtuples_per_s", "Mtuples/s"),
    ("sort.radix_passes_run", "count"),
    ("sort.radix_passes_pruned", "count"),
    ("cc.edges", "count"),
    ("cc.unions", "count"),
    ("cc.useful_ratio", "ratio"),
    ("cc.union_s", "s"),
    ("cc.union_medges_per_s", "Medges/s"),
    ("cc.merge_s", "s"),
    ("cc.merge_mverts_per_s", "Mverts/s"),
    ("dist.alltoall_s", "s"),
    ("dist.alltoall_mb_per_s", "MB/s"),
    ("dist.bytes_sent", "count"),
    ("dist.messages_sent", "count"),
    ("dist.comm_wait_share", "ratio"),
    ("core.pipeline_s", "s"),
    ("core.step.index_create_s", "s"),
    ("core.step.kmergen_io_s", "s"),
    ("core.step.kmergen_s", "s"),
    ("core.step.kmergen_comm_s", "s"),
    ("core.step.localsort_s", "s"),
    ("core.step.localcc_s", "s"),
    ("core.step.merge_comm_s", "s"),
    ("core.step.mergecc_s", "s"),
    ("core.step.cc_io_s", "s"),
    ("core.step_cover", "ratio"),
    ("core.tuples_total", "count"),
    ("core.mtuples_per_s", "Mtuples/s"),
    ("core.planned_passes", "count"),
    ("core.components", "count"),
    ("core.lc_share", "ratio"),
    ("core.mem_modeled_mb", "MB"),
    ("core.mem_peak_tuple_mb", "MB"),
    ("core.output_s", "s"),
    ("core.output_mb_per_s", "MB/s"),
    ("norm.presolve_dropped", "count"),
    ("norm.drop_share", "ratio"),
    ("obs.trace_wall_s", "s"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.trace_events", "count"),
    ("obs.events_dropped", "count"),
    ("cli.cpu_s", "s"),
    ("cli.walk_s", "s"),
    ("cli.glue_s", "s"),
    ("cli.speedup_vs_1x1", "ratio"),
];

/// Per-layer values of one workload, by catalog name.
#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Record `name`; a name outside the catalog is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"));
        self.0.insert(name, value);
    }

    /// `work / seconds`, or 0 when nothing was timed.
    pub fn set_rate(&mut self, name: &str, work: f64, seconds: f64) {
        self.set(name, if seconds > 0.0 { work / seconds } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name:?} read before it was set"))
    }

    /// Catalog names that were never set.
    pub fn missing(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }

    /// `(name, value, unit)` in catalog order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .filter_map(|(n, u)| self.0.get(n).map(|v| (*n, *v, *u)))
    }
}

/// `{"value": v, "unit": u}` — the shape the contract's result line uses.
pub fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}
