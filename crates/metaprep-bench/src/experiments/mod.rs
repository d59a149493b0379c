//! One module per paper table/figure or probe. Each exposes `run(scale)`,
//! and [`EXPERIMENTS`] names them for the `exp` binary.

pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod index_create;
pub mod kmergen;
pub mod loom_dpor;
pub mod presolve;
pub mod quality;
pub mod sort_throughput;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8_9;

/// An experiment: the name `exp <name>` takes, and its `run(scale)`.
pub type Experiment = (&'static str, fn(f64));

/// Every experiment, in the order `exp all` runs them: the paper's
/// evaluation (Tables 2–9, Figures 5–9, with each step's probe next to its
/// table), then the extensions.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table2", table2::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("table3", table3::run),
    ("fig9", fig9::run),
    ("sort_throughput", sort_throughput::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("index_create", index_create::run),
    ("kmergen", kmergen::run),
    ("table6", table6::run),
    ("table7", table7::run),
    ("table8_9", table8_9::run),
    ("presolve", presolve::run),
    ("quality", quality::run),
    ("loom_dpor", loom_dpor::run),
];

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// A module added under `src/experiments/` without a registry row (or
    /// a row left behind by a deleted module) fails here, so `exp all`
    /// cannot skip an experiment.
    #[test]
    fn the_registry_names_every_experiment_module() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let mut modules: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter_map(|f| f.strip_suffix(".rs").map(str::to_string))
            .filter(|m| m != "mod")
            .collect();
        modules.sort();
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        names.sort();
        assert_eq!(names, modules);
    }
}
