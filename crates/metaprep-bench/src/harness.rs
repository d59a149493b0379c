//! Shared harness utilities: datasets, formatting, table printing, and
//! the one writer of the `BENCH_*` artifacts.

use metaprep_synth::{scaled_profile, simulate_community, DatasetId, SimulatedData};
use std::path::PathBuf;
use std::time::Duration;

/// Dataset scale factor from `METAPREP_SCALE` (default 1.0).
pub fn scale_from_env() -> f64 {
    std::env::var("METAPREP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// Write an experiment's artifact to the path in `METAPREP_BENCH_OUT`, or
/// to `default_name` (relative to the working directory) when it is unset,
/// creating the parent directory first. Prints the path.
pub fn write_artifact(default_name: &str, contents: impl AsRef<[u8]>) {
    let out =
        std::env::var_os("METAPREP_BENCH_OUT").map_or_else(|| default_name.into(), PathBuf::from);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out, contents).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}

/// Generate (deterministically) the scaled stand-in for a paper dataset.
/// Seeded per dataset so HG/LL/MM/IS differ but repeat across runs.
pub fn dataset(id: DatasetId, scale: f64) -> SimulatedData {
    let profile = scaled_profile(id, scale);
    let seed = match id {
        DatasetId::Hg => 101,
        DatasetId::Ll => 202,
        DatasetId::Mm => 303,
        DatasetId::Is => 404,
    };
    simulate_community(&profile, seed)
}

/// Format a duration as seconds with 3 decimals.
pub fn fmt_dur(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format bytes as GB with 3 decimals.
pub fn fmt_gb(bytes: u64) -> String {
    format!("{:.3}", bytes as f64 / 1e9)
}

/// Format bytes as MB with 2 decimals.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Print an aligned ASCII table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let s: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect();
        println!("  {}", s.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_one() {
        std::env::remove_var("METAPREP_SCALE");
        assert_eq!(scale_from_env(), 1.0);
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = dataset(DatasetId::Hg, 0.01);
        let b = dataset(DatasetId::Hg, 0.01);
        assert_eq!(a.reads.len(), b.reads.len());
        assert_eq!(a.reads.seq(0), b.reads.seq(0));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_dur(Duration::from_millis(1500)), "1.500");
        assert_eq!(fmt_gb(2_000_000_000), "2.000");
        assert_eq!(fmt_mb(1_500_000), "1.50");
    }
}
