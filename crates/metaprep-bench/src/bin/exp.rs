//! `exp <name>|all`: run one experiment of [`EXPERIMENTS`] by name, or all
//! of them in paper order; see the crate docs.
//!
//! The peak-tracking allocator is this binary's global allocator, so every
//! experiment that reports an allocator peak reads live counters.

use metaprep_bench::allocpeak::{self, PeakAlloc};
use metaprep_bench::experiments::EXPERIMENTS;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

fn main() -> ExitCode {
    allocpeak::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = metaprep_bench::scale_from_env();
    match args.as_slice() {
        [all] if all == "all" => {
            println!("METAPREP experiment suite, scale = {scale}");
            let t0 = Instant::now();
            for (_, run) in EXPERIMENTS {
                run(scale);
            }
            println!(
                "\nall experiments done in {:.1}s",
                t0.elapsed().as_secs_f64()
            );
        }
        [name] => match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some((_, run)) => run(scale),
            None => return usage(&format!("unknown experiment {name}")),
        },
        _ => return usage("expected one experiment name"),
    }
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "error: {error}\nusage: exp <name>|all\nexperiments: {}",
        names.join(" ")
    );
    ExitCode::FAILURE
}
