//! The experiment runner: the paper's experiments and the scale benchmarks
//! of DESIGN.md's experiment index, one row of [`ENTRIES`] each.
//!
//! ```text
//! cargo run --release -p sereth-bench -- <entry> [--smoke]
//! cargo run --release -p sereth-bench -- all [--smoke]
//! ```
//!
//! An entry prints its table, writes its artifacts (`BENCH_<key>.json`,
//! `fig2.csv`, `pwv.csv`, `TELEMETRY_node.json`) into `$BENCH_ARTIFACT_DIR`
//! or the current directory, and then asserts its gates: a failed gate is
//! a nonzero exit status. `--smoke` shrinks the two entries whose full run
//! takes tens of seconds (`raa_scale`, `pool_scale`) and changes nothing
//! else. `all` runs every entry in table order, each in a fresh process,
//! carries on past failures, and exits 1 naming every entry that failed;
//! `bench_trend` comes last, so it gates the artifacts the others just
//! wrote. An unknown entry exits 2.

mod iso_frontier;
mod net_scale;
mod obs_overhead;
mod paper;
mod par;
mod pool_scale;
mod raa_scale;
mod state_scale;
mod store_scale;

use std::path::PathBuf;
use std::process::{exit, Command};

/// An entry's name (what the artifacts' `bench` field records) and its
/// body, which takes the `--smoke` flag.
type Entry = (&'static str, fn(bool));

const ENTRIES: &[Entry] = &[
    ("fig2", paper::fig2),
    ("pwv", paper::pwv),
    ("sequential", paper::sequential),
    ("ablations", paper::ablations),
    ("abort_rate", paper::abort_rate),
    ("participation", paper::participation),
    ("raa_scale", raa_scale::run),
    ("state_scale", state_scale::run),
    ("exec_scale", par::exec_scale),
    ("val_scale", par::val_scale),
    ("pool_scale", pool_scale::run),
    ("iso_frontier", iso_frontier::run),
    ("obs_overhead", obs_overhead::run),
    ("net_scale", net_scale::run),
    ("store_scale", store_scale::run),
    ("bench_trend", bench_trend),
];

/// Compares the fresh `BENCH_*.json` artifacts against the committed
/// baselines in `$TREND_BASELINE_DIR` (default `bench/baselines`); see
/// [`sereth_bench::trend::gate`].
fn bench_trend(_smoke: bool) {
    let baselines =
        std::env::var_os("TREND_BASELINE_DIR").map_or_else(|| "bench/baselines".into(), PathBuf::from);
    let failures = sereth_bench::trend::gate(&baselines, &sereth_bench::artifact_dir());
    if failures.is_empty() {
        println!("\nbench trend OK");
        return;
    }
    eprintln!("\nbench trend FAILED:");
    for failure in &failures {
        eprintln!("  - {failure}");
    }
    exit(1);
}

fn all(smoke: bool) -> ! {
    let runner = std::env::current_exe().expect("the runner can locate its own executable");
    let mut failed: Vec<&str> = Vec::new();
    for (name, _) in ENTRIES {
        println!("\n### {name}\n");
        let status = Command::new(&runner).arg(name).args(smoke.then_some("--smoke")).status();
        if !status.is_ok_and(|status| status.success()) {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("\nall {} entries passed", ENTRIES.len());
        exit(0);
    }
    eprintln!("\nfailed entries: {}", failed.join(", "));
    exit(1);
}

fn usage() -> ! {
    let names: Vec<&str> = ENTRIES.iter().map(|(name, _)| *name).collect();
    eprintln!("usage: bench <entry|all> [--smoke]\nentries: {}", names.join(", "));
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|arg| arg == "--smoke");
    let targets: Vec<&str> = args.iter().map(String::as_str).filter(|arg| *arg != "--smoke").collect();
    match targets.as_slice() {
        ["all"] => all(smoke),
        [target] => match ENTRIES.iter().find(|(name, _)| name == target) {
            Some((_, run)) => run(smoke),
            None => usage(),
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_names_are_unique_and_the_trend_gate_runs_last() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.last(), Some(&"bench_trend"), "bench_trend gates what the entries before it wrote");
        assert!(!names.contains(&"all"), "`all` is the runner's own target");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ENTRIES.len(), "entry names must be unique");
    }
}
