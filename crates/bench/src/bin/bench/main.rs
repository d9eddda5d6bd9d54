//! The experiment runner: the paper's experiments and the scale benchmarks
//! of DESIGN.md's experiment index, one row of [`ENTRIES`] each.
//!
//! ```text
//! cargo run --release -p sereth-bench -- <entry>
//! cargo run --release -p sereth-bench -- all
//! ```
//!
//! An entry prints its table, writes its artifacts (`fig2.csv`, `pwv.csv`,
//! `TELEMETRY_node.json`) into `$BENCH_ARTIFACT_DIR` or the current
//! directory, and then asserts its gates: a failed gate is a nonzero exit
//! status. `all` runs every entry in table order, each in a fresh process,
//! echoes its stdout and saves it beside the artifacts as `<entry>.stdout`,
//! then compares each of the entry's goldens (see [`golden`]) with the
//! fresh file of the same name. It carries on past failures and exits 1
//! naming every entry that failed its gates or a golden. Anything but one
//! known entry or `all` exits 2.

mod golden;
mod iso_frontier;
mod net_scale;
mod obs_overhead;
mod paper;
mod store_scale;

use std::io::Write;
use std::path::Path;
use std::process::{exit, Command, Stdio};

/// An entry's name, its body, and the golden files its run must reproduce
/// byte for byte: its stdout capture `<name>.stdout` and any CSV it writes.
/// An entry that measures wall-clock time has none.
type Entry = (&'static str, fn(), &'static [&'static str]);

const ENTRIES: &[Entry] = &[
    ("fig2", paper::fig2, &["fig2.stdout", "fig2.csv"]),
    ("pwv", paper::pwv, &["pwv.stdout", "pwv.csv"]),
    ("sequential", paper::sequential, &["sequential.stdout"]),
    ("ablations", paper::ablations, &["ablations.stdout"]),
    ("abort_rate", paper::abort_rate, &["abort_rate.stdout"]),
    ("participation", paper::participation, &["participation.stdout"]),
    ("iso_frontier", iso_frontier::run, &["iso_frontier.stdout"]),
    ("obs_overhead", obs_overhead::run, &[]),
    ("net_scale", net_scale::run, &["net_scale.stdout"]),
    ("store_scale", store_scale::run, &[]),
];

/// Runs entry `name` in a fresh process with stderr passed through, echoes
/// its stdout and saves it to `capture`; true when the entry exited 0.
fn run_captured(runner: &Path, name: &str, capture: &Path) -> bool {
    let output = match Command::new(runner).arg(name).stderr(Stdio::inherit()).output() {
        Ok(output) => output,
        Err(error) => {
            eprintln!("could not start {name}: {error}");
            return false;
        }
    };
    std::io::stdout().write_all(&output.stdout).expect("stdout accepts the entry's output");
    if let Err(error) = std::fs::write(capture, &output.stdout) {
        eprintln!("could not write {}: {error}", capture.display());
    }
    output.status.success()
}

fn all() -> ! {
    let runner = std::env::current_exe().expect("the runner can locate its own executable");
    let dir = sereth_bench::artifact_dir();
    let mut failed: Vec<&str> = Vec::new();
    for (name, _, goldens) in ENTRIES {
        println!("\n### {name}\n");
        // A file left by an earlier run must not stand in for one this run
        // failed to write.
        for file in *goldens {
            let _ = std::fs::remove_file(dir.join(file));
        }
        let mut passed = run_captured(&runner, name, &dir.join(format!("{name}.stdout")));
        for file in *goldens {
            if let Err(mismatch) = golden::check(file, &dir) {
                eprintln!("\ngolden mismatch: {mismatch}");
                passed = false;
            }
        }
        if !passed {
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
    let names: Vec<&str> = ENTRIES.iter().map(|(name, ..)| *name).collect();
    eprintln!("usage: bench <entry|all>\nentries: {}", names.join(", "));
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["all"] => all(),
        [target] => match ENTRIES.iter().find(|(name, ..)| name == target) {
            Some((_, run, _)) => run(),
            None => usage(),
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_names_are_unique() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|(name, ..)| *name).collect();
        assert!(!names.contains(&"all"), "`all` is the runner's own target");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ENTRIES.len(), "entry names must be unique");
    }

    #[test]
    fn every_deterministic_entry_has_goldens_and_every_golden_an_entry() {
        const DETERMINISTIC: [&str; 8] = [
            "fig2",
            "pwv",
            "sequential",
            "ablations",
            "abort_rate",
            "participation",
            "iso_frontier",
            "net_scale",
        ];
        let mut claimed: Vec<&str> = Vec::new();
        for (name, _, goldens) in ENTRIES {
            let pins_stdout = goldens.contains(&format!("{name}.stdout").as_str());
            assert_eq!(
                pins_stdout,
                DETERMINISTIC.contains(name),
                "{name} pins its stdout exactly when it is deterministic"
            );
            for file in *goldens {
                assert!(golden::dir().join(file).is_file(), "{name}'s golden bench/golden/{file} exists");
            }
            claimed.extend(goldens.iter());
        }
        let mut on_disk: Vec<String> = std::fs::read_dir(golden::dir())
            .expect("bench/golden/ exists")
            .map(|entry| entry.expect("golden dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        on_disk.sort_unstable();
        claimed.sort_unstable();
        assert_eq!(on_disk, claimed, "every golden belongs to exactly one entry");
    }
}
