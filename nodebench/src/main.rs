//! nodebench: the repository's end-to-end node benchmark.
//!
//! ```text
//! cargo run --release --manifest-path nodebench/Cargo.toml -- \
//!     --workload market-ru --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A durable miner and an in-memory follower run in one process; a client
//! thread drives an open loop of signed transactions and reads at a fixed
//! offered rate, and a miner thread mines back to back and hands each
//! block to the follower. The run prints every metric by name with its
//! unit and sample count, gates on correctness (exiting nonzero and
//! printing no result if anything is wrong), and ends with one JSON line.
//! End-to-end times are reported at a reference host speed (`speed`).
//! `--trace 1` alternates untraced and traced passes and prints the
//! per-layer table and the tracing overhead instead. See README.md.

mod drive;
mod report;
mod speed;
mod stats;
mod trace;
mod workload;

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Samples};
use sereth_telemetry::TelemetrySnapshot;
use speed::Probes;
use trace::Spans;
use workload::{Clients, Inputs, Keys, Plan, Spec};

/// Extra set-ups timed after each pass, at least.
const SETUP_REPS_PER_PASS: usize = 2;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required (market-ru or transfer-bigstate)")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("nodebench: {error}");
            eprintln!(
                "usage: nodebench --workload <market-ru|transfer-bigstate> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let data = PathBuf::from(".nodebench-data");
    let root = data.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&root)
        .map_err(|e| format!("creating {}: {e}", root.display()))
        .and_then(|()| run(&args, &root, &data));
    workload::remove_dir(&root);
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("nodebench: FAILED\n{error}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, root: &Path, data: &Path) -> Result<String, String> {
    let spec = args.spec;
    let plan = Plan::new(spec, args.seconds);
    let keys = Keys::derive(spec, args.seed);
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "nodebench {} seed={} seconds={} trace={} host_cpus={host_cpus}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!("  why: {}", spec.why);
    println!("  mix: {}", spec.mix);
    println!(
        "  accounts={} offered={} tx/s (open loop); {} passes of {} steady ops then {} drain txs in rounds of {}",
        spec.accounts, spec.offered_tps, plan.passes, plan.steady_ops, plan.drain_txs, spec.drain_round
    );

    let mut plain = Samples::default();
    let mut setups = Vec::new();
    let mut setup_probes = Probes::default();
    let mut traced = Traced::default();
    for pass in 0..plan.passes {
        // A traced run alternates untraced and traced passes, so the two
        // share the host's conditions and their difference is the
        // tracing overhead.
        let tracing = args.trace && pass % 2 == 1;
        let dir = root.join(format!("pass-{pass}"));
        setup_probes.sample();
        let started = Instant::now();
        let (nodes, setup) = workload::set_up(spec, &keys, &dir)?;
        setups.push((started, setup));
        let inputs = Inputs::generate(spec, &keys, plan, args.seed, pass);
        let mut clients = Clients::new(&keys);
        let log = drive::run_pass(&nodes, &mut clients, inputs, spec.drain_round, tracing);
        let samples = report::check(&nodes, &log).map_err(|e| format!("pass {pass}: {e}"))?;
        if tracing {
            let replay_dir = dir.join("replay");
            let replay = trace::replay(&nodes, &replay_dir);
            workload::remove_dir(&replay_dir);
            traced.replay.absorb(replay?);
            traced.miner.merge(&nodes.miner.telemetry_snapshot());
            traced.follower.merge(&nodes.follower.telemetry_snapshot());
            traced
                .client_spans
                .get_or_insert_with(|| Spans::new(true, log.client.spans.epoch()))
                .absorb(log.client.spans);
            traced
                .miner_spans
                .get_or_insert_with(|| Spans::new(true, log.miner_spans.epoch()))
                .absorb(log.miner_spans);
            traced.samples.absorb(samples);
        } else {
            plain.absorb(samples);
        }
        drop(nodes);
        workload::remove_dir(&dir);
        // More set-ups between passes: `setup_s` is the median of them all.
        let more =
            workload::time_setups(spec, &keys, &root.join("setup"), SETUP_REPS_PER_PASS, &mut setup_probes)?;
        setups.extend(more);
    }
    // Set-up times at reference speed, from the probes between set-ups.
    let mut setup_s: Vec<f64> =
        setups.iter().map(|&(at, took)| took.as_secs_f64() * setup_probes.scale_at(at)).collect();

    if !args.trace {
        let (reported, printed) = report::end_to_end(&plain, &mut setup_s, rss_peak_mb()?);
        print_metrics("end-to-end", reported.iter().chain(&printed));
        return Ok(result_json(&plain, &reported));
    }
    let layers = report::layers(&traced.samples, &traced.miner, &traced.follower, &traced.replay);
    print_layers(&traced, &layers);
    let (untraced_e2e, _) = report::end_to_end(&plain, &mut [0.0], 0.0);
    let (traced_e2e, _) = report::end_to_end(&traced.samples, &mut [0.0], 0.0);
    println!("tracing overhead (traced passes vs the untraced passes between them):");
    for (a, b) in untraced_e2e.iter().zip(&traced_e2e).filter(|(a, _)| a.unit != "s" && a.unit != "MB") {
        println!(
            "  {:<16} {:>12.4} -> {:>12.4} {:<5} ({:+.1}%)",
            a.name,
            a.value,
            b.value,
            a.unit,
            100.0 * (b.value / a.value - 1.0)
        );
    }
    let spans_path = data.join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
    write_spans(&traced, &spans_path).map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());
    print_metrics("per-layer", layers.metrics.iter());
    Ok(result_json(&traced.samples, &layers.metrics))
}

/// What the traced passes pool: samples, both nodes' telemetry, the
/// layer replay, and the benchmark-side spans.
#[derive(Default)]
struct Traced {
    samples: Samples,
    miner: TelemetrySnapshot,
    follower: TelemetrySnapshot,
    replay: trace::Replay,
    client_spans: Option<Spans>,
    miner_spans: Option<Spans>,
}

impl Traced {
    fn spans(&self) -> impl Iterator<Item = (&'static str, &Spans)> {
        [("client", &self.client_spans), ("miner", &self.miner_spans)]
            .into_iter()
            .filter_map(|(thread, spans)| spans.as_ref().map(|spans| (thread, spans)))
    }
}

fn print_metrics<'a>(title: &str, metrics: impl Iterator<Item = &'a Metric>) {
    println!("{title} metrics:");
    println!("  {:<32} {:>14} {:<6} {:>9}", "metric", "value", "unit", "samples");
    for m in metrics {
        println!("  {:<32} {:>14.4} {:<6} {:>9}", m.name, m.value, m.unit, m.samples);
    }
}

fn print_layers(traced: &Traced, layers: &report::Layers) {
    let wall = layers.block_wall_ns;
    let blocks = &traced.samples.blocks;
    println!(
        "block path per block ({} blocks, {} txs, traced passes; wall = mine + follower receive_block, bench-timed):",
        blocks.len(),
        blocks.iter().map(|b| b.2).sum::<usize>()
    );
    println!("  {:<58} {:<13} {:>10} {:>7}", "layer", "source", "ms/block", "share");
    for row in &layers.rows {
        println!(
            "  {:<58} {:<13} {:>10.4} {:>6.1}%",
            row.layer,
            row.source,
            row.ns / 1e6,
            100.0 * row.ns / wall
        );
    }
    println!("  {:<58} {:<13} {:>10.4} {:>6.1}%", "wall (the rows sum to it)", "bench", wall / 1e6, 100.0);
    println!(
        "  seal and both validates each compute one full state root: {:.4} ms per block by layer replay",
        traced.replay.state_root_ns() / 1e6
    );
    println!("span self time (benchmark-side spans around public calls):");
    for (thread, spans) in traced.spans() {
        for (name, (count, total, own)) in spans.self_times() {
            println!(
                "  {thread:<6} {name:<16} n={count:<8} total={:>10.3} ms self={:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
}

fn write_spans(traced: &Traced, path: &Path) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for (thread, spans) in traced.spans() {
        spans.write_jsonl(&mut out, thread)?;
    }
    std::io::Write::flush(&mut out)
}

/// The result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_json(samples: &Samples, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.attempted,
        samples.failed,
        body.join(", ")
    )
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
