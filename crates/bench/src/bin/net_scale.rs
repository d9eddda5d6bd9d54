//! NET-SCALE: cluster convergence vs node count under loss.
//!
//! Runs the multi-node cluster scenario (full nodes behind `NetNode` on a
//! ring, edge-injected market workload) once **clean** (no faults) and
//! once **lossy** (drop + duplication on every link plus one
//! partition/heal episode) per node count, and reports the simulated time
//! at which every node agreed on the head, plus gossip traffic per
//! committed block. Times are *simulated*, so the numbers are a pure
//! function of `(config, seed)` — host-independent, which is what lets
//! `bench_trend` compare them against a committed baseline.
//!
//! Writes `BENCH_net.json` where `size` is the node count, `fast_us` the
//! clean convergence time (simulated µs), `base_us` the lossy one, and
//! `speedup` their ratio — how much longer agreement takes when the
//! network misbehaves.
//!
//! Knobs (env): `NET_NODES` (comma list of node counts; default
//! `4,8,12`), `NET_BUYS` / `NET_SETS` (workload size; default 200 / 20),
//! `NET_LOSS` / `NET_DUP` (per-message probabilities ×1000, i.e. permil,
//! so the knob stays integral; default 50 each = 5 %), `NET_SEEDS`
//! (replications per point; default 2), `NET_GATES` (default 1: assert
//! every run converges, that convergence is deterministic, and that the
//! clean run settles within a bounded window after mining stops — the CI
//! smoke gate; set 0 to only report).

use sereth_bench::{env_list_or, env_or, write_bench_artifact, BenchPoint};
use sereth_sim::scenario::{run_scenario, RunOutput, ScenarioConfig, MAX_SIM_MS, SYNC_EVERY_MS};
use sereth_types::SimTime;

struct NetPoint {
    nodes: u64,
    clean_converged_ms: f64,
    lossy_converged_ms: f64,
    clean_msgs_per_block: f64,
    lossy_msgs_per_block: f64,
}

fn base_config(nodes: usize, buys: u64, sets: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::cluster(nodes, buys, sets);
    config.drain_ms = 30_000;
    config
}

fn lossy_config(nodes: usize, buys: u64, sets: u64, loss: f64, dup: f64) -> ScenarioConfig {
    // One partition/heal episode riding along: a quarter of the nodes
    // (at least one, never the primary miner) islands off near the end
    // of the workload and heals only *after* mining has quiesced — so
    // the lossy convergence time genuinely includes the announce-driven
    // anti-entropy catch-up, not just flood gossip.
    let config = base_config(nodes, buys, sets);
    let island: Vec<usize> = (1..=(nodes / 4).max(1)).collect();
    let last_submission = buys.max(1) * config.tx_interval_ms + config.tx_interval_ms;
    let heal_at = last_submission + config.drain_ms + 10_000;
    config.lossy(loss, dup).partitioned(island, last_submission.saturating_sub(5_000), heal_at)
}

fn mean_convergence(config: &ScenarioConfig, seeds: u64, enforce: bool) -> (f64, f64, RunOutput) {
    let mut converged_sum = 0.0;
    let mut msgs_per_block_sum = 0.0;
    let mut first = None;
    for seed in 0..seeds.max(1) {
        let out = run_scenario(config, 90 + seed);
        if enforce {
            assert!(
                out.is_converged(),
                "{} seed {seed} failed to converge: heads {:?}",
                config.name,
                out.per_node_heads
            );
        }
        let converged = out.converged_at.unwrap_or(MAX_SIM_MS);
        converged_sum += converged as f64;
        msgs_per_block_sum += out.messages_sent as f64 / out.metrics.blocks.max(1) as f64;
        if first.is_none() {
            first = Some(out);
        }
    }
    let n = seeds.max(1) as f64;
    // The first seed's output rides along so the caller can replay seed
    // 90 and assert the run reproduces byte-for-byte.
    (converged_sum / n, msgs_per_block_sum / n, first.expect("at least one seed"))
}

fn main() {
    let node_counts = env_list_or("NET_NODES", &[4, 8, 12]);
    let buys = env_or("NET_BUYS", 200u64);
    let sets = env_or("NET_SETS", 20u64);
    let loss = env_or("NET_LOSS", 50u64) as f64 / 1_000.0;
    let dup = env_or("NET_DUP", 50u64) as f64 / 1_000.0;
    let seeds = env_or("NET_SEEDS", 2u64);
    let enforce = env_or("NET_GATES", 1u64) != 0;

    println!(
        "Cluster convergence: ring topology, {buys} buys / {sets} sets edge-injected, \
         loss {loss:.3} dup {dup:.3}, {seeds} seeds per point"
    );
    println!("| nodes | clean conv (sim s) | lossy conv (sim s) | clean msg/blk | lossy msg/blk |");
    println!("|-------|--------------------|--------------------|---------------|---------------|");

    let mut results: Vec<NetPoint> = Vec::new();
    for &nodes in &node_counts {
        let nodes_usize = nodes as usize;
        let clean = base_config(nodes_usize, buys, sets);
        let lossy = lossy_config(nodes_usize, buys, sets, loss, dup);
        let (clean_ms, clean_mpb, clean_out) = mean_convergence(&clean, seeds, enforce);
        let (lossy_ms, lossy_mpb, _) = mean_convergence(&lossy, seeds, enforce);

        if enforce {
            // Determinism: replaying the first seed must reproduce the
            // run byte-for-byte.
            let again = run_scenario(&clean, 90);
            assert_eq!(again.per_node_heads, clean_out.per_node_heads, "{nodes}-node heads reproduce");
            assert_eq!(again.events, clean_out.events, "{nodes}-node event count reproduces");
            // Bounded convergence: a fault-free cluster must settle
            // within a few sync periods of mining stopping.
            let mine_until =
                clean.num_buys.max(1) * clean.tx_interval_ms + clean.tx_interval_ms + clean.drain_ms;
            let bound: SimTime = mine_until + 10 * SYNC_EVERY_MS;
            assert!(
                (clean_ms as SimTime) <= bound,
                "clean {nodes}-node cluster converged at {clean_ms} ms, bound {bound} ms"
            );
        }

        println!(
            "| {:>5} | {:>18.1} | {:>18.1} | {:>13.1} | {:>13.1} |",
            nodes,
            clean_ms / 1e3,
            lossy_ms / 1e3,
            clean_mpb,
            lossy_mpb,
        );
        results.push(NetPoint {
            nodes,
            clean_converged_ms: clean_ms,
            lossy_converged_ms: lossy_ms,
            clean_msgs_per_block: clean_mpb,
            lossy_msgs_per_block: lossy_mpb,
        });
    }

    let points: Vec<BenchPoint> = results
        .iter()
        .map(|point| BenchPoint {
            size: point.nodes,
            base_us: point.lossy_converged_ms * 1e3,
            fast_us: point.clean_converged_ms * 1e3,
            speedup: point.lossy_converged_ms / point.clean_converged_ms.max(1e-9),
        })
        .collect();

    let mut config: Vec<(&str, String)> = vec![
        ("buys", buys.to_string()),
        ("sets", sets.to_string()),
        ("loss", format!("{loss:.3}")),
        ("dup", format!("{dup:.3}")),
        ("seeds", seeds.to_string()),
        ("topology", "ring".to_string()),
    ];
    let traffic_entries: Vec<(String, String)> = results
        .iter()
        .flat_map(|point| {
            [
                (
                    format!("clean_msgs_per_block_{}", point.nodes),
                    format!("{:.1}", point.clean_msgs_per_block),
                ),
                (
                    format!("lossy_msgs_per_block_{}", point.nodes),
                    format!("{:.1}", point.lossy_msgs_per_block),
                ),
            ]
        })
        .collect();
    config.extend(traffic_entries.iter().map(|(name, value)| (name.as_str(), value.clone())));

    match write_bench_artifact("net", "net_scale", &config, &points) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(error) => eprintln!("\nfailed to write BENCH_net.json: {error}"),
    }

    if enforce {
        println!("gates: all runs converged, determinism reproduced, clean convergence bounded");
    }
}
