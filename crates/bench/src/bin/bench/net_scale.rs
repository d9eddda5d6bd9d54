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
//! network misbehaves. Gates: every run converges, a replayed seed
//! reproduces its run, and the clean run settles within a bounded window
//! after mining stops.

use sereth_bench::{artifact, BenchPoint};
use sereth_sim::scenario::{run_scenario, RunOutput, ScenarioConfig, MAX_SIM_MS, SYNC_EVERY_MS};
use sereth_types::SimTime;

const NODE_COUNTS: [u64; 3] = [4, 8, 12];
/// Workload per run, replications per point, and the per-message loss and
/// duplication probabilities of the lossy run.
const BUYS: u64 = 200;
const SETS: u64 = 20;
const SEEDS: u64 = 2;
const LOSS: f64 = 0.05;
const DUP: f64 = 0.05;

fn base_config(nodes: usize) -> ScenarioConfig {
    let mut config = ScenarioConfig::cluster(nodes, BUYS, SETS);
    config.drain_ms = 30_000;
    config
}

fn lossy_config(nodes: usize) -> ScenarioConfig {
    // One partition/heal episode riding along: a quarter of the nodes
    // (at least one, never the primary miner) islands off near the end
    // of the workload and heals only *after* mining has quiesced — so
    // the lossy convergence time genuinely includes the announce-driven
    // anti-entropy catch-up, not just flood gossip.
    let config = base_config(nodes);
    let island: Vec<usize> = (1..=(nodes / 4).max(1)).collect();
    let last_submission = BUYS * config.tx_interval_ms + config.tx_interval_ms;
    let heal_at = last_submission + config.drain_ms + 10_000;
    config.lossy(LOSS, DUP).partitioned(island, last_submission.saturating_sub(5_000), heal_at)
}

fn mean_convergence(config: &ScenarioConfig) -> (f64, f64, RunOutput) {
    let mut converged_sum = 0.0;
    let mut msgs_per_block_sum = 0.0;
    let mut first = None;
    for seed in 0..SEEDS {
        let out = run_scenario(config, 90 + seed);
        assert!(
            out.is_converged(),
            "{} seed {seed} failed to converge: heads {:?}",
            config.name,
            out.per_node_heads
        );
        let converged = out.converged_at.unwrap_or(MAX_SIM_MS);
        converged_sum += converged as f64;
        msgs_per_block_sum += out.messages_sent as f64 / out.metrics.blocks.max(1) as f64;
        first.get_or_insert(out);
    }
    let n = SEEDS as f64;
    // The first seed's output rides along so the caller can replay seed
    // 90 and assert the run reproduces byte-for-byte.
    (converged_sum / n, msgs_per_block_sum / n, first.expect("at least one seed"))
}

/// Prints one row per node count, asserting the gates as it goes.
pub fn run() {
    println!(
        "Cluster convergence: ring topology, {BUYS} buys / {SETS} sets edge-injected, \
         loss {LOSS:.3} dup {DUP:.3}, {SEEDS} seeds per point"
    );
    println!("| nodes | clean conv (sim s) | lossy conv (sim s) | clean msg/blk | lossy msg/blk |");
    println!("|-------|--------------------|--------------------|---------------|---------------|");

    let mut points: Vec<BenchPoint> = Vec::new();
    let mut traffic: Vec<(String, String)> = Vec::new();
    for nodes in NODE_COUNTS {
        let clean = base_config(nodes as usize);
        let lossy = lossy_config(nodes as usize);
        let (clean_ms, clean_mpb, clean_out) = mean_convergence(&clean);
        let (lossy_ms, lossy_mpb, _) = mean_convergence(&lossy);

        // Determinism: replaying the first seed must reproduce the run
        // byte-for-byte.
        let again = run_scenario(&clean, 90);
        assert_eq!(again.per_node_heads, clean_out.per_node_heads, "{nodes}-node heads reproduce");
        assert_eq!(again.events, clean_out.events, "{nodes}-node event count reproduces");
        // Bounded convergence: a fault-free cluster must settle within a
        // few sync periods of mining stopping.
        let mine_until = clean.num_buys * clean.tx_interval_ms + clean.tx_interval_ms + clean.drain_ms;
        let bound: SimTime = mine_until + 10 * SYNC_EVERY_MS;
        assert!(
            (clean_ms as SimTime) <= bound,
            "clean {nodes}-node cluster converged at {clean_ms} ms, bound {bound} ms"
        );

        println!(
            "| {:>5} | {:>18.1} | {:>18.1} | {:>13.1} | {:>13.1} |",
            nodes,
            clean_ms / 1e3,
            lossy_ms / 1e3,
            clean_mpb,
            lossy_mpb,
        );
        points.push(BenchPoint {
            size: nodes,
            base_us: lossy_ms * 1e3,
            fast_us: clean_ms * 1e3,
            speedup: lossy_ms / clean_ms.max(1e-9),
        });
        traffic.push((format!("clean_msgs_per_block_{nodes}"), format!("{clean_mpb:.1}")));
        traffic.push((format!("lossy_msgs_per_block_{nodes}"), format!("{lossy_mpb:.1}")));
    }

    let mut config: Vec<(&str, String)> = vec![
        ("buys", BUYS.to_string()),
        ("sets", SETS.to_string()),
        ("loss", format!("{LOSS:.3}")),
        ("dup", format!("{DUP:.3}")),
        ("seeds", SEEDS.to_string()),
        ("topology", "ring".to_string()),
    ];
    config.extend(traffic.iter().map(|(name, value)| (name.as_str(), value.clone())));

    artifact("net", "net_scale", &config, &points);
    println!("gates: all runs converged, determinism reproduced, clean convergence bounded");
}
