//! Failure injection: the simulation keeps its invariants under message
//! loss, duplication, long-tail latency, sparse topologies, and pool
//! pressure — and after mining stops, the four nodes converge on one head
//! and one state root.

use sereth::net::latency::{FaultModel, LatencyModel, Partition};
use sereth::net::topology::TopologyKind;
use sereth::sim::audit_run;
use sereth::sim::scenario::{run_scenario, RunOutput, ScenarioConfig};

/// Every node ended on the same head and state root.
fn assert_converged(output: &RunOutput) {
    assert!(output.is_converged(), "{} converged: {:?}", output.scenario, output.per_node_heads);
}

fn small(mut config: ScenarioConfig) -> ScenarioConfig {
    config.num_buys = 24;
    config.num_sets = 8;
    config.num_buyers = 6;
    config.drain_ms = 8 * 15_000;
    config
}

#[test]
fn lossy_gossip_degrades_gracefully() {
    let clean = small(ScenarioConfig::sereth_client(24, 8));
    let mut lossy = clean.clone();
    lossy.faults = FaultModel { drop_probability: 0.10, duplicate_probability: 0.0, ..FaultModel::none() };
    lossy.name = "sereth_lossy".into();

    let clean_out = run_scenario(&clean, 3);
    let lossy_out = run_scenario(&lossy, 3);
    // The run must complete with blocks and *some* commits; efficiency may
    // drop but nothing deadlocks or panics.
    assert!(lossy_out.metrics.blocks > 0);
    assert!(lossy_out.metrics.sets_included > 0);
    assert!(clean_out.metrics.blocks > 0);
    assert_converged(&clean_out);
    assert_converged(&lossy_out);
}

#[test]
fn duplicated_gossip_changes_nothing_observable() {
    let clean = small(ScenarioConfig::sereth_client(24, 8));
    let mut duped = clean.clone();
    duped.faults = FaultModel { drop_probability: 0.0, duplicate_probability: 0.5, ..FaultModel::none() };
    duped.name = "sereth_duped".into();

    let clean_out = run_scenario(&clean, 9);
    let duped_out = run_scenario(&duped, 9);
    // Dedup at the pool and store level makes duplication harmless to
    // ledger-level invariants (identical timing shifts aside).
    assert_eq!(duped_out.metrics.sets_succeeded, duped_out.metrics.sets_submitted);
    assert_eq!(clean_out.metrics.sets_succeeded, clean_out.metrics.sets_submitted);
    assert_converged(&clean_out);
    assert_converged(&duped_out);
}

#[test]
fn ring_topology_still_converges() {
    let mut config = small(ScenarioConfig::semantic_mining(24, 8));
    config.topology = TopologyKind::Ring;
    config.name = "semantic_ring".into();
    let out = run_scenario(&config, 4);
    assert!(out.metrics.blocks > 0);
    assert_eq!(out.metrics.sets_succeeded, out.metrics.sets_submitted, "ring gossip delivers everything");
    assert_converged(&out);
}

#[test]
fn long_tail_latency_is_survivable() {
    let mut config = small(ScenarioConfig::sereth_client(24, 8));
    config.latency = LatencyModel::LongTail { base: 30, tail_mean: 400 };
    config.name = "sereth_longtail".into();
    let out = run_scenario(&config, 6);
    assert!(out.metrics.blocks > 0);
    assert!(out.metrics.buys_included > 0);
    assert_converged(&out);
}

#[test]
fn tiny_blocks_create_backlog_but_no_loss_of_safety() {
    let mut config = small(ScenarioConfig::semantic_mining(24, 8));
    config.max_txs_per_block = Some(3);
    config.name = "semantic_tiny_blocks".into();
    let out = run_scenario(&config, 8);
    assert!(out.metrics.blocks > 0);
    // Throughput is capacity-bound; whatever commits respects the metric
    // invariants.
    assert!(out.metrics.buys_succeeded <= out.metrics.buys_included);
    assert!(out.metrics.buys_included <= out.metrics.buys_submitted);
    assert_converged(&out);
}

#[test]
fn star_topology_with_loss_and_duplication_composes() {
    let mut config = small(ScenarioConfig::sereth_client(24, 8));
    config.topology = TopologyKind::Star;
    config.faults = FaultModel { drop_probability: 0.05, duplicate_probability: 0.25, ..FaultModel::none() };
    config.name = "sereth_star_chaos".into();
    let out = run_scenario(&config, 10);
    assert!(out.metrics.blocks > 0);
    assert!(out.metrics.eta_included() <= 1.0);
    assert_converged(&out);
}

/// Runs the sequential-consistency + SSS audit over a run's committed
/// chain. Faults may *lose* transactions (liveness suffers), but every
/// chain that commits must still satisfy both conditions — they are
/// safety properties. (These runs sit at read uncommitted, which allows
/// the dirty reads the audit also counts.) Anti-entropy must also bring
/// every node onto that chain once mining stops.
fn audit_holds(output: &RunOutput) {
    assert_converged(output);
    let report = audit_run(output, 50);
    assert!(
        report.tallies.program_order == 0 && report.tallies.serialization == 0,
        "{} under faults: {:?}",
        output.scenario,
        report.violations
    );
}

#[test]
fn audits_hold_under_message_loss() {
    for kind in
        [ScenarioConfig::sereth_client as fn(u64, u64) -> ScenarioConfig, ScenarioConfig::semantic_mining]
    {
        let mut config = small(kind(24, 8));
        config.faults =
            FaultModel { drop_probability: 0.15, duplicate_probability: 0.0, ..FaultModel::none() };
        config.name += "_loss_audit";
        audit_holds(&run_scenario(&config, 12));
    }
}

#[test]
fn audits_hold_under_duplication_and_long_tails() {
    let mut config = small(ScenarioConfig::semantic_mining(24, 8));
    config.faults = FaultModel { drop_probability: 0.05, duplicate_probability: 0.4, ..FaultModel::none() };
    config.latency = LatencyModel::LongTail { base: 30, tail_mean: 500 };
    config.name = "semantic_chaos_audit".into();
    audit_holds(&run_scenario(&config, 13));
}

#[test]
fn audits_hold_on_sparse_topologies() {
    for topology in [TopologyKind::Ring, TopologyKind::Star] {
        let mut config = small(ScenarioConfig::sereth_client(24, 8));
        config.topology = topology;
        config.name = "sereth_sparse_audit".into();
        audit_holds(&run_scenario(&config, 14));
    }
}

#[test]
fn network_partition_heals_and_the_run_stays_sound() {
    // Island the two non-miner halves away from the miner (actor 0) for
    // two block intervals in the middle of the submission window, then
    // heal. Clients attached to islanded nodes cannot reach the miner's
    // pool during the cut; after healing, gossip resumes and the chain
    // keeps extending. The committed history must satisfy SSS + seqcon
    // regardless — partitions hurt liveness, never safety.
    let mut config = small(ScenarioConfig::sereth_client(24, 8));
    config.faults = FaultModel {
        partitions: vec![Partition { island: vec![2, 3], from_ms: 8_000, until_ms: 38_000 }],
        ..FaultModel::none()
    };
    config.name = "sereth_partition_audit".into();
    let out = run_scenario(&config, 15);
    assert!(out.metrics.blocks > 0, "the miner keeps sealing through the cut");
    assert!(out.metrics.buys_included > 0, "post-heal gossip delivers the backlog");
    audit_holds(&out);
}

#[test]
fn repeated_partitions_of_the_miner_side_still_commit_the_series() {
    // Two separate episodes cutting nodes {1} and then {2,3} off. The
    // owner's sets chain through the miner's pool; whatever commits must
    // remain a strict series.
    let mut config = small(ScenarioConfig::semantic_mining(24, 8));
    config.faults = FaultModel {
        partitions: vec![
            Partition { island: vec![1], from_ms: 5_000, until_ms: 20_000 },
            Partition { island: vec![2, 3], from_ms: 30_000, until_ms: 50_000 },
        ],
        ..FaultModel::none()
    };
    config.name = "semantic_repeated_partitions".into();
    let out = run_scenario(&config, 16);
    assert!(out.metrics.blocks > 0);
    audit_holds(&out);
}
