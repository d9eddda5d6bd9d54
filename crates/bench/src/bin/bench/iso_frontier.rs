//! ISO-FRONTIER: the isolation-ladder sweep — what each rung costs and
//! what it buys.
//!
//! Runs the Figure 2 `sereth_client` market scenario once per
//! [`IsolationLevel`] (read-uncommitted → read-committed → sequential),
//! audits every run through the offline `sereth-consistency` checker, and
//! prints, per rung: state throughput, its ratio to the sequential rung's,
//! buy efficiency η, and the anomaly count the audit found. This is the
//! paper's trade made explicit: read-uncommitted buys throughput by
//! admitting dirty reads; the stricter rungs give them back. All of that is
//! simulated, so stdout is a pure function of the constants below and has
//! a golden file. The observe-path read latency (micro-measured against a
//! node with a pending write in its pool, so the read-uncommitted rung pays
//! its real speculation cost) is wall-clock time and goes to stderr.
//! Gates: the audit finds **zero** anomalies at sequential, and counts are
//! monotone non-increasing up the ladder.

use sereth_bench::{market_genesis, mean_latency};
use sereth_core::mark::genesis_mark;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::client::Owner;
use sereth_node::contract::default_contract_address;
use sereth_node::node::{NodeConfig, NodeHandle};
use sereth_sim::audit_run;
use sereth_sim::scenario::{run_scenario, ScenarioConfig};
use sereth_types::IsolationLevel;

/// Workload per run, replications per rung, and observe-latency reads.
const BUYS: u64 = 24;
const SETS: u64 = 6;
const SEEDS: u64 = 3;
const READS: u32 = 2_000;

struct RungResult {
    level: IsolationLevel,
    throughput_tps: f64,
    eta_buys: f64,
    read_us: f64,
    anomalies: u64,
    dirty_reads: u64,
}

/// Mean state throughput, η, and audited anomaly counts over `SEEDS`
/// replications of the market scenario pinned at `level`, and the
/// rung's observe-path read latency.
fn sweep_rung(level: IsolationLevel) -> RungResult {
    let mut throughput = 0.0;
    let mut eta = 0.0;
    let mut anomalies = 0u64;
    let mut dirty_reads = 0u64;
    for seed in 0..SEEDS {
        let mut config = ScenarioConfig::sereth_client(BUYS, SETS).with_isolation(level);
        config.drain_ms = 60_000;
        let output = run_scenario(&config, 40 + seed);
        let report = audit_run(&output, config.initial_price);
        anomalies += report.violations.len() as u64;
        dirty_reads += report.tallies.dirty_reads as u64;
        throughput += output.metrics.state_throughput_tps();
        eta += output.metrics.eta_buys();
    }
    let n = SEEDS as f64;
    RungResult {
        level,
        throughput_tps: throughput / n,
        eta_buys: eta / n,
        read_us: read_latency_us(level),
        anomalies,
        dirty_reads,
    }
}

/// Mean wall-clock latency of one ladder-dispatched `query_observed`
/// against a Sereth node holding a pending `set` — read-uncommitted
/// speculates over it, the stricter rungs skip it.
fn read_latency_us(level: IsolationLevel) -> f64 {
    let owner = SecretKey::from_label(1);
    let node = NodeHandle::new(
        market_genesis(&owner, 0),
        NodeConfig::sereth(default_contract_address()).isolation(level).build(),
    );
    let mut client = Owner::new(owner.clone(), default_contract_address(), genesis_mark(), 1);
    let pending = client.next_set(&node, H256::from_low_u64(75));
    assert!(node.receive_tx(pending, 100), "the pending write enters the pool");

    let caller = owner.address();
    mean_latency(READS, || node.query_observed(caller).expect("sereth node answers")).as_nanos() as f64 / 1e3
}

/// Prints one table row per rung and each rung's read latency, then
/// gates the audit's anomaly counts.
pub fn run() {
    let results: Vec<RungResult> = IsolationLevel::ALL.into_iter().map(sweep_rung).collect();
    // Sequential is the ladder's top rung and the frontier's baseline.
    let sequential = results.last().expect("ALL is non-empty");

    println!("Isolation frontier: sereth_client market, {BUYS} buys / {SETS} sets, {SEEDS} seeds per rung");
    println!("| level            | state tps | vs sequential | eta(buys) | anomalies | dirty reads |");
    println!("|------------------|-----------|---------------|-----------|-----------|-------------|");
    for rung in &results {
        println!(
            "| {:<16} | {:>9.3} | {:>12.3}x | {:>9.3} | {:>9} | {:>11} |",
            rung.level.label(),
            rung.throughput_tps,
            rung.throughput_tps / sequential.throughput_tps.max(1e-9),
            rung.eta_buys,
            rung.anomalies,
            rung.dirty_reads,
        );
        eprintln!("{:<16} observe/read {:.2} µs (mean of {READS})", rung.level.label(), rung.read_us);
    }

    assert_eq!(
        sequential.anomalies, 0,
        "the sequential rung admitted anomalies — the pinned-view read path leaked"
    );
    for pair in results.windows(2) {
        assert!(
            pair[0].anomalies >= pair[1].anomalies,
            "anomaly counts must not increase up the ladder: {} at {} < {} at {}",
            pair[0].anomalies,
            pair[0].level.label(),
            pair[1].anomalies,
            pair[1].level.label(),
        );
    }
    println!("gates: sequential clean, counts monotone non-increasing up the ladder");
}
