//! OBS-OVERHEAD: the cost of leaving telemetry on.
//!
//! The telemetry layer claims to be cheap enough to stay on by default
//! and near-zero when disabled. This bench prices that claim on the
//! node's hottest end-to-end loop: submit a batch of signed transfers
//! through `NodeHandle::receive_tx` (signature check + pool admission,
//! both instrumented) and mine until the pool drains (ordering,
//! sequential execution, seal, import — all instrumented). Each
//! repetition runs the workload twice on fresh nodes, telemetry enabled
//! then disabled, interleaved so drift in machine load hits both arms
//! alike. The gated slowdown is the **minimum over repetitions of each rep's
//! paired enabled/disabled ratio**: a real overhead regression shows
//! up in every pair, a scheduler noise spike only in some, so the min
//! pair is robust against false alarms on busy hosts.
//!
//! The artifact (`BENCH_obs.json`) maps the shared schema as: `base_us`
//! = telemetry **enabled**, `fast_us` = telemetry **disabled** (each
//! the minimum over repetitions), so `speedup` is an enabled/disabled
//! slowdown estimate alongside the gated paired statistic.
//! The enabled run's final snapshot is also written as
//! `TELEMETRY_node.json` — the exportable-instrumentation artifact CI
//! uploads next to the bench JSON.

use std::time::{Duration, Instant};

use bytes::Bytes;
use sereth_bench::{artifact, host_cpus, BenchPoint};
use sereth_chain::builder::BlockLimits;
use sereth_chain::GenesisBuilder;
use sereth_crypto::address::Address;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::default_contract_address;
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{BlockSchedule, NodeConfig, NodeHandle};
use sereth_telemetry::{TelemetryConfig, TelemetrySnapshot};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

/// Sender-key label base (disjoint from the other benches' fixtures).
const LABELS: u64 = 60_000;
/// Transfers per run, and interleaved enabled/disabled repetitions.
const TXS: u64 = 1_536;
const REPS: usize = 5;
/// The overhead budget: enabled/disabled must not exceed this.
const MAX_SLOWDOWN: f64 = 1.05;
/// Nonces per sender: enough that per-sender queues exercise
/// ready-promotion.
const NONCES_PER_SENDER: u64 = 8;

fn node(senders: u64, enabled: bool) -> NodeHandle {
    let mut genesis = GenesisBuilder::new();
    for sender in 0..senders {
        genesis = genesis.fund(SecretKey::from_label(LABELS + sender).address(), U256::from(10_000_000u64));
    }
    NodeHandle::new(
        genesis.build(),
        NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
            .schedule(BlockSchedule::Fixed(1_000))
            .coinbase(Address::from_low_u64(0xc01))
            .limits(BlockLimits { gas_limit: 30_000_000, max_txs: Some(256) })
            .telemetry(TelemetryConfig { enabled })
            .build(),
    )
}

/// Pre-signs the whole workload so the timed region measures the node,
/// not the bench's own signing.
fn sign_workload(senders: u64) -> Vec<(Transaction, u64)> {
    let mut txs = Vec::with_capacity((senders * NONCES_PER_SENDER) as usize);
    for nonce in 0..NONCES_PER_SENDER {
        for sender in 0..senders {
            let price = 1 + (sender * 11 + nonce * 3) % 31;
            let tx = Transaction::sign(
                TxPayload {
                    nonce,
                    gas_price: price,
                    gas_limit: 21_000,
                    to: Some(Address::from_low_u64(0x0b5)),
                    value: U256::from(1u64),
                    input: Bytes::new(),
                },
                &SecretKey::from_label(LABELS + sender),
            );
            txs.push((tx, nonce));
        }
    }
    txs
}

/// Submits every transfer, mines until the pool drains, and returns the
/// wall time plus the node's final telemetry snapshot.
fn run_once(senders: u64, workload: &[(Transaction, u64)], enabled: bool) -> (Duration, TelemetrySnapshot) {
    let node = node(senders, enabled);
    let start = Instant::now();
    for (tx, nonce) in workload {
        assert!(node.receive_tx(tx.clone(), *nonce), "bench workload must be admissible");
    }
    let mut timestamp = 0u64;
    while node.pool_len() > 0 {
        timestamp += 1_000;
        std::hint::black_box(node.mine(timestamp).expect("configured miner seals"));
    }
    (start.elapsed(), node.telemetry_snapshot())
}

/// Prints the enabled/disabled table, writes both artifacts, then gates
/// the slowdown.
pub fn run() {
    println!(
        "telemetry overhead: submit + mine-to-drain, {NONCES_PER_SENDER} nonces/sender, \
         min over {REPS} interleaved reps"
    );
    println!("| txs | enabled/run | disabled/run | slowdown |");
    println!("|-----|-------------|--------------|----------|");

    let senders = TXS.div_ceil(NONCES_PER_SENDER);
    let workload = sign_workload(senders);
    // One untimed warm-up pair: the first run of a fresh process pays
    // page faults and lazy allocator growth that belong to neither arm.
    std::hint::black_box(run_once(senders, &workload, true));
    std::hint::black_box(run_once(senders, &workload, false));
    let (mut on, mut off, mut slowdown) = (Duration::MAX, Duration::MAX, f64::INFINITY);
    let mut exemplar: Option<TelemetrySnapshot> = None;
    for _ in 0..REPS {
        let (rep_on, snapshot) = run_once(senders, &workload, true);
        let (rep_off, empty) = run_once(senders, &workload, false);
        assert!(
            empty.counters.is_empty() && empty.histograms.is_empty() && empty.blocks.is_empty(),
            "disabled telemetry recorded something: {empty:?}"
        );
        assert!(
            snapshot.histograms["phase.admission"].count() >= workload.len() as u64,
            "enabled telemetry missed admissions"
        );
        // The gate statistic: each rep's enabled run paired with its own
        // adjacent disabled run, best pair kept. A real overhead
        // regression inflates *every* pair; a scheduler noise spike
        // inflates some — so the minimum paired ratio is robust against
        // false alarms while still catching the failure mode the gate
        // exists for.
        slowdown = slowdown.min(rep_on.as_nanos() as f64 / rep_off.as_nanos().max(1) as f64);
        if rep_on < on {
            on = rep_on;
            exemplar = Some(snapshot);
        }
        off = off.min(rep_off);
    }
    let point = BenchPoint::from_durations(workload.len() as u64, on, off);
    println!(
        "| {:>4} | {:>8.2} ms | {:>9.2} ms | {:>7.3}x |",
        point.size,
        on.as_nanos() as f64 / 1e6,
        off.as_nanos() as f64 / 1e6,
        slowdown,
    );

    artifact(
        "obs",
        "obs_overhead",
        &[
            ("reps", REPS.to_string()),
            ("nonces_per_sender", NONCES_PER_SENDER.to_string()),
            ("semantics", "base=telemetry-on fast=telemetry-off speedup=slowdown".to_string()),
            ("host_cpus", host_cpus().to_string()),
        ],
        &[point],
    );
    match exemplar.expect("REPS >= 1").write_artifact("node") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("failed to write TELEMETRY_node.json: {error}"),
    }

    assert!(
        slowdown <= MAX_SLOWDOWN,
        "telemetry overhead budget exceeded: {slowdown:.3}x > allowed {MAX_SLOWDOWN:.2}x at {} transactions",
        point.size
    );
    println!("overhead gate: worst slowdown {slowdown:.3}x <= {MAX_SLOWDOWN:.2}x");
}
