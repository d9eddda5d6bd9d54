//! Turns passes into metrics, gating each pass on correctness first.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_node::contract::{buy_ok_topic, set_ok_topic};
use sereth_node::node::BlockReceipt;
use sereth_telemetry::{HistogramSnapshot, TelemetrySnapshot};

use crate::drive::{PassLog, TxKind};
use crate::stats::{mean, ns_to_ms, ns_to_us, quantile, ratio};
use crate::trace::Replay;
use crate::workload::Nodes;

/// What the metrics need from checked passes; passes pool by appending.
#[derive(Default)]
pub struct Samples {
    /// Steady-phase submit-to-commit latency per transaction, ms. A
    /// refused or uncommitted transaction counts from its due time to the
    /// end of its pass, so it is never dropped and always misses a limit.
    /// This, the read latencies and `drain_secs` are at the reference
    /// speed of `speed`, each scaled by the probes nearest to it.
    pub commit_ms: Vec<f64>,
    /// Steady-phase read latencies, ns, twice: scaled by the client's
    /// probes and by the miner's. A typical read is the client's own work;
    /// a read in the tail waited for the node lock while the miner
    /// imported a block. Across seeds, `read_p50_us` held steadiest on the
    /// client's scale and `read_p99_us` on the miner's, on both workloads.
    pub read_ns: Vec<f64>,
    pub read_wait_ns: Vec<f64>,
    /// Steady-phase `receive_tx` call durations, ns.
    pub receive_tx_ns: Vec<f64>,
    /// Generator lateness at each steady `receive_tx`, ns.
    pub lag_ns: Vec<f64>,
    pub drain_committed: u64,
    pub drain_secs: f64,
    /// Per block: `mine` ns, follower `receive_block` ns, transactions.
    pub blocks: Vec<(f64, f64, usize)>,
    pub buys_committed: u64,
    pub buys_ok: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    pub fn absorb(&mut self, other: Samples) {
        self.commit_ms.extend(other.commit_ms);
        self.read_ns.extend(other.read_ns);
        self.read_wait_ns.extend(other.read_wait_ns);
        self.receive_tx_ns.extend(other.receive_tx_ns);
        self.lag_ns.extend(other.lag_ns);
        self.drain_committed += other.drain_committed;
        self.drain_secs += other.drain_secs;
        self.blocks.extend(other.blocks);
        self.buys_committed += other.buys_committed;
        self.buys_ok += other.buys_ok;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Checks one pass and extracts its samples.
///
/// # Errors
///
/// Every violated invariant, one per line: miner and follower disagree on
/// head or state root, a block was not `Imported` at the follower, an
/// accepted transaction did not commit exactly once (or a sender's final
/// nonce differs from its accepted count), an owner `set` failed, or a
/// node counted a self-import or store failure.
pub fn check(nodes: &Nodes, log: &PassLog) -> Result<Samples, String> {
    let mut errors = Vec::new();
    if nodes.miner.head_id() != nodes.follower.head_id() {
        errors.push(format!(
            "head differs: miner {:?}, follower {:?}",
            nodes.miner.head_id(),
            nodes.follower.head_id()
        ));
    }
    if nodes.miner.head_state_root() != nodes.follower.head_state_root() {
        errors.push("miner and follower state roots differ".to_string());
    }
    if let Some(block) = log.blocks.iter().find(|block| block.receipt != BlockReceipt::Imported) {
        errors.push(format!("follower returned {:?} for block {}", block.receipt, block.number));
    }
    if log.mine_failures > 0 {
        errors.push(format!("{} mine() calls sealed nothing", log.mine_failures));
    }
    for (name, node) in [("miner", &nodes.miner), ("follower", &nodes.follower)] {
        let counters = node.telemetry_snapshot().counters;
        for counter in ["node.self_import_failed", "node.store_failed"] {
            let value = counters.get(counter).copied().unwrap_or(0);
            if value != 0 {
                errors.push(format!("{name} counted {counter} = {value}"));
            }
        }
    }
    if log.client.timed_out {
        errors.push("gave up waiting for accepted transactions to commit".to_string());
    }

    // Committed outcomes from the follower's receipts: hash -> (block,
    // emitted buy_ok, emitted set_ok).
    let mut committed: HashMap<H256, (u64, bool, bool)> = HashMap::new();
    let mut duplicates = 0u64;
    nodes.follower.with_inner(|inner| {
        for stored in inner.chain.canonical_chain() {
            for receipt in &stored.receipts {
                let outcome = (
                    stored.block.number(),
                    receipt.has_event(buy_ok_topic()),
                    receipt.has_event(set_ok_topic()),
                );
                duplicates += u64::from(committed.insert(receipt.tx_hash, outcome).is_some());
            }
        }
    });
    if duplicates > 0 {
        errors.push(format!("{duplicates} transactions committed more than once"));
    }
    let imported_at: HashMap<u64, Instant> =
        log.blocks.iter().map(|block| (block.number, block.imported_at)).collect();

    let client = &log.client;
    let mut samples = Samples {
        read_ns: client.read_ns.iter().map(|&(at, ns)| ns * client.probes.scale_at(at)).collect(),
        read_wait_ns: client.read_ns.iter().map(|&(at, ns)| ns * log.probes.scale_at(at)).collect(),
        receive_tx_ns: client.receive_tx_ns.clone(),
        lag_ns: client.lag_ns.clone(),
        drain_committed: client.rounds.iter().map(|round| round.committed).sum(),
        drain_secs: client
            .rounds
            .iter()
            .map(|round| {
                round.submit.as_secs_f64() * client.probes.scale_at(round.submitted)
                    + round.mining.as_secs_f64() * log.probes.scale_at(round.mined)
            })
            .sum(),
        blocks: log.blocks.iter().map(|b| (b.mine_ns as f64, b.receive_ns as f64, b.txs)).collect(),
        attempted: client.sent.len() as u64 + client.reads,
        failed: client.read_failures,
        ..Samples::default()
    };
    let mut accepted_by_sender: BTreeMap<Address, u64> = BTreeMap::new();
    let (mut accepted, mut uncommitted, mut failed_sets) = (0u64, 0u64, 0u64);
    for sent in &client.sent {
        let outcome = if sent.accepted { committed.get(&sent.hash) } else { None };
        if sent.accepted {
            accepted += 1;
            *accepted_by_sender.entry(sent.sender).or_default() += 1;
        }
        let done = match outcome {
            Some(&(number, buy_ok, set_ok)) => {
                match sent.kind {
                    TxKind::Buy => {
                        samples.buys_committed += 1;
                        samples.buys_ok += u64::from(buy_ok);
                    }
                    TxKind::Set => failed_sets += u64::from(!set_ok),
                    TxKind::Transfer => {}
                }
                imported_at.get(&number).copied()
            }
            None => {
                samples.failed += 1;
                uncommitted += u64::from(sent.accepted);
                None
            }
        };
        if sent.steady {
            let done = done.unwrap_or(log.end);
            let wall = ns_to_ms(done.saturating_duration_since(sent.due).as_nanos() as f64);
            samples.commit_ms.push(wall * log.probes.scale_at(done));
        }
    }
    if uncommitted > 0 {
        errors.push(format!("{uncommitted} accepted transactions never committed"));
    }
    if committed.len() as u64 != accepted {
        errors.push(format!("{} transactions committed, {accepted} accepted", committed.len()));
    }
    if failed_sets > 0 {
        errors.push(format!("{failed_sets} owner sets did not succeed"));
    }
    let wrong_nonces = accepted_by_sender
        .iter()
        .filter(|(sender, &count)| {
            nodes.follower.account_nonce(sender) != count || nodes.miner.account_nonce(sender) != count
        })
        .count();
    if wrong_nonces > 0 {
        errors.push(format!("{wrong_nonces} senders end with a nonce other than their accepted count"));
    }
    if errors.is_empty() {
        Ok(samples)
    } else {
        Err(errors.join("\n"))
    }
}

/// A metric as printed and reported: value, unit, sample count.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

/// The end-to-end metrics over pooled passes: those in the result
/// line, then `commit_p99_ms`, `eta_buys` (market only) and `fail_ratio`,
/// which are printed but not reported. Commit latencies come in blocks,
/// and a `transfer-bigstate` run has about a hundred steady blocks, so
/// its p99 rests on the slowest one or two: two sets of ten seeds spread
/// 0.14 and 0.27 of the median. The tail is reported at p90, the highest
/// percentile with about ten blocks beyond it. `fail_ratio` is 0 on every
/// healthy run and `eta_buys` does not exist on the transfer workload.
pub fn end_to_end(samples: &Samples, setup_s: &mut [f64], rss_mb: f64) -> (Vec<Metric>, Vec<Metric>) {
    let mut commit = samples.commit_ms.clone();
    let mut reads = samples.read_ns.clone();
    let mut read_waits = samples.read_wait_ns.clone();
    let reported = vec![
        metric(
            "drain_tps",
            ratio(samples.drain_committed as f64, samples.drain_secs),
            "tx/s",
            samples.drain_committed as usize,
        ),
        metric("commit_p50_ms", quantile(&mut commit, 0.50), "ms", commit.len()),
        metric("commit_p90_ms", quantile(&mut commit, 0.90), "ms", commit.len()),
        metric("read_p50_us", ns_to_us(quantile(&mut reads, 0.50)), "us", reads.len()),
        metric("read_p99_us", ns_to_us(quantile(&mut read_waits, 0.99)), "us", read_waits.len()),
        metric("setup_s", quantile(setup_s, 0.5), "s", setup_s.len()),
        metric("rss_peak_mb", rss_mb, "MB", 1),
    ];
    let mut printed = vec![metric("commit_p99_ms", quantile(&mut commit, 0.99), "ms", commit.len())];
    if samples.buys_committed > 0 {
        let eta = ratio(samples.buys_ok as f64, samples.buys_committed as f64);
        printed.push(metric("eta_buys", eta, "ratio", samples.buys_committed as usize));
    }
    let fail_ratio = ratio(samples.failed as f64, samples.attempted as f64);
    printed.push(metric("fail_ratio", fail_ratio, "ratio", samples.attempted as usize));
    (reported, printed)
}

fn histogram<'a>(snapshot: &'a TelemetrySnapshot, name: &str) -> Option<&'a HistogramSnapshot> {
    snapshot.histograms.get(name)
}

fn sum_ns(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    histogram(snapshot, name).map_or(0.0, |h| h.sum_ns as f64)
}

fn mean_ns(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    histogram(snapshot, name).map_or(0.0, HistogramSnapshot::mean_ns)
}

fn count(snapshot: &TelemetrySnapshot, name: &str) -> usize {
    histogram(snapshot, name).map_or(0, HistogramSnapshot::count) as usize
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    snapshot.counters.get(name).copied().unwrap_or(0) as f64
}

/// One row of the block-path table: where a block's wall time went, per
/// block, in ns.
pub struct Row {
    pub layer: &'static str,
    pub source: &'static str,
    pub ns: f64,
}

/// The traced passes' per-layer view: the block-path table (rows that sum
/// to the bench-timed block wall time, `unattributed` included) and the
/// per-layer metrics of the result line.
pub struct Layers {
    pub rows: Vec<Row>,
    pub block_wall_ns: f64,
    pub metrics: Vec<Metric>,
}

/// Builds the per-layer view from pooled traced passes, the merged
/// telemetry of their miners and followers, and their layer replay.
pub fn layers(
    samples: &Samples,
    miner: &TelemetrySnapshot,
    follower: &TelemetrySnapshot,
    replay: &Replay,
) -> Layers {
    let n = samples.blocks.len();
    let per_block = |snapshot: &TelemetrySnapshot, name: &str| sum_ns(snapshot, name) / n.max(1) as f64;
    let mut rows = vec![
        Row {
            layer: "miner: order candidates",
            source: "telemetry",
            ns: per_block(miner, "phase.order_candidates"),
        },
        Row {
            layer: "miner: speculate + merge (wave executor)",
            source: "telemetry",
            ns: per_block(miner, "phase.speculate") + per_block(miner, "phase.merge"),
        },
        Row {
            layer: "miner: seal (state root, tx/receipt roots)",
            source: "telemetry",
            ns: per_block(miner, "phase.seal"),
        },
        Row {
            layer: "miner: self-validate (replay + state root)",
            source: "telemetry",
            ns: per_block(miner, "phase.validate"),
        },
        Row {
            layer: "miner: self-import (fork choice)",
            source: "telemetry",
            ns: per_block(miner, "phase.import"),
        },
        Row { layer: "miner: persist (journal + snapshot)", source: "layer replay", ns: replay.persist_ns() },
        Row {
            layer: "follower: validate (replay + state root)",
            source: "telemetry",
            ns: per_block(follower, "phase.validate"),
        },
        Row {
            layer: "follower: import (fork choice)",
            source: "telemetry",
            ns: per_block(follower, "phase.import"),
        },
    ];
    let block_wall_ns =
        mean(&samples.blocks.iter().map(|&(mine, receive, _)| mine + receive).collect::<Vec<_>>());
    let unattributed = block_wall_ns - rows.iter().map(|row| row.ns).sum::<f64>();
    rows.push(Row {
        layer: "unattributed (sequential execution, locks, pool upkeep)",
        source: "wall - rows",
        ns: unattributed,
    });

    let mut receive_tx = samples.receive_tx_ns.clone();
    let mut mine: Vec<f64> = samples.blocks.iter().map(|b| b.0).collect();
    let mut receive_block: Vec<f64> = samples.blocks.iter().map(|b| b.1).collect();
    let mut txs_per_block: Vec<f64> = samples.blocks.iter().map(|b| b.2 as f64).collect();
    let mut lag = samples.lag_ns.clone();
    let (hits, rebuilds) = (counter(miner, "raa.hits"), counter(miner, "raa.rebuilds"));
    let speculated = counter(miner, "exec.speculated");
    let metrics = vec![
        metric("node.receive_tx.p50_us", ns_to_us(quantile(&mut receive_tx, 0.50)), "us", receive_tx.len()),
        metric("node.receive_tx.p99_us", ns_to_us(quantile(&mut receive_tx, 0.99)), "us", receive_tx.len()),
        metric(
            "phase.admission.mean_us",
            ns_to_us(mean_ns(miner, "phase.admission")),
            "us",
            count(miner, "phase.admission"),
        ),
        metric("crypto.verify.mean_us", ns_to_us(replay.verify_ns()), "us", replay.txs),
        metric("raa.hit_ratio", ratio(hits, hits + rebuilds), "ratio", (hits + rebuilds) as usize),
        metric("raa.resyncs", counter(miner, "raa.resyncs"), "count", 1),
        metric(
            "node.lock_hold.p99_us",
            ns_to_us(histogram(miner, "node.lock_hold").map_or(0.0, HistogramSnapshot::p99_ns)),
            "us",
            count(miner, "node.lock_hold"),
        ),
        metric(
            "phase.order_candidates.mean_ms",
            ns_to_ms(mean_ns(miner, "phase.order_candidates")),
            "ms",
            count(miner, "phase.order_candidates"),
        ),
        metric(
            "phase.seal.mean_ms",
            ns_to_ms(mean_ns(miner, "phase.seal")),
            "ms",
            count(miner, "phase.seal"),
        ),
        metric(
            "exec.fast_commit_ratio",
            ratio(counter(miner, "exec.fast_commits"), speculated),
            "ratio",
            speculated as usize,
        ),
        metric("exec.fallbacks", counter(miner, "exec.fallbacks"), "count", 1),
        metric("chain.state_root.mean_ms", ns_to_ms(replay.state_root_ns()), "ms", replay.blocks),
        metric(
            "phase.validate.mean_ms",
            ns_to_ms(mean_ns(miner, "phase.validate")),
            "ms",
            count(miner, "phase.validate"),
        ),
        metric("chain.validate.mean_ms", ns_to_ms(replay.import_memory_ns()), "ms", replay.blocks),
        metric("node.receive_block.p50_ms", ns_to_ms(quantile(&mut receive_block, 0.50)), "ms", n),
        metric("store.persist.mean_ms", ns_to_ms(replay.persist_ns()), "ms", replay.blocks),
        metric("node.mine.p50_ms", ns_to_ms(quantile(&mut mine, 0.50)), "ms", n),
        metric("node.mine.p99_ms", ns_to_ms(quantile(&mut mine, 0.99)), "ms", n),
        metric("node.txs_per_block.p50", quantile(&mut txs_per_block, 0.50), "count", n),
        metric("block.unattributed.mean_ms", ns_to_ms(unattributed), "ms", n),
        metric("gen.lag_p99_ms", ns_to_ms(quantile(&mut lag, 0.99)), "ms", lag.len()),
    ];
    Layers { rows, block_wall_ns, metrics }
}
