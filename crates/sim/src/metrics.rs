//! State throughput and transaction efficiency — the paper's §III-A
//! metrics.
//!
//! "A new metric, state throughput, is defined here as the product of the
//! raw throughput and the ratio of transactions included in a block that
//! successfully make state changes. State throughput divided by raw
//! throughput yields the transaction efficiency η."

use std::collections::HashMap;

use sereth_chain::txpool::MarketKind;
use sereth_consistency::ReadRecord;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_node::contract::{buy_ok_topic, set_ok_topic};
use sereth_node::node::NodeHandle;
use sereth_types::SimTime;

/// When and what each submitted transaction was — recorded by the workload
/// driver, joined against the chain afterwards. Also carries the read
/// observations the driver's buyers made (which node height served each
/// `observe`), so the offline checker can judge every read against the
/// committed chain.
#[derive(Debug, Clone, Default)]
pub struct SubmissionLog {
    entries: HashMap<H256, Submission>,
    reads: Vec<ReadRecord>,
}

/// One submitted transaction.
#[derive(Debug, Clone)]
pub struct Submission {
    /// What the transaction was.
    pub call: MarketKind,
    /// When the driver handed it to its node.
    pub submitted_at: SimTime,
    /// The submitting address.
    pub sender: Address,
}

impl SubmissionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a submission.
    pub fn record(&mut self, hash: H256, submission: Submission) {
        self.entries.insert(hash, submission);
    }

    /// Number of recorded submissions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a submission.
    pub fn get(&self, hash: &H256) -> Option<&Submission> {
        self.entries.get(hash)
    }

    /// Count of submissions of a given kind.
    pub fn count(&self, call: MarketKind) -> u64 {
        self.entries.values().filter(|s| s.call == call).count() as u64
    }

    /// Records one read-only observation (a buyer's `observe` before its
    /// buy) for the offline anomaly checker.
    pub fn record_read(&mut self, read: ReadRecord) {
        self.reads.push(read);
    }

    /// The logged read observations.
    pub fn reads(&self) -> &[ReadRecord] {
        &self.reads
    }
}

/// Everything measured from one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Simulated duration in milliseconds (first submission to last block).
    pub duration_ms: SimTime,
    /// Canonical blocks beyond genesis.
    pub blocks: u64,
    /// Buys submitted by the workload.
    pub buys_submitted: u64,
    /// Buys that made it into canonical blocks.
    pub buys_included: u64,
    /// Buys that changed state (`BuyOk` emitted).
    pub buys_succeeded: u64,
    /// Sets submitted.
    pub sets_submitted: u64,
    /// Sets included in canonical blocks.
    pub sets_included: u64,
    /// Sets that changed state (`SetOk` emitted).
    pub sets_succeeded: u64,
    /// Submission-to-commit latency of each *successful* buy.
    pub buy_latency_ms: Vec<f64>,
    /// Submission-to-commit latency of each *successful* set. Watch this
    /// alongside η: a scheduler can inflate buy efficiency by starving the
    /// writer (see the EXT-PWV experiment), and only the set latency
    /// exposes it.
    pub set_latency_ms: Vec<f64>,
    /// One telemetry snapshot per simulated node (index-aligned with the
    /// scenario's node list): phase histograms, counters, and block
    /// traces from the run, lock-free to read.
    pub node_telemetry: Vec<sereth_telemetry::TelemetrySnapshot>,
    /// Every read-only observation the workload's buyers made (mark,
    /// value, and the serving node's committed height at answer time) —
    /// fed to `sereth-consistency`'s dirty-read pass by
    /// [`crate::audit::audit_run`].
    pub reads: Vec<ReadRecord>,
}

impl RunMetrics {
    /// Transaction efficiency of buys: successful / submitted (the paper's
    /// Figure 2 y-axis: "each data point represents the result of 100 buy
    /// transactions, so state throughput is equivalent to η expressed as a
    /// percentage").
    pub fn eta_buys(&self) -> f64 {
        if self.buys_submitted == 0 {
            return 0.0;
        }
        self.buys_succeeded as f64 / self.buys_submitted as f64
    }

    /// Efficiency over *included* transactions only — η as Eq. 1 defines
    /// it (`T_state / T_raw` over what the blocks actually carry).
    pub fn eta_included(&self) -> f64 {
        let included = self.buys_included + self.sets_included;
        if included == 0 {
            return 0.0;
        }
        (self.buys_succeeded + self.sets_succeeded) as f64 / included as f64
    }

    /// Raw throughput in transactions per second (included transactions).
    pub fn raw_throughput_tps(&self) -> f64 {
        if self.duration_ms == 0 {
            return 0.0;
        }
        (self.buys_included + self.sets_included) as f64 / (self.duration_ms as f64 / 1000.0)
    }

    /// State throughput in successful transactions per second (§III-A).
    pub fn state_throughput_tps(&self) -> f64 {
        if self.duration_ms == 0 {
            return 0.0;
        }
        (self.buys_succeeded + self.sets_succeeded) as f64 / (self.duration_ms as f64 / 1000.0)
    }
}

/// Walks `node`'s canonical chain and joins it with the submission log.
pub fn collect_metrics(node: &NodeHandle, log: &SubmissionLog) -> RunMetrics {
    let mut metrics = RunMetrics {
        buys_submitted: log.count(MarketKind::Buy),
        sets_submitted: log.count(MarketKind::Set),
        reads: log.reads().to_vec(),
        ..RunMetrics::default()
    };

    node.with_inner(|inner| {
        let buy_topic = buy_ok_topic();
        let set_topic = set_ok_topic();
        let mut last_timestamp = 0;
        for stored in inner.chain.canonical_chain() {
            if stored.block.number() == 0 {
                continue;
            }
            metrics.blocks += 1;
            last_timestamp = stored.block.header.timestamp_ms;
            for (tx, receipt) in stored.block.transactions.iter().zip(&stored.receipts) {
                let Some(submission) = log.get(&tx.hash()) else { continue };
                match submission.call {
                    MarketKind::Buy => {
                        metrics.buys_included += 1;
                        if receipt.has_event(buy_topic) {
                            metrics.buys_succeeded += 1;
                            metrics.buy_latency_ms.push(
                                (stored.block.header.timestamp_ms.saturating_sub(submission.submitted_at))
                                    as f64,
                            );
                        }
                    }
                    MarketKind::Set => {
                        metrics.sets_included += 1;
                        if receipt.has_event(set_topic) {
                            metrics.sets_succeeded += 1;
                            metrics.set_latency_ms.push(
                                (stored.block.header.timestamp_ms.saturating_sub(submission.submitted_at))
                                    as f64,
                            );
                        }
                    }
                }
            }
        }
        metrics.duration_ms = last_timestamp;
    });
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_definitions() {
        let metrics = RunMetrics {
            duration_ms: 10_000,
            blocks: 2,
            buys_submitted: 100,
            buys_included: 80,
            buys_succeeded: 40,
            sets_submitted: 10,
            sets_included: 10,
            sets_succeeded: 10,
            buy_latency_ms: vec![],
            set_latency_ms: vec![],
            node_telemetry: vec![],
            reads: vec![],
        };
        assert!((metrics.eta_buys() - 0.4).abs() < 1e-12);
        assert!((metrics.eta_included() - 50.0 / 90.0).abs() < 1e-12);
        assert!((metrics.raw_throughput_tps() - 9.0).abs() < 1e-12);
        assert!((metrics.state_throughput_tps() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let metrics = RunMetrics::default();
        assert_eq!(metrics.eta_buys(), 0.0);
        assert_eq!(metrics.eta_included(), 0.0);
        assert_eq!(metrics.raw_throughput_tps(), 0.0);
        assert_eq!(metrics.state_throughput_tps(), 0.0);
    }

    #[test]
    fn submission_log_counts_by_kind() {
        let mut log = SubmissionLog::new();
        log.record(
            H256::from_low_u64(1),
            Submission { call: MarketKind::Buy, submitted_at: 5, sender: Address::from_low_u64(1) },
        );
        log.record(
            H256::from_low_u64(2),
            Submission { call: MarketKind::Set, submitted_at: 6, sender: Address::from_low_u64(2) },
        );
        log.record(
            H256::from_low_u64(3),
            Submission { call: MarketKind::Buy, submitted_at: 7, sender: Address::from_low_u64(1) },
        );
        assert_eq!(log.count(MarketKind::Buy), 2);
        assert_eq!(log.count(MarketKind::Set), 1);
        assert_eq!(log.len(), 3);
        assert!(log.get(&H256::from_low_u64(2)).is_some());
    }
}
