//! The abort-rate workload — an extension the paper motivates in §VI:
//! related work "on improving throughput and latency of concurrent systems
//! by reducing abort rate, defined as how many times a transaction is
//! retried before success."
//!
//! Here each buyer wants to complete exactly **one** purchase and retries
//! with a fresh view every time its previous attempt commits without
//! effect. The measured *abort rate* (attempts per completed purchase)
//! makes the cost of stale READ-COMMITTED views visible even when raw
//! eventual success rates converge: a Geth buyer may eventually buy, but
//! only after burning gas on many dead attempts.

use std::sync::Arc;

use parking_lot::Mutex;
use sereth_chain::txpool::MarketKind;
use sereth_crypto::hash::H256;
use sereth_net::sim::{Actor, Context};
use sereth_net::topology::ActorId;
use sereth_node::client::{Buyer, Owner};
use sereth_node::contract::buy_ok_topic;
use sereth_node::messages::Msg;
use sereth_node::node::{NodeHandle, TxCommitStatus};
use sereth_types::SimTime;

use crate::metrics::{Submission, SubmissionLog};

/// Per-buyer bookkeeping of the retry loop.
struct RetrySlot {
    buyer: Buyer,
    node: NodeHandle,
    node_id: ActorId,
    /// The slot stays dormant until this time, staggering buyers across
    /// the repricing window so each faces live churn.
    start_at: SimTime,
    in_flight: Option<H256>,
    attempts: u64,
    completed_at: Option<SimTime>,
}

/// Results of a retry run, one entry per buyer.
#[derive(Debug, Clone, Default)]
pub struct RetryStats {
    /// Attempts each buyer made (≥ 1 once it ever submitted).
    pub attempts: Vec<u64>,
    /// Completion time per buyer (None = never completed).
    pub completed_at: Vec<Option<SimTime>>,
}

impl RetryStats {
    /// Fraction of buyers that completed their purchase.
    pub fn completion_rate(&self) -> f64 {
        if self.completed_at.is_empty() {
            return 0.0;
        }
        self.completed_at.iter().filter(|c| c.is_some()).count() as f64 / self.completed_at.len() as f64
    }

    /// Mean attempts per *completed* purchase — the abort rate plus one.
    pub fn mean_attempts_per_success(&self) -> f64 {
        let completed: Vec<f64> = self
            .attempts
            .iter()
            .zip(&self.completed_at)
            .filter(|(_, done)| done.is_some())
            .map(|(a, _)| *a as f64)
            .collect();
        crate::stats::mean(&completed)
    }

    /// Mean abort count (retries before success) per completed purchase.
    pub fn abort_rate(&self) -> f64 {
        (self.mean_attempts_per_success() - 1.0).max(0.0)
    }
}

/// A driver where the owner reprices on a schedule and every buyer
/// retries until its purchase lands.
pub struct RetryDriver {
    owner: Owner,
    owner_node: NodeHandle,
    owner_node_id: ActorId,
    slots: Vec<RetrySlot>,
    log: Arc<Mutex<SubmissionLog>>,
    stats: Arc<Mutex<RetryStats>>,
    /// Price changes remaining.
    sets_remaining: u64,
    set_interval: SimTime,
    poll_interval: SimTime,
    next_price: u64,
    deadline: SimTime,
}

impl RetryDriver {
    /// Builds the driver. Buyers are index-aligned with `nodes`/`node_ids`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        owner: Owner,
        owner_node: NodeHandle,
        owner_node_id: ActorId,
        buyers: Vec<Buyer>,
        nodes: Vec<NodeHandle>,
        node_ids: Vec<ActorId>,
        num_sets: u64,
        set_interval: SimTime,
        poll_interval: SimTime,
        base_price: u64,
        deadline: SimTime,
        log: Arc<Mutex<SubmissionLog>>,
        stats: Arc<Mutex<RetryStats>>,
    ) -> Self {
        assert_eq!(buyers.len(), nodes.len());
        assert_eq!(buyers.len(), node_ids.len());
        {
            let mut stats = stats.lock();
            stats.attempts = vec![0; buyers.len()];
            stats.completed_at = vec![None; buyers.len()];
        }
        // Spread buyer start times over the first ~60 % of the repricing
        // window: everyone begins while the price is still moving.
        let churn_window = num_sets.saturating_mul(set_interval);
        let count = nodes.len().max(1) as u64;
        let slots = buyers
            .into_iter()
            .zip(nodes)
            .zip(node_ids)
            .enumerate()
            .map(|(i, ((buyer, node), node_id))| RetrySlot {
                buyer,
                node,
                node_id,
                start_at: churn_window * 6 / 10 * i as u64 / count,
                in_flight: None,
                attempts: 0,
                completed_at: None,
            })
            .collect();
        Self {
            owner,
            owner_node,
            owner_node_id,
            slots,
            log,
            stats,
            sets_remaining: num_sets,
            set_interval,
            poll_interval,
            next_price: base_price + 1,
            deadline,
        }
    }

    fn submit_buy(&mut self, index: usize, ctx: &mut Context<'_, Msg>) {
        let slot = &mut self.slots[index];
        let tx = slot.buyer.next_buy(&slot.node);
        slot.in_flight = Some(tx.hash());
        slot.attempts += 1;
        self.log.lock().record(
            tx.hash(),
            Submission { call: MarketKind::Buy, submitted_at: ctx.now(), sender: tx.sender() },
        );
        ctx.send_to(slot.node_id, Msg::SubmitTx(tx));
    }

    fn poll(&mut self, ctx: &mut Context<'_, Msg>) {
        for index in 0..self.slots.len() {
            if self.slots[index].completed_at.is_some() || ctx.now() < self.slots[index].start_at {
                continue;
            }
            let status = match &self.slots[index].in_flight {
                Some(hash) => self.slots[index].node.tx_commit_status(hash, buy_ok_topic()),
                None => {
                    self.submit_buy(index, ctx);
                    continue;
                }
            };
            match status {
                TxCommitStatus::Succeeded { .. } => {
                    self.slots[index].completed_at = Some(ctx.now());
                }
                TxCommitStatus::NoEffect { .. } => {
                    // The attempt burned gas for nothing: retry with a
                    // fresh observation.
                    self.submit_buy(index, ctx);
                }
                TxCommitStatus::Pending => {}
            }
        }
        // Publish progress so the runner can read it after the horizon.
        let mut stats = self.stats.lock();
        for (i, slot) in self.slots.iter().enumerate() {
            stats.attempts[i] = slot.attempts;
            stats.completed_at[i] = slot.completed_at;
        }
    }
}

impl Actor<Msg> for RetryDriver {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            // Tick 0 bootstraps: first poll + first set timer.
            Msg::WorkloadTick(0) => {
                self.poll(ctx);
                if ctx.now() + self.poll_interval <= self.deadline {
                    ctx.wake_self(self.poll_interval, Msg::WorkloadTick(0));
                }
                if self.sets_remaining > 0 {
                    ctx.wake_self(self.set_interval, Msg::WorkloadTick(1));
                }
            }
            // Tick 1: the owner reprices.
            Msg::WorkloadTick(1) => {
                if self.sets_remaining == 0 {
                    return;
                }
                self.sets_remaining -= 1;
                let tx = self.owner.next_set(&self.owner_node, H256::from_low_u64(self.next_price));
                self.next_price += 1;
                self.log.lock().record(
                    tx.hash(),
                    Submission { call: MarketKind::Set, submitted_at: ctx.now(), sender: tx.sender() },
                );
                ctx.send_to(self.owner_node_id, Msg::SubmitTx(tx));
                if self.sets_remaining > 0 && ctx.now() + self.set_interval <= self.deadline {
                    ctx.wake_self(self.set_interval, Msg::WorkloadTick(1));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_stats_arithmetic() {
        let stats =
            RetryStats { attempts: vec![1, 3, 5, 2], completed_at: vec![Some(10), Some(20), None, Some(30)] };
        assert!((stats.completion_rate() - 0.75).abs() < 1e-12);
        // Completed buyers used 1, 3, 2 attempts → mean 2.0 → abort 1.0.
        assert!((stats.mean_attempts_per_success() - 2.0).abs() < 1e-12);
        assert!((stats.abort_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = RetryStats::default();
        assert_eq!(stats.completion_rate(), 0.0);
        assert_eq!(stats.abort_rate(), 0.0);
    }
}
