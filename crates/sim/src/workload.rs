//! The market workload of §II-F / §V: a stream of `buy`s at 1-second
//! intervals with `set`s "evenly spaced over the processing of the buys",
//! driven into the simulated network by an actor standing in for the
//! paper's client machines.

use std::sync::Arc;

use parking_lot::Mutex;
use sereth_chain::txpool::MarketKind;
use sereth_crypto::hash::H256;
use sereth_net::sim::{Actor, Context};
use sereth_net::topology::ActorId;
use sereth_node::client::{Buyer, Owner};
use sereth_node::messages::Msg;
use sereth_node::node::NodeHandle;
use sereth_types::SimTime;

use sereth_consistency::ReadRecord;

use crate::metrics::{Submission, SubmissionLog};

/// One step of the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadStep {
    /// The owner sets the price to `value`.
    Set {
        /// New price.
        value: u64,
    },
    /// Buyer `buyer` (index into the buyer set) submits a buy at whatever
    /// its client shows.
    Buy {
        /// Buyer index.
        buyer: usize,
    },
    /// The owner submits a buy against its own view (single-sender
    /// sequential history, §V).
    OwnerBuy,
}

/// A step with its submission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedStep {
    /// Submission time in simulated milliseconds.
    pub at: SimTime,
    /// The action.
    pub step: WorkloadStep,
}

/// Builds the paper's market plan: `num_buys` buys at `tx_interval_ms`,
/// `num_sets` sets evenly spaced across them, buyers round-robin.
/// Set values walk upward from `base_price + 1` so every set changes the
/// price ("the price changes frequently and unpredictably", §II-F).
pub fn market_plan(
    num_buys: u64,
    num_sets: u64,
    tx_interval_ms: SimTime,
    num_buyers: usize,
    base_price: u64,
) -> Vec<TimedStep> {
    let mut steps: Vec<TimedStep> = Vec::with_capacity((num_buys + num_sets) as usize);
    for i in 0..num_buys {
        steps.push(TimedStep {
            at: tx_interval_ms + i * tx_interval_ms,
            step: WorkloadStep::Buy { buyer: (i as usize) % num_buyers.max(1) },
        });
    }
    let span = num_buys.max(1) * tx_interval_ms;
    for k in 0..num_sets {
        // Evenly spaced midpoints across the buy window.
        let at = tx_interval_ms + (span * (2 * k + 1)) / (2 * num_sets.max(1));
        steps.push(TimedStep { at, step: WorkloadStep::Set { value: base_price + k + 1 } });
    }
    steps.sort_by_key(|timed| timed.at);
    steps
}

/// A strictly alternating single-sender plan: set, buy, set, buy … all
/// from the owner's address (the §V sequential-history validation).
pub fn sequential_plan(pairs: u64, tx_interval_ms: SimTime, base_price: u64) -> Vec<TimedStep> {
    let mut steps = Vec::with_capacity(2 * pairs as usize);
    for k in 0..pairs {
        steps.push(TimedStep {
            at: tx_interval_ms + 2 * k * tx_interval_ms,
            step: WorkloadStep::Set { value: base_price + k + 1 },
        });
        steps.push(TimedStep {
            at: tx_interval_ms + (2 * k + 1) * tx_interval_ms,
            step: WorkloadStep::OwnerBuy,
        });
    }
    steps
}

/// The actor that executes a plan against the network.
pub struct MarketDriver {
    plan: Vec<TimedStep>,
    owner: Owner,
    buyers: Vec<Buyer>,
    /// Node handle each buyer queries (index-aligned with `buyers`).
    buyer_nodes: Vec<NodeHandle>,
    /// Actor id of each buyer's node.
    buyer_node_ids: Vec<ActorId>,
    /// The owner's node and its actor id.
    owner_node: NodeHandle,
    owner_node_id: ActorId,
    log: Arc<Mutex<SubmissionLog>>,
    cursor: usize,
}

impl MarketDriver {
    /// Assembles a driver. `buyers`, `buyer_nodes` and `buyer_node_ids`
    /// must be index-aligned.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        plan: Vec<TimedStep>,
        owner: Owner,
        buyers: Vec<Buyer>,
        buyer_nodes: Vec<NodeHandle>,
        buyer_node_ids: Vec<ActorId>,
        owner_node: NodeHandle,
        owner_node_id: ActorId,
        log: Arc<Mutex<SubmissionLog>>,
    ) -> Self {
        assert_eq!(buyers.len(), buyer_nodes.len());
        assert_eq!(buyers.len(), buyer_node_ids.len());
        Self { plan, owner, buyers, buyer_nodes, buyer_node_ids, owner_node, owner_node_id, log, cursor: 0 }
    }

    /// The first step's scheduled time, if any.
    pub fn first_tick_at(&self) -> Option<SimTime> {
        self.plan.first().map(|timed| timed.at)
    }

    fn execute_step(&mut self, index: usize, ctx: &mut Context<'_, Msg>) {
        let step = self.plan[index].step.clone();
        match step {
            WorkloadStep::Set { value } => {
                let tx = self.owner.next_set(&self.owner_node, H256::from_low_u64(value));
                self.log.lock().record(
                    tx.hash(),
                    Submission { call: MarketKind::Set, submitted_at: ctx.now(), sender: tx.sender() },
                );
                ctx.send_to(self.owner_node_id, Msg::SubmitTx(tx));
            }
            WorkloadStep::Buy { buyer } => {
                let node = self.buyer_nodes[buyer].clone();
                // Observe and build the buy in two explicit steps so the
                // observation itself is logged: the offline checker judges
                // each read against the committed chain at the height that
                // served it.
                let observation = self.buyers[buyer].observe_recorded(&node);
                let tx = self.buyers[buyer].next_buy_at(observation.mark, observation.value);
                let mut log = self.log.lock();
                log.record_read(ReadRecord {
                    reader: tx.sender(),
                    at_height: observation.height,
                    observed_mark: observation.mark,
                    observed_value: observation.value,
                });
                log.record(
                    tx.hash(),
                    Submission { call: MarketKind::Buy, submitted_at: ctx.now(), sender: tx.sender() },
                );
                drop(log);
                ctx.send_to(self.buyer_node_ids[buyer], Msg::SubmitTx(tx));
            }
            WorkloadStep::OwnerBuy => {
                let tx = self.owner.next_own_buy();
                self.log.lock().record(
                    tx.hash(),
                    Submission { call: MarketKind::Buy, submitted_at: ctx.now(), sender: tx.sender() },
                );
                ctx.send_to(self.owner_node_id, Msg::SubmitTx(tx));
            }
        }
    }
}

impl Actor<Msg> for MarketDriver {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Msg::WorkloadTick(index) = msg else { return };
        let index = index as usize;
        if index != self.cursor || index >= self.plan.len() {
            return;
        }
        self.execute_step(index, ctx);
        self.cursor += 1;
        if self.cursor < self.plan.len() {
            let delay = self.plan[self.cursor].at.saturating_sub(self.plan[index].at).max(1);
            ctx.wake_self(delay, Msg::WorkloadTick(self.cursor as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn market_plan_has_right_counts_and_ordering() {
        let plan = market_plan(100, 5, 1_000, 10, 50);
        assert_eq!(plan.len(), 105);
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        let buys = plan.iter().filter(|t| matches!(t.step, WorkloadStep::Buy { .. })).count();
        let sets = plan.iter().filter(|t| matches!(t.step, WorkloadStep::Set { .. })).count();
        assert_eq!(buys, 100);
        assert_eq!(sets, 5);
    }

    #[test]
    fn sets_are_evenly_spaced() {
        let plan = market_plan(100, 5, 1_000, 10, 50);
        let set_times: Vec<SimTime> =
            plan.iter().filter(|t| matches!(t.step, WorkloadStep::Set { .. })).map(|t| t.at).collect();
        assert_eq!(set_times, vec![11_000, 31_000, 51_000, 71_000, 91_000]);
    }

    #[test]
    fn one_to_one_ratio_interleaves() {
        let plan = market_plan(4, 4, 1_000, 2, 50);
        let kinds: Vec<bool> = plan.iter().map(|t| matches!(t.step, WorkloadStep::Set { .. })).collect();
        // buy@1000, set@1500, buy@2000, set@2500, ...
        assert_eq!(kinds, vec![false, true, false, true, false, true, false, true]);
    }

    #[test]
    fn buyers_rotate_round_robin() {
        let plan = market_plan(6, 0, 1_000, 3, 50);
        let buyers: Vec<usize> = plan
            .iter()
            .filter_map(|t| match t.step {
                WorkloadStep::Buy { buyer } => Some(buyer),
                _ => None,
            })
            .collect();
        assert_eq!(buyers, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn set_values_walk_upward() {
        let plan = market_plan(10, 3, 1_000, 1, 50);
        let values: Vec<u64> = plan
            .iter()
            .filter_map(|t| match t.step {
                WorkloadStep::Set { value } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![51, 52, 53]);
    }

    #[test]
    fn sequential_plan_alternates() {
        let plan = sequential_plan(3, 1_000, 50);
        assert_eq!(plan.len(), 6);
        for (i, timed) in plan.iter().enumerate() {
            if i % 2 == 0 {
                assert!(matches!(timed.step, WorkloadStep::Set { .. }));
            } else {
                assert_eq!(timed.step, WorkloadStep::OwnerBuy);
            }
        }
        assert!(plan.windows(2).all(|w| w[0].at < w[1].at));
    }
}
