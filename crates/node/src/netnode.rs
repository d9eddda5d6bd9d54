//! A complete node behind [`sereth_net::sim::Actor`]: topology-driven
//! gossip plus anti-entropy, so networks converge over lossy links.
//!
//! Flood gossip alone is enough when links are merely slow, but a
//! dropped `NewBlock` or a healed partition leaves peers permanently
//! behind. [`NetNode`] reads its peers from the simulator's topology
//! ([`Context::neighbors`]/[`Context::broadcast`]) and layers three
//! recovery mechanisms on top of the flood rules:
//!
//! 1. **Parent pull** — an orphaned block triggers a [`Msg::GetBlock`]
//!    for its missing parent (deduplicated per sync round), walking one
//!    ancestor per round trip until the branches reconnect;
//! 2. **Head announcements** — every [`Msg::SyncTick`] broadcasts
//!    [`Msg::Announce`] with the canonical head, so a peer that missed
//!    the block gossip entirely discovers it is behind and pulls;
//! 3. **Pending re-gossip** — a bounded slice of the pool is re-offered
//!    each sync round, so transactions stranded on one side of a healed
//!    partition still reach the miners.
//!
//! De-duplication lives where the state lives: [`NodeHandle::receive_tx`]
//! returns `false` (no re-forward) for a transaction its pool already
//! holds or whose nonce its head has passed, and
//! [`NodeHandle::receive_block`] answers [`BlockReceipt::Known`] for
//! repeated blocks. Reorgs need no special handling here — the chain
//! store's fork-choice imports competing branches as side chains and
//! switches heads when one grows strictly longer, exactly as for blocks
//! imported any other way.
//!
//! Every behaviour is deterministic: the only randomness an actor may
//! consume is [`Context::rng`] (here, only the mining schedule), so a
//! simulated run is a pure function of its seed.

use std::collections::HashSet;

use sereth_crypto::hash::H256;
use sereth_net::sim::{Actor, Context};
use sereth_types::transaction::Transaction;
use sereth_types::SimTime;

use crate::messages::Msg;
use crate::node::{BlockReceipt, NodeHandle};

/// How many pooled transactions one anti-entropy round re-offers to the
/// neighbors. Bounded so sync traffic stays O(1) per round; dedup on the
/// receiving side stops the re-offer from flooding further.
pub const SYNC_REGOSSIP_CAP: usize = 16;

/// A full node wired to the simulated network through the topology.
pub struct NetNode {
    /// The node itself (shared with attached clients).
    pub handle: NodeHandle,
    /// Mining stops after this instant, letting the cluster quiesce so a
    /// convergence check is meaningful. Miner nodes re-arm
    /// [`Msg::MineTick`] only while `now <= mine_until`.
    mine_until: SimTime,
    /// Anti-entropy period; [`Msg::SyncTick`] re-arms itself at this
    /// interval while `now < sync_until`.
    sync_every_ms: SimTime,
    /// Sync passes stop after this instant (usually the run horizon).
    sync_until: SimTime,
    /// Block hashes already requested since the last sync round — keeps
    /// a burst of orphans from the same branch to one `GetBlock` each.
    requested: HashSet<H256>,
}

impl NetNode {
    /// Wraps `handle` for the network. The caller schedules the first
    /// [`Msg::MineTick`] (miners) and [`Msg::SyncTick`] externally.
    pub fn new(handle: NodeHandle, mine_until: SimTime, sync_every_ms: SimTime, sync_until: SimTime) -> Self {
        Self { handle, mine_until, sync_every_ms, sync_until, requested: HashSet::new() }
    }

    /// Floods `msg` to every neighbor, counting the fan-out on the
    /// node's `net.msgs_sent` counter (the NET-SCALE messages-per-block
    /// numerator).
    fn gossip(&self, ctx: &mut Context<'_, Msg>, msg: Msg) {
        self.handle.telemetry().counter("net.msgs_sent").add(ctx.neighbors().len() as u64);
        ctx.broadcast(msg);
    }

    /// Asks the whole neighborhood for `hash`, at most once per sync
    /// round.
    fn request_block(&mut self, ctx: &mut Context<'_, Msg>, hash: H256) {
        if self.requested.insert(hash) {
            self.handle.telemetry().counter("net.parent_requests").inc();
            self.gossip(ctx, Msg::GetBlock { hash, requester: ctx.self_id() });
        }
    }

    fn on_transaction(&mut self, tx: Transaction, ctx: &mut Context<'_, Msg>) {
        if self.handle.receive_tx(tx.clone(), ctx.now()) {
            self.gossip(ctx, Msg::NewTransaction(tx));
        }
    }

    fn on_block(&mut self, block: sereth_types::block::Block, ctx: &mut Context<'_, Msg>) {
        let hash = block.hash();
        let parent = block.header.parent_hash;
        match self.handle.receive_block(block.clone()) {
            BlockReceipt::Imported => {
                self.requested.remove(&hash);
                self.handle.telemetry().counter("net.blocks_imported").inc();
                self.gossip(ctx, Msg::NewBlock(block));
            }
            BlockReceipt::Orphaned => {
                self.handle.telemetry().counter("net.blocks_orphaned").inc();
                self.request_block(ctx, parent);
            }
            BlockReceipt::Dropped => {
                self.handle.telemetry().counter("net.blocks_dropped").inc();
                self.request_block(ctx, parent);
            }
            BlockReceipt::Known => {
                self.handle.telemetry().counter("net.blocks_known").inc();
            }
            BlockReceipt::Rejected => {
                self.handle.telemetry().counter("net.blocks_rejected").inc();
            }
        }
    }

    fn on_sync(&mut self, ctx: &mut Context<'_, Msg>) {
        // A fresh round may re-request: the previous round's GetBlock
        // (or its reply) could have been dropped.
        self.requested.clear();
        for parent in self.handle.orphan_parents() {
            self.request_block(ctx, parent);
        }
        // Re-offer a bounded slice of the pool, oldest first — pulls
        // partition-stranded transactions toward the miners. A receiver
        // that pools or has committed one refuses it, so repeats die
        // after one hop.
        let pending: Vec<Transaction> = self.handle.pool().with_entries_by_arrival(|entries| {
            entries.iter().take(SYNC_REGOSSIP_CAP).map(|entry| entry.tx.clone()).collect()
        });
        for tx in pending {
            self.gossip(ctx, Msg::NewTransaction(tx));
        }
        let (number, hash) = self.handle.head_id();
        if number > 0 {
            self.gossip(ctx, Msg::Announce { hash, number, from: ctx.self_id() });
        }
        if ctx.now() < self.sync_until {
            ctx.wake_self(self.sync_every_ms, Msg::SyncTick);
        }
    }

    fn on_mine(&mut self, ctx: &mut Context<'_, Msg>) {
        if ctx.now() > self.mine_until {
            return; // quiesced: no block, no re-arm
        }
        if let Some(block) = self.handle.mine(ctx.now()) {
            self.gossip(ctx, Msg::NewBlock(block));
        }
        if let Some(setup) = &self.handle.config().miner {
            let delay = setup.schedule.next_delay(ctx.rng());
            ctx.wake_self(delay, Msg::MineTick);
        }
    }
}

impl Actor<Msg> for NetNode {
    fn on_message(&mut self, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::SubmitTx(tx) | Msg::NewTransaction(tx) => self.on_transaction(tx, ctx),
            Msg::NewBlock(block) => self.on_block(block, ctx),
            Msg::GetBlock { hash, requester } => {
                if requester != ctx.self_id() {
                    if let Some(block) = self.handle.block_by_hash(&hash) {
                        self.handle.telemetry().counter("net.msgs_sent").inc();
                        ctx.send_to(requester, Msg::NewBlock(block));
                    }
                }
            }
            Msg::Announce { hash, number, from } => {
                // Pull only when strictly behind an unknown head: equal
                // heights are competing forks the next block resolves,
                // and a known hash needs nothing.
                if from != ctx.self_id()
                    && number > self.handle.head_number()
                    && self.handle.block_by_hash(&hash).is_none()
                    && self.requested.insert(hash)
                {
                    self.handle.telemetry().counter("net.head_pulls").inc();
                    self.handle.telemetry().counter("net.msgs_sent").inc();
                    ctx.send_to(from, Msg::GetBlock { hash, requester: ctx.self_id() });
                }
            }
            Msg::SyncTick => self.on_sync(ctx),
            Msg::MineTick => self.on_mine(ctx),
            Msg::WorkloadTick(_) => {
                // Workload ticks belong to driver actors.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{default_contract_address, sereth_code, sereth_genesis_slots, ContractForm};
    use crate::miner::MinerPolicy;
    use crate::node::{BlockSchedule, ClientKind, NodeConfig};
    use sereth_chain::genesis::{Genesis, GenesisBuilder};
    use sereth_crypto::address::Address;
    use sereth_crypto::sig::SecretKey;
    use sereth_net::latency::{FaultModel, LatencyModel};
    use sereth_net::sim::{NetworkConfig, Simulation};
    use sereth_net::topology::TopologyKind;
    use sereth_types::u256::U256;

    fn genesis(owner: &SecretKey) -> Genesis {
        GenesisBuilder::new()
            .fund(owner.address(), U256::from(1_000_000_000u64))
            .contract_with_storage(
                default_contract_address(),
                sereth_code(ContractForm::Native),
                sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
            )
            .build()
    }

    fn cluster(n: usize, miner_first: bool, seed: u64) -> (Vec<NodeHandle>, Simulation<Msg>) {
        let owner = SecretKey::from_label(1);
        let genesis = genesis(&owner);
        let nodes: Vec<NodeHandle> = (0..n)
            .map(|i| {
                let mut builder =
                    NodeConfig::builder().kind(ClientKind::Geth).contract(default_contract_address());
                if miner_first && i == 0 {
                    builder = builder
                        .mining(MinerPolicy::Standard)
                        .schedule(BlockSchedule::Fixed(1_000))
                        .coinbase(Address::from_low_u64(0xc0b0));
                }
                NodeHandle::new(genesis.clone(), builder.build())
            })
            .collect();
        let actors: Vec<Box<dyn Actor<Msg>>> = nodes
            .iter()
            .map(|node| Box::new(NetNode::new(node.clone(), 30_000, 2_000, 100_000)) as Box<dyn Actor<Msg>>)
            .collect();
        let config = NetworkConfig {
            topology: TopologyKind::Ring,
            latency: LatencyModel::Constant(10),
            faults: FaultModel::none(),
        };
        let mut sim = Simulation::new(actors, &config, seed);
        if miner_first {
            sim.schedule(1_000, 0, Msg::MineTick);
        }
        for id in 0..n {
            sim.schedule(2_000 + id as u64, id, Msg::SyncTick);
        }
        (nodes, sim)
    }

    #[test]
    fn blocks_flood_around_a_ring() {
        let (nodes, mut sim) = cluster(6, true, 7);
        sim.run_until(40_000);
        let head = nodes[0].head_id();
        assert!(head.0 > 0, "the miner sealed blocks");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.head_id(), head, "node {i} converged to the miner's head");
        }
    }

    #[test]
    fn announce_pulls_a_late_joiner_forward() {
        // Partition node 3 away for the whole mining window; after heal,
        // only anti-entropy (announce → pull → orphan walk) can catch it
        // up, since every NewBlock flood happened during the partition.
        let owner = SecretKey::from_label(1);
        let genesis = genesis(&owner);
        let nodes: Vec<NodeHandle> = (0..4)
            .map(|i| {
                let mut builder =
                    NodeConfig::builder().kind(ClientKind::Geth).contract(default_contract_address());
                if i == 0 {
                    builder = builder
                        .mining(MinerPolicy::Standard)
                        .schedule(BlockSchedule::Fixed(1_000))
                        .coinbase(Address::from_low_u64(0xc0b0));
                }
                NodeHandle::new(genesis.clone(), builder.build())
            })
            .collect();
        let actors: Vec<Box<dyn Actor<Msg>>> = nodes
            .iter()
            .map(|node| Box::new(NetNode::new(node.clone(), 8_000, 2_000, 100_000)) as Box<dyn Actor<Msg>>)
            .collect();
        let config = NetworkConfig {
            topology: TopologyKind::Complete,
            latency: LatencyModel::Constant(10),
            faults: FaultModel {
                partitions: vec![sereth_net::latency::Partition {
                    island: vec![3],
                    from_ms: 0,
                    until_ms: 20_000,
                }],
                ..FaultModel::none()
            },
        };
        let mut sim = Simulation::new(actors, &config, 11);
        sim.schedule(1_000, 0, Msg::MineTick);
        for id in 0..4 {
            sim.schedule(2_000 + id as u64, id, Msg::SyncTick);
        }
        sim.run_until(19_000);
        assert_eq!(nodes[3].head_number(), 0, "partitioned node saw nothing");
        assert!(nodes[0].head_number() >= 5, "mainland kept mining");
        sim.run_until(60_000);
        assert_eq!(nodes[3].head_id(), nodes[0].head_id(), "anti-entropy caught the late joiner up");
        let snapshot = nodes[3].telemetry_snapshot();
        let pulls = snapshot.counters.get("net.head_pulls").copied().unwrap_or(0);
        assert!(pulls > 0, "the catch-up went through an announce-driven pull");
    }

    #[test]
    fn pending_regossip_crosses_a_healed_partition() {
        // Submit a transaction to isolated node 2 while the miner is
        // unreachable; the flood dies inside the island, so only the
        // sync-round re-offer can carry it to the miner after the heal.
        let owner = SecretKey::from_label(1);
        let genesis = genesis(&owner);
        let nodes: Vec<NodeHandle> = (0..3)
            .map(|i| {
                let mut builder =
                    NodeConfig::builder().kind(ClientKind::Geth).contract(default_contract_address());
                if i == 0 {
                    builder = builder
                        .mining(MinerPolicy::Standard)
                        .schedule(BlockSchedule::Fixed(5_000))
                        .coinbase(Address::from_low_u64(0xc0b0));
                }
                NodeHandle::new(genesis.clone(), builder.build())
            })
            .collect();
        let actors: Vec<Box<dyn Actor<Msg>>> = nodes
            .iter()
            .map(|node| Box::new(NetNode::new(node.clone(), 40_000, 2_000, 100_000)) as Box<dyn Actor<Msg>>)
            .collect();
        let config = NetworkConfig {
            topology: TopologyKind::Complete,
            latency: LatencyModel::Constant(10),
            faults: FaultModel {
                partitions: vec![sereth_net::latency::Partition {
                    island: vec![2],
                    from_ms: 0,
                    until_ms: 10_000,
                }],
                ..FaultModel::none()
            },
        };
        let mut sim = Simulation::new(actors, &config, 13);
        sim.schedule(5_000, 0, Msg::MineTick);
        for id in 0..3 {
            sim.schedule(1_000 + id as u64, id, Msg::SyncTick);
        }
        let tx = crate::client::transfer(&owner, 0, Address::from_low_u64(0xbeef), U256::from(1u64), 1);
        let tx_hash = tx.hash();
        sim.schedule(500, 2, Msg::SubmitTx(tx));
        sim.run_until(9_000);
        assert!(nodes[2].pool_contains(&tx_hash), "the island holds the transaction");
        assert!(!nodes[0].pool_contains(&tx_hash), "the flood died at the partition");
        sim.run_until(60_000);
        let committed = nodes[0].with_inner(|inner| inner.chain.find_receipt(&tx_hash).is_some());
        assert!(committed, "the re-offered transaction reached the miner and committed");
    }

    #[test]
    fn mining_quiesces_at_the_horizon() {
        let (nodes, mut sim) = cluster(3, true, 21);
        sim.run_until(200_000);
        // mine_until = 30_000 with 1 s blocks: about 30 blocks, never more.
        let head = nodes[0].head_number();
        assert!(head > 0 && head <= 30, "mining stopped at the horizon (head {head})");
    }
}
