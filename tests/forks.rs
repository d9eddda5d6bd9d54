//! Fork handling: two miners racing on one network must fork and then
//! converge to a single canonical chain by the longest-chain rule — the
//! same resolution logic HMS borrows for its series selection (§III-C:
//! "this logic mirrors that of the blockchain, in which branches are
//! resolved by taking the longest branch").
//!
//! Every node is a [`NetNode`] with no `SyncTick` scheduled: these runs
//! exercise flood gossip and the parent-pull path alone, without the
//! announce/re-offer anti-entropy rounds.

use sereth::chain::genesis::GenesisBuilder;
use sereth::crypto::{Address, SecretKey, H256};
use sereth::net::latency::{FaultModel, LatencyModel};
use sereth::net::sim::{Actor, NetworkConfig, Simulation};
use sereth::net::topology::TopologyKind;
use sereth::node::contract::{default_contract_address, sereth_code, sereth_genesis_slots, ContractForm};
use sereth::node::messages::Msg;
use sereth::node::miner::MinerPolicy;
use sereth::node::netnode::NetNode;
use sereth::node::node::{BlockSchedule, NodeConfig, NodeHandle};
use sereth::types::{SimTime, U256};

/// Wraps `node` for the network: it mines for the whole run, and with no
/// `SyncTick` scheduled its sync settings never take effect.
fn net_node(node: &NodeHandle) -> Box<dyn Actor<Msg>> {
    Box::new(NetNode::new(node.clone(), SimTime::MAX, 3_000, 0))
}

fn build_network(miner_intervals: &[Option<u64>]) -> (Vec<NodeHandle>, Simulation<Msg>) {
    let owner = SecretKey::from_label(1);
    let genesis = GenesisBuilder::new()
        .fund(owner.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            default_contract_address(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
        )
        .build();

    let nodes: Vec<NodeHandle> = miner_intervals
        .iter()
        .enumerate()
        .map(|(i, interval)| {
            NodeHandle::new(
                genesis.clone(),
                match interval {
                    Some(ms) => NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
                        .schedule(BlockSchedule::Fixed(*ms))
                        .coinbase(Address::from_low_u64(0xc000 + i as u64))
                        .build(),
                    None => NodeConfig::geth(default_contract_address()).build(),
                },
            )
        })
        .collect();

    let actors: Vec<Box<dyn Actor<Msg>>> = nodes.iter().map(net_node).collect();
    let net = NetworkConfig {
        topology: TopologyKind::Complete,
        latency: LatencyModel::Uniform { min: 20, max: 120 },
        faults: FaultModel::none(),
    };
    let sim = Simulation::new(actors, &net, 99);
    (nodes, sim)
}

#[test]
fn competing_miners_fork_and_converge() {
    let (nodes, mut sim) = build_network(&[Some(15_000), Some(16_000), None, None]);
    sim.schedule(15_000, 0, Msg::MineTick);
    sim.schedule(16_000, 1, Msg::MineTick);
    // Stop just after a 15 s tick that no 16 s tick shadows: miner 0 has
    // sealed the strictly longest chain and it has had time to gossip, so
    // every equal-height tie is resolved.
    sim.run_until(601_500);

    // All four nodes agree on the head.
    let heads: Vec<H256> = nodes.iter().map(|n| n.with_inner(|i| i.chain.head_hash())).collect();
    assert!(heads.windows(2).all(|w| w[0] == w[1]), "network converged to one head: {heads:?}");

    let head_number = nodes[0].head_number();
    assert!(head_number >= 30, "plenty of blocks were produced, got {head_number}");

    // Forks genuinely occurred: some stored blocks are off-canonical
    // (both miners tick simultaneously at t = 240 000 and 480 000).
    let (stored, canonical) = nodes[2].with_inner(|i| (i.chain.len(), i.chain.canonical_chain().count()));
    assert!(stored > canonical, "side-chain blocks exist (stored {stored} > canonical {canonical})");

    // Longest-chain mining makes the two miners extend each other; both
    // hold substantial shares of the canonical chain, with the faster
    // miner ahead.
    let share = |coinbase: u64| {
        nodes[2].with_inner(|i| {
            i.chain
                .canonical_chain()
                .filter(|b| b.block.header.miner == Address::from_low_u64(coinbase))
                .count()
        })
    };
    let miner0_blocks = share(0xc000);
    let miner1_blocks = share(0xc001);
    assert!(miner0_blocks >= miner1_blocks, "the faster miner leads ({miner0_blocks} vs {miner1_blocks})");
    assert!(miner1_blocks > 0, "the slower miner still lands blocks");
}

#[test]
fn single_miner_network_has_no_side_chains() {
    let (nodes, mut sim) = build_network(&[Some(15_000), None, None]);
    sim.schedule(15_000, 0, Msg::MineTick);
    // A horizon strictly between mine ticks so the final block has
    // propagated before measuring.
    sim.run_until(295_000);
    for node in &nodes {
        let (stored, canonical) = node.with_inner(|i| (i.chain.len(), i.chain.canonical_chain().count()));
        assert_eq!(stored, canonical, "no forks with a single miner");
    }
    let heads: Vec<u64> = nodes.iter().map(NodeHandle::head_number).collect();
    assert!(heads.iter().all(|&h| h == heads[0]), "all nodes at the same height");
}

#[test]
fn transactions_gossip_to_every_pool() {
    let (nodes, mut sim) = build_network(&[None, None, None, None, None]);
    // Submit one transfer at node 3; with no miner it must reach every
    // pool through flood gossip.
    let key = SecretKey::from_label(1);
    let tx = sereth::node::client::transfer(&key, 0, Address::from_low_u64(9), U256::from(5u64), 1);
    sim.schedule(10, 3, Msg::SubmitTx(tx.clone()));
    sim.run_until(60_000);
    for (i, node) in nodes.iter().enumerate() {
        assert!(node.pool_contains(&tx.hash()), "node {i} has the gossiped transaction");
    }
}

#[test]
fn reorg_rewinds_the_committed_amv() {
    use sereth::hms::fpv::{Flag, Fpv};
    use sereth::hms::mark::{compute_mark, genesis_mark};
    use sereth::node::contract::set_selector;
    use sereth::node::node::BlockReceipt;
    use sereth::types::{Transaction, TxPayload};

    // Two isolated miners from the same genesis; we drive them by hand.
    let (nodes, _sim) = build_network(&[Some(15_000), Some(15_000), None]);
    let node_a = &nodes[0];
    let node_b = &nodes[1];

    // Node A commits set(60) in its own block A1.
    let owner = SecretKey::from_label(1);
    let set_tx = Transaction::sign(
        TxPayload {
            nonce: 0,
            gas_price: 1,
            gas_limit: 200_000,
            to: Some(default_contract_address()),
            value: U256::ZERO,
            input: Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(60)).to_calldata(set_selector()),
        },
        &owner,
    );
    assert!(node_a.receive_tx(set_tx, 10));
    node_a.mine(15_000).expect("A1 sealed");
    let m1 = compute_mark(&genesis_mark(), &H256::from_low_u64(60));
    assert_eq!(node_a.committed_amv(), (m1, H256::from_low_u64(60)), "A sees its set");

    // Node B, never having heard the set, mines two empty blocks: the
    // strictly longer branch.
    let b1 = node_b.mine(15_001).expect("B1 sealed");
    let b2 = node_b.mine(30_001).expect("B2 sealed");

    // A adopts B's branch by the longest-chain rule…
    assert_eq!(node_a.receive_block(b1), BlockReceipt::Imported);
    assert_eq!(node_a.receive_block(b2), BlockReceipt::Imported);
    assert_eq!(node_a.head_number(), 2, "A reorged to the longer branch");

    // …and the committed view rewinds with it: the set's effect is gone
    // from A's canonical state.
    assert_eq!(
        node_a.committed_amv(),
        (genesis_mark(), H256::from_low_u64(50)),
        "the committed AMV follows the canonical chain across the reorg"
    );
}

#[test]
fn split_brain_partition_diverges_then_converges_on_heal() {
    use sereth::net::latency::Partition;

    // Two miners (0: 15 s, 1: 17 s) and two observers. A partition cuts
    // {1, 3} off from {0, 2} between 60 s and 240 s: each side keeps
    // mining its own branch (split brain). After the heal the slower
    // miner's side must reorg onto the faster miner's longer branch.
    let owner = SecretKey::from_label(1);
    let genesis = GenesisBuilder::new()
        .fund(owner.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            default_contract_address(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
        )
        .build();
    let intervals = [Some(15_000u64), Some(17_000u64), None, None];
    let nodes: Vec<NodeHandle> = intervals
        .iter()
        .enumerate()
        .map(|(i, interval)| {
            NodeHandle::new(
                genesis.clone(),
                match interval {
                    Some(ms) => NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
                        .schedule(BlockSchedule::Fixed(*ms))
                        .coinbase(Address::from_low_u64(0xc000 + i as u64))
                        .build(),
                    None => NodeConfig::geth(default_contract_address()).build(),
                },
            )
        })
        .collect();
    let actors: Vec<Box<dyn Actor<Msg>>> = nodes.iter().map(net_node).collect();
    let net = NetworkConfig {
        topology: TopologyKind::Complete,
        latency: LatencyModel::Uniform { min: 20, max: 120 },
        faults: FaultModel {
            partitions: vec![Partition { island: vec![1, 3], from_ms: 60_000, until_ms: 240_000 }],
            ..FaultModel::none()
        },
    };
    let mut sim = Simulation::new(actors, &net, 7);
    sim.schedule(15_000, 0, Msg::MineTick);
    sim.schedule(17_000, 1, Msg::MineTick);
    sim.run_until(400_000);

    // Convergence: all four nodes on one head.
    let heads: Vec<H256> = nodes.iter().map(|n| n.with_inner(|i| i.chain.head_hash())).collect();
    assert!(heads.windows(2).all(|w| w[0] == w[1]), "heads after heal: {heads:?}");

    // The split genuinely produced side-chain blocks: the slower miner
    // sealed ~10 blocks during the cut that lost to the faster branch.
    let (stored, canonical) = nodes[3].with_inner(|i| (i.chain.len(), i.chain.canonical_chain().count()));
    assert!(
        stored >= canonical + 5,
        "the abandoned branch is still stored (stored {stored}, canonical {canonical})"
    );

    // The canonical chain is dominated by the faster miner.
    let fast = nodes[2].with_inner(|i| {
        i.chain.canonical_chain().filter(|b| b.block.header.miner == Address::from_low_u64(0xc000)).count()
    });
    assert!(fast * 2 > canonical, "the faster miner holds the majority ({fast}/{canonical})");
}

#[test]
fn orphan_buffer_heals_deep_divergence_delivered_in_reverse() {
    use sereth::node::node::BlockReceipt;

    // One miner extends five blocks; an isolated peer receives them
    // newest-first. Each block orphans until its parent arrives; the
    // orphan buffer must then connect the whole run transitively.
    let (nodes, _sim) = build_network(&[Some(15_000), None]);
    let miner = &nodes[0];
    let peer = &nodes[1];

    let blocks: Vec<_> = (1..=5u64).map(|i| miner.mine(i * 15_000).expect("sealed")).collect();
    assert_eq!(miner.head_number(), 5);

    for block in blocks.iter().rev().take(4) {
        assert_eq!(peer.receive_block(block.clone()), BlockReceipt::Orphaned);
        assert_eq!(peer.head_number(), 0, "nothing connects until the parent chain arrives");
    }
    // Block 1 connects to genesis and unblocks every buffered orphan.
    assert_eq!(peer.receive_block(blocks[0].clone()), BlockReceipt::Imported);
    assert_eq!(peer.head_number(), 5, "the orphan walk connected all five blocks");
    assert_eq!(peer.with_inner(|i| i.chain.head_hash()), miner.with_inner(|i| i.chain.head_hash()));
}
