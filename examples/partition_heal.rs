//! Split-brain and recovery: a network partition separates two miners,
//! each side extends its own branch, and after the heal the ancestor-fetch
//! sync protocol reconverges everyone onto the longest chain.
//!
//! This exercises the substrate underneath the paper's claims: HMS rides
//! on ordinary blockchain fork resolution ("branches are resolved by
//! taking the longest branch", §III-C), so the reproduction must get that
//! machinery right — including after real network failures.
//!
//! ```text
//! cargo run --example partition_heal
//! ```

use sereth::chain::genesis::GenesisBuilder;
use sereth::crypto::{Address, SecretKey, H256};
use sereth::net::latency::{FaultModel, LatencyModel, Partition};
use sereth::net::sim::{Actor, NetworkConfig, Simulation};
use sereth::net::topology::TopologyKind;
use sereth::node::contract::{default_contract_address, sereth_code, sereth_genesis_slots, ContractForm};
use sereth::node::messages::Msg;
use sereth::node::miner::MinerPolicy;
use sereth::node::netnode::NetNode;
use sereth::node::node::{BlockSchedule, NodeConfig, NodeHandle};
use sereth::types::{SimTime, U256};

fn main() {
    let owner = SecretKey::from_label(1);
    let genesis = GenesisBuilder::new()
        .fund(owner.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            default_contract_address(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
        )
        .build();

    // Four nodes: 0 mines every 15 s, 1 every 17 s; 2 and 3 observe.
    let intervals: [Option<u64>; 4] = [Some(15_000), Some(17_000), None, None];
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
    // Flood gossip plus parent pulls only: mining never stops, and no
    // `SyncTick` is scheduled, so the announce/re-offer rounds stay off.
    let actors: Vec<Box<dyn Actor<Msg>>> = nodes
        .iter()
        .map(|node| Box::new(NetNode::new(node.clone(), SimTime::MAX, 3_000, 0)) as Box<dyn Actor<Msg>>)
        .collect();

    // The cut: {1, 3} are islanded from {0, 2} between t=60 s and t=240 s.
    let cut = Partition { island: vec![1, 3], from_ms: 60_000, until_ms: 240_000 };
    println!(
        "partition: nodes {:?} cut off from the rest during [{} s, {} s)",
        cut.island,
        cut.from_ms / 1000,
        cut.until_ms / 1000
    );
    let net = NetworkConfig {
        topology: TopologyKind::Complete,
        latency: LatencyModel::Uniform { min: 20, max: 120 },
        faults: FaultModel { partitions: vec![cut], ..FaultModel::none() },
    };
    let mut sim = Simulation::new(actors, &net, 7);
    sim.schedule(15_000, 0, Msg::MineTick);
    sim.schedule(17_000, 1, Msg::MineTick);

    // Run to the middle of the cut: the two sides have diverged.
    sim.run_until(230_000);
    let heads_mid: Vec<u64> = nodes.iter().map(NodeHandle::head_number).collect();
    println!("during the cut  : per-node heights {heads_mid:?}  (split brain)");
    assert_ne!(
        nodes[0].with_inner(|i| i.chain.head_hash()),
        nodes[1].with_inner(|i| i.chain.head_hash()),
        "the miners are on different branches during the cut"
    );

    // Run past the heal: ancestor fetch reconnects the branches, and the
    // losing side reorgs to the longest chain.
    sim.run_until(400_000);
    let heads: Vec<H256> = nodes.iter().map(|node| node.with_inner(|i| i.chain.head_hash())).collect();
    let heights: Vec<u64> = nodes.iter().map(NodeHandle::head_number).collect();
    println!("after the heal  : per-node heights {heights:?}");
    assert!(heads.windows(2).all(|w| w[0] == w[1]), "all nodes converged onto one head");

    let (stored, canonical) = nodes[3].with_inner(|i| (i.chain.len(), i.chain.canonical_chain().count()));
    println!(
        "node 3 stores {stored} blocks of which {canonical} are canonical — the abandoned \
         branch ({} blocks) is preserved as a side chain",
        stored - canonical
    );
    assert!(stored > canonical);
    println!("split brain healed by longest-chain + ancestor-fetch sync ✓");
}
