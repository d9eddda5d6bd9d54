//! Two independent Sereth markets on one chain — contract-scoped HMS.
//!
//! Each market's Hash-Mark-Set series lives in its own contract, so one
//! node serves independent READ-UNCOMMITTED views for both: pending price
//! changes on the energy market never leak into the grain market's view.
//! This is the per-contract generalisation the paper's §VI hints at when
//! comparing HMS with sharding ("sharding … would need customization to
//! address state throughput of individual smart contracts as does HMS").
//!
//! ```text
//! cargo run --example multi_market
//! ```

use sereth::chain::genesis::GenesisBuilder;
use sereth::crypto::{Address, SecretKey, H256};
use sereth::hms::hms::HmsConfig;
use sereth::hms::mark::genesis_mark;
use sereth::node::client::{Buyer, Owner};
use sereth::node::contract::{buy_ok_topic, sereth_code, sereth_genesis_slots, ContractForm};
use sereth::node::miner::MinerPolicy;
use sereth::node::node::{ClientKind, NodeConfig, NodeHandle};
use sereth::types::U256;

const GRAIN_PRICE: u64 = 100;
const ENERGY_PRICE: u64 = 200;

fn grain() -> Address {
    Address::from_low_u64(0x67a1)
}

fn energy() -> Address {
    Address::from_low_u64(0xe6e7)
}

/// Reads a market's READ-UNCOMMITTED `(mark, value)` through the node's
/// RAA-augmented read-only calls (the paper's `mark`/`get` functions).
fn hms_view(node: &NodeHandle, market: Address) -> (H256, H256) {
    node.query_view_for(market, Address::from_low_u64(0x11)).expect("view calls return one word")
}

fn main() {
    // --- 1. One chain, two markets, two owners, one buyer. ---------------
    let grain_owner_key = SecretKey::from_label(1);
    let energy_owner_key = SecretKey::from_label(2);
    let buyer_key = SecretKey::from_label(3);
    let genesis = GenesisBuilder::new()
        .fund(grain_owner_key.address(), U256::from(1_000_000_000u64))
        .fund(energy_owner_key.address(), U256::from(1_000_000_000u64))
        .fund(buyer_key.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            grain(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&grain_owner_key.address(), H256::from_low_u64(GRAIN_PRICE)),
        )
        .contract_with_storage(
            energy(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&energy_owner_key.address(), H256::from_low_u64(ENERGY_PRICE)),
        )
        .build();

    let node = NodeHandle::new(
        genesis,
        NodeConfig::miner(grain(), MinerPolicy::Semantic(HmsConfig::default()))
            .coinbase(Address::from_low_u64(0xc0b0))
            .build(),
    );
    // One RAA provider serves any number of markets: enable the energy
    // market's view selectors too.
    node.enable_market(energy());

    let mut grain_owner =
        Owner::with_value(grain_owner_key, grain(), genesis_mark(), H256::from_low_u64(GRAIN_PRICE), 1);
    let mut energy_owner =
        Owner::with_value(energy_owner_key, energy(), genesis_mark(), H256::from_low_u64(ENERGY_PRICE), 1);

    // --- 2. Interleave pending price changes on both markets. ------------
    println!("submitting interleaved sets: grain 100→110→120, energy 200→210");
    node.receive_tx(grain_owner.next_set(&node, H256::from_low_u64(110)), 10);
    node.receive_tx(energy_owner.next_set(&node, H256::from_low_u64(210)), 20);
    node.receive_tx(grain_owner.next_set(&node, H256::from_low_u64(120)), 30);

    // --- 3. Each market's READ-UNCOMMITTED view is its own series. -------
    let (grain_mark, grain_value) = hms_view(&node, grain());
    let (energy_mark, energy_value) = hms_view(&node, energy());
    println!("grain  HMS view: value {} (mark {grain_mark})", grain_value.low_u64());
    println!("energy HMS view: value {} (mark {energy_mark})", energy_value.low_u64());
    assert_eq!(grain_value.low_u64(), 120, "grain sees its own two pending sets");
    assert_eq!(energy_value.low_u64(), 210, "energy sees only its own pending set");

    // --- 4. The buyer trades on both markets with the right views. -------
    let mut grain_buyer = Buyer::new(buyer_key.clone(), grain(), ClientKind::Sereth, 1);
    node.receive_tx(grain_buyer.next_buy_at(grain_mark, grain_value), 40);
    let mut energy_buyer = Buyer::new(buyer_key, energy(), ClientKind::Sereth, 1);
    energy_buyer.set_nonce(1); // same address, continuing nonce
    node.receive_tx(energy_buyer.next_buy_at(energy_mark, energy_value), 50);

    // --- 5. Mine and show both buys landed, one per market. --------------
    let block = node.mine(15_000).expect("block sealed");
    println!("sealed block {} with {} transactions", block.number(), block.transactions.len());
    let buys: Vec<Address> = node.with_inner(|inner| {
        inner.chain.logs_with_topic(&buy_ok_topic()).into_iter().map(|(_, log)| log.address).collect()
    });
    println!(
        "successful buys: grain={} energy={}",
        buys.iter().filter(|a| **a == grain()).count(),
        buys.iter().filter(|a| **a == energy()).count()
    );
    assert!(buys.contains(&grain()) && buys.contains(&energy()));
    println!("both markets committed their buy against independent uncommitted views ✓");
}
