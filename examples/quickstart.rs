//! Quickstart: deploy the Sereth contract on a two-node network, submit a
//! handful of sets and buys, mine a block, and inspect the result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sereth::chain::genesis::GenesisBuilder;
use sereth::crypto::{Address, SecretKey, H256};
use sereth::hms::hms::HmsConfig;
use sereth::hms::mark::genesis_mark;
use sereth::node::client::{Buyer, Owner};
use sereth::node::contract::{
    buy_ok_topic, default_contract_address, sereth_code, sereth_genesis_slots, set_ok_topic, ContractForm,
};
use sereth::node::miner::MinerPolicy;
use sereth::node::node::{ClientKind, NodeConfig, NodeHandle};
use sereth::types::U256;

fn main() {
    // --- 1. Genesis: fund an owner and a buyer, install the contract. ---
    let owner_key = SecretKey::from_label(1);
    let buyer_key = SecretKey::from_label(2);
    let contract = default_contract_address();
    let initial_price = H256::from_low_u64(50);
    let genesis = GenesisBuilder::new()
        .fund(owner_key.address(), U256::from(1_000_000_000u64))
        .fund(buyer_key.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            contract,
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner_key.address(), initial_price),
        )
        .build();
    println!("genesis block: {}", genesis.block.hash());

    // --- 2. A mining Sereth node (HMS + RAA compiled in). ---
    let node = NodeHandle::new(
        genesis,
        NodeConfig::miner(contract, MinerPolicy::Semantic(HmsConfig::default()))
            .coinbase(Address::from_low_u64(0xc0b0))
            .build(),
    );

    // --- 3. The owner reprices twice; the buyer watches through RAA. ---
    let mut owner = Owner::with_value(owner_key, contract, genesis_mark(), initial_price, 1);
    let mut buyer = Buyer::new(buyer_key, contract, ClientKind::Sereth, 1);

    let set60 = owner.next_set(&node, H256::from_low_u64(60));
    node.receive_tx(set60, 100);
    let (mark, price) = buyer.observe(&node);
    println!("buyer's READ-UNCOMMITTED view: price={} mark={}", price.low_u64(), mark);
    assert_eq!(price.low_u64(), 60, "the pending set is already visible");

    let buy = buyer.next_buy(&node);
    node.receive_tx(buy, 200);
    let set70 = owner.next_set(&node, H256::from_low_u64(70));
    node.receive_tx(set70, 300);

    // --- 4. Mine and inspect the receipts. ---
    let block = node.mine(15_000).expect("miner seals a block");
    println!("mined block #{} with {} transactions", block.number(), block.transactions.len());

    node.with_inner(|inner| {
        let stored = inner.chain.canonical_block(1).expect("block 1");
        for receipt in &stored.receipts {
            let kind = if receipt.has_event(set_ok_topic()) {
                "set: OK"
            } else if receipt.has_event(buy_ok_topic()) {
                "buy: OK"
            } else {
                "no state change"
            };
            println!("  tx[{}] gas={} -> {kind}", receipt.index, receipt.gas_used, kind = kind);
        }
    });

    let (mark, value) = node.committed_amv();
    println!("committed state now: price={} mark={}", value.low_u64(), mark);
    assert_eq!(value.low_u64(), 70);
    println!("quickstart OK");
}
