//! Multiple independent Sereth markets on one chain: each contract's
//! Hash-Mark-Set series is scoped to that contract, so two markets with
//! interleaved traffic never pollute each other's READ-UNCOMMITTED views.
//! (The paper manages a single state variable; contract scoping is the
//! natural generalisation its §VI hints at when comparing with sharding —
//! "sharding … would need customization to address state throughput of
//! individual smart contracts as does HMS".)

use sereth::chain::genesis::GenesisBuilder;
use sereth::crypto::{Address, SecretKey, H256};
use sereth::hms::hms::{hash_mark_set, HmsConfig};
use sereth::hms::mark::{compute_mark, genesis_mark};
use sereth::node::client::{transfer, Buyer, Owner};
use sereth::node::contract::{buy_ok_topic, sereth_code, sereth_genesis_slots, set_selector, ContractForm};
use sereth::node::miner::{committed_amv, pending_view, MinerPolicy};
use sereth::node::node::{ClientKind, NodeConfig, NodeHandle};
use sereth::types::U256;

fn market_a() -> Address {
    Address::from_low_u64(0xaaaa)
}

fn market_b() -> Address {
    Address::from_low_u64(0xbbbb)
}

fn setup() -> (NodeHandle, Owner, Owner) {
    let owner_a_key = SecretKey::from_label(1);
    let owner_b_key = SecretKey::from_label(2);
    let genesis = GenesisBuilder::new()
        .fund(owner_a_key.address(), U256::from(1_000_000_000u64))
        .fund(owner_b_key.address(), U256::from(1_000_000_000u64))
        .fund(SecretKey::from_label(3).address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            market_a(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner_a_key.address(), H256::from_low_u64(100)),
        )
        .contract_with_storage(
            market_b(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner_b_key.address(), H256::from_low_u64(200)),
        )
        .build();

    // The node's RAA registry manages market A; market B's selectors are
    // enabled additionally below.
    let node = NodeHandle::new(
        genesis,
        NodeConfig::miner(market_a(), MinerPolicy::Semantic(HmsConfig::default()))
            .coinbase(Address::from_low_u64(0xc0b0))
            .build(),
    );
    // Enable RAA for market B too — one provider, many markets.
    node.enable_market(market_b());

    let owner_a = Owner::with_value(owner_a_key, market_a(), genesis_mark(), H256::from_low_u64(100), 1);
    let owner_b = Owner::with_value(owner_b_key, market_b(), genesis_mark(), H256::from_low_u64(200), 1);
    (node, owner_a, owner_b)
}

/// Reads the HMS view of a given market through the node's RAA-augmented
/// read-only calls.
fn view_of(node: &NodeHandle, market: Address) -> (H256, H256) {
    node.query_view_for(market, Address::from_low_u64(0x11)).expect("view calls return one word")
}

#[test]
fn markets_have_independent_series() {
    let (node, mut owner_a, mut owner_b) = setup();

    // Interleave pending sets for both markets.
    node.receive_tx(owner_a.next_set(&node, H256::from_low_u64(110)), 10);
    node.receive_tx(owner_b.next_set(&node, H256::from_low_u64(210)), 20);
    node.receive_tx(owner_a.next_set(&node, H256::from_low_u64(120)), 30);

    // Market A's view: its own two-set chain.
    let (mark_a, value_a) = view_of(&node, market_a());
    let expected_a =
        compute_mark(&compute_mark(&genesis_mark(), &H256::from_low_u64(110)), &H256::from_low_u64(120));
    assert_eq!(value_a.low_u64(), 120);
    assert_eq!(mark_a, expected_a);

    // Market B's view: its own single set — unaffected by A's chain.
    let (mark_b, value_b) = view_of(&node, market_b());
    assert_eq!(value_b.low_u64(), 210);
    assert_eq!(mark_b, compute_mark(&genesis_mark(), &H256::from_low_u64(210)));

    // Each market's view is batch Algorithm 1 over the node's own pool.
    let pending = pending_view(node.pool());
    for market in [market_a(), market_b()] {
        let committed = node.with_inner(|inner| committed_amv(&inner.chain.head_state_view(), &market));
        let batch = hash_mark_set(&pending, &market, set_selector(), committed, &HmsConfig::default());
        assert_eq!(view_of(&node, market), (batch.view.mark, batch.view.value), "{market:?} diverged");
    }

    // Repeated reads of an unchanged market come from the RAA cache.
    for _ in 0..3 {
        assert_eq!(view_of(&node, market_a()), (mark_a, value_a));
    }
    let raa = |name: &str| node.telemetry_snapshot().counters[name];
    assert!(raa("raa.hits") > 0, "repeat reads of an unchanged market must hit the cache");

    // Only a `set` of market A drops A's cached view: buys for A, a
    // plain transfer and a set for B leave it valid...
    let trader = SecretKey::from_label(3);
    let mut buyer = Buyer::new(trader.clone(), market_a(), ClientKind::Sereth, 1);
    for now in 40..43 {
        assert!(node.receive_tx(buyer.next_buy_at(mark_a, value_a), now));
    }
    assert!(node.receive_tx(transfer(&trader, 3, Address::from_low_u64(0xee), U256::from(1u64), 1), 50));
    assert!(node.receive_tx(owner_b.next_set(&node, H256::from_low_u64(220)), 60));
    let (hits, rebuilds) = (raa("raa.hits"), raa("raa.rebuilds"));
    assert_eq!(view_of(&node, market_a()), (mark_a, value_a));
    assert!(raa("raa.hits") > hits, "A's next read must be served from the cache");
    assert_eq!(raa("raa.rebuilds"), rebuilds, "buys, transfers and B's sets must not rebuild A's view");

    // ...and one more set for A makes A's next read a rebuild.
    assert!(node.receive_tx(owner_a.next_set(&node, H256::from_low_u64(130)), 70));
    let rebuilds = raa("raa.rebuilds");
    assert_eq!(view_of(&node, market_a()).1.low_u64(), 130);
    assert_eq!(raa("raa.rebuilds"), rebuilds + 1, "a set for A must rebuild A's view");
}

#[test]
fn buys_commit_independently_per_market() {
    let (node, mut owner_a, mut owner_b) = setup();
    let buyer_key = SecretKey::from_label(3);

    node.receive_tx(owner_a.next_set(&node, H256::from_low_u64(110)), 10);
    node.receive_tx(owner_b.next_set(&node, H256::from_low_u64(210)), 20);

    // One buyer trades on both markets with correct per-market views.
    let mut buyer_a = Buyer::new(buyer_key.clone(), market_a(), ClientKind::Sereth, 1);
    let (mark_a, value_a) = view_of(&node, market_a());
    node.receive_tx(buyer_a.next_buy_at(mark_a, value_a), 30);

    let mut buyer_b = Buyer::new(buyer_key, market_b(), ClientKind::Sereth, 1);
    // The buyer's nonce continues across markets: same address.
    buyer_b_set_nonce(&mut buyer_b, 1);
    let (mark_b, value_b) = view_of(&node, market_b());
    node.receive_tx(buyer_b.next_buy_at(mark_b, value_b), 40);

    node.mine(15_000).expect("sealed");

    let buys_ok: Vec<Address> = node.with_inner(|inner| {
        inner.chain.logs_with_topic(&buy_ok_topic()).into_iter().map(|(_, log)| log.address).collect()
    });
    assert!(buys_ok.contains(&market_a()), "market A's buy landed");
    assert!(buys_ok.contains(&market_b()), "market B's buy landed");
}

/// Buyer nonce alignment helper: `Buyer` tracks its own nonce from 0; when
/// one key trades on several markets the later buyer must start where the
/// earlier one stopped.
fn buyer_b_set_nonce(buyer: &mut Buyer, nonce: u64) {
    buyer.set_nonce(nonce);
}
