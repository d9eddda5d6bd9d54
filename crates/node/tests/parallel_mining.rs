//! Node-level integration of the parallel block executor: a miner running
//! `ExecMode::Parallel` seals byte-identical blocks to a sequential miner
//! over the same pool, the sealed blocks replay-validate on unmodified
//! followers, and the executor's counters surface through the handle.

use bytes::Bytes;
use sereth_chain::parallel::ExecMode;
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{
    buy_selector, default_contract_address, sereth_code, sereth_genesis_slots, set_selector, ContractForm,
};
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{BlockReceipt, NodeConfig, NodeHandle};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

fn genesis(keys: &[SecretKey], owner: &SecretKey) -> sereth_chain::genesis::Genesis {
    let mut builder = sereth_chain::genesis::GenesisBuilder::new()
        .fund(owner.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            default_contract_address(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
        );
    for key in keys {
        builder = builder.fund(key.address(), U256::from(1_000_000_000u64));
    }
    builder.build()
}

fn miner_node(keys: &[SecretKey], owner: &SecretKey, exec_mode: ExecMode) -> NodeHandle {
    node_with_modes(keys, owner, exec_mode, ExecMode::Sequential)
}

fn node_with_modes(
    keys: &[SecretKey],
    owner: &SecretKey,
    exec_mode: ExecMode,
    validation_mode: ExecMode,
) -> NodeHandle {
    NodeHandle::new(
        genesis(keys, owner),
        NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
            .coinbase(Address::from_low_u64(0xc01))
            .exec_mode(exec_mode)
            .validation_mode(validation_mode)
            .build(),
    )
}

fn market_tx(
    key: &SecretKey,
    nonce: u64,
    selector: [u8; 4],
    flag: Flag,
    prev: H256,
    value: u64,
) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: 1,
            gas_limit: 200_000,
            to: Some(default_contract_address()),
            value: U256::ZERO,
            input: Fpv::new(flag, prev, H256::from_low_u64(value)).to_calldata(selector),
        },
        key,
    )
}

fn transfer(key: &SecretKey, nonce: u64, to: u64, value: u64) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: 1,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64(0xa000 + to)),
            value: U256::from(value),
            input: Bytes::new(),
        },
        key,
    )
}

/// A mixed pool: one market's set chain plus contending buys (everything
/// touches the contract's mark/value slots) and disjoint transfers.
fn workload(keys: &[SecretKey], owner: &SecretKey) -> Vec<Transaction> {
    let m0 = genesis_mark();
    let m1 = compute_mark(&m0, &H256::from_low_u64(60));
    let mut txs = vec![
        market_tx(owner, 0, set_selector(), Flag::Head, m0, 60),
        market_tx(owner, 1, set_selector(), Flag::Success, m1, 70),
    ];
    for (i, key) in keys.iter().enumerate() {
        txs.push(market_tx(key, 0, buy_selector(), Flag::Success, m0, 50));
        txs.push(transfer(key, 1, i as u64, 25));
    }
    txs
}

#[test]
fn parallel_miner_seals_the_sequential_block_and_followers_validate_it() {
    let owner = SecretKey::from_label(1);
    let keys: Vec<SecretKey> = (10..18).map(SecretKey::from_label).collect();

    let sequential = miner_node(&keys, &owner, ExecMode::Sequential);
    let parallel = miner_node(&keys, &owner, ExecMode::Parallel { threads: 4 });
    let follower = miner_node(&keys, &owner, ExecMode::Sequential);

    for (i, tx) in workload(&keys, &owner).into_iter().enumerate() {
        assert!(sequential.receive_tx(tx.clone(), 100 + i as u64));
        assert!(parallel.receive_tx(tx, 100 + i as u64));
    }

    let seq_block = sequential.mine(15_000).expect("sequential miner seals");
    let par_block = parallel.mine(15_000).expect("parallel miner seals");
    assert_eq!(par_block.hash(), seq_block.hash(), "parallel mining must be byte-equivalent");
    assert!(!par_block.transactions.is_empty());

    // An unmodified node replay-validates the parallel-mined block.
    assert_eq!(follower.receive_block(par_block), BlockReceipt::Imported);
    assert_eq!(follower.head_number(), 1);

    // The executor's counters are observable through the handle; the
    // contending market traffic exercised the serial paths, the disjoint
    // transfers the fast path.
    let stats = parallel.exec_stats();
    assert!(stats.waves >= 1, "at least one speculation wave: {stats:?}");
    assert!(stats.speculated > 0, "speculation ran: {stats:?}");
    assert!(stats.fast_commits > 0, "disjoint traffic committed fast: {stats:?}");
    assert!(stats.fallbacks + stats.sequential_txs > 0, "market contention serialized somewhere: {stats:?}");
    assert_eq!(sequential.exec_stats().waves, 0, "sequential mode never waves");
}

#[test]
fn parallel_validating_follower_accepts_blocks_and_reports_replay_stats() {
    let owner = SecretKey::from_label(1);
    let keys: Vec<SecretKey> = (10..18).map(SecretKey::from_label).collect();

    let miner = miner_node(&keys, &owner, ExecMode::Sequential);
    // Two followers over the same feed: one replays sequentially, one on
    // the wave executor. Their import verdicts and heads must agree.
    let sequential_follower = node_with_modes(&keys, &owner, ExecMode::Sequential, ExecMode::Sequential);
    let parallel_follower =
        node_with_modes(&keys, &owner, ExecMode::Sequential, ExecMode::Parallel { threads: 4 });

    for (i, tx) in workload(&keys, &owner).into_iter().enumerate() {
        assert!(miner.receive_tx(tx, 100 + i as u64));
    }
    let block = miner.mine(15_000).expect("miner seals");
    assert!(!block.transactions.is_empty());

    assert_eq!(sequential_follower.receive_block(block.clone()), BlockReceipt::Imported);
    assert_eq!(parallel_follower.receive_block(block.clone()), BlockReceipt::Imported);
    assert_eq!(parallel_follower.head_number(), 1);
    assert_eq!(
        parallel_follower.with_inner(|inner| inner.chain.head_state().state_root()),
        sequential_follower.with_inner(|inner| inner.chain.head_state().state_root()),
        "both replay modes reconstruct the same post-state"
    );

    // The replay counters surface per node: parallel follower waved,
    // sequential follower replayed tx-by-tx, the miner's own import used
    // its (sequential) validation mode.
    let par_stats = parallel_follower.validation_stats();
    assert!(par_stats.waves >= 1, "parallel replay ran: {par_stats:?}");
    assert!(par_stats.speculated > 0, "replay speculation ran: {par_stats:?}");
    let seq_stats = sequential_follower.validation_stats();
    assert_eq!(seq_stats.waves, 0, "sequential replay never waves");
    assert_eq!(seq_stats.sequential_txs, block.transactions.len() as u64);

    // A tampered variant is rejected by both, identically.
    let mut evil = block.clone();
    evil.transactions[0] = evil.transactions[0].with_tampered_input(Bytes::from_static(b"oops"));
    evil.header.tx_root = sereth_types::block::Block::compute_tx_root(&evil.transactions);
    assert_eq!(sequential_follower.receive_block(evil.clone()), BlockReceipt::Rejected);
    assert_eq!(parallel_follower.receive_block(evil), BlockReceipt::Rejected);
}

#[test]
fn parallel_miner_stays_equivalent_across_consecutive_blocks() {
    let owner = SecretKey::from_label(1);
    let keys: Vec<SecretKey> = (10..14).map(SecretKey::from_label).collect();
    let sequential = miner_node(&keys, &owner, ExecMode::Sequential);
    let parallel = miner_node(&keys, &owner, ExecMode::Parallel { threads: 2 });

    let mut now = 100;
    for round in 0..3u64 {
        // Fresh transfers each round (values vary so state keeps moving).
        for (i, key) in keys.iter().enumerate() {
            let tx = transfer(key, round, i as u64, 10 + round);
            assert!(sequential.receive_tx(tx.clone(), now));
            assert!(parallel.receive_tx(tx, now));
            now += 1;
        }
        let timestamp = 15_000 * (round + 1);
        let seq_block = sequential.mine(timestamp).expect("seals");
        let par_block = parallel.mine(timestamp).expect("seals");
        assert_eq!(par_block.hash(), seq_block.hash(), "round {round}");
    }
    assert_eq!(parallel.head_number(), 3);
}
