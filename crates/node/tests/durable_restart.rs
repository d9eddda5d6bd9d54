//! Durable nodes across a process death and under persistence faults.
//!
//! The restart tests kill a durable miner mid-run, reopen it on the same
//! directory, and require it to come back byte-equal — then keep mining,
//! and serve as the sync source for a fresh in-memory peer.
//!
//! The workload is the paper's market: the owner drives a chained `set`
//! sequence through the native Sereth contract, one set per block, so
//! recovery exercises the `CodeRecord::Native` path (contract code is
//! journaled by name and re-resolved against genesis on reopen), not
//! just balances.
//!
//! The fault tests remove a durable follower's directory under it, so
//! every snapshot write fails after the block entered the in-memory
//! chain: each such import must count one `node.store_failed`, including
//! the orphans a parent's arrival releases, and a block that lost fork
//! choice must leave its transactions pooled.

use std::fs;
use std::path::PathBuf;

use sereth_chain::genesis::{Genesis, GenesisBuilder};
use sereth_chain::{DurableOptions, StateBackendConfig};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{
    default_contract_address, sereth_code, sereth_genesis_slots, set_selector, ContractForm,
};
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{BlockReceipt, NodeConfig, NodeHandle};
use sereth_store::scratch_dir;
use sereth_types::block::Block;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

/// Heads and roots observed at each stage of one restart run.
#[derive(Debug, Clone)]
struct Stages {
    /// Head (number, hash) when the miner was killed.
    pre_crash_head: (u64, H256),
    /// State root at the kill point.
    pre_crash_root: H256,
    /// Head right after reopening the same directory.
    recovered_head: (u64, H256),
    /// State root right after recovery.
    recovered_root: H256,
    /// Head after the post-restart mining phase.
    final_head: (u64, H256),
    /// State root after the post-restart mining phase.
    final_root: H256,
    /// Head of the in-memory peer synced from the recovered miner.
    peer_head: (u64, H256),
    /// State root of the synced peer.
    peer_root: H256,
}

impl Stages {
    /// Recovery reproduced the pre-crash chain byte-for-byte.
    fn recovered_byte_equal(&self) -> bool {
        self.recovered_head == self.pre_crash_head && self.recovered_root == self.pre_crash_root
    }

    /// The in-memory peer converged on the recovered miner's final chain.
    fn peer_converged(&self) -> bool {
        self.peer_head == self.final_head && self.peer_root == self.final_root
    }
}

fn market_genesis(owner: &SecretKey, contract: Address) -> Genesis {
    GenesisBuilder::new()
        .fund(owner.address(), U256::from(u64::MAX / 2))
        .contract_with_storage(
            contract,
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
        )
        .build()
}

fn miner_config(contract: Address, dir: &PathBuf) -> NodeConfig {
    NodeConfig::miner(contract, MinerPolicy::Standard).durable_store(dir).build()
}

fn set_tx(owner: &SecretKey, contract: Address, nonce: u64, prev: H256, value: H256) -> Transaction {
    let flag = if nonce == 0 { Flag::Head } else { Flag::Success };
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: 2,
            gas_limit: 100_000,
            to: Some(contract),
            value: U256::ZERO,
            input: Fpv::new(flag, prev, value).to_calldata(set_selector()),
        },
        owner,
    )
}

/// Mines `count` blocks, one chained `set` per block, starting at nonce
/// `*nonce` and mark `*mark`; both advance in place so the caller can
/// resume the chain after a restart.
fn mine_sets(
    node: &NodeHandle,
    owner: &SecretKey,
    contract: Address,
    count: u64,
    nonce: &mut u64,
    mark: &mut H256,
) {
    for _ in 0..count {
        let value = H256::from_low_u64(1_000 + *nonce);
        let now = (*nonce + 1) * 15_000;
        assert!(node.receive_tx(set_tx(owner, contract, *nonce, *mark, value), now), "set accepted");
        let mined = node.mine(now).expect("miner seals a block");
        assert_eq!(mined.transactions.len(), 1, "the set must commit");
        *mark = compute_mark(mark, &value);
        *nonce += 1;
    }
}

/// Canonical chain of `node` above genesis, ascending, read back through
/// the public block API — the blocks a syncing peer would request.
fn canonical_blocks(node: &NodeHandle, genesis_hash: H256) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut cursor = node.head_hash();
    while cursor != genesis_hash {
        let block = node.block_by_hash(&cursor).expect("canonical block readable");
        cursor = block.header.parent_hash;
        blocks.push(block);
    }
    blocks.reverse();
    blocks
}

/// Runs the kill → reopen → keep-mining → peer-resync sequence in a
/// scratch directory (removed before returning): `blocks_before_crash`
/// sets are mined before the process "dies", `blocks_after_restart`
/// after it reopens, continuing the same mark chain.
fn restart(blocks_before_crash: u64, blocks_after_restart: u64) -> Stages {
    let owner = SecretKey::from_label(1);
    let contract = default_contract_address();
    let genesis = market_genesis(&owner, contract);
    let genesis_hash = genesis.block.hash();
    let dir = scratch_dir("node-restart");

    let mut nonce = 0u64;
    let mut mark = genesis_mark();

    // Phase 1: mine, then "kill -9" (drop without any shutdown path).
    let node = NodeHandle::open(genesis.clone(), miner_config(contract, &dir)).expect("fresh dir opens");
    mine_sets(&node, &owner, contract, blocks_before_crash, &mut nonce, &mut mark);
    let pre_crash_head = node.head_id();
    let pre_crash_root = node.head_state_root();
    drop(node);

    // Phase 2: restart on the same directory; recovery must be
    // byte-equal and the node must keep mining the same mark chain.
    let node = NodeHandle::open(genesis.clone(), miner_config(contract, &dir)).expect("recovery succeeds");
    let recovered_head = node.head_id();
    let recovered_root = node.head_state_root();
    mine_sets(&node, &owner, contract, blocks_after_restart, &mut nonce, &mut mark);
    let final_head = node.head_id();
    let final_root = node.head_state_root();

    // Phase 3: a fresh in-memory peer syncs from the survivor over the
    // ordinary block-gossip entry point.
    let peer = NodeHandle::new(genesis, NodeConfig::geth(contract).no_miner().build());
    for block in canonical_blocks(&node, genesis_hash) {
        peer.receive_block(block);
    }
    let peer_head = peer.head_id();
    let peer_root = peer.head_state_root();

    drop(node);
    let _ = fs::remove_dir_all(&dir);
    Stages {
        pre_crash_head,
        pre_crash_root,
        recovered_head,
        recovered_root,
        final_head,
        final_root,
        peer_head,
        peer_root,
    }
}

#[test]
fn restarted_miner_recovers_byte_equal_and_extends() {
    let out = restart(4, 3);
    assert!(out.recovered_byte_equal(), "recovery diverged: {out:?}");
    assert_eq!(out.pre_crash_head.0, 4);
    assert_eq!(out.final_head.0, 7, "the recovered miner keeps mining");
    assert_ne!(out.final_root, out.pre_crash_root, "post-restart blocks change state");
    assert!(out.peer_converged(), "peer resync diverged: {out:?}");
}

#[test]
fn restart_with_no_new_blocks_is_a_pure_recovery() {
    let out = restart(2, 0);
    assert!(out.recovered_byte_equal());
    assert_eq!(out.final_head, out.recovered_head);
    assert!(out.peer_converged());
}

/// A durable follower that takes a snapshot after every block, into a
/// directory that is gone: each import lands in memory and then fails to
/// persist.
fn follower_that_cannot_persist(genesis: Genesis, contract: Address) -> NodeHandle {
    let dir = scratch_dir("node-store-fault");
    let options = DurableOptions { snapshot_every: 1, ..DurableOptions::default() };
    let follower = NodeHandle::open(
        genesis,
        NodeConfig::geth(contract).store(StateBackendConfig::Durable { dir: dir.clone(), options }).build(),
    )
    .expect("fresh dir opens");
    fs::remove_dir_all(&dir).expect("scratch dir removable");
    follower
}

#[test]
fn released_orphans_count_their_persistence_faults_too() {
    let owner = SecretKey::from_label(1);
    let contract = default_contract_address();
    let genesis = market_genesis(&owner, contract);
    let miner = NodeHandle::new(genesis.clone(), NodeConfig::miner(contract, MinerPolicy::Standard).build());
    let b1 = miner.mine(15_000).expect("miner seals block 1");
    let b2 = miner.mine(30_000).expect("miner seals block 2");
    let follower = follower_that_cannot_persist(genesis, contract);

    assert_eq!(follower.receive_block(b2), BlockReceipt::Orphaned);
    assert_eq!(follower.receive_block(b1), BlockReceipt::Imported);
    assert_eq!(follower.head_number(), 2, "the released orphan imported in memory");
    let counters = follower.telemetry_snapshot().counters;
    assert_eq!(
        counters.get("node.store_failed").copied(),
        Some(2),
        "block 1 and the orphan it released both failed to persist"
    );
}

#[test]
fn a_side_chain_block_that_fails_to_persist_keeps_its_transactions_pooled() {
    // The block is stored in memory but loses fork choice, so it commits
    // nothing: its persistence fault is counted, and the pool keeps the
    // transaction it carries.
    let owner = SecretKey::from_label(1);
    let contract = default_contract_address();
    let genesis = market_genesis(&owner, contract);
    let tx = set_tx(&owner, contract, 0, genesis_mark(), H256::from_low_u64(60));
    let miner = NodeHandle::new(genesis.clone(), NodeConfig::miner(contract, MinerPolicy::Standard).build());
    let twin = NodeHandle::new(
        genesis.clone(),
        NodeConfig::miner(contract, MinerPolicy::Standard).coinbase(Address::from_low_u64(0xd1f)).build(),
    );
    assert!(twin.receive_tx(tx.clone(), 10));
    let rival = twin.mine(15_000).expect("twin seals");
    assert!(rival.transactions.contains(&tx));
    let follower = follower_that_cannot_persist(genesis, contract);
    assert!(follower.receive_tx(tx.clone(), 10));

    let first = miner.mine(14_000).expect("miner seals block 1");
    assert_eq!(follower.receive_block(first.clone()), BlockReceipt::Imported);
    assert_eq!(follower.receive_block(rival), BlockReceipt::Imported);
    assert_eq!(follower.head_hash(), first.hash(), "the first block at height 1 keeps the head");
    assert_eq!(follower.telemetry_snapshot().counters.get("node.store_failed").copied(), Some(2));
    assert!(follower.pool_contains(&tx.hash()), "a side-chain block commits nothing");
}
