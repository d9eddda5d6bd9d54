//! Block building: executing an ordered candidate list against the parent
//! state and sealing the result.
//!
//! Ordering the candidates is *miner policy* and lives in `sereth-node`
//! (standard fee-priority vs. the paper's HMS-aware *semantic mining*,
//! §V-C); this module faithfully executes whatever order it is given — the
//! blockchain is a "blind transactional data structure" (§I) and the
//! builder is the blind part.

use sereth_crypto::address::Address;
use sereth_telemetry::{Phase, Telemetry};
use sereth_types::block::{Block, BlockHeader};
use sereth_types::receipt::Receipt;
use sereth_types::transaction::Transaction;

use crate::executor::{apply_transaction, BlockEnv};
use crate::state::StateDb;

/// Limits for one block.
#[derive(Debug, Clone)]
pub struct BlockLimits {
    /// Gas capacity.
    pub gas_limit: u64,
    /// Optional hard cap on transaction count (the experiments use this to
    /// model small blocks and create TxPool backlog, §V-A).
    pub max_txs: Option<usize>,
}

impl Default for BlockLimits {
    fn default() -> Self {
        Self { gas_limit: 8_000_000, max_txs: None }
    }
}

/// A sealed block plus everything a node wants to retain about it.
#[derive(Debug, Clone)]
pub struct BuiltBlock {
    /// The sealed block.
    pub block: Block,
    /// Receipts, in block order.
    pub receipts: Vec<Receipt>,
    /// State after applying the block.
    pub post_state: StateDb,
    /// Candidates that were skipped (protocol-invalid or over capacity).
    pub skipped: usize,
}

/// Executes `candidates` in order on top of `parent`, skipping transactions
/// that are protocol-invalid (bad nonce/signature/funds) or would exceed
/// the block limits, and seals the result into a block mined by `miner` at
/// `timestamp_ms`.
pub fn build_block(
    parent: &BlockHeader,
    parent_state: &StateDb,
    candidates: Vec<Transaction>,
    miner: Address,
    timestamp_ms: u64,
    limits: &BlockLimits,
) -> BuiltBlock {
    build_block_traced(parent, parent_state, &candidates, miner, timestamp_ms, limits, Telemetry::off())
}

/// [`build_block`] recording into `telemetry`: the root computation and
/// header assembly are timed as [`Phase::Seal`]. Pass
/// [`Telemetry::off()`] (what [`build_block`] does) to build untimed.
///
/// Candidates are borrowed — callers keep their list (miners reuse it
/// for pool bookkeeping); included transactions are cloned into the
/// block, which is cheap (`Bytes` calldata is refcounted).
pub fn build_block_traced(
    parent: &BlockHeader,
    parent_state: &StateDb,
    candidates: &[Transaction],
    miner: Address,
    timestamp_ms: u64,
    limits: &BlockLimits,
    telemetry: &Telemetry,
) -> BuiltBlock {
    let mut state = parent_state.clone();
    state.clear_journal();
    let env = BlockEnv { number: parent.number + 1, timestamp_ms, gas_limit: limits.gas_limit, miner };

    let mut included: Vec<Transaction> = Vec::new();
    let mut receipts: Vec<Receipt> = Vec::new();
    let (mut gas_used, mut skipped) = (0u64, 0usize);
    for tx in candidates {
        // Admission against the block limits: transaction cap, then gas
        // capacity. A candidate that fails either is skipped.
        let full = limits.max_txs.is_some_and(|max| included.len() >= max);
        if full || gas_used + tx.gas_limit() > limits.gas_limit {
            skipped += 1;
            continue;
        }
        match apply_transaction(&mut state, &env, tx, included.len() as u32) {
            Ok(receipt) => {
                gas_used += receipt.gas_used;
                receipts.push(receipt);
                included.push(tx.clone());
            }
            Err(_) => skipped += 1,
        }
    }
    telemetry.time(Phase::Seal, || {
        state.clear_journal();
        let header = BlockHeader {
            parent_hash: parent.hash(),
            number: parent.number + 1,
            timestamp_ms,
            miner,
            state_root: state.state_root(),
            tx_root: Block::compute_tx_root(&included),
            receipts_root: Block::compute_receipts_root(&receipts),
            gas_used,
            gas_limit: limits.gas_limit,
        };
        BuiltBlock { block: Block { header, transactions: included }, receipts, post_state: state, skipped }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genesis::GenesisBuilder;
    use bytes::Bytes;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::transaction::TxPayload;
    use sereth_types::u256::U256;

    fn transfer(key: &SecretKey, nonce: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 21_000,
                to: Some(Address::from_low_u64(7)),
                value: U256::from(1u64),
                input: Bytes::new(),
            },
            key,
        )
    }

    fn genesis_with(keys: &[&SecretKey]) -> (BlockHeader, StateDb) {
        let mut builder = GenesisBuilder::new();
        for key in keys {
            builder = builder.fund(key.address(), U256::from(10_000_000u64));
        }
        let genesis = builder.build();
        (genesis.block.header, genesis.state)
    }

    #[test]
    fn builds_block_with_valid_transactions() {
        let key = SecretKey::from_label(1);
        let (parent, state) = genesis_with(&[&key]);
        let built = build_block(
            &parent,
            &state,
            vec![transfer(&key, 0), transfer(&key, 1)],
            Address::from_low_u64(0xaa),
            15_000,
            &BlockLimits::default(),
        );
        assert_eq!(built.block.transactions.len(), 2);
        assert_eq!(built.skipped, 0);
        assert_eq!(built.block.header.number, 1);
        assert!(built.block.body_matches_header());
        assert_eq!(built.post_state.nonce_of(&key.address()), 2);
    }

    #[test]
    fn skips_invalid_nonce_but_keeps_going() {
        let key = SecretKey::from_label(1);
        let (parent, state) = genesis_with(&[&key]);
        // nonce 5 is invalid now; nonce 0 still applies.
        let built = build_block(
            &parent,
            &state,
            vec![transfer(&key, 5), transfer(&key, 0)],
            Address::from_low_u64(1),
            15_000,
            &BlockLimits::default(),
        );
        assert_eq!(built.block.transactions.len(), 1);
        assert_eq!(built.skipped, 1);
    }

    #[test]
    fn respects_max_txs() {
        let key = SecretKey::from_label(1);
        let (parent, state) = genesis_with(&[&key]);
        let candidates: Vec<Transaction> = (0..5).map(|n| transfer(&key, n)).collect();
        let built = build_block(
            &parent,
            &state,
            candidates,
            Address::from_low_u64(1),
            15_000,
            &BlockLimits { gas_limit: 8_000_000, max_txs: Some(3) },
        );
        assert_eq!(built.block.transactions.len(), 3);
        assert_eq!(built.skipped, 2);
    }

    #[test]
    fn respects_gas_limit() {
        let key = SecretKey::from_label(1);
        let (parent, state) = genesis_with(&[&key]);
        let candidates: Vec<Transaction> = (0..4).map(|n| transfer(&key, n)).collect();
        let built = build_block(
            &parent,
            &state,
            candidates,
            Address::from_low_u64(1),
            15_000,
            &BlockLimits { gas_limit: 50_000, max_txs: None }, // fits two 21k txs
        );
        assert_eq!(built.block.transactions.len(), 2);
        assert_eq!(built.skipped, 2);
        assert!(built.block.header.gas_used <= 50_000);
    }

    #[test]
    fn empty_candidate_list_builds_empty_block() {
        let (parent, state) = genesis_with(&[]);
        let built =
            build_block(&parent, &state, vec![], Address::from_low_u64(1), 15_000, &BlockLimits::default());
        assert!(built.block.transactions.is_empty());
        assert_eq!(built.block.header.state_root, state.state_root());
    }
}
