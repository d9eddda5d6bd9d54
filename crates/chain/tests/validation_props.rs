//! Replay-validation verdicts over generated blocks.
//!
//! The contract under test: an honestly built block validates with
//! exactly the builder's receipts and post-state root, and every tamper
//! draws the `ValidationError` it targets — including the
//! `BadTransaction` index and inner `TxApplyError` of a rewritten
//! transaction. A miner stores the blocks it builds without replaying
//! them, so committing a built block with `ChainStore::import_built` must
//! leave a store exactly where importing it into a twin store leaves
//! that one, on both backends and after a durable reopen. Workloads include nonce chains, overlapping transfers,
//! shared-slot contract calls, cross-contract sub-calls, reverting
//! executions, and out-of-gas calls; tampers cover calldata rewrites,
//! body reorders (resealed and not), gas inflation, shrunken gas limits,
//! and wrong roots, parents, numbers and timestamps.

use std::path::PathBuf;

use bytes::Bytes;
use proptest::prelude::*;
use sereth_chain::builder::{build_block, BlockLimits, BuiltBlock};
use sereth_chain::executor::TxApplyError;
use sereth_chain::state::{Account, StateDb};
use sereth_chain::store::{ChainStore, StoreConfig};
use sereth_chain::validation::{validate_block, ValidationError};
use sereth_chain::{DurableOptions, Genesis, GenesisBuilder};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_store::scratch_dir;
use sereth_types::block::{Block, BlockHeader};
use sereth_types::receipt::TxStatus;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;
use sereth_vm::asm::assemble;
use sereth_vm::exec::ContractCode;

mod common;
use common::cases;

const SENDERS: u64 = 6;
const MINER: u64 = 0xfee;

/// Increments its own slot 0 — every call reads and writes the same slot.
const COUNTER: u64 = 0xD0;
/// Calls the counter, then writes its own slot 1.
const CROSS: u64 = 0xD1;
/// Writes a slot, emits a log, then reverts.
const REVERTER: u64 = 0xD2;

fn contract_codes() -> Vec<(u64, Bytes)> {
    let counter = assemble("PUSH1 0x00\nSLOAD\nPUSH1 0x01\nADD\nPUSH1 0x00\nSSTORE\nSTOP").unwrap();
    let cross = assemble(
        "PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0xD0\nPUSH3 0x00c350\nCALL\nPOP\nPUSH1 0x07\nPUSH1 0x01\nSSTORE\nSTOP",
    )
    .unwrap();
    let reverter = assemble(
        "PUSH1 0x01\nPUSH1 0x00\nSSTORE\nPUSH1 0xaa\nPUSH1 0x00\nPUSH1 0x00\nLOG1\nPUSH1 0x00\nPUSH1 0x00\nREVERT",
    )
    .unwrap();
    vec![(COUNTER, Bytes::from(counter)), (CROSS, Bytes::from(cross)), (REVERTER, Bytes::from(reverter))]
}

/// One generated candidate, nonce filled in during assembly.
#[derive(Debug, Clone)]
enum TxKind {
    /// Transfer to one of a few shared recipients (balance conflicts).
    Transfer { sender: u8, to: u8, value: u64 },
    /// Call one of the contracts.
    Call { sender: u8, contract: u64 },
    /// Call one of the contracts with too little gas for its first store:
    /// the call runs out of gas and still lands in the block.
    Starved { sender: u8, contract: u64 },
}

fn kind_strategy() -> impl Strategy<Value = TxKind> {
    prop_oneof![
        (0..SENDERS as u8, 0u8..5, 1u64..500).prop_map(|(s, t, v)| TxKind::Transfer {
            sender: s,
            to: t,
            value: v
        }),
        (0..SENDERS as u8, contract_strategy()).prop_map(|(s, c)| TxKind::Call { sender: s, contract: c }),
        (0..SENDERS as u8, contract_strategy()).prop_map(|(s, c)| TxKind::Starved { sender: s, contract: c }),
    ]
}

fn contract_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(COUNTER), Just(CROSS), Just(REVERTER)]
}

fn sender_key(index: u8) -> SecretKey {
    SecretKey::from_label(2_000 + index as u64)
}

fn chain_genesis() -> Genesis {
    let mut builder = GenesisBuilder::new();
    for s in 0..SENDERS {
        builder = builder.fund(sender_key(s as u8).address(), U256::from(10_000_000u64));
    }
    for (address, code) in contract_codes() {
        builder = builder.contract(Address::from_low_u64(address), ContractCode::Bytecode(code));
    }
    builder.build()
}

fn genesis() -> (BlockHeader, StateDb) {
    let genesis = chain_genesis();
    (genesis.block.header, genesis.state)
}

/// Turns kinds into signed transactions with per-sender nonce tracking.
fn assemble_candidates(kinds: &[TxKind]) -> Vec<Transaction> {
    let mut nonces = [0u64; SENDERS as usize];
    kinds
        .iter()
        .map(|kind| match kind {
            TxKind::Transfer { sender, to, value } => {
                let nonce = nonces[*sender as usize];
                nonces[*sender as usize] += 1;
                Transaction::sign(
                    TxPayload {
                        nonce,
                        gas_price: 1,
                        gas_limit: 21_000,
                        to: Some(Address::from_low_u64(0x9_000 + *to as u64)),
                        value: U256::from(*value),
                        input: Bytes::new(),
                    },
                    &sender_key(*sender),
                )
            }
            TxKind::Call { sender, contract } | TxKind::Starved { sender, contract } => {
                let nonce = nonces[*sender as usize];
                nonces[*sender as usize] += 1;
                // 4 000 gas past the intrinsic 21 000 cannot pay a 20 000
                // first store.
                let gas_limit = if matches!(kind, TxKind::Starved { .. }) { 25_000 } else { 100_000 };
                Transaction::sign(
                    TxPayload {
                        nonce,
                        gas_price: 1,
                        gas_limit,
                        to: Some(Address::from_low_u64(*contract)),
                        value: U256::ZERO,
                        input: Bytes::new(),
                    },
                    &sender_key(*sender),
                )
            }
        })
        .collect()
}

fn honest_block(kinds: &[TxKind]) -> (BlockHeader, StateDb, BuiltBlock) {
    let (parent, state) = genesis();
    let candidates = assemble_candidates(kinds);
    let built = build_block(
        &parent,
        &state,
        candidates,
        Address::from_low_u64(MINER),
        15_000,
        &BlockLimits::default(),
    );
    (parent, state, built)
}

/// Validates the untampered `built` block and asserts replay reproduced
/// the builder's receipts and post-state root.
fn assert_validates_as_built(
    parent: &BlockHeader,
    state: &StateDb,
    built: &BuiltBlock,
) -> Result<(), TestCaseError> {
    let validated = validate_block(parent, state, &built.block);
    prop_assert!(validated.is_ok(), "honest block rejected: {:?}", validated.err());
    let validated = validated.unwrap();
    prop_assert_eq!(&validated.receipts, &built.receipts, "replay receipts diverged from the builder's");
    prop_assert_eq!(validated.post_state.state_root(), built.post_state.state_root());
    prop_assert_eq!(validated.post_state.state_root(), built.block.header.state_root);
    Ok(())
}

/// One way to corrupt a block (or its placement under the parent).
#[derive(Debug, Clone)]
enum Tamper {
    /// RAA-style calldata rewrite of one transaction, tx root resealed.
    RewriteInput { index: usize },
    /// Swap two transactions without resealing the tx root.
    SwapStale,
    /// Swap two transactions and reseal the tx root.
    SwapResealed,
    /// Inflate the declared gas.
    InflateGas { delta: u64 },
    /// Shrink the header gas limit below the replayed usage.
    ShrinkGasLimit,
    /// Lie about the post-state.
    WrongStateRoot,
    /// Lie about the receipts.
    WrongReceiptsRoot,
    /// Point at a different parent.
    WrongParent,
    /// Skip a height.
    WrongNumber,
    /// Violate timestamp monotonicity.
    StaleTimestamp,
}

fn tamper_strategy() -> impl Strategy<Value = Tamper> {
    prop_oneof![
        (0usize..24).prop_map(|index| Tamper::RewriteInput { index }),
        Just(Tamper::SwapStale),
        Just(Tamper::SwapResealed),
        (1u64..10_000).prop_map(|delta| Tamper::InflateGas { delta }),
        Just(Tamper::ShrinkGasLimit),
        Just(Tamper::WrongStateRoot),
        Just(Tamper::WrongReceiptsRoot),
        Just(Tamper::WrongParent),
        Just(Tamper::WrongNumber),
        Just(Tamper::StaleTimestamp),
    ]
}

/// Applies the tamper; `false` when it is a no-op on this block (e.g. a
/// swap on a single-transaction body).
fn apply_tamper(block: &mut Block, tamper: &Tamper) -> bool {
    match tamper {
        Tamper::RewriteInput { index } => {
            if block.transactions.is_empty() {
                return false;
            }
            let index = index % block.transactions.len();
            block.transactions[index] =
                block.transactions[index].with_tampered_input(Bytes::from_static(b"augmented"));
            block.header.tx_root = Block::compute_tx_root(&block.transactions);
            true
        }
        Tamper::SwapStale | Tamper::SwapResealed => {
            if block.transactions.len() < 2 {
                return false;
            }
            let last = block.transactions.len() - 1;
            block.transactions.swap(0, last);
            if matches!(tamper, Tamper::SwapResealed) {
                block.header.tx_root = Block::compute_tx_root(&block.transactions);
            }
            true
        }
        Tamper::InflateGas { delta } => {
            block.header.gas_used += delta;
            true
        }
        Tamper::ShrinkGasLimit => {
            if block.header.gas_used == 0 {
                return false;
            }
            block.header.gas_limit = block.header.gas_used - 1;
            true
        }
        Tamper::WrongStateRoot => {
            block.header.state_root = H256::keccak(b"wrong state");
            true
        }
        Tamper::WrongReceiptsRoot => {
            block.header.receipts_root = H256::keccak(b"wrong receipts");
            true
        }
        Tamper::WrongParent => {
            block.header.parent_hash = H256::keccak(b"nowhere");
            true
        }
        Tamper::WrongNumber => {
            block.header.number += 3;
            true
        }
        Tamper::StaleTimestamp => {
            block.header.timestamp_ms = 0;
            true
        }
    }
}

/// Whether `error` is what `tamper` targets on a block whose honest
/// version is `honest`.
fn drew_its_target(tamper: &Tamper, honest: &Block, error: &ValidationError) -> bool {
    match (tamper, error) {
        (Tamper::RewriteInput { index }, ValidationError::BadTransaction { index: at, error }) => {
            *at == index % honest.transactions.len() && *error == TxApplyError::BadSignature
        }
        (Tamper::SwapStale, ValidationError::TxRootMismatch) => true,
        // A reorder can break a nonce chain, and reordered calls can change
        // which stores are first writes, and so the total gas; otherwise
        // the receipts (which carry their transaction hash) move.
        (
            Tamper::SwapResealed,
            ValidationError::BadTransaction { .. }
            | ValidationError::GasUsedMismatch { .. }
            | ValidationError::ReceiptsRootMismatch,
        ) => true,
        (Tamper::InflateGas { delta }, ValidationError::GasUsedMismatch { declared, replayed }) => {
            *replayed == honest.header.gas_used && *declared == honest.header.gas_used + delta
        }
        (Tamper::ShrinkGasLimit, ValidationError::GasLimitExceeded)
        | (Tamper::WrongStateRoot, ValidationError::StateRootMismatch)
        | (Tamper::WrongReceiptsRoot, ValidationError::ReceiptsRootMismatch)
        | (Tamper::WrongParent, ValidationError::WrongParent)
        | (Tamper::WrongNumber, ValidationError::WrongNumber)
        | (Tamper::StaleTimestamp, ValidationError::NonMonotonicTimestamp) => true,
        _ => false,
    }
}

/// A store directory, removed when the case ends, pass or fail.
struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_store(dir: Option<&Dir>) -> ChainStore {
    let config = match dir {
        Some(dir) => StoreConfig::durable(chain_genesis(), &dir.0)
            .durable_options(DurableOptions { snapshot_every: 2, ..DurableOptions::default() }),
        None => StoreConfig::in_memory(chain_genesis()),
    };
    ChainStore::open(config).expect("store opens")
}

fn head_accounts(store: &ChainStore) -> Vec<(Address, Account)> {
    store.head_state().iter().map(|(address, account)| (*address, account.clone())).collect()
}

/// The head, its receipts, every account of its post-state and the root
/// are the same in both stores, and the root is the header's.
fn assert_twins_agree(built: &ChainStore, replayed: &ChainStore) -> Result<(), TestCaseError> {
    prop_assert_eq!(built.head_hash(), replayed.head_hash());
    let receipts =
        |store: &ChainStore| store.get(&store.head_hash()).expect("head is stored").receipts.clone();
    prop_assert_eq!(receipts(built), receipts(replayed));
    prop_assert_eq!(head_accounts(built), head_accounts(replayed));
    prop_assert_eq!(built.head_state().state_root(), replayed.head_state().state_root());
    prop_assert_eq!(built.head_state().state_root(), built.head_block().header.state_root);
    Ok(())
}

/// Builds one block per entry of `blocks` on the first store's head,
/// commits it there with `import_built` and imports it into the second,
/// and holds the two stores equal after each block and, durable, after
/// both reopen.
fn commit_equals_import(blocks: &[Vec<TxKind>], durable: bool) -> Result<(), TestCaseError> {
    let dirs = durable.then(|| (Dir(scratch_dir("commit-built")), Dir(scratch_dir("commit-replayed"))));
    let mut built_store = open_store(dirs.as_ref().map(|(dir, _)| dir));
    let mut replayed_store = open_store(dirs.as_ref().map(|(_, dir)| dir));
    let kinds: Vec<TxKind> = blocks.iter().flatten().cloned().collect();
    let mut candidates = assemble_candidates(&kinds).into_iter();
    for (index, block_kinds) in blocks.iter().enumerate() {
        let txs: Vec<Transaction> = candidates.by_ref().take(block_kinds.len()).collect();
        let parent = built_store.head_block().header.clone();
        let built = build_block(
            &parent,
            built_store.head_state(),
            txs,
            Address::from_low_u64(MINER),
            15_000 * (index as u64 + 1),
            &BlockLimits::default(),
        );
        prop_assert_eq!(built.skipped, 0, "every candidate must be included");
        let block = built.block.clone();
        let committed = built_store.import_built(built);
        let imported = replayed_store.import(block);
        prop_assert!(committed.is_ok(), "commit failed: {:?}", committed);
        prop_assert_eq!(committed, imported);
        assert_twins_agree(&built_store, &replayed_store)?;
    }
    if let Some((built_dir, replayed_dir)) = &dirs {
        let (head, accounts) = (built_store.head_hash(), head_accounts(&built_store));
        drop((built_store, replayed_store));
        let (built_store, replayed_store) = (open_store(Some(built_dir)), open_store(Some(replayed_dir)));
        prop_assert_eq!(built_store.head_hash(), head, "the reopened head is the committed one");
        prop_assert_eq!(head_accounts(&built_store), accounts);
        assert_twins_agree(&built_store, &replayed_store)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    /// A block committed as built equals the same block imported by
    /// replay: the same outcome, head, receipts, accounts and root.
    #[test]
    fn committing_a_built_block_equals_importing_it(
        blocks in prop::collection::vec(prop::collection::vec(kind_strategy(), 0..12), 1..4),
    ) {
        commit_equals_import(&blocks, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(32)))]

    /// The same on the durable backend, where the commit also journals
    /// the block's write-set and a snapshot falls every second block.
    #[test]
    fn committing_a_built_block_equals_importing_it_durably(
        blocks in prop::collection::vec(prop::collection::vec(kind_strategy(), 0..12), 1..4),
    ) {
        commit_equals_import(&blocks, true)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    /// The headline property: honestly built mixed workloads validate
    /// with exactly the builder's receipts and post-state root.
    #[test]
    fn honest_mixed_blocks_validate_with_the_builders_artifacts(
        kinds in prop::collection::vec(kind_strategy(), 1..24),
    ) {
        let (parent, state, built) = honest_block(&kinds);
        prop_assert_eq!(built.block.transactions.len(), kinds.len(), "every candidate must be included");
        for (kind, receipt) in kinds.iter().zip(&built.receipts) {
            if matches!(kind, TxKind::Starved { .. }) {
                prop_assert_eq!(receipt.status, TxStatus::OutOfGas);
            }
        }
        assert_validates_as_built(&parent, &state, &built)?;
    }

    /// Each tamper draws the `ValidationError` it targets.
    #[test]
    fn tampered_blocks_draw_the_error_they_target(
        kinds in prop::collection::vec(kind_strategy(), 1..20),
        tamper in tamper_strategy(),
    ) {
        let (parent, state, built) = honest_block(&kinds);
        let mut block = built.block.clone();
        if !apply_tamper(&mut block, &tamper) {
            // Tamper not applicable to this block shape: the block is
            // still honest and must validate.
            return assert_validates_as_built(&parent, &state, &built);
        }
        let verdict = validate_block(&parent, &state, &block);
        prop_assert!(verdict.is_err(), "tamper {:?} must be rejected", tamper);
        let error = verdict.err().unwrap();
        prop_assert!(
            drew_its_target(&tamper, &built.block, &error),
            "tamper {:?} drew {:?}",
            tamper,
            error
        );
    }
}
