//! Verdict equivalence of parallel replay validation.
//!
//! The contract under test: for ANY block — honestly built or tampered —
//! and ANY thread count, `validate_block_with_mode(.., Parallel{threads})`
//! returns **byte-identical verdicts** to the sequential replay loop: the
//! same `Ok` artifacts (receipts, post-state root) on honest blocks and
//! the same `ValidationError` variant — including the `BadTransaction`
//! index and inner `TxApplyError` — on tampered ones. Workloads include
//! nonce chains, overlapping transfers, shared-slot contract calls,
//! cross-contract sub-calls, reverting executions, and 100 %-conflicting
//! write sets; tampers cover calldata rewrites, body reorders (resealed
//! and not), gas inflation, shrunken gas limits, and wrong roots.

use bytes::Bytes;
use proptest::prelude::*;
use sereth_chain::builder::{build_block, BlockLimits};
use sereth_chain::parallel::ExecMode;
use sereth_chain::state::StateDb;
use sereth_chain::validation::{validate_block_with_mode, ValidationError};
use sereth_chain::GenesisBuilder;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_types::block::{Block, BlockHeader};
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
}

fn kind_strategy() -> impl Strategy<Value = TxKind> {
    prop_oneof![
        (0..SENDERS as u8, 0u8..5, 1u64..500).prop_map(|(s, t, v)| TxKind::Transfer {
            sender: s,
            to: t,
            value: v
        }),
        (0..SENDERS as u8, prop_oneof![Just(COUNTER), Just(CROSS), Just(REVERTER)])
            .prop_map(|(s, c)| TxKind::Call { sender: s, contract: c }),
    ]
}

fn sender_key(index: u8) -> SecretKey {
    SecretKey::from_label(2_000 + index as u64)
}

fn genesis() -> (BlockHeader, StateDb) {
    let mut builder = GenesisBuilder::new();
    for s in 0..SENDERS {
        builder = builder.fund(sender_key(s as u8).address(), U256::from(10_000_000u64));
    }
    let built = builder.build();
    let mut state = built.state;
    for (address, code) in contract_codes() {
        state.set_code(&Address::from_low_u64(address), ContractCode::Bytecode(code));
    }
    state.clear_journal();
    (built.block.header, state)
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
            TxKind::Call { sender, contract } => {
                let nonce = nonces[*sender as usize];
                nonces[*sender as usize] += 1;
                Transaction::sign(
                    TxPayload {
                        nonce,
                        gas_price: 1,
                        gas_limit: 100_000,
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

fn honest_block(kinds: &[TxKind]) -> (BlockHeader, StateDb, Block) {
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
    (parent, state, built.block)
}

/// Validates `block` in both modes and asserts the verdicts are
/// byte-identical; returns the shared verdict's error (if any).
fn assert_same_verdict(
    parent: &BlockHeader,
    state: &StateDb,
    block: &Block,
    threads: usize,
) -> Result<Option<ValidationError>, TestCaseError> {
    let sequential = validate_block_with_mode(parent, state, block, &ExecMode::Sequential);
    let parallel = validate_block_with_mode(parent, state, block, &ExecMode::Parallel { threads });
    match (&sequential, &parallel) {
        (Ok(seq), Ok(par)) => {
            prop_assert_eq!(&par.receipts, &seq.receipts, "replay receipts diverged");
            prop_assert_eq!(
                par.post_state.state_root(),
                seq.post_state.state_root(),
                "replay post-state diverged"
            );
            Ok(None)
        }
        (Err(seq_err), Err(par_err)) => {
            prop_assert_eq!(seq_err, par_err, "cross-mode verdicts diverged");
            Ok(Some(seq_err.clone()))
        }
        _ => {
            prop_assert!(
                false,
                "one mode accepted what the other rejected: sequential_ok={} parallel_ok={} \
                 sequential_err={:?} parallel_err={:?}",
                sequential.is_ok(),
                parallel.is_ok(),
                sequential.as_ref().err(),
                parallel.as_ref().err()
            );
            unreachable!()
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    /// The headline property: honestly built mixed workloads validate in
    /// both modes with identical artifacts, at any thread count.
    #[test]
    fn parallel_validation_accepts_honest_blocks_identically(
        kinds in prop::collection::vec(kind_strategy(), 1..24),
        threads in 1usize..=8,
    ) {
        let (parent, state, block) = honest_block(&kinds);
        let verdict = assert_same_verdict(&parent, &state, &block, threads)?;
        prop_assert_eq!(verdict, None, "honest blocks must validate");
    }

    /// Tampered blocks draw identical `ValidationError`s — variant, index,
    /// and inner error — from both replay modes.
    #[test]
    fn tampered_blocks_get_identical_verdicts(
        kinds in prop::collection::vec(kind_strategy(), 1..20),
        tamper in tamper_strategy(),
        threads in 1usize..=8,
    ) {
        let (parent, state, mut block) = honest_block(&kinds);
        if !apply_tamper(&mut block, &tamper) {
            // Tamper not applicable to this block shape: still a valid
            // equivalence case, just an honest one.
            let verdict = assert_same_verdict(&parent, &state, &block, threads)?;
            prop_assert_eq!(verdict, None);
            return Ok(());
        }
        let verdict = assert_same_verdict(&parent, &state, &block, threads)?;
        prop_assert!(verdict.is_some(), "tamper {tamper:?} must be rejected (by both modes)");
    }

    /// 100 %-conflicting write sets: every transaction hammers the same
    /// counter slot. Equivalence must hold and the parallel replay must
    /// have taken the serial machinery for the conflicts.
    #[test]
    fn full_conflict_blocks_validate_equivalently(
        tx_count in 2usize..20,
        threads in 2usize..=8,
    ) {
        let kinds: Vec<TxKind> = (0..tx_count)
            .map(|i| TxKind::Call { sender: (i as u64 % SENDERS) as u8, contract: COUNTER })
            .collect();
        let (parent, state, block) = honest_block(&kinds);
        prop_assert_eq!(block.transactions.len(), tx_count, "every candidate must be included");
        let verdict = assert_same_verdict(&parent, &state, &block, threads)?;
        prop_assert_eq!(verdict, None);
        let validated = validate_block_with_mode(
            &parent,
            &state,
            &block,
            &ExecMode::Parallel { threads },
        ).expect("verdict checked above");
        prop_assert!(
            validated.stats.fallbacks + validated.stats.sequential_txs > 0,
            "pure conflicts must serialize somewhere: {:?}",
            validated.stats
        );
    }

    /// Thread count must not leak into the verdict: the same tampered
    /// block replayed with 1, 2, and 8 workers draws one error.
    #[test]
    fn thread_count_is_invisible_in_verdicts(
        kinds in prop::collection::vec(kind_strategy(), 2..16),
        tamper in tamper_strategy(),
    ) {
        let (parent, state, mut block) = honest_block(&kinds);
        apply_tamper(&mut block, &tamper);
        let verdicts: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                validate_block_with_mode(
                    &parent,
                    &state,
                    &block,
                    &ExecMode::Parallel { threads },
                )
                .map(|validated| (validated.receipts, validated.post_state.state_root()))
            })
            .collect();
        prop_assert_eq!(&verdicts[0], &verdicts[1]);
        prop_assert_eq!(&verdicts[1], &verdicts[2]);
    }
}
