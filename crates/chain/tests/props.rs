//! Property tests for the ledger substrate: journal rollback, pool
//! invariants, and build→validate round trips.

use bytes::Bytes;
use proptest::prelude::*;
use sereth_chain::builder::{build_block, BlockLimits};
use sereth_chain::executor::TxApplyError;
use sereth_chain::genesis::GenesisBuilder;
use sereth_chain::state::StateDb;
use sereth_chain::txpool::TxPool;
use sereth_chain::validation::{validate_block, ValidationError};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_types::block::Block;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;
use sereth_vm::exec::Storage;

/// One random state mutation.
#[derive(Debug, Clone)]
enum Op {
    Credit(u8, u64),
    Debit(u8, u64),
    SetNonce(u8, u64),
    Store(u8, u8, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(a, v)| Op::Credit(a, v % 1_000_000)),
        (any::<u8>(), any::<u64>()).prop_map(|(a, v)| Op::Debit(a, v % 1_000_000)),
        (any::<u8>(), any::<u64>()).prop_map(|(a, v)| Op::SetNonce(a, v % 100)),
        (any::<u8>(), any::<u8>(), any::<u64>()).prop_map(|(a, k, v)| Op::Store(a, k, v % 1_000)),
    ]
}

fn apply(state: &mut StateDb, op: &Op) {
    match op {
        Op::Credit(a, v) => state.credit(&Address::from_low_u64(*a as u64), U256::from(*v)),
        Op::Debit(a, v) => {
            let _ = state.debit(&Address::from_low_u64(*a as u64), U256::from(*v));
        }
        Op::SetNonce(a, v) => state.set_nonce(&Address::from_low_u64(*a as u64), *v),
        Op::Store(a, k, v) => state.storage_set(
            &Address::from_low_u64(*a as u64),
            H256::from_low_u64(*k as u64),
            H256::from_low_u64(*v),
        ),
    }
}

proptest! {
    /// snapshot → arbitrary mutations → revert ≡ no-op, at any nesting
    /// point, judged by the state commitment.
    #[test]
    fn journal_revert_is_noop(prefix in proptest::collection::vec(op_strategy(), 0..20),
                              suffix in proptest::collection::vec(op_strategy(), 0..20)) {
        let mut state = StateDb::new();
        for op in &prefix {
            apply(&mut state, op);
        }
        let root_before = state.state_root();
        let snapshot = state.snapshot();
        for op in &suffix {
            apply(&mut state, op);
        }
        state.revert_to(snapshot);
        prop_assert_eq!(state.state_root(), root_before);
    }

    /// Pool invariants under random inserts: no two entries share
    /// (sender, nonce); len matches distinct hashes; arrival order is
    /// strictly increasing.
    #[test]
    fn pool_uniqueness_invariants(entries in proptest::collection::vec((0u64..6, 0u64..6, 1u64..50), 0..40)) {
        let pool = TxPool::new();
        for (i, (sender, nonce, price)) in entries.iter().enumerate() {
            let key = SecretKey::from_label(*sender);
            let tx = Transaction::sign(
                TxPayload {
                    nonce: *nonce,
                    gas_price: *price,
                    gas_limit: 21_000,
                    to: Some(Address::from_low_u64(1)),
                    value: U256::ZERO,
                    input: Bytes::new(),
                },
                &key,
            );
            let _ = pool.insert(tx, i as u64);
        }
        let pending = pool.pending_by_arrival();
        prop_assert_eq!(pending.len(), pool.len());
        let mut pairs: Vec<(Address, u64)> = pending.iter().map(|e| (e.tx.sender(), e.tx.nonce())).collect();
        pairs.sort();
        let before = pairs.len();
        pairs.dedup();
        prop_assert_eq!(pairs.len(), before, "one tx per (sender, nonce)");
        prop_assert!(pending.windows(2).all(|w| w[0].arrival_seq < w[1].arrival_seq));
    }

    /// `ready_by_price` emits every sender's transactions in nonce order
    /// and never invents or duplicates entries.
    #[test]
    fn ready_by_price_respects_nonce_order(entries in proptest::collection::vec((0u64..4, 0u64..5, 1u64..50), 0..30)) {
        let pool = TxPool::new();
        for (i, (sender, nonce, price)) in entries.iter().enumerate() {
            let key = SecretKey::from_label(*sender);
            let tx = Transaction::sign(
                TxPayload {
                    nonce: *nonce,
                    gas_price: *price,
                    gas_limit: 21_000,
                    to: Some(Address::from_low_u64(1)),
                    value: U256::ZERO,
                    input: Bytes::new(),
                },
                &key,
            );
            let _ = pool.insert(tx, i as u64);
        }
        let ready = pool.ready_by_price(|_| 0);
        prop_assert!(ready.len() <= pool.len());
        let mut per_sender: std::collections::HashMap<Address, u64> = std::collections::HashMap::new();
        for tx in &ready {
            let expected = per_sender.entry(tx.sender()).or_insert(0);
            prop_assert_eq!(tx.nonce(), *expected, "nonces emitted consecutively from 0");
            *expected += 1;
        }
    }

    /// Any block the builder seals from random (possibly invalid)
    /// candidates passes replay validation — build and validate agree by
    /// construction, never by accident.
    #[test]
    fn built_blocks_always_validate(transfers in proptest::collection::vec((0u64..4, 0u64..4, 1u64..100), 0..20),
                                    timestamp in 1u64..1_000_000) {
        let keys: Vec<SecretKey> = (0..4).map(SecretKey::from_label).collect();
        let mut genesis_builder = GenesisBuilder::new();
        for key in &keys {
            genesis_builder = genesis_builder.fund(key.address(), U256::from(100_000_000u64));
        }
        let genesis = genesis_builder.build();

        // Random candidate list: nonces may be wrong, order may be silly.
        let candidates: Vec<Transaction> = transfers
            .iter()
            .map(|(sender, nonce, value)| {
                Transaction::sign(
                    TxPayload {
                        nonce: *nonce,
                        gas_price: 1,
                        gas_limit: 21_000,
                        to: Some(Address::from_low_u64(0x77)),
                        value: U256::from(*value),
                        input: Bytes::new(),
                    },
                    &keys[*sender as usize],
                )
            })
            .collect();

        let built = build_block(
            &genesis.block.header,
            &genesis.state,
            candidates,
            Address::from_low_u64(0xabc),
            timestamp,
            &BlockLimits::default(),
        );
        let validated = validate_block(&genesis.block.header, &genesis.state, &built.block)
            .expect("honestly built blocks validate");
        prop_assert_eq!(validated.receipts.len(), built.block.transactions.len());
        prop_assert_eq!(validated.post_state.state_root(), built.block.header.state_root);
        prop_assert_eq!(&validated.receipts, &built.receipts);
    }

    /// Value conservation: total balance across accounts is preserved by
    /// any block of transfers (fees move to the miner, not out of the
    /// system).
    #[test]
    fn value_is_conserved(transfers in proptest::collection::vec((0u64..3, 1u64..100), 1..10)) {
        let keys: Vec<SecretKey> = (0..3).map(SecretKey::from_label).collect();
        let mut genesis_builder = GenesisBuilder::new();
        for key in &keys {
            genesis_builder = genesis_builder.fund(key.address(), U256::from(10_000_000u64));
        }
        let genesis = genesis_builder.build();
        let total_before: U256 = genesis.state.iter().map(|(_, account)| account.balance).sum();

        let mut nonces = [0u64; 3];
        let candidates: Vec<Transaction> = transfers
            .iter()
            .map(|(sender, value)| {
                let s = *sender as usize;
                let tx = Transaction::sign(
                    TxPayload {
                        nonce: nonces[s],
                        gas_price: 1,
                        gas_limit: 21_000,
                        to: Some(Address::from_low_u64(0x99)),
                        value: U256::from(*value),
                        input: Bytes::new(),
                    },
                    &keys[s],
                );
                nonces[s] += 1;
                tx
            })
            .collect();
        let built = build_block(
            &genesis.block.header,
            &genesis.state,
            candidates,
            Address::from_low_u64(0xabc),
            1_000,
            &BlockLimits::default(),
        );
        let total_after: U256 = built.post_state.iter().map(|(_, account)| account.balance).sum();
        prop_assert_eq!(total_after, total_before, "wei is neither created nor destroyed");
    }
}

/// The tamper matrix: one deterministic construction per
/// [`ValidationError`] variant (and per [`TxApplyError`] variant inside
/// `BadTransaction`), each validated once, asserting the exact expected
/// verdict. The randomized tampers live in `validation_props`; this test
/// pins exact reproducible vectors for every rejection path.
#[test]
fn tamper_matrix_draws_the_expected_verdict_for_every_vector() {
    let rich = SecretKey::from_label(1);
    let also_rich = SecretKey::from_label(2);
    let poor = SecretKey::from_label(3);
    let genesis = GenesisBuilder::new()
        .fund(rich.address(), U256::from(100_000_000u64))
        .fund(also_rich.address(), U256::from(100_000_000u64))
        // Enough to exist, not enough for 21k gas: the InsufficientFunds row.
        .fund(poor.address(), U256::from(1_000u64))
        .build();
    let parent = genesis.block.header.clone();
    let state = genesis.state.clone();

    let transfer = |key: &SecretKey, nonce: u64, gas_limit: u64, value: u64| {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit,
                to: Some(Address::from_low_u64(0x77)),
                value: U256::from(value),
                input: Bytes::new(),
            },
            key,
        )
    };
    let honest = || {
        build_block(
            &parent,
            &state,
            vec![transfer(&rich, 0, 21_000, 5), transfer(&also_rich, 0, 21_000, 7)],
            Address::from_low_u64(0xabc),
            15_000,
            &BlockLimits::default(),
        )
        .block
    };
    // Swap in a replacement body at index 1 and reseal the tx root, so
    // replay (not the header checks) meets the bad transaction.
    let with_bad_tx_at_1 = |bad: Transaction| {
        let mut block = honest();
        block.transactions[1] = bad;
        block.header.tx_root = Block::compute_tx_root(&block.transactions);
        block
    };

    let matrix: Vec<(&str, Block, ValidationError)> = vec![
        (
            "WrongParent",
            {
                let mut block = honest();
                block.header.parent_hash = H256::keccak(b"nowhere");
                block
            },
            ValidationError::WrongParent,
        ),
        (
            "WrongNumber",
            {
                let mut block = honest();
                block.header.number += 2;
                block
            },
            ValidationError::WrongNumber,
        ),
        (
            "NonMonotonicTimestamp",
            {
                let mut block = honest();
                block.header.timestamp_ms = 0;
                block
            },
            ValidationError::NonMonotonicTimestamp,
        ),
        (
            "TxRootMismatch",
            {
                let mut block = honest();
                block.transactions.swap(0, 1); // tx root left stale
                block
            },
            ValidationError::TxRootMismatch,
        ),
        (
            "BadTransaction/BadSignature",
            {
                let mut block = honest();
                block.transactions[1] =
                    block.transactions[1].with_tampered_input(Bytes::from_static(b"augmented"));
                block.header.tx_root = Block::compute_tx_root(&block.transactions);
                block
            },
            ValidationError::BadTransaction { index: 1, error: TxApplyError::BadSignature },
        ),
        (
            "BadTransaction/NonceMismatch",
            with_bad_tx_at_1(transfer(&also_rich, 9, 21_000, 7)),
            ValidationError::BadTransaction {
                index: 1,
                error: TxApplyError::NonceMismatch { expected: 0, found: 9 },
            },
        ),
        (
            "BadTransaction/InsufficientFunds",
            with_bad_tx_at_1(transfer(&poor, 0, 21_000, 1)),
            ValidationError::BadTransaction { index: 1, error: TxApplyError::InsufficientFunds },
        ),
        (
            "BadTransaction/IntrinsicGasTooHigh",
            with_bad_tx_at_1(transfer(&also_rich, 0, 1_000, 7)),
            ValidationError::BadTransaction { index: 1, error: TxApplyError::IntrinsicGasTooHigh },
        ),
        (
            "GasUsedMismatch",
            {
                let mut block = honest();
                block.header.gas_used += 1;
                block
            },
            ValidationError::GasUsedMismatch { declared: 42_001, replayed: 42_000 },
        ),
        (
            "ReceiptsRootMismatch",
            {
                let mut block = honest();
                block.header.receipts_root = H256::keccak(b"wrong receipts");
                block
            },
            ValidationError::ReceiptsRootMismatch,
        ),
        (
            "StateRootMismatch",
            {
                let mut block = honest();
                block.header.state_root = H256::keccak(b"wrong state");
                block
            },
            ValidationError::StateRootMismatch,
        ),
        (
            "GasLimitExceeded",
            {
                let mut block = honest();
                block.header.gas_limit = block.header.gas_used - 1;
                block
            },
            ValidationError::GasLimitExceeded,
        ),
    ];

    for (name, block, expected) in &matrix {
        let verdict =
            validate_block(&parent, &state, block).expect_err(&format!("{name}: replay must reject"));
        assert_eq!(&verdict, expected, "{name}: verdict");
    }

    // Completeness guard: every `ValidationError` variant (and every
    // `TxApplyError` variant) appears in the matrix above. A new variant
    // added to either enum must extend the matrix before this compiles
    // away — the match is exhaustive on purpose.
    for (_, _, expected) in &matrix {
        match expected {
            ValidationError::WrongParent
            | ValidationError::WrongNumber
            | ValidationError::NonMonotonicTimestamp
            | ValidationError::TxRootMismatch
            | ValidationError::GasUsedMismatch { .. }
            | ValidationError::ReceiptsRootMismatch
            | ValidationError::StateRootMismatch
            | ValidationError::GasLimitExceeded => {}
            ValidationError::BadTransaction { error, .. } => match error {
                TxApplyError::BadSignature
                | TxApplyError::NonceMismatch { .. }
                | TxApplyError::InsufficientFunds
                | TxApplyError::IntrinsicGasTooHigh => {}
            },
        }
    }
}
