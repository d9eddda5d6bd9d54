//! Byte-equality of the indexed pool feed against the rescan oracle.
//!
//! The contract under test: for ANY pool history — randomized
//! interleavings of inserts (transfers, replacements, market `set`s and
//! `buy`s), removals, block commits, stale prunes, and capacity
//! evictions — the pool's indexed reads return **byte-identical**
//! candidate lists to the pre-index rescan implementations:
//!
//! * `ready_by_price` (indexed lazy-merge) ≡ `ready_by_price_rescan`
//!   (repeated selection over all sender queues), under several account
//!   nonce assignments including stale prefixes and nonce gaps;
//! * `order_candidates` ≡ `order_candidates_rescan` for all three miner
//!   policies (Standard / Semantic / PWV), so the pre-parsed market index
//!   provably feeds HMS and the PWV scheduler the same series the full
//!   pool walk produced;
//! * `ready_by_price_limited(k)` is exactly the first `k` of the full
//!   order.

use std::sync::Arc;

use proptest::prelude::*;
use sereth_chain::state::StateDb;
use sereth_chain::txpool::{PoolConfig, TxPool};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::hms::HmsConfig;
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{buy_selector, default_contract_address, sereth_genesis_slots, set_selector};
use sereth_node::miner::{
    market_spec, order_candidates, order_candidates_limited, order_candidates_rescan, MinerPolicy,
};
use sereth_telemetry::Telemetry;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

mod common;
use common::cases;

const SENDERS: u64 = 6;

/// One step of a pool history.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a plain transfer (replacements happen naturally when the
    /// same (sender, nonce) recurs at a higher price).
    Transfer { sender: u8, nonce: u8, price: u8 },
    /// Insert a market `set` chaining `prev` marks from the fixture chain.
    Set { owner: u8, nonce: u8, mark: u8, value: u8 },
    /// Insert a market `buy` offering against a (possibly unreachable)
    /// mark.
    Buy { buyer: u8, nonce: u8, mark: u8, value: u8 },
    /// Remove the i-th successfully inserted transaction by hash.
    Remove { pick: u8 },
    /// Import "a block" containing the i-th inserted transaction:
    /// `remove_committed` plus collateral stale cleanup.
    Commit { pick: u8 },
    /// Prune everything below a per-sender floor.
    Prune { floor: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest's `prop_oneof!` is unweighted; inserts are
    // listed twice so histories grow more than they shrink.
    let transfer_op = |(sender, nonce, price)| Op::Transfer { sender, nonce, price };
    prop_oneof![
        (0u8..SENDERS as u8, 0u8..4, 1u8..40).prop_map(transfer_op),
        (0u8..SENDERS as u8, 0u8..4, 1u8..40).prop_map(transfer_op),
        (0u8..2, 0u8..4, 0u8..6, 1u8..5).prop_map(|(owner, nonce, mark, value)| Op::Set {
            owner,
            nonce,
            mark,
            value
        }),
        (0u8..SENDERS as u8, 0u8..4, 0u8..7, 1u8..5).prop_map(|(buyer, nonce, mark, value)| Op::Buy {
            buyer,
            nonce,
            mark,
            value
        }),
        (0u8..32).prop_map(|pick| Op::Remove { pick }),
        (0u8..32).prop_map(|pick| Op::Commit { pick }),
        (0u8..3).prop_map(|floor| Op::Prune { floor }),
    ]
}

fn key(label: u8) -> SecretKey {
    SecretKey::from_label(1 + label as u64)
}

/// The fixture mark chain `m0..=m5` (`m0` is the genesis mark) plus one
/// unreachable junk mark at index 6.
fn marks() -> Vec<H256> {
    let mut out = vec![genesis_mark()];
    for i in 0..5u64 {
        let prev = *out.last().expect("non-empty");
        out.push(compute_mark(&prev, &H256::from_low_u64(50 + i)));
    }
    out.push(H256::keccak(b"unreachable"));
    out
}

fn transfer(sender: u8, nonce: u8, price: u8) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce: nonce as u64,
            gas_price: price as u64,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64(0xee)),
            value: U256::ZERO,
            input: bytes::Bytes::new(),
        },
        &key(sender),
    )
}

fn market_tx(sender: u8, nonce: u8, selector: [u8; 4], mark: u8, value: u8, price: u8) -> Transaction {
    let fpv = Fpv::new(Flag::Success, marks()[mark as usize], H256::from_low_u64(value as u64));
    Transaction::sign(
        TxPayload {
            nonce: nonce as u64,
            gas_price: price as u64,
            gas_limit: 100_000,
            to: Some(default_contract_address()),
            value: U256::ZERO,
            input: fpv.to_calldata(selector),
        },
        &key(sender),
    )
}

/// Applies one op to `pool`, recording successful inserts in `log`.
fn apply(pool: &TxPool, op: &Op, log: &mut Vec<Transaction>, now: &mut u64) {
    *now += 1;
    match op {
        Op::Transfer { sender, nonce, price } => {
            let tx = transfer(*sender, *nonce, *price);
            if pool.insert(tx.clone(), *now).is_ok() {
                log.push(tx);
            }
        }
        Op::Set { owner, nonce, mark, value } => {
            let tx = market_tx(*owner, *nonce, set_selector(), *mark, *value, 2);
            if pool.insert(tx.clone(), *now).is_ok() {
                log.push(tx);
            }
        }
        Op::Buy { buyer, nonce, mark, value } => {
            let tx = market_tx(*buyer, *nonce, buy_selector(), *mark, *value, 3);
            if pool.insert(tx.clone(), *now).is_ok() {
                log.push(tx);
            }
        }
        Op::Remove { pick } => {
            if !log.is_empty() {
                let tx = &log[*pick as usize % log.len()];
                pool.remove(&tx.hash());
            }
        }
        Op::Commit { pick } => {
            if !log.is_empty() {
                let tx = log[*pick as usize % log.len()].clone();
                pool.remove_committed([&tx]);
            }
        }
        Op::Prune { floor } => {
            let floor = *floor as u64;
            pool.prune_stale(|_| floor);
        }
    }
}

fn market_state() -> StateDb {
    sereth_chain::genesis::GenesisBuilder::new()
        .contract_with_storage(
            default_contract_address(),
            sereth_vm::exec::ContractCode::None,
            sereth_genesis_slots(&Address::from_low_u64(1), H256::from_low_u64(50)),
        )
        .build()
        .state
}

fn hashes(txs: &[Transaction]) -> Vec<H256> {
    txs.iter().map(Transaction::hash).collect()
}

/// A labelled account-nonce assignment for the equivalence assertions.
type NonceFn<'a> = (&'a str, Box<dyn Fn(&Address) -> u64>);

/// All the equivalence assertions over one pool state.
fn assert_indexed_matches_rescan(pool: &TxPool, label: &str) {
    let state = market_state();
    let contract = default_contract_address();

    // Several account-nonce assignments: all-zero (the common case),
    // a flat floor of 1 (creates gaps AND stale prefixes depending on
    // what is pooled), and a mixed per-sender map.
    let nonce_fns: Vec<NonceFn<'_>> = vec![
        ("zero", Box::new(|_: &Address| 0)),
        ("one", Box::new(|_: &Address| 1)),
        ("mixed", {
            let senders: Vec<Address> = (0..SENDERS as u8).map(|s| key(s).address()).collect();
            Box::new(move |a: &Address| senders.iter().position(|s| s == a).map_or(0, |i| (i % 3) as u64))
        }),
    ];
    for (name, base) in &nonce_fns {
        let indexed = pool.ready_by_price(base);
        let rescan = pool.ready_by_price_rescan(base, usize::MAX);
        assert_eq!(hashes(&indexed), hashes(&rescan), "{label}: ready_by_price diverged (base={name})");
        // The limited read is exactly a prefix of the full order under
        // EVERY floor — including floors the pool was never pruned
        // against (stale prefixes), which the per-entry cursor walk now
        // serves exactly instead of deferring to the next prune.
        for limit in [0usize, 1, 3, indexed.len() / 2, indexed.len() + 3] {
            let limited = pool.ready_by_price_limited(base, limit);
            assert_eq!(
                hashes(&limited),
                hashes(&indexed[..indexed.len().min(limit)]),
                "{label}: limited({limit}) is not a prefix (base={name})"
            );
        }
    }

    // Every miner policy, indexed vs rescan, full and limited.
    let view = state.view();
    for policy in [MinerPolicy::Standard, MinerPolicy::Semantic(HmsConfig::default()), MinerPolicy::Pwv] {
        let indexed = order_candidates(pool, &view, &contract, &policy);
        let rescan = order_candidates_rescan(pool, &view, &contract, &policy, usize::MAX);
        assert_eq!(hashes(&indexed), hashes(&rescan), "{label}: {policy:?} order diverged");
        let limit = (indexed.len() / 2).max(1);
        let limited = order_candidates_limited(pool, &view, &contract, &policy, limit);
        let limited_rescan = order_candidates_rescan(pool, &view, &contract, &policy, limit);
        assert_eq!(hashes(&limited), hashes(&limited_rescan), "{label}: {policy:?} limited order diverged");
    }
}

/// Replays `ops` into a fresh pool of `capacity` entries.
fn run_history(ops: &[Op], capacity: usize, checkpoint_every: usize) -> TxPool {
    let pool =
        TxPool::with_config(PoolConfig { capacity, market: Some(market_spec()), ..PoolConfig::default() });
    let mut log = Vec::new();
    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        apply(&pool, op, &mut log, &mut now);
        if checkpoint_every > 0 && i % checkpoint_every == checkpoint_every - 1 {
            // Interleaved reads check the indexes mid-history, not only
            // after the last mutation.
            assert_indexed_matches_rescan(&pool, &format!("step {i}"));
        }
    }
    assert_indexed_matches_rescan(&pool, "final");
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(192)))]

    /// The headline property: indexed ≡ rescan at interleaved checkpoints
    /// and at the end, in a roomy pool and in one small enough that
    /// inserts evict.
    #[test]
    fn indexed_reads_equal_rescan(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        for capacity in [PoolConfig::default().capacity, 12] {
            run_history(&ops, capacity, 13);
        }
    }

    /// After pruning against the same floor the ordering uses (the steady
    /// state every node maintains on import), limited reads are exact
    /// prefixes under ANY floor — the exactness contract of
    /// `ready_by_price_limited`.
    #[test]
    fn limited_reads_are_exact_on_pruned_pools(
        ops in proptest::collection::vec(op_strategy(), 1..50),
        floor in 0u64..3,
    ) {
        let pool = run_history(&ops, PoolConfig::default().capacity, 17);
        pool.prune_stale(|_| floor);
        let full = pool.ready_by_price(|_| floor);
        let rescan = pool.ready_by_price_rescan(|_| floor, usize::MAX);
        prop_assert_eq!(hashes(&full), hashes(&rescan));
        for limit in [1usize, 2, 5, full.len()] {
            let limited = pool.ready_by_price_limited(|_| floor, limit);
            prop_assert_eq!(
                hashes(&limited),
                hashes(&full[..full.len().min(limit)]),
                "limited({}) under floor {} is not a prefix",
                limit,
                floor
            );
        }
    }
}

/// Deterministic regression: a stale prefix (account nonce beyond the
/// pooled head without a prune) is served by the *index*, exactly —
/// limited reads included. Before the cursor walk this case diverted to
/// the rescan fallback (full reads) or was only documented (limited
/// reads); pinned here so the property suite's random coverage of this
/// corner is not the only guard.
#[test]
fn stale_prefix_reads_match_oracle_exactly() {
    let hub = Arc::new(Telemetry::enabled());
    let pool = TxPool::with_telemetry(
        PoolConfig { market: Some(market_spec()), ..PoolConfig::default() },
        hub.clone(),
    );
    let rescans = || hub.snapshot().counters["pool.rescans"];
    for sender in 0..3u8 {
        for nonce in 0..3u8 {
            pool.insert(transfer(sender, nonce, 10 + sender * 3 + nonce), (sender + nonce) as u64).unwrap();
        }
    }
    // Warm the index, then read with a nonce floor the pool was never
    // pruned against.
    assert_eq!(pool.ready_by_price(|_| 0).len(), 9);
    let rescans_before = rescans();
    let indexed = pool.ready_by_price(|_| 2);
    let oracle = pool.ready_by_price_rescan(|_| 2, usize::MAX);
    assert_eq!(hashes(&indexed), hashes(&oracle));
    assert_eq!(indexed.len(), 3);
    for limit in 0..4usize {
        let limited = pool.ready_by_price_limited(|_| 2, limit);
        assert_eq!(hashes(&limited), hashes(&indexed[..indexed.len().min(limit)]));
    }
    // Only the oracle calls above rescanned; every read under test was
    // index-served.
    assert_eq!(rescans(), rescans_before + 1);
}
