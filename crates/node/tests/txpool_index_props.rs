//! The pool's two indexes against oracles built from its arrival-ordered
//! snapshot ([`TxPool::pending_by_arrival`]).
//!
//! The contract under test: after EVERY operation of any pool history —
//! randomized interleavings of inserts (transfers, replacements, market
//! `set`s and `buy`s), removals, block commits, stale prunes, and
//! capacity evictions — the pool's indexed reads equal this suite's own
//! oracles:
//!
//! * `ready_by_price` (the price-index walk) equals a repeated-selection
//!   walk over every sender's next nonce, under several account nonce
//!   assignments including stale prefixes and nonce gaps;
//! * `market_snapshot` (the market book) equals
//!   [`MarketEntry::classify`] over the arrival-ordered entries addressed
//!   to the contract.
//!
//! The miner policies read nothing else from the pool, so equal reads
//! give equal orders.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use sereth_chain::txpool::{MarketEntry, MarketKind, PoolConfig, PoolEntry, TxPool};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{buy_selector, default_contract_address, set_selector};
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

fn hashes(txs: &[Transaction]) -> Vec<H256> {
    txs.iter().map(Transaction::hash).collect()
}

/// The fee-priority oracle: repeated selection over every sender's next
/// nonce, from the arrival-ordered snapshot alone. Each step emits the
/// highest-priced selectable entry, the earliest arrival on ties, and
/// advances that sender's cursor; senders start at `base_nonce`.
fn ready_oracle(pool: &TxPool, base_nonce: &dyn Fn(&Address) -> u64) -> Vec<Transaction> {
    let entries = pool.pending_by_arrival();
    let mut queues: HashMap<Address, BTreeMap<u64, &PoolEntry>> = HashMap::new();
    for entry in &entries {
        queues.entry(entry.tx.sender()).or_default().insert(entry.tx.nonce(), entry);
    }
    let mut cursors: HashMap<Address, u64> =
        queues.keys().map(|sender| (*sender, base_nonce(sender))).collect();
    let mut out = Vec::new();
    while let Some(entry) = queues
        .iter()
        .filter_map(|(sender, queue)| queue.get(&cursors[sender]))
        .max_by_key(|entry| (entry.tx.gas_price(), Reverse(entry.arrival_seq)))
    {
        out.push(entry.tx.clone());
        *cursors.get_mut(&entry.tx.sender()).expect("cursor exists") += 1;
    }
    out
}

/// A market entry's observable content.
type MarketKey = (H256, u64, MarketKind, Option<Fpv>);

fn market_keys(entries: &[MarketEntry]) -> Vec<MarketKey> {
    entries.iter().map(|entry| (entry.tx.hash(), entry.arrival_seq, entry.kind, entry.fpv)).collect()
}

/// The market oracle: the arrival-ordered entries addressed to
/// `contract`, classified one by one.
fn market_oracle(pool: &TxPool, contract: &Address) -> Vec<MarketEntry> {
    pool.pending_by_arrival()
        .iter()
        .filter(|entry| entry.tx.to() == Some(*contract))
        .filter_map(|entry| MarketEntry::classify(&entry.tx, entry.arrival_seq))
        .collect()
}

/// A labelled account-nonce assignment for the equivalence assertions.
type NonceFn<'a> = (&'a str, Box<dyn Fn(&Address) -> u64>);

/// Both reads against their oracles over one pool state.
fn assert_reads_match_oracles(pool: &TxPool, label: &str) {
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
        assert_eq!(
            hashes(&pool.ready_by_price(base)),
            hashes(&ready_oracle(pool, base)),
            "{label}: ready_by_price diverged (base={name})"
        );
    }
    // The market contract, and the transfers' target, which books nothing.
    for contract in [default_contract_address(), Address::from_low_u64(0xee)] {
        assert_eq!(
            market_keys(&pool.market_snapshot(&contract)),
            market_keys(&market_oracle(pool, &contract)),
            "{label}: market_snapshot diverged for {contract:?}"
        );
    }
}

/// Replays `ops` into a fresh pool of `capacity` entries, checking both
/// reads after every operation.
fn run_history(ops: &[Op], capacity: usize) {
    let pool = TxPool::with_config(PoolConfig { capacity });
    let mut log = Vec::new();
    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        apply(&pool, op, &mut log, &mut now);
        assert_reads_match_oracles(&pool, &format!("step {i} ({op:?})"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(192)))]

    /// The headline property: indexed ≡ oracle after every operation, in
    /// a roomy pool and in one small enough that inserts evict.
    #[test]
    fn indexed_reads_equal_rescan(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        for capacity in [PoolConfig::default().capacity, 12] {
            run_history(&ops, capacity);
        }
    }
}

/// Deterministic regression: a stale prefix (account nonce beyond the
/// pooled head without a prune) is served by the index exactly, pinned
/// here so the property suite's random coverage of this corner is not
/// the only guard.
#[test]
fn stale_prefix_reads_match_oracle_exactly() {
    let pool = TxPool::new();
    for sender in 0..3u8 {
        for nonce in 0..3u8 {
            pool.insert(transfer(sender, nonce, 10 + sender * 3 + nonce), (sender + nonce) as u64).unwrap();
        }
    }
    assert_eq!(pool.ready_by_price(|_| 0).len(), 9);
    // Read with a nonce floor the pool was never pruned against.
    let indexed = pool.ready_by_price(|_| 2);
    assert_eq!(hashes(&indexed), hashes(&ready_oracle(&pool, &|_| 2)));
    assert_eq!(indexed.len(), 3);
}
