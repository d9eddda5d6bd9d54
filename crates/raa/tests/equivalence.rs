//! The pool's cached view, property-tested: after ANY sequence of pool
//! mutations, [`TxPool::market_view`] is identical to batch
//! [`hash_mark_set`] over the same pool's entries — for every contract,
//! under both HMS configs, across replacements, removals, commits,
//! prunes and capacity evictions, with views read (and so cached) every
//! few operations.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use sereth_chain::txpool::{PoolConfig, TxPool};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::hms::{hash_mark_set, HmsConfig, HmsView};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_core::process::PendingTx;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_telemetry::Telemetry;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;
use sereth_vm::abi;

fn set_selector() -> abi::Selector {
    abi::selector("set(bytes32[3])")
}

fn buy_selector() -> abi::Selector {
    abi::selector("buy(bytes32[3])")
}

fn contracts() -> [Address; 3] {
    [
        Address::from_low_u64(0x5e7e_0001),
        Address::from_low_u64(0x5e7e_0002),
        Address::from_low_u64(0x5e7e_0003),
    ]
}

/// Small enough that a history of inserts overflows it, so admissions
/// evict (or are refused).
const CAPACITY: usize = 12;

/// One encoded pool operation; decoded against the running state so the
/// same tuple stream always replays identically.
///
/// `kind % 10`: 0..=3 insert a set, 4 a buy, 5 noise; 6 replaces a pooled
/// tx with a pricier set from the same sender and nonce; 7 removes a
/// pooled tx, 8 commits one (with same-sender stale collateral drops), 9
/// prunes every sender below a nonce floor.
type RawOp = (u8, u8, u8, u8, u64, u8);

/// The committed AMV a read passes: distinct per contract, so
/// cross-contract mix-ups would be caught, and in two variants (the
/// second rooted at a pooled mark), so a view cached for one committed
/// state must not answer for the other.
fn committed_for(contract: &Address, marks: &[H256], variant: usize) -> (H256, H256) {
    let value = H256::from_low_u64(50 + contract.as_bytes()[19] as u64);
    let mark = if variant == 0 { genesis_mark() } else { marks[marks.len() / 2] };
    (mark, value)
}

/// The oracle: batch Algorithm 1 over a snapshot of the pool's entries.
fn batch_view(pool: &TxPool, contract: &Address, committed: (H256, H256), config: &HmsConfig) -> HmsView {
    let snapshot: Vec<PendingTx> = pool.pending_by_arrival().iter().map(|entry| entry.pending()).collect();
    hash_mark_set(&snapshot, contract, set_selector(), committed, config).view
}

/// Signs a market call (`set` or `buy`) from `key`.
fn market_tx(
    key: &SecretKey,
    nonce: u64,
    contract: Address,
    selector: abi::Selector,
    fpv: Fpv,
    price: u64,
) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: price,
            gas_limit: 100_000,
            to: Some(contract),
            value: U256::ZERO,
            input: fpv.to_calldata(selector),
        },
        key,
    )
}

/// Replays `ops` into a `TxPool`, reading every market's view every
/// `read_every` operations, and checks every read against the batch
/// oracle.
fn replay_and_check(ops: &[RawOp], read_every: usize, config: &HmsConfig) -> Result<(), TestCaseError> {
    let hub = Arc::new(Telemetry::enabled());
    let pool =
        TxPool::with_telemetry(PoolConfig { capacity: CAPACITY, ..PoolConfig::default() }, hub.clone());
    let counter = |name: &str| hub.snapshot().counters[name];
    let other = HmsConfig { committed_head: !config.committed_head };

    // Set senders 0..8, buyers 8..12, noise 12..16.
    let keys: Vec<SecretKey> = (0..16u64).map(|i| SecretKey::from_label(10 + i)).collect();
    let by_address: HashMap<Address, &SecretKey> = keys.iter().map(|key| (key.address(), key)).collect();
    let mut nonces: [u64; 16] = [0; 16];
    // Marks seen per contract, so successor inserts can chain onto real
    // predecessors (the interesting graph shapes).
    let mut seen_marks: Vec<Vec<H256>> = vec![vec![genesis_mark()]; 3];
    let set_fpv = |seen: &[H256], flag_sel: u8, value: u64, prev_sel: u8| {
        let flag = match flag_sel % 4 {
            0 => Flag::Head.to_word(),
            1 | 2 => Flag::Success.to_word(),
            _ => H256::from_low_u64(0xbad), // rejected by Alg. 2
        };
        let prev = seen[prev_sel as usize % seen.len()];
        Fpv { flag_word: flag, prev_mark: prev, value: H256::from_low_u64(value % 64) }
    };

    for (step, &(kind, contract_sel, sender_sel, flag_sel, value, prev_sel)) in ops.iter().enumerate() {
        let now = step as u64;
        let market = contract_sel as usize % 3;
        let contract = contracts()[market];
        let price = 1 + value % 5;
        // A `set` on `contract` from `key`.
        let set = |key: &SecretKey, nonce: u64, price: u64| {
            let fpv = set_fpv(&seen_marks[market], flag_sel, value, prev_sel);
            market_tx(key, nonce, contract, set_selector(), fpv, price)
        };
        // What to insert, and the sender whose next nonce it uses (`None`
        // for a replacement, which reuses a pooled nonce).
        let insert: Option<(Transaction, Option<usize>)> = match kind % 10 {
            0..=3 => {
                let sender = (sender_sel % 8) as usize;
                Some((set(&keys[sender], nonces[sender], price), Some(sender)))
            }
            4 => {
                let sender = 8 + (sender_sel % 4) as usize;
                let prev = seen_marks[market][prev_sel as usize % seen_marks[market].len()];
                let fpv = Fpv::new(Flag::Success, prev, H256::from_low_u64(value % 64));
                let tx = market_tx(&keys[sender], nonces[sender], contract, buy_selector(), fpv, price);
                Some((tx, Some(sender)))
            }
            5 => {
                let sender = 12 + (sender_sel % 4) as usize;
                let tx = Transaction::sign(
                    TxPayload {
                        nonce: nonces[sender],
                        gas_price: 1 + value % 3,
                        gas_limit: 21_000,
                        to: Some(Address::from_low_u64(0xee)),
                        value: U256::ZERO,
                        input: bytes::Bytes::new(),
                    },
                    &keys[sender],
                );
                Some((tx, Some(sender)))
            }
            kind => {
                let entries = pool.pending_by_arrival();
                let victim =
                    (!entries.is_empty()).then(|| entries[value as usize % entries.len()].tx.clone());
                match (kind, victim) {
                    // Doubling the price always clears the 10 % bump.
                    (6, Some(victim)) => Some((
                        set(by_address[&victim.sender()], victim.nonce(), victim.gas_price() * 2),
                        None,
                    )),
                    (7, Some(victim)) => {
                        pool.remove(&victim.hash());
                        None
                    }
                    (8, Some(victim)) => {
                        pool.remove_committed([&victim]);
                        None
                    }
                    (9, _) => {
                        let floor = value % 3;
                        pool.prune_stale(|_| floor);
                        None
                    }
                    _ => None,
                }
            }
        };
        if let Some((tx, sender)) = insert {
            // The mark a `set` introduces, for later sets to chain onto.
            let mark = Fpv::from_calldata(tx.input())
                .filter(|_| tx.input().starts_with(&set_selector()))
                .map(|fpv| compute_mark(&fpv.prev_mark, &fpv.value));
            let admitted = pool.insert(tx, now).is_ok();
            prop_assert!(admitted || sender.is_some(), "a replacement at double the price must be admitted");
            if admitted {
                if let Some(sender) = sender {
                    nonces[sender] += 1;
                }
                if let Some(mark) = mark.filter(|mark| !seen_marks[market].contains(mark)) {
                    seen_marks[market].push(mark);
                }
            }
        }
        prop_assert!(pool.len() <= CAPACITY, "capacity {} exceeded: {}", CAPACITY, pool.len());
        if step % read_every == 0 {
            // Every market under one committed AMV and config, so a
            // cached view survives until a mutation must drop it.
            for (market, contract) in contracts().iter().enumerate() {
                let committed = committed_for(contract, &seen_marks[market], 0);
                let view = pool.market_view(contract, committed, config);
                prop_assert_eq!(
                    view,
                    batch_view(&pool, contract, committed, config),
                    "step {} diverged",
                    step
                );
            }
        }
    }

    for (market, contract) in contracts().iter().enumerate() {
        // A view cached under one committed AMV or config must not answer
        // for another.
        for (variant, hms) in [(0, config), (0, &other), (1, &other)] {
            let committed = committed_for(contract, &seen_marks[market], variant);
            let expected = batch_view(&pool, contract, committed, hms);
            let view = pool.market_view(contract, committed, hms);
            prop_assert_eq!(view, expected, "view diverged for contract {:?}", contract);
            // A repeat read is a cache hit and stays identical.
            let (hits, rebuilds) = (counter("raa.hits"), counter("raa.rebuilds"));
            prop_assert_eq!(pool.market_view(contract, committed, hms), expected);
            prop_assert_eq!(counter("raa.hits"), hits + 1);
            prop_assert_eq!(counter("raa.rebuilds"), rebuilds);
        }
    }
    Ok(())
}

fn ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>(), any::<u8>()),
        0..48,
    )
}

proptest! {
    // The acceptance bar is ≥ 1000 randomized sequences; run 1024 here
    // plus the committed-head variant below.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn incremental_view_equals_batch_hms(ops in ops_strategy(), read_every in 1usize..6) {
        replay_and_check(&ops, read_every, &HmsConfig::default())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn equivalence_holds_with_committed_head_extension(ops in ops_strategy(), read_every in 1usize..6) {
        replay_and_check(&ops, read_every, &HmsConfig { committed_head: true })?;
    }
}
