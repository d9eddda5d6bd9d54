//! Threaded stress for the pool feed.
//!
//! Submitter threads hammer `NodeHandle::receive_tx` (which verifies
//! signatures and inserts into the pool *outside* the node lock) while a
//! miner thread continuously orders candidates from the pool's price
//! index and seals blocks. The test then proves nothing was lost or
//! corrupted under the race: every accepted transaction commits exactly
//! once, a follower validates every sealed block, and the pool drains to
//! empty. A second race pins that the pool's capacity bound holds at
//! every instant.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

use bytes::Bytes;
use sereth_chain::builder::BlockLimits;
use sereth_chain::genesis::Genesis;
use sereth_chain::txpool::{PoolConfig, TxPool};
use sereth_chain::GenesisBuilder;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::default_contract_address;
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{BlockReceipt, BlockSchedule, NodeConfig, NodeHandle};
use sereth_types::block::Block;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

const SUBMITTERS: usize = 4;
const SENDERS_PER_SUBMITTER: usize = 6;
const NONCES_PER_SENDER: u64 = 8;

fn sender_key(submitter: usize, sender: usize) -> SecretKey {
    SecretKey::from_label(7_000 + (submitter * SENDERS_PER_SUBMITTER + sender) as u64)
}

fn transfer(key: &SecretKey, nonce: u64, price: u64) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: price,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64(0xbeef)),
            value: U256::from(1u64),
            input: Bytes::new(),
        },
        key,
    )
}

fn genesis() -> Genesis {
    let mut builder = GenesisBuilder::new();
    for submitter in 0..SUBMITTERS {
        for sender in 0..SENDERS_PER_SUBMITTER {
            builder = builder.fund(sender_key(submitter, sender).address(), U256::from(10_000_000u64));
        }
    }
    builder.build()
}

fn node(miner: bool) -> NodeHandle {
    let mut config = NodeConfig::geth(default_contract_address())
        .limits(BlockLimits { gas_limit: 8_000_000, max_txs: Some(64) });
    if miner {
        config = config
            .mining(MinerPolicy::Standard)
            .schedule(BlockSchedule::Fixed(1_000))
            .coinbase(Address::from_low_u64(0xc01));
    }
    NodeHandle::new(genesis(), config.build())
}

#[test]
fn concurrent_submitters_and_miner_lose_nothing() {
    let miner = node(true);
    let follower = node(false);

    let total = SUBMITTERS * SENDERS_PER_SUBMITTER * NONCES_PER_SENDER as usize;
    let submitting = AtomicBool::new(true);
    let mut blocks: Vec<Block> = Vec::new();

    std::thread::scope(|scope| {
        let miner_ref = &miner;
        let submitting_ref = &submitting;
        let mut submitter_handles = Vec::new();
        for submitter in 0..SUBMITTERS {
            submitter_handles.push(scope.spawn(move || {
                for nonce in 0..NONCES_PER_SENDER {
                    for sender in 0..SENDERS_PER_SUBMITTER {
                        let key = sender_key(submitter, sender);
                        // Vary prices so fee-priority ordering has work
                        // to do across senders.
                        let price = 1 + ((submitter + sender) as u64 * 7 + nonce * 3) % 23;
                        let tx = transfer(&key, nonce, price);
                        assert!(
                            miner_ref.receive_tx(tx, nonce),
                            "submission rejected for submitter {submitter} sender {sender} nonce {nonce}"
                        );
                    }
                }
            }));
        }

        // The miner thread seals continuously while submissions pour in,
        // then keeps going until the backlog drains.
        let mining = scope.spawn(move || {
            let mut sealed = Vec::new();
            let mut timestamp = 1_000u64;
            let mut idle_rounds = 0;
            while idle_rounds < 3 {
                timestamp += 1_000;
                match miner_ref.mine(timestamp) {
                    Some(block) => {
                        if block.transactions.is_empty()
                            && !submitting_ref.load(Ordering::Relaxed)
                            && miner_ref.pool_len() == 0
                        {
                            idle_rounds += 1;
                        } else {
                            idle_rounds = 0;
                        }
                        sealed.push(block);
                    }
                    None => idle_rounds += 1,
                }
                std::thread::yield_now();
            }
            sealed
        });

        // Only once every submitter has finished may the miner start
        // counting empty blocks as "drained".
        for handle in submitter_handles {
            handle.join().expect("submitter thread");
        }
        submitting.store(false, Ordering::Relaxed);
        blocks = mining.join().expect("miner thread");
    });

    // Every submitted transaction committed exactly once.
    let committed: Vec<H256> =
        blocks.iter().flat_map(|b| b.transactions.iter().map(Transaction::hash)).collect();
    let unique: HashSet<H256> = committed.iter().copied().collect();
    assert_eq!(committed.len(), unique.len(), "a transaction committed twice");
    assert_eq!(
        unique.len(),
        total,
        "lost transactions under concurrency: {} committed of {total}",
        unique.len()
    );
    assert_eq!(miner.pool_len(), 0, "pool must drain");

    // A follower replays and accepts every sealed block.
    for block in &blocks {
        assert_eq!(follower.receive_block(block.clone()), BlockReceipt::Imported);
    }
    assert_eq!(follower.head_number(), miner.head_number());

    // Every sealed block came out of one ordering pass.
    let passes = miner.telemetry_snapshot().histograms["phase.order_candidates"].count();
    assert!(passes >= blocks.len() as u64, "{passes} ordering passes for {} blocks", blocks.len());
    println!(
        "pool feed under stress: {} blocks, {} txs, {passes} ordering passes",
        blocks.len(),
        committed.len()
    );
}

#[test]
fn submissions_do_not_wait_for_the_ordering_pass() {
    // Direct (non-threaded) pin of the decoupling: a pool-level ordering
    // read holds the pool's lock, not the node lock, and receive_tx takes
    // no node lock at all.
    let miner = node(true);
    for nonce in 0..NONCES_PER_SENDER {
        for sender in 0..SENDERS_PER_SUBMITTER {
            let tx = transfer(&sender_key(0, sender), nonce, 5 + nonce);
            assert!(miner.receive_tx(tx, nonce));
        }
    }
    // Every node-lock acquisition records one `node.lock_hold` sample.
    let lock_count = || miner.telemetry_snapshot().histograms["node.lock_hold"].count();
    let locks_before = lock_count();
    let block = miner.mine(10_000).expect("seals");
    assert!(!block.transactions.is_empty());
    let mine_locks = lock_count() - locks_before;
    // The mining pass builds on the published head and takes the node
    // lock exactly once, to import, bounding what any concurrent
    // submitter can be blocked on.
    assert_eq!(mine_locks, 1, "mine() must hold the node lock only to import");
}

#[test]
fn capacity_is_exact_under_concurrent_submitters() {
    // Four submitters push far past capacity, each at rising prices
    // (globally distinct), while a sampler watches the pool's length.
    // Admission, eviction and the insert share one lock acquisition, so
    // the bound holds at every observation, and the survivors are
    // exactly the `CAPACITY` highest-priced transactions: a top-priced
    // one always out-pays the cheapest entry of a full pool, and is never
    // the cheapest itself while a newcomer out-pays it.
    const CAPACITY: usize = 32;
    const PER_SUBMITTER: u64 = 128;
    let pool = TxPool::with_config(PoolConfig { capacity: CAPACITY });
    let batches: Vec<Vec<Transaction>> = (0..SUBMITTERS as u64)
        .map(|submitter| {
            (0..PER_SUBMITTER)
                .map(|i| {
                    let key = SecretKey::from_label(8_000 + submitter * PER_SUBMITTER + i);
                    transfer(&key, 0, 1 + i * SUBMITTERS as u64 + submitter)
                })
                .collect()
        })
        .collect();
    let submitting = AtomicUsize::new(SUBMITTERS);
    let start = Barrier::new(SUBMITTERS + 1);
    let observations = std::thread::scope(|scope| {
        for batch in &batches {
            let (pool, submitting, start) = (&pool, &submitting, &start);
            scope.spawn(move || {
                start.wait();
                for (now, tx) in batch.iter().enumerate() {
                    // Refusals are expected: a pool full of pricier
                    // entries turns a cheap newcomer away.
                    let _ = pool.insert(tx.clone(), now as u64);
                }
                submitting.fetch_sub(1, Ordering::Release);
            });
        }
        let sampler = scope.spawn(|| {
            start.wait();
            let mut observations = 0u64;
            while submitting.load(Ordering::Acquire) > 0 {
                let len = pool.len();
                assert!(len <= CAPACITY, "pool held {len} entries with capacity {CAPACITY}");
                observations += 1;
            }
            observations
        });
        sampler.join().expect("sampler thread")
    });
    assert!(observations > 0, "the sampler must observe the race");

    let mut prices: Vec<u64> = batches.iter().flatten().map(Transaction::gas_price).collect();
    prices.sort_unstable_by(|a, b| b.cmp(a));
    let mut pooled: Vec<u64> = pool.pending_by_arrival().iter().map(|entry| entry.tx.gas_price()).collect();
    pooled.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(pooled, prices[..CAPACITY], "the pool must keep exactly the highest-priced transactions");
}
