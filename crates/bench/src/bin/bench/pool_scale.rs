//! POOL-SCALE: the miner's `order_candidates` latency against pool size,
//! indexed pool feed vs the full-rescan baseline, for all three ordering
//! policies.
//!
//! Each point builds one pool of `size` pending transactions — mostly
//! single-nonce transfers from distinct senders at varied gas prices,
//! salted with one market's `set` chain and a crowd of `buy`s so the
//! semantic and PWV policies have real series work — and then repeatedly
//! orders a block-sized candidate list both ways. Between repetitions a
//! small churn batch (inserts + removals) flows through the pool, so the
//! indexed read also pays its incremental event-drain, exactly as a miner
//! between two blocks would. Each measurement first asserts the two
//! orders are byte-identical.
//!
//! The headline artifact (`BENCH_pool.json`, gated by `bench_trend`)
//! records the Standard-policy sweep: `base_us` is the rescan, `fast_us`
//! the indexed read. The table prints all three policies. Gates, on the
//! Standard policy: the indexed read must beat the rescan by
//! [`MIN_SPEEDUP`] at the largest size, and be at most [`MAX_SLOWDOWN`]
//! slower at the smallest, where a rescan is cheapest.

use std::time::Instant;

use sereth_bench::{artifact, host_cpus, set_tx, transfer, BenchPoint};
use sereth_chain::state::StateDb;
use sereth_chain::txpool::{PoolConfig, TxPool};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::hms::HmsConfig;
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{buy_selector, default_contract_address, sereth_genesis_slots};
use sereth_node::miner::{market_spec, order_candidates_limited, order_candidates_rescan, MinerPolicy};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

/// Sender-key label base (disjoint from the other benches' fixtures).
const LABELS: u64 = 40_000;
/// The market's `set` chain length and `buy` crowd per pool.
const SETS: usize = 64;
const BUYS: usize = 64;
/// Candidate cap per ordering pass.
const BUDGET: usize = 256;
/// Inserts and removals between two indexed reads.
const CHURN: usize = 32;
const MIN_SPEEDUP: f64 = 10.0;
const MAX_SLOWDOWN: f64 = 1.2;

/// A pool of `size` pending transactions: `SETS` chained market sets,
/// `BUYS` buys spread over the chain's marks, transfers for the rest.
fn build_pool(size: usize) -> TxPool {
    let pool = TxPool::with_config(PoolConfig {
        capacity: size + 64,
        event_capacity: 4 * size + 64,
        market: Some(market_spec()),
        ..PoolConfig::default()
    });
    let owner = SecretKey::from_label(LABELS - 1);
    let mut marks = vec![genesis_mark()];
    let mut now = 0u64;
    for i in 0..SETS.min(size) as u64 {
        let prev = *marks.last().expect("non-empty");
        let value = H256::from_low_u64(1_000 + i);
        let set = set_tx(&owner, default_contract_address(), i, prev, value, 2);
        marks.push(compute_mark(&prev, &value));
        pool.insert(set, now).expect("pool sized to fit");
        now += 1;
    }
    for b in 0..BUYS.min(size.saturating_sub(SETS)) {
        let mark = marks[b % marks.len()];
        let tx = Transaction::sign(
            TxPayload {
                nonce: 0,
                gas_price: 3,
                gas_limit: 100_000,
                to: Some(default_contract_address()),
                value: U256::ZERO,
                input: Fpv::new(Flag::Success, mark, H256::from_low_u64(1_000 + (b % SETS) as u64))
                    .to_calldata(buy_selector()),
            },
            &SecretKey::from_label(LABELS + 100_000 + b as u64),
        );
        pool.insert(tx, now).expect("pool sized to fit");
        now += 1;
    }
    let transfers = size.saturating_sub(pool.len());
    for t in 0..transfers {
        let price = 1 + (t as u64 * 13 + 7) % 97;
        pool.insert(transfer(&SecretKey::from_label(LABELS + t as u64), 0, price), now)
            .expect("pool sized to fit");
        now += 1;
    }
    assert_eq!(pool.len(), size, "fixture must hit the target size exactly");
    pool
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

/// One round of churn: remove what the previous round inserted, insert a
/// fresh batch, and record its hashes — so every indexed read that
/// follows has `2 × churn` real events to drain, at a steady pool size.
fn churn_pool(pool: &TxPool, round: u64, churn: usize, last_batch: &mut Vec<H256>) {
    for hash in last_batch.drain(..) {
        pool.remove(&hash);
    }
    for c in 0..churn {
        let tx =
            transfer(&SecretKey::from_label(LABELS + 500_000 + c as u64), round, 1 + (round + c as u64) % 89);
        let hash = tx.hash();
        if pool.insert(tx, round).is_ok() {
            last_batch.push(hash);
        }
    }
}

/// Mean rescan (base) and indexed (fast) ordering latency on a pool of
/// `size` entries.
fn measure(pool: &TxPool, size: u64, policy: &MinerPolicy, reps: u32) -> BenchPoint {
    let state = market_state();
    let view = state.view();
    let contract = default_contract_address();

    // Sanity before timing: the two paths order identically (and warm the
    // index so the timed reads measure steady state, not the first
    // subscription rebuild).
    let indexed = order_candidates_limited(pool, &view, &contract, policy, BUDGET);
    let rescan = order_candidates_rescan(pool, &view, &contract, policy, BUDGET);
    assert_eq!(
        indexed.iter().map(Transaction::hash).collect::<Vec<_>>(),
        rescan.iter().map(Transaction::hash).collect::<Vec<_>>(),
        "indexed/rescan divergence in the bench fixture ({policy:?})"
    );

    let rescan_time = {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(order_candidates_rescan(pool, &view, &contract, policy, BUDGET));
        }
        start.elapsed() / reps
    };
    // The indexed path is orders of magnitude faster: run more reps for a
    // stable mean, with churn flowing between reads so each read drains
    // fresh events (the steady per-block cost, not a hot-cache artifact).
    let fast_reps = reps * 20;
    let mut last_batch: Vec<H256> = Vec::new();
    let start = Instant::now();
    for rep in 0..fast_reps {
        churn_pool(pool, 1 + rep as u64, CHURN, &mut last_batch);
        std::hint::black_box(order_candidates_limited(pool, &view, &contract, policy, BUDGET));
    }
    let indexed_time = start.elapsed() / fast_reps;
    // Leave the pool at its fixture size for the next policy's run.
    churn_pool(pool, 0, 0, &mut last_batch);
    BenchPoint::from_durations(size, rescan_time, indexed_time)
}

/// Prints the three-policy table. `--smoke` measures two pool sizes with
/// fewer repetitions.
pub fn run(smoke: bool) {
    // Rescan repetitions; the indexed path runs 20× as many.
    let (sizes, reps): (&[u64], u32) =
        if smoke { (&[1_024, 8_192], 2) } else { (&[1_024, 4_096, 16_384, 65_536], 3) };
    let policies: [(&str, MinerPolicy); 3] = [
        ("standard", MinerPolicy::Standard),
        ("semantic", MinerPolicy::Semantic(HmsConfig::default())),
        ("pwv", MinerPolicy::Pwv),
    ];

    println!(
        "order_candidates: indexed feed vs full rescan, budget {BUDGET}, \
         {SETS} sets + {BUYS} buys salted in, {CHURN} churn txs between indexed reads"
    );
    println!("| pool size | policy | rescan/block | indexed/block | speedup |");
    println!("|-----------|--------|--------------|---------------|---------|");

    let mut points: Vec<BenchPoint> = Vec::new();
    for &size in sizes {
        let pool = build_pool(size as usize);
        for (name, policy) in &policies {
            let point = measure(&pool, size, policy, reps);
            println!(
                "| {size:>9} | {name:<6} | {:>9.1} µs | {:>10.2} µs | {:>6.1}x |",
                point.base_us, point.fast_us, point.speedup
            );
            if *name == "standard" {
                points.push(point);
            }
        }
    }

    artifact(
        "pool",
        "pool_scale",
        &[
            ("budget", BUDGET.to_string()),
            ("reps", reps.to_string()),
            ("churn", CHURN.to_string()),
            ("policy", "standard".to_string()),
            ("host_cpus", host_cpus().to_string()),
        ],
        &points,
    );

    let (largest, smallest) = (points.last().expect("sizes"), points.first().expect("sizes"));
    assert!(
        largest.speedup >= MIN_SPEEDUP,
        "indexed pool feed regressed: {:.2}x < required {MIN_SPEEDUP:.2}x on the Standard policy at pool \
         size {}",
        largest.speedup,
        largest.size
    );
    assert!(
        smallest.speedup >= 1.0 / MAX_SLOWDOWN,
        "indexed pool feed overhead violated: {:.2}x speedup at pool size {} means more than \
         {MAX_SLOWDOWN:.2}x slower than the rescan",
        smallest.speedup,
        smallest.size
    );
}
