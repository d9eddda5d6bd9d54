//! The pool's cached RAA views under a many-client read storm.
//!
//! Eight reader threads query `TxPool::market_view` while the main thread
//! keeps inserting `set`s, showing that views stay exact (equal to batch
//! Algorithm 1) under concurrency. The pool records its `raa.*` counters
//! into the example's own telemetry hub, printed at the end.
//!
//! ```text
//! cargo run --release --example raa_service
//! ```

use std::sync::Arc;

use sereth::chain::txpool::{PoolConfig, TxPool};
use sereth::crypto::{Address, SecretKey, H256};
use sereth::hms::hms::{hash_mark_set, HmsConfig};
use sereth::hms::mark::genesis_mark;
use sereth::node::contract::set_selector;
use sereth::node::miner::pending_view;
use sereth::telemetry::Telemetry;
use sereth::types::transaction::{Transaction, TxPayload};
use sereth::types::U256;

fn main() {
    println!("== concurrent readers vs a writing pool ==");
    let markets: Vec<Address> = (0..8).map(|m| Address::from_low_u64(0xaaaa + m)).collect();
    let committed = (genesis_mark(), H256::from_low_u64(50));
    let hub = Arc::new(Telemetry::enabled());
    // The pool is internally synchronized: no outer lock. It books every
    // `set`/`buy` at insert, which is what lets it cache each market's
    // view.
    let pool = Arc::new(TxPool::with_telemetry(PoolConfig::default(), hub.clone()));

    // Reader threads: each hammers a fixed quota of views while the
    // writer below streams sets into the pool concurrently.
    const READS_PER_READER: u64 = 25_000;
    let mut handles = Vec::new();
    for reader in 0..8u64 {
        let pool = pool.clone();
        let markets = markets.clone();
        handles.push(std::thread::spawn(move || {
            let hms = HmsConfig::default();
            for read in 0..READS_PER_READER {
                let market = markets[(reader + read) as usize % markets.len()];
                std::hint::black_box(pool.market_view(&market, committed, &hms));
            }
            READS_PER_READER
        }));
    }

    // Writer: chains sets across markets, committing periodically.
    let owner_keys: Vec<SecretKey> =
        (0..markets.len()).map(|m| SecretKey::from_label(900 + m as u64)).collect();
    let mut prev: Vec<H256> = vec![genesis_mark(); markets.len()];
    for step in 0..400u64 {
        let market = (step as usize) % markets.len();
        let value = H256::from_low_u64(1_000 + step);
        let fpv = sereth::hms::fpv::Fpv::new(
            if step / markets.len() as u64 == 0 {
                sereth::hms::fpv::Flag::Head
            } else {
                sereth::hms::fpv::Flag::Success
            },
            prev[market],
            value,
        );
        prev[market] = sereth::hms::mark::compute_mark(&prev[market], &value);
        let tx = Transaction::sign(
            TxPayload {
                nonce: step / markets.len() as u64,
                gas_price: 1,
                gas_limit: 100_000,
                to: Some(markets[market]),
                value: U256::ZERO,
                input: fpv.to_calldata(set_selector()),
            },
            &owner_keys[market],
        );
        pool.insert(tx, step).expect("pool accepts the chain");
        if step % 8 == 0 {
            // Pace the writer so reads genuinely interleave with the
            // inserts instead of racing past them.
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let reads: u64 = handles.into_iter().map(|h| h.join().expect("reader thread")).sum();

    // Exactness after the storm: every market's view equals batch HMS.
    let snapshot = pending_view(&pool);
    for market in &markets {
        let expected = hash_mark_set(&snapshot, market, set_selector(), committed, &HmsConfig::default());
        let view = pool.market_view(market, committed, &HmsConfig::default());
        assert_eq!(view, expected.view, "concurrent view diverged for {market:?}");
    }
    println!(
        "{} concurrent reads while 400 sets streamed in; all {} market views exact",
        reads,
        markets.len()
    );
    for (name, value) in hub.snapshot().counters.iter().filter(|(name, _)| name.starts_with("raa.")) {
        println!("  {name} = {value}");
    }
}
