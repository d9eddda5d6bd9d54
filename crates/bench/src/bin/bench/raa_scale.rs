//! RAA-SCALE: RAA read latency, recompute-per-query vs the pool's cached
//! `TxPool::market_view`, across pool sizes: 16 markets × 64 sets plus a
//! growing crowd of foreign transactions.

use std::sync::Arc;
use std::time::Instant;

use sereth_bench::{artifact, market_txpool, BenchPoint, PoolSource};
use sereth_core::hms::HmsConfig;
use sereth_core::mark::genesis_mark;
use sereth_core::provider::HmsRaaProvider;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_node::contract::set_selector;

const MARKETS: usize = 16;
const SETS: usize = 64;

/// Prints a markdown table of mean per-read latency and the speedup.
/// `--smoke` measures the two smallest pools with fewer reads.
pub fn run(smoke: bool) {
    let (noises, reads): (&[usize], usize) =
        if smoke { (&[0, 3_072], 400) } else { (&[0, 3_072, 15_360, 64_512], 2_000) };
    let committed = (genesis_mark(), H256::from_low_u64(50));

    println!("RAA read latency: {MARKETS} markets x {SETS} sets, {reads} reads round-robin over markets");
    println!("| pool size | recompute/read | cached/read | speedup |");
    println!("|-----------|----------------|-------------|---------|");
    let mut points: Vec<BenchPoint> = Vec::new();
    for &noise in noises {
        let (pool, contracts) = market_txpool(MARKETS, SETS, noise);
        let pool_len = pool.len();

        // Warm every market once, then time the reads round-robin.
        let time_reads = |read: &dyn Fn(&Address)| {
            contracts.iter().for_each(read);
            let start = Instant::now();
            for i in 0..reads {
                read(&contracts[i % contracts.len()]);
            }
            start.elapsed() / reads as u32
        };
        let source = Arc::new(PoolSource { pool: Arc::new(pool.clone()), committed });
        let provider = HmsRaaProvider::new(source, set_selector(), HmsConfig::default());
        let recompute = time_reads(&|contract| {
            std::hint::black_box(provider.run(contract));
        });
        let hms = HmsConfig::default();
        let cached = time_reads(&|contract| {
            std::hint::black_box(pool.market_view(contract, set_selector(), committed, &hms));
        });

        let point = BenchPoint::from_durations(pool_len as u64, recompute, cached);
        println!(
            "| {pool_len:>9} | {:>11.2} µs | {:>8.2} µs | {:>6.1}x |",
            point.base_us, point.fast_us, point.speedup
        );
        points.push(point);
    }

    artifact(
        "raa",
        "raa_scale",
        &[("markets", MARKETS.to_string()), ("sets", SETS.to_string()), ("reads", reads.to_string())],
        &points,
    );
}
