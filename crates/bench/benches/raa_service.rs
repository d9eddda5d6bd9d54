//! RAA read-path scaling: recompute-per-query (the paper-literal
//! `HmsRaaProvider`) vs. the pool's cached `TxPool::market_view`, as the
//! pool grows. The recompute path pays O(pool) per read to filter the
//! snapshot; the pool books each `set` once at insert and answers a read
//! whose cache is valid in O(1).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sereth_bench::{market_txpool, PoolSource};
use sereth_core::hms::HmsConfig;
use sereth_core::mark::genesis_mark;
use sereth_core::provider::HmsRaaProvider;
use sereth_crypto::hash::H256;
use sereth_node::contract::set_selector;

fn bench_read_latency(c: &mut Criterion) {
    let markets = 16usize;
    let sets = 64usize;
    let committed = (genesis_mark(), H256::from_low_u64(50));
    let mut group = c.benchmark_group("raa_read");
    for &noise in &[0usize, 3_072, 15_360] {
        let (pool, contracts) = market_txpool(markets, sets, noise);
        let pool_len = pool.len();

        let source = Arc::new(PoolSource { pool: Arc::new(pool.clone()), committed });
        let provider = HmsRaaProvider::new(source, set_selector(), HmsConfig::default());
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("recompute", pool_len), &(), |b, ()| {
            b.iter(|| {
                let contract = &contracts[next % contracts.len()];
                next += 1;
                black_box(provider.run(contract))
            })
        });

        let hms = HmsConfig::default();
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("cached", pool_len), &(), |b, ()| {
            b.iter(|| {
                // The steady-state node path: the cached view.
                let contract = &contracts[next % contracts.len()];
                next += 1;
                black_box(pool.market_view(contract, set_selector(), committed, &hms))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_read_latency);
criterion_main!(benches);
