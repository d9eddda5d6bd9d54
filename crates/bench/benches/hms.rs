//! HMS micro-benchmarks (ABL-OVERHEAD in DESIGN.md): the paper's §III-C
//! claims "the overhead of HMS is relatively small" thanks to the
//! signature filter; these benches quantify PROCESS and SERIES over pool
//! sizes from 10² to 10⁴.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sereth_bench::pool_with_chain;
use sereth_core::hms::{hash_mark_set, HmsConfig};
use sereth_core::mark::genesis_mark;
use sereth_core::process::process;
use sereth_core::series::SeriesGraph;
use sereth_crypto::hash::H256;
use sereth_node::contract::{default_contract_address, set_selector};

fn bench_process(c: &mut Criterion) {
    let mut group = c.benchmark_group("hms_process");
    for &(chain, noise) in &[(10usize, 90usize), (100, 900), (1_000, 9_000)] {
        let pool = pool_with_chain(chain, noise);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!(
                "{}tx_{}pct_hms",
                chain + noise,
                100 * chain / (chain + noise)
            )),
            &pool,
            |b, pool| b.iter(|| process(black_box(pool), &default_contract_address(), set_selector())),
        );
    }
    group.finish();
}

fn bench_series(c: &mut Criterion) {
    let mut group = c.benchmark_group("hms_series");
    for &len in &[10usize, 100, 1_000] {
        let pool = pool_with_chain(len, 0);
        let nodes = process(&pool, &default_contract_address(), set_selector());
        group.bench_with_input(BenchmarkId::new("build", len), &nodes, |b, nodes| {
            b.iter(|| SeriesGraph::build(black_box(nodes.clone()), None))
        });
        let graph = SeriesGraph::build(nodes, None);
        group.bench_with_input(BenchmarkId::new("longest_dp", len), &graph, |b, graph| {
            b.iter(|| black_box(graph).longest_series())
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("hms_hash_mark_set");
    for &(chain, noise) in &[(20usize, 180usize), (200, 1_800)] {
        let pool = pool_with_chain(chain, noise);
        let committed = (genesis_mark(), H256::from_low_u64(50));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}tx", chain + noise)),
            &pool,
            |b, pool| {
                b.iter(|| {
                    hash_mark_set(
                        black_box(pool),
                        &default_contract_address(),
                        set_selector(),
                        committed,
                        &HmsConfig::default(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_process, bench_series, bench_end_to_end);
criterion_main!(benches);
