//! Shared fixtures, artifact writing and the bench-trend gate for the
//! sereth experiments. The experiments themselves are the entries of one
//! runner, `cargo run --release -p sereth-bench -- <entry|all> [--smoke]`;
//! the criterion benches live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trend;

use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_core::process::PendingTx;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{default_contract_address, set_selector};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

/// A signed market `set` from `owner` to `contract` with nonce `nonce`,
/// extending mark `prev` with `value` — the chain's head when `nonce` is 0.
pub fn set_tx(
    owner: &SecretKey,
    contract: Address,
    nonce: u64,
    prev: H256,
    value: H256,
    gas_price: u64,
) -> Transaction {
    let flag = if nonce == 0 { Flag::Head } else { Flag::Success };
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price,
            gas_limit: 100_000,
            to: Some(contract),
            value: U256::ZERO,
            input: Fpv::new(flag, prev, value).to_calldata(set_selector()),
        },
        owner,
    )
}

/// A signed plain transfer from `sender` to a fixed foreign address.
pub fn transfer(sender: &SecretKey, nonce: u64, gas_price: u64) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64(0xee)),
            value: U256::ZERO,
            input: bytes::Bytes::new(),
        },
        sender,
    )
}

/// Builds a pool snapshot containing one honest chain of `chain_len` sets
/// plus `noise` non-HMS transactions — the input shape for the HMS
/// overhead benchmarks (paper §III-C: "only a small percentage of the
/// TxPool requires processing").
pub fn pool_with_chain(chain_len: usize, noise: usize) -> Vec<PendingTx> {
    let mut pool = Vec::with_capacity(chain_len + noise);
    let mut prev = genesis_mark();
    for i in 0..chain_len {
        let flag = if i == 0 { Flag::Head } else { Flag::Success };
        let value = H256::from_low_u64(1_000 + i as u64);
        let fpv = Fpv::new(flag, prev, value);
        prev = compute_mark(&prev, &value);
        pool.push(PendingTx {
            hash: H256::keccak(&(i as u64).to_be_bytes()),
            sender: Address::from_low_u64(i as u64),
            to: Some(default_contract_address()),
            input: fpv.to_calldata(set_selector()),
            arrival_seq: i as u64,
        });
    }
    for j in 0..noise {
        pool.push(PendingTx {
            hash: H256::keccak(&[0xee, j as u8, (j >> 8) as u8]),
            sender: Address::from_low_u64(10_000 + j as u64),
            to: Some(Address::from_low_u64(0x0dd)),
            input: bytes::Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef, 0x01]),
            arrival_seq: (chain_len + j) as u64,
        });
    }
    pool
}

/// Builds a live [`TxPool`](sereth_chain::txpool::TxPool) holding
/// `markets` independent Sereth markets, each with a signed chain of
/// `sets_per_market` `set` transactions, plus `noise` foreign transfers —
/// the input shape for the RAA service scaling benchmarks. Returns the
/// pool and the market contract addresses.
///
/// Market `m` lives at address `0x5e7e_0000 + m`, owned by the key with
/// label `500 + m`; the committed AMV every market starts from is
/// `(genesis_mark(), 50)`.
pub fn market_txpool(
    markets: usize,
    sets_per_market: usize,
    noise: usize,
) -> (sereth_chain::txpool::TxPool, Vec<Address>) {
    use sereth_chain::txpool::{PoolConfig, TxPool};

    let total = markets * sets_per_market + noise;
    let pool = TxPool::with_config(PoolConfig {
        capacity: total + 1,
        // Keep the whole fill visible to event subscribers so benchmark
        // setup replays incrementally instead of tripping a resync.
        event_capacity: 2 * total + 16,
        ..PoolConfig::default()
    });
    pool.subscribe();
    let mut now = 0;
    let contracts: Vec<Address> =
        (0..markets).map(|m| Address::from_low_u64(0x5e7e_0000 + m as u64)).collect();
    for (m, contract) in contracts.iter().enumerate() {
        let owner = SecretKey::from_label(500 + m as u64);
        let mut prev = genesis_mark();
        for i in 0..sets_per_market as u64 {
            let value = H256::from_low_u64(1_000 + i);
            pool.insert(set_tx(&owner, *contract, i, prev, value, 1), now).expect("pool sized to fit");
            prev = compute_mark(&prev, &value);
            now += 1;
        }
    }
    for j in 0..noise as u64 {
        pool.insert(transfer(&SecretKey::from_label(100_000 + j), 0, 2), now).expect("pool sized to fit");
        now += 1;
    }
    (pool, contracts)
}

/// The recompute baseline's data source for RAA benchmarks: a live
/// (internally sharded) pool, walked borrowed per query (so the baseline
/// already benefits from the `for_each_pending` fast path; the
/// incremental service must beat *that*).
pub struct PoolSource {
    /// The shared pool.
    pub pool: std::sync::Arc<sereth_chain::txpool::TxPool>,
    /// The committed `(mark, value)` reported for every contract.
    pub committed: (H256, H256),
}

impl sereth_core::provider::HmsDataSource for PoolSource {
    fn pending(&self) -> Vec<PendingTx> {
        sereth_node::miner::pending_view(&self.pool)
    }

    fn for_each_pending(&self, visit: &mut dyn FnMut(&PendingTx)) {
        self.pool.with_entries_by_arrival(|entries| {
            for entry in entries {
                visit(&sereth_node::miner::pending_tx(entry));
            }
        });
    }

    fn committed(&self, _contract: &Address) -> (H256, H256) {
        self.committed
    }
}

/// A genesis holding the Sereth market contract (owned by `owner`,
/// committed price 50) plus `accounts` funded filler accounts: the state
/// a node's read path is measured against as it grows.
pub fn market_genesis(owner: &SecretKey, accounts: u64) -> sereth_chain::genesis::Genesis {
    use sereth_node::contract::{sereth_code, sereth_genesis_slots, ContractForm};

    let mut builder = sereth_chain::genesis::GenesisBuilder::new()
        .fund(owner.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            default_contract_address(),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
        );
    for i in 0..accounts {
        builder = builder.fund(Address::from_low_u64(0x1_0000_0000 + i), U256::from(1u64));
    }
    builder.build()
}

/// Mean wall-clock latency of `read` over `reads` calls, after one
/// untimed warm-up call whose answer every timed call must repeat.
pub fn mean_latency<T: PartialEq + std::fmt::Debug>(reads: u32, read: impl Fn() -> T) -> std::time::Duration {
    let expected = read();
    let start = std::time::Instant::now();
    for _ in 0..reads {
        assert_eq!(std::hint::black_box(read()), expected);
    }
    start.elapsed() / reads
}

/// One measured point of a scale benchmark: workload `size`, baseline and
/// fast-path mean latencies in microseconds, and their ratio.
#[derive(Debug, Clone, Copy)]
pub struct BenchPoint {
    /// Workload size (accounts, pool entries, transactions, …).
    pub size: u64,
    /// Baseline latency, µs.
    pub base_us: f64,
    /// Fast-path latency, µs.
    pub fast_us: f64,
    /// `base_us / fast_us`.
    pub speedup: f64,
}

impl BenchPoint {
    /// Builds a point from two mean durations.
    pub fn from_durations(size: u64, base: std::time::Duration, fast: std::time::Duration) -> Self {
        let base_us = base.as_nanos() as f64 / 1e3;
        let fast_us = fast.as_nanos() as f64 / 1e3;
        Self { size, base_us, fast_us, speedup: base.as_nanos() as f64 / fast.as_nanos().max(1) as f64 }
    }
}

fn json_escape(raw: &str) -> String {
    raw.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The host's CPU count as the standard library reports it (0 when
/// unknown); recorded with every thread-dependent result.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The directory every artifact goes to: `$BENCH_ARTIFACT_DIR`, or the
/// current directory when unset.
pub fn artifact_dir() -> std::path::PathBuf {
    std::env::var_os("BENCH_ARTIFACT_DIR").map_or_else(|| ".".into(), std::path::PathBuf::from)
}

/// Writes the machine-readable benchmark artifact `BENCH_<key>.json`
/// (schema: `{bench, config, points:[{size, base_us, fast_us, speedup}]}`)
/// into [`artifact_dir`] and reports on stdout where it went. `bench` names
/// the runner entry that measured it. CI uploads these so the performance
/// trajectory is recorded per commit. A write failure is reported, not
/// fatal: the entry's own gates still run.
pub fn artifact(key: &str, bench: &str, config: &[(&str, String)], points: &[BenchPoint]) {
    match write_bench_artifact(&artifact_dir(), key, bench, config, points) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(error) => eprintln!("\nfailed to write BENCH_{key}.json: {error}"),
    }
}

/// The env-free core of [`artifact`]. The build is offline (no serde), so
/// the JSON is assembled by hand from flat types.
pub(crate) fn write_bench_artifact(
    dir: &std::path::Path,
    key: &str,
    bench: &str,
    config: &[(&str, String)],
    points: &[BenchPoint],
) -> std::io::Result<std::path::PathBuf> {
    use std::fmt::Write as _;
    let mut body = String::new();
    let _ = write!(body, "{{\n  \"bench\": \"{}\",\n  \"config\": {{", json_escape(bench));
    for (i, (name, value)) in config.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(body, "{sep}\n    \"{}\": \"{}\"", json_escape(name), json_escape(value));
    }
    let _ = write!(body, "\n  }},\n  \"points\": [");
    for (i, point) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}\n    {{\"size\": {}, \"base_us\": {:.3}, \"fast_us\": {:.3}, \"speedup\": {:.3}}}",
            point.size, point.base_us, point.fast_us, point.speedup
        );
    }
    body.push_str("\n  ]\n}\n");

    let path = dir.join(format!("BENCH_{key}.json"));
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sereth_core::process::process;

    #[test]
    fn pool_fixture_yields_expected_chain() {
        let pool = pool_with_chain(10, 20);
        assert_eq!(pool.len(), 30);
        let nodes = process(&pool, &default_contract_address(), set_selector());
        assert_eq!(nodes.len(), 10, "noise filtered out");
    }

    #[test]
    fn bench_artifact_round_trips_through_disk() {
        // Uses the env-free core directly: mutating BENCH_ARTIFACT_DIR via
        // set_var would race sibling tests reading the environment.
        let dir = std::env::temp_dir().join(format!("sereth-bench-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let point = BenchPoint::from_durations(
            512,
            std::time::Duration::from_micros(100),
            std::time::Duration::from_micros(25),
        );
        let path = write_bench_artifact(
            &dir,
            "test",
            "exec_scale",
            &[("threads", "4".into()), ("note", "with \"quotes\"".into())],
            &[point],
        )
        .unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(path.ends_with("BENCH_test.json"));
        assert!(written.contains("\"bench\": \"exec_scale\""));
        assert!(written.contains("\"size\": 512"));
        assert!(written.contains("\"speedup\": 4.000"));
        assert!(written.contains("with \\\"quotes\\\""));
        std::fs::remove_file(&path).unwrap();
        assert!((point.speedup - 4.0).abs() < 1e-9);
    }
}
