//! Shared fixtures for the sereth experiments. The experiments themselves
//! are the entries of one runner, `cargo run --release -p sereth-bench --
//! <entry|all>`; the criterion benches live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
}
