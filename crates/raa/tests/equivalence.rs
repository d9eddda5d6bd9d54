//! The service's central invariant, property-tested: after ANY sequence
//! of pool events, [`RaaService::view`] is identical to batch
//! [`hash_mark_set`] over a snapshot of the same pool — for every
//! contract, under both HMS configs, and across the lag/resync path.

use std::sync::Arc;

use proptest::prelude::*;
use sereth_chain::txpool::{PoolConfig, TxPool};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::hms::{hash_mark_set, HmsConfig};
use sereth_core::mark::genesis_mark;
use sereth_core::process::PendingTx;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_raa::{RaaConfig, RaaService};
use sereth_telemetry::Telemetry;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;
use sereth_vm::abi;

fn set_selector() -> abi::Selector {
    abi::selector("set(bytes32[3])")
}

fn contracts() -> [Address; 3] {
    [
        Address::from_low_u64(0x5e7e_0001),
        Address::from_low_u64(0x5e7e_0002),
        Address::from_low_u64(0x5e7e_0003),
    ]
}

/// One encoded pool operation; decoded against the running state so the
/// same tuple stream always replays identically.
///
/// `kind % 8`: 0..=4 insert a set, 5 inserts noise, 6 removes a pooled
/// tx, 7 commits a pooled tx (with same-sender stale collateral drops).
type RawOp = (u8, u8, u8, u8, u64, u8);

fn committed_for(contract: &Address) -> (H256, H256) {
    // Distinct committed AMVs per contract, so cross-contract mix-ups
    // would be caught.
    (genesis_mark(), H256::from_low_u64(50 + contract.as_bytes()[19] as u64))
}

/// Replays `ops` into a `TxPool`, syncing `service` every `sync_every`
/// operations, then checks the invariant for every contract.
fn replay_and_check(
    ops: &[RawOp],
    sync_every: usize,
    event_capacity: usize,
    config: &HmsConfig,
) -> Result<(), TestCaseError> {
    let pool = TxPool::with_config(PoolConfig { event_capacity, ..PoolConfig::default() });
    pool.subscribe();
    let service = RaaService::new(RaaConfig { shards: 4, set_selector: set_selector(), hms: config.clone() });

    // Marks seen per contract, so successor inserts can chain onto real
    // predecessors (the interesting graph shapes).
    let mut seen_marks: Vec<Vec<H256>> = vec![vec![genesis_mark()]; 3];
    let mut nonces: [u64; 8] = [0; 8];

    for (step, &(kind, contract_sel, sender_sel, flag_sel, value, prev_sel)) in ops.iter().enumerate() {
        let now = step as u64;
        let kind = kind % 8;
        match kind {
            0..=4 => {
                let market = contract_sel as usize % 3;
                let contract = contracts()[market];
                let key = SecretKey::from_label(10 + (sender_sel % 8) as u64);
                let sender = (sender_sel % 8) as usize;
                let flag = match flag_sel % 4 {
                    0 => Flag::Head.to_word(),
                    1 | 2 => Flag::Success.to_word(),
                    _ => H256::from_low_u64(0xbad), // rejected by Alg. 2
                };
                let prev = seen_marks[market][prev_sel as usize % seen_marks[market].len()];
                let fpv = Fpv { flag_word: flag, prev_mark: prev, value: H256::from_low_u64(value % 64) };
                let tx = Transaction::sign(
                    TxPayload {
                        nonce: nonces[sender],
                        gas_price: 1 + (value % 5),
                        gas_limit: 100_000,
                        to: Some(contract),
                        value: U256::ZERO,
                        input: fpv.to_calldata(set_selector()),
                    },
                    &key,
                );
                if pool.insert(tx, now).is_ok() {
                    nonces[sender] += 1;
                    let mark = sereth_core::compute_mark(&fpv.prev_mark, &fpv.value);
                    if !seen_marks[market].contains(&mark) {
                        seen_marks[market].push(mark);
                    }
                }
            }
            5 => {
                let key = SecretKey::from_label(200 + (sender_sel % 4) as u64);
                let sender = 4 + (sender_sel % 4) as usize;
                let tx = Transaction::sign(
                    TxPayload {
                        nonce: nonces[sender],
                        gas_price: 1,
                        gas_limit: 21_000,
                        to: Some(Address::from_low_u64(0xee)),
                        value: U256::ZERO,
                        input: bytes::Bytes::new(),
                    },
                    &key,
                );
                if pool.insert(tx, now).is_ok() {
                    nonces[sender] += 1;
                }
            }
            6 | 7 => {
                let entries = pool.pending_by_arrival();
                if !entries.is_empty() {
                    let victim = entries[value as usize % entries.len()].tx.clone();
                    if kind == 6 {
                        pool.remove(&victim.hash());
                    } else {
                        pool.remove_committed([&victim]);
                    }
                }
            }
            _ => unreachable!("kind masked to 0..8"),
        }
        if sync_every > 0 && step % sync_every == 0 {
            service.sync(&pool);
        }
    }
    service.sync(&pool);

    // The oracle: batch Algorithm 1 over a full snapshot.
    let snapshot: Vec<PendingTx> = pool
        .pending_by_arrival()
        .into_iter()
        .map(|entry| PendingTx {
            hash: entry.tx.hash(),
            sender: entry.tx.sender(),
            to: entry.tx.to(),
            input: entry.tx.input().clone(),
            arrival_seq: entry.arrival_seq,
        })
        .collect();
    for contract in contracts() {
        let committed = committed_for(&contract);
        let expected = hash_mark_set(&snapshot, &contract, set_selector(), committed, config);
        let incremental = service.outcome(&contract, committed);
        prop_assert_eq!(expected.view, incremental.view, "view diverged for contract {:?}", contract);
        prop_assert_eq!(
            expected.series.len(),
            incremental.series.len(),
            "series diverged for contract {:?}",
            contract
        );
        for (a, b) in expected.series.iter().zip(incremental.series.iter()) {
            prop_assert_eq!(a, b);
        }
        // Repeat reads are cache hits and stay identical.
        prop_assert_eq!(service.view(&contract, committed), expected.view);
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
    // plus the dedicated config variants below.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn incremental_view_equals_batch_hms(ops in ops_strategy(), sync_every in 1usize..6) {
        replay_and_check(&ops, sync_every, 16_384, &HmsConfig::default())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn equivalence_holds_with_committed_head_extension(ops in ops_strategy(), sync_every in 1usize..6) {
        replay_and_check(&ops, sync_every, 16_384, &HmsConfig { committed_head: true })?;
    }

    #[test]
    fn equivalence_survives_event_buffer_lag(ops in ops_strategy()) {
        // A 4-event buffer forces the Lagged → full-resync path on
        // nearly every sync; correctness must not depend on the buffer.
        replay_and_check(&ops, 7, 4, &HmsConfig::default())?;
    }
}

#[test]
fn resync_metric_counts_lag_recoveries() {
    let pool = TxPool::with_config(PoolConfig { event_capacity: 2, ..PoolConfig::default() });
    pool.subscribe();
    let hub = Arc::new(Telemetry::enabled());
    let service = RaaService::with_telemetry(RaaConfig::new(set_selector()), hub.clone());
    let key = SecretKey::from_label(1);
    for nonce in 0..6 {
        let tx = Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 100_000,
                to: Some(contracts()[0]),
                value: U256::ZERO,
                input: Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(nonce))
                    .to_calldata(set_selector()),
            },
            &key,
        );
        pool.insert(tx, nonce).unwrap();
    }
    service.sync(&pool);
    assert_eq!(hub.snapshot().counters["raa.resyncs"], 1, "cursor 0 against a 2-event buffer must resync");
    assert_eq!(service.tracked_nodes(), 6);
    // And the rebuilt state matches the oracle.
    let committed = committed_for(&contracts()[0]);
    let snapshot: Vec<PendingTx> = pool
        .pending_by_arrival()
        .into_iter()
        .map(|entry| PendingTx {
            hash: entry.tx.hash(),
            sender: entry.tx.sender(),
            to: entry.tx.to(),
            input: entry.tx.input().clone(),
            arrival_seq: entry.arrival_seq,
        })
        .collect();
    let expected =
        hash_mark_set(&snapshot, &contracts()[0], set_selector(), committed, &HmsConfig::default());
    assert_eq!(service.view(&contracts()[0], committed), expected.view);
}
