//! History extraction from real blocks: selector filtering, receipt
//! joining, and end-to-end checker behaviour on hand-built chains.

use bytes::Bytes;
use sereth_consistency::record::{History, MarketOp, MarketSpec};
use sereth_consistency::{check, Anomaly, SssViolation};
use sereth_core::fpv::{Flag, Fpv, BUY_OK_TOPIC, BUY_SELECTOR, SET_OK_TOPIC, SET_SELECTOR};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::sig::SecretKey;
use sereth_crypto::{Address, H256};
use sereth_types::receipt::{Log, Receipt, TxStatus};
use sereth_types::{Block, BlockHeader, Transaction, TxPayload};

fn tx(key: &SecretKey, nonce: u64, to: Address, input: Bytes) -> Transaction {
    Transaction::sign(
        TxPayload { nonce, gas_price: 1, gas_limit: 100_000, to: Some(to), value: Default::default(), input },
        key,
    )
}

fn receipt_for(tx: &Transaction, index: u32, contract: Address, ok_topic: Option<H256>) -> Receipt {
    let logs = ok_topic
        .map(|topic| vec![Log { address: contract, topics: vec![topic], data: Bytes::new() }])
        .unwrap_or_default();
    Receipt { tx_hash: tx.hash(), index, status: TxStatus::Success, gas_used: 30_000, logs }
}

fn block(number: u64, transactions: Vec<Transaction>) -> Block {
    Block {
        header: BlockHeader {
            parent_hash: H256::from_low_u64(number.wrapping_sub(1)),
            number,
            timestamp_ms: number * 15_000,
            miner: Address::from_low_u64(0xc0b0),
            state_root: H256::ZERO,
            tx_root: H256::ZERO,
            receipts_root: H256::ZERO,
            gas_used: 0,
            gas_limit: 8_000_000,
        },
        transactions,
    }
}

#[test]
fn extraction_filters_foreign_traffic_and_joins_receipts() {
    let spec = MarketSpec::example();
    let owner = SecretKey::from_label(1);
    let stranger = SecretKey::from_label(2);

    let m0 = genesis_mark();
    let set = tx(
        &owner,
        0,
        spec.contract,
        Fpv::new(Flag::Head, m0, H256::from_low_u64(60)).to_calldata(SET_SELECTOR),
    );
    // Foreign traffic: wrong contract, wrong selector, plain transfer.
    let wrong_contract = tx(
        &stranger,
        0,
        Address::from_low_u64(0xdead),
        Fpv::new(Flag::Head, m0, H256::from_low_u64(1)).to_calldata(SET_SELECTOR),
    );
    let wrong_selector = tx(
        &stranger,
        1,
        spec.contract,
        Fpv::new(Flag::Head, m0, H256::from_low_u64(1)).to_calldata([9, 9, 9, 9]),
    );
    let transfer = tx(&stranger, 2, spec.contract, Bytes::new());

    let receipts = vec![
        receipt_for(&set, 0, spec.contract, Some(SET_OK_TOPIC)),
        receipt_for(&wrong_contract, 1, spec.contract, None),
        receipt_for(&wrong_selector, 2, spec.contract, None),
        receipt_for(&transfer, 3, spec.contract, None),
    ];
    let b = block(1, vec![set.clone(), wrong_contract, wrong_selector, transfer]);
    let history = History::from_blocks(&spec, [(&b, receipts.as_slice())]);

    assert_eq!(history.len(), 1, "only the market call survives filtering");
    let record = &history.records()[0];
    assert_eq!(record.tx_hash, set.hash());
    assert!(record.effective, "the SetOk receipt was joined");
    assert!(matches!(record.op, MarketOp::Set(_)));
    assert_eq!(record.block_number, 1);
    assert_eq!(record.index_in_block, 0);
}

#[test]
fn extraction_spans_blocks_in_commit_order_and_audits_pass() {
    let spec = MarketSpec::example();
    let owner = SecretKey::from_label(1);
    let buyer = SecretKey::from_label(3);

    let m0 = genesis_mark();
    let v1 = H256::from_low_u64(60);
    let m1 = compute_mark(&m0, &v1);

    let set = tx(&owner, 0, spec.contract, Fpv::new(Flag::Head, m0, v1).to_calldata(SET_SELECTOR));
    let fresh_buy = tx(&buyer, 0, spec.contract, Fpv::new(Flag::Success, m1, v1).to_calldata(BUY_SELECTOR));
    let stale_buy = tx(
        &buyer,
        1,
        spec.contract,
        Fpv::new(Flag::Success, m0, spec.initial_value).to_calldata(BUY_SELECTOR),
    );

    let b1 = block(1, vec![set.clone()]);
    let r1 = vec![receipt_for(&set, 0, spec.contract, Some(SET_OK_TOPIC))];
    let b2 = block(2, vec![fresh_buy.clone(), stale_buy.clone()]);
    let r2 = vec![
        receipt_for(&fresh_buy, 0, spec.contract, Some(BUY_OK_TOPIC)),
        receipt_for(&stale_buy, 1, spec.contract, None),
    ];

    let history = History::from_blocks(&spec, [(&b1, r1.as_slice()), (&b2, r2.as_slice())]);
    assert_eq!(history.len(), 3);

    // The stale buy offers the genesis interval, which was committed
    // state when it was read: the audit finds nothing at any rung.
    let report = check(&spec, &history);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let tallies = &report.tallies;
    assert_eq!((tallies.sets_ok, tallies.sets_noop, tallies.buys_ok, tallies.buys_noop), (1, 0, 1, 1));
    assert_eq!(tallies.intervals, 1);
    assert_eq!(tallies.buys_per_interval, vec![0, 1]);
}

#[test]
fn replayed_effective_set_is_caught() {
    // The same (prev_mark, value) committed effective twice: the second
    // occurrence cannot chain (the tail advanced past it) — strictness
    // catches replays even when the payload is byte-identical.
    let spec = MarketSpec::example();
    let owner = SecretKey::from_label(1);
    let m0 = genesis_mark();
    let v1 = H256::from_low_u64(60);

    let first = tx(&owner, 0, spec.contract, Fpv::new(Flag::Head, m0, v1).to_calldata(SET_SELECTOR));
    let replay = tx(&owner, 1, spec.contract, Fpv::new(Flag::Head, m0, v1).to_calldata(SET_SELECTOR));
    let b = block(1, vec![first.clone(), replay.clone()]);
    let receipts = vec![
        receipt_for(&first, 0, spec.contract, Some(SET_OK_TOPIC)),
        receipt_for(&replay, 1, spec.contract, Some(SET_OK_TOPIC)),
    ];
    let history = History::from_blocks(&spec, [(&b, receipts.as_slice())]);
    let report = check(&spec, &history);
    let serialization: Vec<&SssViolation> = report
        .violations
        .iter()
        .filter_map(|violation| match &violation.anomaly {
            Anomaly::Serialization(broken) => Some(broken),
            _ => None,
        })
        .collect();
    assert_eq!(serialization.len(), 1, "{:?}", report.violations);
    assert!(matches!(serialization[0], SssViolation::SetChainBroken { .. }));
    // The replay also chains onto the mark the first set already moved
    // past: a lost update.
    assert_eq!(report.tallies.lost_updates, 1);
}

#[test]
fn truncated_calldata_is_skipped_not_crashed() {
    let spec = MarketSpec::example();
    let owner = SecretKey::from_label(1);
    // A market-addressed transaction whose calldata is the set selector
    // plus one malformed word — not a decodable FPV.
    let mut input = SET_SELECTOR.to_vec();
    input.push(0xff);
    let short = tx(&owner, 0, spec.contract, Bytes::from(input));
    let b = block(1, vec![short.clone()]);
    let receipts = vec![receipt_for(&short, 0, spec.contract, None)];
    let history = History::from_blocks(&spec, [(&b, receipts.as_slice())]);
    assert!(history.is_empty(), "undecodable calldata is foreign traffic");
}
