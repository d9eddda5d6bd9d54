//! Property tests for the ladder audit, [`sereth_consistency::check`].
//!
//! Two bounds, mirroring `mutations.rs`:
//!
//! * **no false alarms** — histories produced by honestly running the
//!   market state machine (with an honest read log) carry zero
//!   violations and hold at *every* rung of the isolation ladder;
//! * **no blind spots, right rung** — each seeded anomaly class (G0
//!   dirty-write cycle, G1a read of never-committed or later-committed
//!   state, lost update) is caught and pinned to the *weakest* isolation
//!   level that forbids it, leaving the rungs below intact.

use proptest::prelude::*;
use sereth_consistency::record::{History, MarketOp, MarketSpec, ReadRecord, TxRecord};
use sereth_consistency::{check, Anomaly, IsolationLevel, Report};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::{Address, H256};

/// One abstract step of a generated history.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A set chaining correctly on the tail, with this new price.
    FreshSet(u64),
    /// A set carrying a mark that never committed (fails, no-op).
    StaleSet,
    /// A buy offering exactly the open interval.
    FreshBuy,
    /// A buy offering an *older committed* interval (fails, no-op) —
    /// a lagged-but-honest read, not a dirty one.
    LaggedBuy,
    /// A client observation of the committed tail, logged honestly.
    Observe,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..1_000).prop_map(Step::FreshSet),
        Just(Step::StaleSet),
        Just(Step::FreshBuy),
        Just(Step::LaggedBuy),
        Just(Step::Observe),
    ]
}

const OWNER: u64 = 1;
const BUYERS: [u64; 3] = [10, 11, 12];

fn record(i: usize, sender: u64, nonce: u64, op: MarketOp, effective: bool) -> TxRecord {
    TxRecord {
        tx_hash: H256::keccak(format!("tx-{i}").as_bytes()),
        sender: Address::from_low_u64(sender),
        nonce,
        block_number: 1 + (i as u64) / 8,
        index_in_block: (i % 8) as u32,
        op,
        effective,
    }
}

/// Runs the market state machine over `steps`, emitting a valid history
/// with an honest read log: every logged observation is of a mark that
/// had committed by the serving height.
fn build_history(spec: &MarketSpec, steps: &[Step]) -> History {
    let mut tail = genesis_mark();
    let mut value = spec.initial_value;
    // Every committed (mark, value) with the block it committed in —
    // the pool honest observations draw from. Genesis counts.
    let mut committed: Vec<(H256, H256, u64)> = vec![(tail, value, 0)];
    let mut nonces: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut records = Vec::new();
    let mut reads = Vec::new();

    for (i, step) in steps.iter().enumerate() {
        let block_number = 1 + (i as u64) / 8;
        let (sender_label, op, effective) = match step {
            Step::FreshSet(price) => {
                let fpv = Fpv::new(Flag::Success, tail, H256::from_low_u64(*price));
                tail = compute_mark(&fpv.prev_mark, &fpv.value);
                value = fpv.value;
                committed.push((tail, value, block_number));
                (OWNER, MarketOp::Set(fpv), true)
            }
            Step::StaleSet => {
                let never = H256::keccak(format!("stale-{i}").as_bytes());
                (OWNER, MarketOp::Set(Fpv::new(Flag::Success, never, H256::from_low_u64(7))), false)
            }
            Step::FreshBuy => {
                let buyer = BUYERS[i % BUYERS.len()];
                (buyer, MarketOp::Buy(Fpv::new(Flag::Success, tail, value)), true)
            }
            Step::LaggedBuy => {
                let buyer = BUYERS[i % BUYERS.len()];
                let (old_mark, old_value, _) = committed[i % committed.len()];
                let stale = old_mark != tail;
                (buyer, MarketOp::Buy(Fpv::new(Flag::Success, old_mark, old_value)), !stale)
            }
            Step::Observe => {
                let (mark, observed_value, committed_at) = *committed.last().expect("genesis");
                reads.push(ReadRecord {
                    reader: Address::from_low_u64(BUYERS[i % BUYERS.len()]),
                    at_height: committed_at.max(block_number),
                    observed_mark: mark,
                    observed_value,
                });
                continue;
            }
        };
        let nonce = nonces.entry(sender_label).or_insert(0);
        records.push(record(i, sender_label, *nonce, op, effective));
        *nonce += 1;
    }
    History::from_records(records).with_reads(reads)
}

/// The ladder invariant every report must satisfy: once a rung breaks,
/// every stronger rung above it is broken too.
fn assert_monotone(report: &Report) {
    for pair in IsolationLevel::ALL.windows(2) {
        assert!(
            report.holds_at(pair[0]) || !report.holds_at(pair[1]),
            "{} broken but {} holds",
            pair[0],
            pair[1]
        );
    }
}

proptest! {
    /// Honest histories carry zero violations and hold at every rung.
    #[test]
    fn clean_histories_hold_at_every_rung(
        steps in proptest::collection::vec(step_strategy(), 1..60)
    ) {
        let spec = MarketSpec::example();
        let history = build_history(&spec, &steps);
        let report = check(&spec, &history);
        prop_assert!(report.violations.is_empty(), "false alarm: {:?}", report.violations);
        for level in IsolationLevel::ALL {
            prop_assert!(report.holds_at(level));
        }
    }

    /// A buy offering a mark that never committed (the offer was built
    /// from an aborted speculative read) is caught wherever it lands,
    /// pinned to read-committed, and leaves read-uncommitted intact.
    #[test]
    fn injected_aborted_read_pins_to_read_committed(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        position in 0usize..40,
    ) {
        let spec = MarketSpec::example();
        let mut history = build_history(&spec, &steps);
        let mut records = history.records().to_vec();
        let at = position.min(records.len());
        let never = H256::keccak(b"speculated-then-aborted");
        records.insert(
            at,
            record(900, 0x999, 0, MarketOp::Buy(Fpv::new(Flag::Success, never, spec.initial_value)), false),
        );
        history = History::from_records(records).with_reads(history.reads().to_vec());
        let report = check(&spec, &history);
        prop_assert!(report.holds_at(IsolationLevel::ReadUncommitted), "G0 is about writes, not reads");
        prop_assert!(!report.holds_at(IsolationLevel::ReadCommitted));
        prop_assert!(report.violations.iter().all(|anomaly| matches!(
            anomaly,
            Anomaly::DirtyReadCommitted { committed_later: false, .. }
        )), "only the seeded anomaly fires: {:?}", report.violations);
        assert_monotone(&report);
    }
}

#[test]
fn g0_dirty_write_cycle_pins_to_read_uncommitted() {
    let spec = MarketSpec::example();
    // The first committed set chains on a mark only *produced* by the
    // second — a write-on-uncommitted-write cycle no real import could
    // serialize. Forbidden already at the ladder's weakest rung.
    let value_late = H256::from_low_u64(60);
    let mark_late = compute_mark(&genesis_mark(), &value_late);
    let early = Fpv::new(Flag::Success, mark_late, H256::from_low_u64(70));
    let late = Fpv::new(Flag::Head, genesis_mark(), value_late);
    let history = History::from_records(vec![
        record(0, OWNER, 0, MarketOp::Set(early), true),
        record(1, 2, 0, MarketOp::Set(late), true),
    ]);
    let report = check(&spec, &history);
    assert!(
        report.violations.iter().any(|anomaly| matches!(anomaly, Anomaly::DirtyWrite { .. })
            && anomaly.forbidden_at() == IsolationLevel::ReadUncommitted),
        "{:?}",
        report.violations
    );
    for level in IsolationLevel::ALL {
        assert!(!report.holds_at(level), "a G0 cycle breaks every rung, including {level}");
    }
    assert_monotone(&report);
}

#[test]
fn speculative_offer_committed_later_pins_to_read_committed() {
    let spec = MarketSpec::example();
    // The buy offers the set's interval *before* that set commits: a
    // dirty read the paper's client makes deliberately. Legal at
    // read-uncommitted, forbidden from read-committed up.
    let value = H256::from_low_u64(60);
    let mark = compute_mark(&genesis_mark(), &value);
    let history = History::from_records(vec![
        record(0, BUYERS[0], 0, MarketOp::Buy(Fpv::new(Flag::Success, mark, value)), true),
        record(1, OWNER, 0, MarketOp::Set(Fpv::new(Flag::Head, genesis_mark(), value)), true),
    ]);
    let report = check(&spec, &history);
    let seeded: Vec<_> = report
        .violations
        .iter()
        .filter(|anomaly| matches!(anomaly, Anomaly::DirtyReadCommitted { committed_later: true, .. }))
        .collect();
    assert_eq!(seeded.len(), 1, "{:?}", report.violations);
    assert_eq!(seeded[0].forbidden_at(), IsolationLevel::ReadCommitted);
    assert!(report.holds_at(IsolationLevel::ReadUncommitted), "the weak rung permits it");
    assert!(!report.holds_at(IsolationLevel::ReadCommitted));
    assert_monotone(&report);
}

#[test]
fn dirty_observation_pins_to_read_committed() {
    let spec = MarketSpec::example();
    // The logged read saw the set's mark while the serving node's
    // committed head was still below the block that carried it.
    let value = H256::from_low_u64(60);
    let mark = compute_mark(&genesis_mark(), &value);
    let mut set = record(8, OWNER, 0, MarketOp::Set(Fpv::new(Flag::Head, genesis_mark(), value)), true);
    set.block_number = 2;
    let history = History::from_records(vec![set]).with_reads(vec![ReadRecord {
        reader: Address::from_low_u64(BUYERS[0]),
        at_height: 1,
        observed_mark: mark,
        observed_value: value,
    }]);
    let report = check(&spec, &history);
    let seeded: Vec<_> = report
        .violations
        .iter()
        .filter(|anomaly| matches!(anomaly, Anomaly::DirtyReadObserved { committed_later: true, .. }))
        .collect();
    assert_eq!(seeded.len(), 1, "{:?}", report.violations);
    assert_eq!(seeded[0].forbidden_at(), IsolationLevel::ReadCommitted);
    assert!(report.holds_at(IsolationLevel::ReadUncommitted));
    assert!(!report.holds_at(IsolationLevel::ReadCommitted));
    assert_monotone(&report);
}

#[test]
fn lost_update_pins_to_sequential() {
    let spec = MarketSpec::example();
    // Two effective sets chain on the *same* prior mark: the second
    // overwrote the first without observing it. The committed chain's
    // CAS makes this impossible for real imports, so only the top rung
    // forbids it — and only the top rung must break.
    let history = History::from_records(vec![
        record(
            0,
            OWNER,
            0,
            MarketOp::Set(Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(60))),
            true,
        ),
        record(1, 2, 0, MarketOp::Set(Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(70))), true),
    ]);
    let report = check(&spec, &history);
    let seeded: Vec<_> =
        report.violations.iter().filter(|anomaly| matches!(anomaly, Anomaly::LostUpdate { .. })).collect();
    assert_eq!(seeded.len(), 1, "{:?}", report.violations);
    assert_eq!(seeded[0].forbidden_at(), IsolationLevel::Sequential);
    assert!(report.holds_at(IsolationLevel::ReadUncommitted));
    assert!(report.holds_at(IsolationLevel::ReadCommitted), "lost updates are legal below sequential");
    assert!(!report.holds_at(IsolationLevel::Sequential));
    assert_monotone(&report);
}
