//! Mutation-based property tests for the program-order and SSS passes of
//! [`sereth_consistency::check`].
//!
//! The generator builds *valid* histories by actually running the market
//! state machine, so the positive property ("valid histories pass") and
//! the negative properties ("every mutation of a valid history is caught")
//! bound both passes from both sides: no false alarms, no blind spots.
//! Stale buys here offer marks that never committed, so the anomaly
//! passes flag them as dirty reads by design; these properties read only
//! the program-order and serialization counts.

use proptest::prelude::*;
use sereth_consistency::check;
use sereth_consistency::record::{History, MarketOp, MarketSpec, TxRecord};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::{Address, H256};

/// One abstract step of a generated history.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A set chaining correctly on the tail, with this new price.
    FreshSet(u64),
    /// A set carrying a stale mark (the paper's failed transaction).
    StaleSet,
    /// A buy offering exactly the open interval.
    FreshBuy,
    /// A buy offering a stale interval.
    StaleBuy,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..1_000).prop_map(Step::FreshSet),
        Just(Step::StaleSet),
        Just(Step::FreshBuy),
        Just(Step::StaleBuy),
    ]
}

const OWNER: u64 = 1;
const BUYERS: [u64; 3] = [10, 11, 12];

/// Runs the market state machine over `steps`, emitting a valid history.
fn build_history(spec: &MarketSpec, steps: &[Step]) -> History {
    let mut tail = genesis_mark();
    let mut value = spec.initial_value;
    let mut nonces: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut records = Vec::new();

    for (i, step) in steps.iter().enumerate() {
        let stale_mark = H256::keccak(format!("stale-{i}").as_bytes());
        let (sender_label, op, effective) = match step {
            Step::FreshSet(price) => {
                let fpv = Fpv::new(Flag::Success, tail, H256::from_low_u64(*price));
                tail = compute_mark(&fpv.prev_mark, &fpv.value);
                value = fpv.value;
                (OWNER, MarketOp::Set(fpv), true)
            }
            Step::StaleSet => {
                (OWNER, MarketOp::Set(Fpv::new(Flag::Success, stale_mark, H256::from_low_u64(7))), false)
            }
            Step::FreshBuy => {
                let buyer = BUYERS[i % BUYERS.len()];
                (buyer, MarketOp::Buy(Fpv::new(Flag::Success, tail, value)), true)
            }
            Step::StaleBuy => {
                let buyer = BUYERS[i % BUYERS.len()];
                (buyer, MarketOp::Buy(Fpv::new(Flag::Success, stale_mark, value)), false)
            }
        };
        let nonce = nonces.entry(sender_label).or_insert(0);
        records.push(TxRecord {
            tx_hash: H256::keccak(format!("tx-{i}").as_bytes()),
            sender: Address::from_low_u64(sender_label),
            nonce: *nonce,
            block_number: 1 + (i as u64) / 8,
            index_in_block: (i % 8) as u32,
            op,
            effective,
        });
        *nonce += 1;
    }
    History::from_records(records)
}

/// `(program-order, serialization)` violation counts.
fn checked(spec: &MarketSpec, history: &History) -> (usize, usize) {
    let tallies = check(spec, history).tallies;
    (tallies.program_order, tallies.serialization)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn valid_histories_pass_both_checkers(steps in proptest::collection::vec(step_strategy(), 0..60)) {
        let spec = MarketSpec::example();
        let history = build_history(&spec, &steps);
        let (seq, sss_violations) = checked(&spec, &history);
        prop_assert_eq!(seq, 0);
        prop_assert_eq!(sss_violations, 0);
    }

    #[test]
    fn interval_counts_match_the_generator(steps in proptest::collection::vec(step_strategy(), 0..60)) {
        let spec = MarketSpec::example();
        let history = build_history(&spec, &steps);
        let tallies = check(&spec, &history).tallies;
        let fresh_sets = steps.iter().filter(|s| matches!(s, Step::FreshSet(_))).count();
        let fresh_buys = steps.iter().filter(|s| matches!(s, Step::FreshBuy)).count();
        prop_assert_eq!(tallies.intervals(), fresh_sets);
        prop_assert_eq!(tallies.buys_per_interval.iter().sum::<usize>(), fresh_buys);
    }

    #[test]
    fn flipping_any_effect_bit_is_caught(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        pick in any::<proptest::sample::Index>(),
    ) {
        let spec = MarketSpec::example();
        let history = build_history(&spec, &steps);
        let mut records = history.records().to_vec();
        let index = pick.index(records.len());
        records[index].effective = !records[index].effective;
        let mutated = History::from_records(records);
        prop_assert!(
            checked(&spec, &mutated).1 > 0,
            "flipped record {} ({:?}) went unnoticed",
            index,
            steps[index]
        );
    }

    #[test]
    fn corrupting_an_effective_set_mark_is_caught(
        steps in proptest::collection::vec(step_strategy(), 1..60),
        pick in any::<proptest::sample::Index>(),
    ) {
        let spec = MarketSpec::example();
        let history = build_history(&spec, &steps);
        let mut records = history.records().to_vec();
        let set_positions: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.effective && matches!(r.op, MarketOp::Set(_)))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!set_positions.is_empty());
        let target = set_positions[pick.index(set_positions.len())];
        if let MarketOp::Set(fpv) = &mut records[target].op {
            fpv.prev_mark = H256::keccak(b"corrupted");
        }
        let mutated = History::from_records(records);
        prop_assert!(checked(&spec, &mutated).1 > 0);
    }

    #[test]
    fn reordering_two_effective_sets_is_caught(
        steps in proptest::collection::vec(step_strategy(), 2..60),
        pick in any::<proptest::sample::Index>(),
    ) {
        let spec = MarketSpec::example();
        let history = build_history(&spec, &steps);
        let mut records = history.records().to_vec();
        let set_positions: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.effective && matches!(r.op, MarketOp::Set(_)))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(set_positions.len() >= 2);
        let first = set_positions[pick.index(set_positions.len() - 1)];
        let second = set_positions[set_positions.iter().position(|&p| p == first).unwrap() + 1];
        // Swap the two set *operations* while leaving everything else in
        // place — strictness of the serialization must notice.
        let tmp = records[first].op.clone();
        records[first].op = records[second].op.clone();
        records[second].op = tmp;
        let mutated = History::from_records(records);
        prop_assert!(checked(&spec, &mutated).1 > 0);
    }

    #[test]
    fn inverting_one_senders_nonces_is_caught(
        steps in proptest::collection::vec(step_strategy(), 2..60),
        pick in any::<proptest::sample::Index>(),
    ) {
        let spec = MarketSpec::example();
        let history = build_history(&spec, &steps);
        let mut records = history.records().to_vec();
        // Find a sender with at least two records.
        let mut by_sender: std::collections::HashMap<_, Vec<usize>> = Default::default();
        for (i, r) in records.iter().enumerate() {
            by_sender.entry(r.sender).or_default().push(i);
        }
        let multi: Vec<&Vec<usize>> = by_sender.values().filter(|v| v.len() >= 2).collect();
        prop_assume!(!multi.is_empty());
        let positions = multi[pick.index(multi.len())];
        let (a, b) = (positions[0], positions[1]);
        let tmp = records[a].nonce;
        records[a].nonce = records[b].nonce;
        records[b].nonce = tmp;
        let mutated = History::from_records(records);
        prop_assert!(checked(&spec, &mutated).0 > 0, "nonce inversion went unnoticed");
    }
}
