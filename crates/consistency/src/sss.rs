//! Selective Strict Serialization (SSS) for HMS histories.
//!
//! Spear et al. ("Ordering-Based Semantics for Software Transactional
//! Memory", OPODIS 2008) define SSS as a condition where *some*
//! transactions are strictly serialized while the rest are only *marked
//! to* the serialized history. Paper §VI observes the correspondence with
//! HMS — sets have "a fixed ordering" while "multiple buys can occur in a
//! price interval and … within the interval any order of buys is valid" —
//! and leaves proving it as future work. This module is the executable
//! version of that condition for committed chains:
//!
//! * **Strict serialization of sets.** Replaying the commit order, every
//!   *effective* set must chain exactly onto the current tail of the mark
//!   chain (`prev_mark == tail`), advancing the tail to
//!   `keccak(prev_mark ‖ value)`. Every *ineffective* set must have been
//!   genuinely stale (`prev_mark != tail` at its position).
//!
//! * **Marking of buys.** Every *effective* buy's offer must match the
//!   open interval exactly — `(prev_mark, value) == (tail, current
//!   value)` — which pins it between two specific sets. Every
//!   *ineffective* buy must mismatch. No constraint relates two buys in
//!   the same interval: that freedom is the "selective" in SSS, and it is
//!   what lets the semantic miner reorder buys within an interval without
//!   violating correctness.
//!
//! The checker is an independent oracle: it recomputes the market's state
//! machine from calldata alone and compares against the effects the chain
//! recorded.

use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::hash::H256;

use crate::checker::Tallies;
use crate::record::{History, MarketOp, MarketSpec};

/// A way a committed history can fail Selective Strict Serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SssViolation {
    /// An effective set did not chain onto the serialization's tail.
    SetChainBroken {
        /// The offending transaction.
        tx: H256,
        /// The tail mark the serialization had reached.
        expected_prev: H256,
        /// The mark the set actually chained on.
        found_prev: H256,
    },
    /// A set the chain recorded as a no-op actually matched the tail —
    /// it should have taken effect.
    SetWronglyFailed {
        /// The offending transaction.
        tx: H256,
    },
    /// An effective buy whose offer does not match the interval it
    /// committed in (wrong mark, wrong value, or both).
    BuyOutsideInterval {
        /// The offending transaction.
        tx: H256,
        /// The interval's mark at the buy's commit position.
        interval_mark: H256,
        /// The interval's value.
        interval_value: H256,
        /// The offer's mark.
        offer_mark: H256,
        /// The offer's value.
        offer_value: H256,
    },
    /// A buy the chain recorded as a no-op actually matched the open
    /// interval — it should have succeeded.
    BuyWronglyFailed {
        /// The offending transaction.
        tx: H256,
    },
}

impl core::fmt::Display for SssViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::SetChainBroken { tx, .. } => write!(f, "set {tx:?} broke the strict serialization"),
            Self::SetWronglyFailed { tx } => write!(f, "set {tx:?} matched the tail but was a no-op"),
            Self::BuyOutsideInterval { tx, .. } => {
                write!(f, "buy {tx:?} took effect outside its marked interval")
            }
            Self::BuyWronglyFailed { tx } => {
                write!(f, "buy {tx:?} matched the open interval but was a no-op")
            }
        }
    }
}

/// Checks Selective Strict Serialization of `history` against the
/// market's genesis state, counting into `tallies` the intervals the
/// serialization opened and the effective buys in each. An empty result
/// means the history satisfies SSS.
pub(crate) fn check(spec: &MarketSpec, history: &History, tallies: &mut Tallies) -> Vec<SssViolation> {
    let mut violations = Vec::new();
    let mut tail_mark = genesis_mark();
    let mut current_value = spec.initial_value;
    tallies.buys_per_interval = vec![0];

    for record in history.records() {
        match &record.op {
            MarketOp::Set(fpv) => {
                let matches_tail = fpv.prev_mark == tail_mark;
                match (record.effective, matches_tail) {
                    (true, true) => {
                        tail_mark = compute_mark(&fpv.prev_mark, &fpv.value);
                        current_value = fpv.value;
                        tallies.buys_per_interval.push(0);
                    }
                    (true, false) => violations.push(SssViolation::SetChainBroken {
                        tx: record.tx_hash,
                        expected_prev: tail_mark,
                        found_prev: fpv.prev_mark,
                    }),
                    (false, true) => violations.push(SssViolation::SetWronglyFailed { tx: record.tx_hash }),
                    (false, false) => {}
                }
            }
            MarketOp::Buy(offer) => {
                let matches_interval = offer.prev_mark == tail_mark && offer.value == current_value;
                match (record.effective, matches_interval) {
                    (true, true) => {
                        *tallies.buys_per_interval.last_mut().expect("never empty") += 1;
                    }
                    (true, false) => violations.push(SssViolation::BuyOutsideInterval {
                        tx: record.tx_hash,
                        interval_mark: tail_mark,
                        interval_value: current_value,
                        offer_mark: offer.prev_mark,
                        offer_value: offer.value,
                    }),
                    (false, true) => violations.push(SssViolation::BuyWronglyFailed { tx: record.tx_hash }),
                    (false, false) => {}
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TxRecord;
    use sereth_core::fpv::{Flag, Fpv};
    use sereth_crypto::address::Address;

    /// Runs the pass over the example market: its violations, and the
    /// tallies it filled.
    fn run(history: &History) -> (Vec<SssViolation>, Tallies) {
        let mut tallies = Tallies::default();
        let violations = check(&MarketSpec::example(), history, &mut tallies);
        (violations, tallies)
    }

    fn record(n: u64, op: MarketOp, effective: bool) -> TxRecord {
        TxRecord {
            tx_hash: H256::from_low_u64(n),
            sender: Address::from_low_u64(1),
            nonce: n,
            block_number: 1 + n / 8,
            index_in_block: (n % 8) as u32,
            op,
            effective,
        }
    }

    fn set(prev: H256, value: u64) -> MarketOp {
        MarketOp::Set(Fpv::new(Flag::Success, prev, H256::from_low_u64(value)))
    }

    fn buy(prev: H256, value: u64) -> MarketOp {
        MarketOp::Buy(Fpv::new(Flag::Success, prev, H256::from_low_u64(value)))
    }

    #[test]
    fn a_clean_serialization_holds() {
        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        let m2 = compute_mark(&m1, &H256::from_low_u64(70));
        let history = History::from_records(vec![
            // Genesis-interval buy at the opening price.
            record(0, buy(m0, 50), true),
            record(1, set(m0, 60), true),
            record(2, buy(m1, 60), true),
            record(3, buy(m1, 60), true),
            record(4, set(m1, 70), true),
            record(5, buy(m2, 70), true),
            // A stale buy (old interval) that correctly no-opped.
            record(6, buy(m1, 60), false),
        ]);
        let (violations, tallies) = run(&history);
        assert!(violations.is_empty(), "violations: {violations:?}");
        assert_eq!(tallies.intervals(), 2);
        assert_eq!(tallies.buys_per_interval, vec![1, 2, 1]);
    }

    #[test]
    fn effective_set_off_the_tail_is_a_violation() {
        let wrong = H256::keccak(b"not the tail");
        let history = History::from_records(vec![record(0, set(wrong, 60), true)]);
        let (violations, _) = run(&history);
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], SssViolation::SetChainBroken { .. }));
    }

    #[test]
    fn matching_set_recorded_as_noop_is_a_violation() {
        let history = History::from_records(vec![record(0, set(genesis_mark(), 60), false)]);
        let (violations, _) = run(&history);
        assert!(matches!(violations[0], SssViolation::SetWronglyFailed { .. }));
    }

    #[test]
    fn effective_buy_with_stale_offer_is_a_violation() {
        let m1 = compute_mark(&genesis_mark(), &H256::from_low_u64(60));
        let history = History::from_records(vec![
            record(0, set(genesis_mark(), 60), true),
            // Offer pinned to the *genesis* interval commits after the set.
            record(1, buy(genesis_mark(), 50), true),
        ]);
        let (violations, _) = run(&history);
        assert_eq!(violations.len(), 1);
        let SssViolation::BuyOutsideInterval { interval_mark, .. } = &violations[0] else {
            panic!("wrong violation kind: {:?}", violations[0]);
        };
        assert_eq!(*interval_mark, m1);
    }

    #[test]
    fn buy_with_right_mark_but_wrong_value_is_outside_its_interval() {
        // Offer carries the tail mark but a different price than the one
        // that mark committed — the frontrunning shape HMS blocks (§V-B).
        let history = History::from_records(vec![record(0, buy(genesis_mark(), 999), true)]);
        let (violations, _) = run(&history);
        assert!(matches!(violations[0], SssViolation::BuyOutsideInterval { .. }));
    }

    #[test]
    fn matching_buy_recorded_as_noop_is_a_violation() {
        let history = History::from_records(vec![record(0, buy(genesis_mark(), 50), false)]);
        let (violations, _) = run(&history);
        assert!(matches!(violations[0], SssViolation::BuyWronglyFailed { .. }));
    }

    #[test]
    fn stale_noops_are_fine_and_unlimited() {
        let wrong = H256::keccak(b"elsewhere");
        let history = History::from_records(vec![
            record(0, set(wrong, 1), false),
            record(1, buy(wrong, 1), false),
            record(2, buy(wrong, 50), false),
        ]);
        assert!(run(&history).0.is_empty());
    }

    #[test]
    fn empty_history_holds_trivially() {
        let (violations, tallies) = run(&History::default());
        assert!(violations.is_empty());
        assert_eq!(tallies.intervals(), 0);
        assert_eq!(tallies.buys_per_interval, vec![0]);
    }
}
