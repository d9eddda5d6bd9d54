//! Sequential consistency of committed histories (paper §IV).
//!
//! "Blockchain transactions from the same address are executed in the
//! order they are sent, while the order of transactions from different
//! addresses is not defined" (§II-C) — i.e. the committed history must be
//! equivalent to a legal sequential history that preserves each thread's
//! program order. On a chain, program order is the sender's nonce
//! sequence, so the check is: for every sender, nonces are strictly
//! increasing along the block order. Cross-sender order is free.

use std::collections::HashMap;

use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;

use crate::record::History;

/// A committed history that is not sequentially consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqConViolation {
    /// Two transactions of one sender committed against program order.
    ProgramOrderInverted {
        /// The sender whose order broke.
        sender: Address,
        /// The earlier-committed transaction.
        earlier_tx: H256,
        /// Its nonce.
        earlier_nonce: u64,
        /// The later-committed transaction.
        later_tx: H256,
        /// Its (not larger) nonce.
        later_nonce: u64,
    },
    /// One sender committed the same nonce twice (a replay).
    NonceReplayed {
        /// The sender.
        sender: Address,
        /// The repeated nonce.
        nonce: u64,
        /// The second transaction carrying it.
        tx: H256,
    },
}

impl core::fmt::Display for SeqConViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ProgramOrderInverted { sender, earlier_nonce, later_nonce, .. } => write!(
                f,
                "program order inverted for {sender:?}: nonce {later_nonce} committed after {earlier_nonce}"
            ),
            Self::NonceReplayed { sender, nonce, .. } => {
                write!(f, "nonce {nonce} of {sender:?} committed twice")
            }
        }
    }
}

/// Checks sequential consistency; an empty result means the history
/// satisfies it.
pub(crate) fn check(history: &History) -> Vec<SeqConViolation> {
    let mut violations = Vec::new();
    let mut last_seen: HashMap<Address, (u64, H256)> = HashMap::new();
    for record in history.records() {
        match last_seen.get(&record.sender) {
            Some(&(prev_nonce, prev_tx)) if record.nonce == prev_nonce => {
                violations.push(SeqConViolation::NonceReplayed {
                    sender: record.sender,
                    nonce: record.nonce,
                    tx: record.tx_hash,
                });
                let _ = prev_tx;
            }
            Some(&(prev_nonce, prev_tx)) if record.nonce < prev_nonce => {
                violations.push(SeqConViolation::ProgramOrderInverted {
                    sender: record.sender,
                    earlier_tx: prev_tx,
                    earlier_nonce: prev_nonce,
                    later_tx: record.tx_hash,
                    later_nonce: record.nonce,
                });
            }
            _ => {}
        }
        last_seen.insert(record.sender, (record.nonce, record.tx_hash));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MarketOp, TxRecord};
    use sereth_core::fpv::{Flag, Fpv};
    use sereth_core::mark::genesis_mark;

    fn set_record(sender: u64, nonce: u64, position: u32) -> TxRecord {
        TxRecord {
            tx_hash: H256::from_low_u64(sender * 1_000 + nonce),
            sender: Address::from_low_u64(sender),
            nonce,
            block_number: 1,
            index_in_block: position,
            op: MarketOp::Set(Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(5))),
            effective: false,
        }
    }

    #[test]
    fn per_sender_order_passes() {
        let history = History::from_records(vec![
            set_record(1, 0, 0),
            set_record(2, 0, 1),
            set_record(1, 1, 2),
            set_record(2, 1, 3),
        ]);
        assert!(check(&history).is_empty());
    }

    #[test]
    fn nonce_gaps_are_allowed() {
        // Gaps appear when intervening transactions target other
        // contracts; program order is still respected.
        let history = History::from_records(vec![set_record(1, 0, 0), set_record(1, 5, 1)]);
        assert!(check(&history).is_empty());
    }

    #[test]
    fn inversion_is_detected() {
        let history = History::from_records(vec![set_record(1, 3, 0), set_record(1, 1, 1)]);
        let violations = check(&history);
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], SeqConViolation::ProgramOrderInverted { later_nonce: 1, .. }));
    }

    #[test]
    fn replay_is_detected() {
        let history = History::from_records(vec![set_record(1, 2, 0), set_record(1, 2, 1)]);
        let violations = check(&history);
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], SeqConViolation::NonceReplayed { nonce: 2, .. }));
    }

    #[test]
    fn cross_sender_order_is_unconstrained() {
        // Sender 2 commits before sender 1 despite higher label — fine.
        let history = History::from_records(vec![set_record(2, 0, 0), set_record(1, 0, 1)]);
        assert!(check(&history).is_empty());
    }
}
