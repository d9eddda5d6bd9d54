//! Correctness-condition checkers for committed Sereth histories.
//!
//! The paper argues two correctness claims that this crate turns into
//! machine-checkable predicates over *committed chains*:
//!
//! * **Sequential consistency** (§IV): "miners are required to preserve
//!   the nonce order when committing a transaction from a given thread to
//!   a block … the blockchain is inherently sequentially consistent."
//!   The program-order pass verifies that every sender's transactions
//!   appear in block order consistent with their program (nonce) order.
//!
//! * **Selective Strict Serialization** (§VI): the paper closes its
//!   related-work discussion of Spear et al.'s SSS with "further work
//!   might show that SSS is a correctness condition suitable for HMS."
//!   This crate *is* that further work, executed: the SSS pass verifies
//!   that the **sets are strictly serialized** — each effective set chains
//!   exactly onto the tail of the committed mark chain — while the
//!   **buys are marked to the serialized history** — each effective buy's
//!   `(prev_mark, value)` pins it inside exactly one inter-set interval,
//!   and every no-op buy was genuinely stale. Within an interval, buys may
//!   interleave arbitrarily; across intervals they may not.
//!
//! One function, [`check`], runs both passes and the Adya-style anomaly
//! passes of the isolation ladder (G0 dirty-write cycles, G1a
//! dirty/aborted reads, lost updates) and returns one [`Report`] whose
//! every violation is tagged with the weakest [`IsolationLevel`] that
//! forbids it, so `report.holds_at(level)` answers "does this history
//! satisfy that rung of the ladder?".
//!
//! The checkers work from calldata and receipts alone — they re-derive
//! what the contract *must* have done and compare against what the chain
//! *says* happened, so they are an independent oracle: a violation means
//! either the chain, the contract, or the miner broke the condition.
//!
//! # Examples
//!
//! ```
//! use sereth_consistency::record::{History, MarketOp, MarketSpec, TxRecord};
//! use sereth_consistency::{check, IsolationLevel};
//! use sereth_core::fpv::{Flag, Fpv};
//! use sereth_core::mark::genesis_mark;
//! use sereth_crypto::{Address, H256};
//!
//! let history = History::from_records(vec![TxRecord {
//!     tx_hash: H256::from_low_u64(1),
//!     sender: Address::from_low_u64(1),
//!     nonce: 0,
//!     block_number: 1,
//!     index_in_block: 0,
//!     op: MarketOp::Set(Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(60))),
//!     effective: true,
//! }]);
//! let report = check(&MarketSpec::example(), &history);
//! assert!(report.holds_at(IsolationLevel::Sequential));
//! assert_eq!(report.tallies.intervals, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
pub mod record;
mod seqcon;
mod sss;

pub use checker::{check, Anomaly, Report, Tallies, Violation};
pub use record::{History, MarketOp, MarketSpec, ReadRecord, TxRecord};
pub use seqcon::SeqConViolation;
pub use sereth_types::IsolationLevel;
pub use sss::SssViolation;
