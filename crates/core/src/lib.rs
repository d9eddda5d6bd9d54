//! **Hash-Mark-Set (HMS)** — the primary contribution of
//! *Read-Uncommitted Transactions for Smart Contract Performance*
//! (Cook, Painter, Peterson, Dechev — ICDCS 2019).
//!
//! Blockchain state reads are effectively READ-COMMITTED: a value is only
//! visible once its block publishes, O(10¹) seconds later, so transactions
//! built on it are frequently stale and fail on inclusion — they stay in
//! the block but make no state change. HMS organises the *pending*
//! transaction pool into a DAG linked by cryptographic marks
//! (`mark = keccak256(prev_mark ‖ value)`), extracts the longest series,
//! and serves the series tail as a READ-UNCOMMITTED view, raising the
//! paper's *state throughput* metric by ~5× unassisted and an order of
//! magnitude with cooperating ("semantic") miners.
//!
//! Module map (one per paper artifact):
//!
//! | paper | module |
//! |---|---|
//! | FPV/flags, `set`/`buy` selectors (§III-C) | [`fpv`] |
//! | mark definition, AMV (§III-C) | [`mark`] |
//! | Algorithm 2 `PROCESS` | [`mod@process`] |
//! | Algorithm 3 `SERIES` / `DEEPESTBRANCH` | [`series`] |
//! | Algorithm 1 `HASHMARKSET` | [`hms`] |
//! | RAA data service (Fig. 1) | `sereth-raa`, over the pool's cached `TxPool::market_view` |
//!
//! # Examples
//!
//! Serializing a pool by hand:
//!
//! ```
//! use sereth_core::fpv::{Flag, Fpv, SET_SELECTOR};
//! use sereth_core::hms::{hash_mark_set, HmsConfig, ViewSource};
//! use sereth_core::mark::{compute_mark, genesis_mark};
//! use sereth_core::process::PendingTx;
//! use sereth_crypto::{Address, H256};
//!
//! let market = Address::from_low_u64(0x5e7e);
//! let committed = (genesis_mark(), H256::from_low_u64(50));
//!
//! // One pending `set(60)` chained onto the committed mark.
//! let tx = PendingTx {
//!     hash: H256::keccak(b"tx"),
//!     sender: Address::from_low_u64(1),
//!     to: Some(market),
//!     input: Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(60)).to_calldata(SET_SELECTOR),
//!     arrival_seq: 0,
//! };
//!
//! let outcome = hash_mark_set(&[tx], &market, SET_SELECTOR, committed, &HmsConfig::default());
//! assert_eq!(outcome.view.source, ViewSource::Uncommitted);
//! assert_eq!(outcome.view.value, H256::from_low_u64(60));
//! assert_eq!(outcome.view.mark, compute_mark(&genesis_mark(), &H256::from_low_u64(60)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fpv;
pub mod hms;
pub mod mark;
pub mod process;
pub mod series;

pub use fpv::{Flag, Fpv, BUY_SELECTOR, HEAD_FLAG, SET_SELECTOR, SPECIAL_VALUE, SUCCESS_FLAG};
pub use hms::{hash_mark_set, HmsConfig, HmsOutcome, HmsView, ViewSource};
pub use mark::{compute_mark, genesis_mark, Amv};
pub use process::{process, PendingTx, TxnNode};
pub use series::SeriesGraph;
