//! Primitive chain types shared by every `sereth` crate.
//!
//! * [`u256`] — 256-bit unsigned arithmetic with EVM semantics;
//! * [`transaction`] — signed transactions with per-sender nonces;
//! * [`block`] — headers, bodies, and Merkle commitments;
//! * [`receipt`] — execution outcomes and event logs, the raw material for
//!   the paper's *state throughput* metric (§III-A).
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use sereth_crypto::{Address, SecretKey};
//! use sereth_types::{Transaction, TxPayload, U256};
//!
//! let key = SecretKey::from_label(1);
//! let tx = Transaction::sign(
//!     TxPayload {
//!         nonce: 0,
//!         gas_price: 20,
//!         gas_limit: 100_000,
//!         to: Some(Address::from_low_u64(0xc0ffee)),
//!         value: U256::from(5u64),
//!         input: Bytes::new(),
//!     },
//!     &key,
//! );
//! assert!(tx.verify_signature());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod isolation;
pub mod receipt;
pub mod transaction;
pub mod u256;

pub use block::{Block, BlockHeader};
pub use isolation::IsolationLevel;
pub use receipt::{Log, Receipt, TxStatus};
pub use transaction::{Transaction, TxPayload};
pub use u256::U256;

/// Milliseconds of simulated time since genesis. The discrete-event
/// simulator in `sereth-net` advances this clock.
pub type SimTime = u64;
