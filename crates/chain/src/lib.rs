//! The ledger substrate: state, execution, pooling, building, validation,
//! and storage of blocks — everything the paper's private Ethereum network
//! provided to its experiments, reimplemented from scratch.
//!
//! * [`state`] — journaled world state with deterministic commitments;
//! * [`executor`] — transaction application and the read-only call path on
//!   which Runtime Argument Augmentation operates;
//! * [`txpool`] — the pending pool, "an underutilized communication
//!   channel" (paper §III-C) and the input to Hash-Mark-Set;
//! * [`builder`] — block sealing over an externally-chosen order (miner
//!   policies live in `sereth-node`), one transaction at a time;
//! * [`validation`] — replay validation, the mechanism that both enforces
//!   consistency and (paper §II-D) creates the READ-COMMITTED latency the
//!   paper attacks; replay runs the builder's own sequential loop;
//! * [`store`] — fork choice and canonical-chain tracking;
//! * [`genesis`] — block-zero construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod executor;
pub mod genesis;
pub mod state;
pub mod store;
pub mod txpool;
pub mod validation;

pub use builder::{build_block, build_block_traced, BlockLimits, BuiltBlock};
pub use executor::{apply_transaction, call_readonly, BlockEnv, TxApplyError};
pub use genesis::{Genesis, GenesisBuilder};
pub use state::{Account, Snapshot, StateDb, StateView};
pub use store::{ChainStore, ImportError, ImportOutcome, StateBackendConfig, StoreConfig, StoredBlock};
// Downstream crates (node, sim, bench) configure and observe the durable
// backend through the chain API without depending on `sereth-store`.
pub use sereth_store::{DurableOptions, EpochGuard, EpochPins, StoreError};
pub use txpool::{PoolConfig, PoolEntry, PoolError, TxPool};
pub use validation::{validate_block, Validated, ValidationError};
