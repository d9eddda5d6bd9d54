//! # sereth — Read-Uncommitted Transactions for Smart Contract Performance
//!
//! A from-scratch Rust reproduction of Cook, Painter, Peterson & Dechev,
//! *Read-Uncommitted Transactions for Smart Contract Performance*
//! (ICDCS 2019): the **Hash-Mark-Set (HMS)** algorithm that serves
//! READ-UNCOMMITTED views of pending smart-contract state, the **Runtime
//! Argument Augmentation (RAA)** interpreter technique that delivers those
//! views to contracts, and the complete Ethereum-like substrate the
//! paper's evaluation ran on — chain, VM, TxPool, gossip network, clients,
//! and miners.
//!
//! The umbrella crate re-exports each subsystem under a stable name:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`crypto`] | `sereth-crypto` | Keccak-256, addresses, signatures, RLP, Merkle |
//! | [`types`] | `sereth-types` | U256, transactions, blocks, receipts |
//! | [`vm`] | `sereth-vm` | EVM-subset interpreter, assembler, gas, **RAA hook** |
//! | [`chain`] | `sereth-chain` | state, executor, TxPool, validation, store |
//! | [`hms`] | `sereth-core` | **the paper's contribution**: Algorithms 1–3 |
//! | [`raa`] | `sereth-raa` | the RAA data service's VM adapter over the pool's cached views |
//! | [`consistency`] | `sereth-consistency` | sequential-consistency & SSS history checkers |
//! | [`net`] | `sereth-net` | deterministic discrete-event network |
//! | [`node`] | `sereth-node` | Sereth contract, Geth/Sereth clients, miners |
//! | [`sim`] | `sereth-sim` | Figure 2 scenarios, metrics, statistics |
//! | [`telemetry`] | `sereth-telemetry` | lock-free metrics registry, phase tracing, exporters |
//!
//! # Quickstart
//!
//! ```
//! use sereth::sim::scenario::{run_scenario, ScenarioConfig};
//!
//! // One small data point of the paper's Figure 2.
//! let mut config = ScenarioConfig::semantic_mining(10, 5);
//! config.drain_ms = 60_000;
//! let out = run_scenario(&config, 42);
//! println!("eta = {:.2}", out.metrics.eta_buys());
//! assert!(out.metrics.sets_succeeded == out.metrics.sets_submitted);
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` for the full
//! experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sereth_chain as chain;
pub use sereth_consistency as consistency;
pub use sereth_core as hms;
pub use sereth_crypto as crypto;
pub use sereth_net as net;
pub use sereth_node as node;
pub use sereth_raa as raa;
pub use sereth_sim as sim;
pub use sereth_telemetry as telemetry;
pub use sereth_types as types;
pub use sereth_vm as vm;
