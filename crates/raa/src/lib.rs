//! **`sereth-raa`** — an incremental, concurrent RAA view service.
//!
//! The paper's RAA data service (Fig. 1, activities R1–R3) answers
//! read-only `get`/`mark` calls with READ-UNCOMMITTED views computed by
//! Hash-Mark-Set. The baseline provider in `sereth-core` recomputes
//! Algorithm 1 from a full pool snapshot on **every** query — O(pool)
//! work per read, which collapses once many clients hammer many markets
//! over a large pool. It stays as the paper-literal reference that the
//! `raa_scale` entry and the `raa_service` criterion bench measure against.
//!
//! This crate replaces that hot path with an event-driven service:
//!
//! 1. **Pool events** — `sereth-chain`'s `TxPool` publishes an ordered
//!    [`PoolEvent`](sereth_chain::txpool::PoolEvent) stream
//!    (`Inserted` / `Removed` / `Committed`) through a bounded,
//!    cursor-based subscription API.
//! 2. **[`RaaService`]** — a shard-per-contract-group cache that applies
//!    those events to per-contract filtered series (Algorithm 2's output,
//!    maintained incrementally) and rebuilds a contract's series graph
//!    only when that contract's own transactions changed. Reads are
//!    `RwLock`-read-cheap and O(1) on a clean cache; `raa.*` counters in
//!    the telemetry registry the service records into expose
//!    hit/rebuild/staleness counts.
//! 3. **[`ServiceRaaProvider`]** — the adapter that plugs the service
//!    into the VM's RAA hook ([`sereth_vm::raa::RaaProvider`]); it is
//!    the RAA provider every `sereth-node` Sereth client installs.
//!
//! # Invariants
//!
//! * **Equivalence.** For any pool reachable by any event sequence,
//!   [`RaaService::view`] equals batch
//!   [`hash_mark_set`](sereth_core::hash_mark_set) over a snapshot of
//!   that pool — both funnel into
//!   [`outcome_from_nodes`](sereth_core::outcome_from_nodes) over the
//!   same filtered, arrival-ordered node list (property-tested in
//!   `tests/equivalence.rs` across randomized event sequences).
//! * **Lag safety.** If a subscriber's cursor falls off the bounded
//!   event buffer, the service rebuilds from a full snapshot instead of
//!   serving silently wrong views (`raa.resyncs` counts these).
//! * **Monotone cursor.** Events apply in sequence order under a single
//!   sync lock; shard locks are only held per-contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod provider;
pub mod service;

pub use provider::{RaaDataSource, ServiceRaaProvider};
pub use service::{RaaConfig, RaaService};
