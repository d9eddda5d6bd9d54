//! **`sereth-raa`** — the RAA data service's VM adapter.
//!
//! The paper's RAA data service (Fig. 1, activities R1–R3) answers
//! read-only `get`/`mark` calls with READ-UNCOMMITTED views computed by
//! Hash-Mark-Set. The view itself lives in `sereth-chain`'s `TxPool`:
//! [`TxPool::market_view`](sereth_chain::txpool::TxPool::market_view)
//! serves each contract's Algorithm 1 result from the pool's market book,
//! cached until one of that contract's `set` entries comes or goes. This
//! crate only plugs it into the VM's RAA hook
//! ([`sereth_vm::raa::RaaProvider`]): [`PoolRaaProvider`] is the RAA
//! provider every `sereth-node` Sereth client installs. The equivalence
//! suite holds every view equal to batch `hash_mark_set` over the pool's
//! arrival-ordered snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod provider;

pub use provider::PoolRaaProvider;
