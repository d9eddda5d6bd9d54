//! The adapter wiring [`TxPool::market_view`] into the VM's RAA hook.
//!
//! [`PoolRaaProvider`] is the drop-in replacement for the
//! recompute-per-query `HmsRaaProvider` in `sereth-core`: on each
//! read-only call it (1) reads the contract's committed AMV from its
//! [`RaaDataSource`], (2) reads the pool's cached view, and (3) writes it
//! into the call's three argument words exactly as Fig. 1 activity R3
//! prescribes.

use std::sync::Arc;

use bytes::Bytes;
use sereth_chain::txpool::TxPool;
use sereth_core::hms::HmsConfig;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_vm::abi::{self, Selector};
use sereth_vm::raa::{RaaProvider, RaaRequest};

/// The committed state the adapter needs per query. `sereth-node`
/// implements this over its chain; tests use fixtures.
pub trait RaaDataSource: Send + Sync {
    /// The committed `(mark, value)` of `contract` at the canonical
    /// head.
    fn committed(&self, contract: &Address) -> (H256, H256);
}

/// An [`RaaProvider`] serving [`TxPool::market_view`].
pub struct PoolRaaProvider {
    pool: Arc<TxPool>,
    source: Arc<dyn RaaDataSource>,
    set_selector: Selector,
    hms: HmsConfig,
}

impl PoolRaaProvider {
    /// Builds the adapter over a shared pool and its committed-state
    /// source. `set_selector` identifies Sereth `set` transactions
    /// (Algorithm 2's SIGNATURE filter); `hms` carries the extension
    /// toggles.
    pub fn new(
        pool: Arc<TxPool>,
        source: Arc<dyn RaaDataSource>,
        set_selector: Selector,
        hms: HmsConfig,
    ) -> Self {
        Self { pool, source, set_selector, hms }
    }
}

impl RaaProvider for PoolRaaProvider {
    fn augment(&self, request: &RaaRequest<'_>) -> Option<Bytes> {
        let committed = self.source.committed(&request.contract);
        let view = self.pool.market_view(&request.contract, self.set_selector, committed, &self.hms);
        let words = view.to_words();
        // Write the view into the three argument words (Fig. 1, R3).
        let with_hint = abi::replace_arg_word(request.calldata, 0, words[0])?;
        let with_mark = abi::replace_arg_word(&with_hint, 1, words[1])?;
        abi::replace_arg_word(&with_mark, 2, words[2])
    }
}

impl core::fmt::Debug for PoolRaaProvider {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PoolRaaProvider").field("pool", &self.pool).field("hms", &self.hms).finish()
    }
}
