//! The adapter wiring [`RaaService`] into the VM's RAA hook.
//!
//! [`ServiceRaaProvider`] is the drop-in replacement for the
//! recompute-per-query `HmsRaaProvider` in `sereth-core`: on each
//! read-only call it (1) lets its [`RaaDataSource`] push any new pool
//! events into the service, (2) reads the contract's committed AMV, and
//! (3) serves the cached incremental view — writing it into the call's
//! three argument words exactly as Fig. 1 activity R3 prescribes.

use std::sync::Arc;

use bytes::Bytes;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_vm::abi;
use sereth_vm::raa::{RaaProvider, RaaRequest};

use crate::service::RaaService;

/// The live node data the service adapter needs per query. `sereth-node`
/// implements this over its pool and chain; tests use fixtures.
pub trait RaaDataSource: Send + Sync {
    /// Pushes any new pool events into `service` — typically by briefly
    /// locking the node and calling [`RaaService::sync`] with its pool.
    fn sync(&self, service: &RaaService);

    /// The committed `(mark, value)` of `contract` at the canonical
    /// head.
    fn committed(&self, contract: &Address) -> (H256, H256);
}

/// An [`RaaProvider`] backed by the incremental [`RaaService`].
pub struct ServiceRaaProvider {
    service: Arc<RaaService>,
    source: Arc<dyn RaaDataSource>,
}

impl ServiceRaaProvider {
    /// Builds the adapter over a shared service and its data source.
    pub fn new(service: Arc<RaaService>, source: Arc<dyn RaaDataSource>) -> Self {
        Self { service, source }
    }
}

impl RaaProvider for ServiceRaaProvider {
    fn augment(&self, request: &RaaRequest<'_>) -> Option<Bytes> {
        self.source.sync(&self.service);
        let committed = self.source.committed(&request.contract);
        let view = self.service.view(&request.contract, committed);
        let words = view.to_words();
        // Write the view into the three argument words (Fig. 1, R3).
        let with_hint = abi::replace_arg_word(request.calldata, 0, words[0])?;
        let with_mark = abi::replace_arg_word(&with_hint, 1, words[1])?;
        abi::replace_arg_word(&with_mark, 2, words[2])
    }
}

impl core::fmt::Debug for ServiceRaaProvider {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServiceRaaProvider").field("service", &self.service).finish()
    }
}
