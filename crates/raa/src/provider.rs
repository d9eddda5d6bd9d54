//! The adapter wiring [`TxPool::market_view`] into the VM's RAA hook.
//!
//! On each read-only call [`PoolRaaProvider`] (1) reads the contract's
//! committed AMV from its two storage slots in the state the call runs
//! on, (2) reads the pool's cached view, and (3) writes it into the
//! call's three argument words exactly as Fig. 1 activity R3 prescribes.

use std::sync::Arc;

use bytes::Bytes;
use sereth_chain::txpool::TxPool;
use sereth_core::hms::HmsConfig;
use sereth_crypto::hash::H256;
use sereth_vm::abi;
use sereth_vm::raa::{RaaProvider, RaaRequest};

/// An [`RaaProvider`] serving [`TxPool::market_view`].
pub struct PoolRaaProvider {
    pool: Arc<TxPool>,
    /// The storage slots of a market's committed `(mark, value)`.
    slots: (H256, H256),
    hms: HmsConfig,
}

impl PoolRaaProvider {
    /// Builds the adapter over a shared pool. `slots` are the `(mark,
    /// value)` storage keys the committed AMV is read from, in the
    /// read-only state of the call being augmented
    /// ([`RaaRequest::state`]), so the answer describes the same head as
    /// the call; `hms` carries the extension toggles.
    pub fn new(pool: Arc<TxPool>, slots: (H256, H256), hms: HmsConfig) -> Self {
        Self { pool, slots, hms }
    }
}

impl RaaProvider for PoolRaaProvider {
    fn augment(&self, request: &RaaRequest<'_>) -> Option<Bytes> {
        let (mark, value) = &self.slots;
        let committed_slot = |slot| request.state.storage_get(&request.contract, slot);
        let committed = (committed_slot(mark), committed_slot(value));
        let view = self.pool.market_view(&request.contract, committed, &self.hms);
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

#[cfg(test)]
mod tests {
    use super::*;
    use sereth_core::fpv::{Flag, Fpv, SET_SELECTOR, SPECIAL_VALUE};
    use sereth_core::mark::{compute_mark, genesis_mark};
    use sereth_crypto::address::Address;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::transaction::{Transaction, TxPayload};
    use sereth_types::u256::U256;
    use sereth_vm::abi::Selector;
    use sereth_vm::exec::{MemStorage, Storage};

    fn market() -> Address {
        Address::from_low_u64(7)
    }

    /// A state whose committed `(mark, value)` for [`market`] is the given
    /// pair.
    fn committed_state(mark: H256, value: u64) -> MemStorage {
        let mut state = MemStorage::new();
        state.storage_set(&market(), H256::ZERO, mark);
        state.storage_set(&market(), H256::from_low_u64(1), H256::from_low_u64(value));
        state
    }

    fn genesis_state() -> MemStorage {
        committed_state(genesis_mark(), 50)
    }

    fn get_sel() -> Selector {
        abi::selector("get(bytes32[3])")
    }

    fn set_tx(nonce: u64, flag: Flag, prev: H256, value: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 100_000,
                to: Some(market()),
                value: U256::ZERO,
                input: Fpv::new(flag, prev, H256::from_low_u64(value)).to_calldata(SET_SELECTOR),
            },
            &SecretKey::from_label(1),
        )
    }

    fn provider_with(pool: Vec<Transaction>) -> (PoolRaaProvider, Arc<TxPool>) {
        let shared = Arc::new(TxPool::new());
        for (now, tx) in pool.into_iter().enumerate() {
            shared.insert(tx, now as u64).unwrap();
        }
        // The fixture layout: the committed mark in slot 0, the value in 1.
        let slots = (H256::ZERO, H256::from_low_u64(1));
        (PoolRaaProvider::new(shared.clone(), slots, HmsConfig::default()), shared)
    }

    fn request<'a>(calldata: &'a [u8], state: &'a MemStorage) -> RaaRequest<'a> {
        RaaRequest {
            contract: market(),
            selector: get_sel(),
            calldata,
            caller: Address::from_low_u64(1),
            state,
        }
    }

    fn raa_call_on(provider: &PoolRaaProvider, state: &MemStorage) -> [H256; 3] {
        let calldata = abi::encode_call(get_sel(), &[H256::ZERO, H256::ZERO, H256::ZERO]);
        let augmented = provider.augment(&request(&calldata, state)).expect("three words present");
        [0, 1, 2].map(|i| abi::arg_word(&augmented, i).unwrap())
    }

    fn raa_call(provider: &PoolRaaProvider) -> [H256; 3] {
        raa_call_on(provider, &genesis_state())
    }

    #[test]
    fn empty_pool_serves_special_value_and_committed_state() {
        let (provider, _) = provider_with(vec![]);
        let [hint, mark, value] = raa_call(&provider);
        assert_eq!(hint, SPECIAL_VALUE);
        assert_eq!(mark, genesis_mark());
        assert_eq!(value, H256::from_low_u64(50));
    }

    #[test]
    fn committed_amv_comes_from_the_state_the_call_runs_on() {
        // One provider, two states: each answer carries that state's
        // committed `(mark, value)`, never one read from anywhere else.
        let (provider, _) = provider_with(vec![]);
        let later_mark = compute_mark(&genesis_mark(), &H256::from_low_u64(80));
        for (state, mark, value) in
            [(genesis_state(), genesis_mark(), 50), (committed_state(later_mark, 80), later_mark, 80)]
        {
            let [hint, served_mark, served_value] = raa_call_on(&provider, &state);
            assert_eq!(hint, SPECIAL_VALUE);
            assert_eq!((served_mark, served_value), (mark, H256::from_low_u64(value)));
        }
    }

    #[test]
    fn pending_series_serves_tail_view() {
        let m1 = compute_mark(&genesis_mark(), &H256::from_low_u64(60));
        let m2 = compute_mark(&m1, &H256::from_low_u64(70));
        let (provider, _) =
            provider_with(vec![set_tx(0, Flag::Head, genesis_mark(), 60), set_tx(1, Flag::Success, m1, 70)]);
        let [hint, mark, value] = raa_call(&provider);
        assert_eq!(hint, Flag::Success.to_word());
        assert_eq!(mark, m2);
        assert_eq!(value, H256::from_low_u64(70));
    }

    #[test]
    fn augment_preserves_selector_and_length() {
        let (provider, _) = provider_with(vec![]);
        let calldata = abi::encode_call(get_sel(), &[H256::ZERO, H256::ZERO, H256::ZERO]);
        let augmented = provider.augment(&request(&calldata, &genesis_state())).unwrap();
        assert_eq!(augmented.len(), calldata.len());
        assert_eq!(&augmented[..4], &calldata[..4]);
    }

    #[test]
    fn augment_fails_gracefully_on_short_calldata() {
        let (provider, _) = provider_with(vec![]);
        let calldata = abi::encode_call(get_sel(), &[H256::ZERO]); // only one word
        assert!(provider.augment(&request(&calldata, &genesis_state())).is_none());
    }

    #[test]
    fn provider_observes_live_pool_changes() {
        let (provider, pool) = provider_with(vec![]);
        assert_eq!(raa_call(&provider)[0], SPECIAL_VALUE);
        pool.insert(set_tx(0, Flag::Head, genesis_mark(), 99), 0).unwrap();
        let [hint, _, value] = raa_call(&provider);
        assert_eq!(hint, Flag::Success.to_word());
        assert_eq!(value, H256::from_low_u64(99));
    }
}
