//! Runtime Argument Augmentation (RAA) — the interpreter hook of paper
//! §III-D and Fig. 1.
//!
//! RAA "provides data to a smart contract by using the argument list as a
//! channel to pass information". Before a *read-only* call executes, the
//! interpreter asks a registered [`RaaProvider`] whether it wants to rewrite
//! the call's arguments (activities E2 and R1–R3 in Fig. 1). The contract
//! then executes with the augmented calldata and simply returns the data it
//! finds in its arguments — see the `get`/`mark` functions of Listing 1.
//!
//! **Transactions are never augmented.** Their calldata is covered by the
//! sender's signature; a client that rewrites it produces transactions that
//! fail replay validation (the paper verified this experimentally). The
//! [`execute_call`] entry point therefore consults the provider only when
//! `env.is_static` is true.

use std::collections::HashSet;
use std::sync::Arc;

use bytes::Bytes;
use sereth_crypto::address::Address;

use crate::abi::Selector;
use crate::exec::{CallEnv, CallOutcome, ContractCode, Storage};
use crate::{interpreter, subcall};
use sereth_types::receipt::TxStatus;

/// A read-only call about to execute, as presented to an [`RaaProvider`].
#[derive(Clone)]
pub struct RaaRequest<'a> {
    /// The contract being called.
    pub contract: Address,
    /// The function selector.
    pub selector: Selector,
    /// The original calldata (selector included).
    pub calldata: &'a [u8],
    /// Who is asking.
    pub caller: Address,
    /// The state the call executes against, read-only here. A provider
    /// that needs committed facts reads them from it, so its answer
    /// describes the same snapshot the call runs on.
    pub state: &'a dyn Storage,
}

/// An external data service wired into the interpreter (paper Fig. 1,
/// "RAA Data Service"). `sereth-raa`'s `PoolRaaProvider`, which serves
/// the pool's cached Hash-Mark-Set views, is the canonical
/// implementation; the `raa_oracle` example shows a conventional
/// price-feed oracle built on the same hook.
pub trait RaaProvider: Send + Sync {
    /// Optionally rewrites the calldata of a pending read-only call.
    ///
    /// Returning `None` leaves the call untouched (activity "No RAA" in
    /// Fig. 1). The returned bytes must keep the selector intact; the
    /// dispatcher re-checks and discards rewrites that alter it.
    fn augment(&self, request: &RaaRequest<'_>) -> Option<Bytes>;
}

/// Registry of `(contract, selector)` pairs for which RAA is enabled, plus
/// the provider that serves them.
#[derive(Clone, Default)]
pub struct RaaRegistry {
    enabled: HashSet<(Address, Selector)>,
    provider: Option<Arc<dyn RaaProvider>>,
}

impl RaaRegistry {
    /// An empty registry: RAA disabled everywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables RAA for `selector` on `contract`.
    pub fn enable(&mut self, contract: Address, selector: Selector) {
        self.enabled.insert((contract, selector));
    }

    /// Installs the provider consulted for enabled calls.
    pub fn set_provider(&mut self, provider: Arc<dyn RaaProvider>) {
        self.provider = Some(provider);
    }

    /// `true` if `(contract, selector)` is RAA-enabled and a provider is
    /// installed.
    pub fn is_enabled(&self, contract: &Address, selector: &Selector) -> bool {
        self.provider.is_some() && self.enabled.contains(&(*contract, *selector))
    }

    /// Applies augmentation to `env` if eligible; returns the possibly
    /// rewritten environment. `state` is what the call will read; the
    /// provider sees it as [`RaaRequest::state`].
    pub fn apply(&self, env: CallEnv, state: &dyn Storage) -> CallEnv {
        if !env.is_static {
            // Signed transaction calldata is immutable (paper §III-D).
            return env;
        }
        let Some(selector) = env.selector() else { return env };
        if !self.is_enabled(&env.callee, &selector) {
            return env;
        }
        let provider = self.provider.as_ref().expect("checked by is_enabled");
        let request =
            RaaRequest { contract: env.callee, selector, calldata: &env.calldata, caller: env.caller, state };
        match provider.augment(&request) {
            Some(new_calldata) if new_calldata.len() >= 4 && new_calldata[..4] == selector => {
                let mut env = env;
                env.calldata = new_calldata;
                env
            }
            _ => env,
        }
    }
}

impl core::fmt::Debug for RaaRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RaaRegistry")
            .field("enabled", &self.enabled.len())
            .field("has_provider", &self.provider.is_some())
            .finish()
    }
}

/// Executes a call frame against `code`, applying RAA when eligible.
///
/// This is the single entry point both the transaction executor and the
/// read-only query path use; the only difference between them is
/// `env.is_static`, which simultaneously (a) forbids writes and (b) permits
/// augmentation — mirroring how the paper's modified EVM only augments
/// non-transaction calls.
pub fn execute_call(
    code: &ContractCode,
    env: CallEnv,
    storage: &mut dyn Storage,
    gas_limit: u64,
    raa: &RaaRegistry,
) -> CallOutcome {
    let env = raa.apply(env, storage);
    match code {
        ContractCode::None => CallOutcome {
            // Plain value transfer to an account with no code.
            status: TxStatus::Success,
            return_data: Bytes::new(),
            gas_used: 0,
            logs: Vec::new(),
        },
        ContractCode::Bytecode(bytes) => interpreter::execute_owned(bytes.clone(), env, storage, gas_limit),
        ContractCode::Native(native) => subcall::run_native(native.as_ref(), &env, storage, gas_limit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::{self, encode_call};
    use crate::exec::MemStorage;
    use sereth_crypto::hash::H256;

    /// A provider that rewrites argument word 0 to a fixed value.
    struct FixedProvider(H256);

    impl RaaProvider for FixedProvider {
        fn augment(&self, request: &RaaRequest<'_>) -> Option<Bytes> {
            abi::replace_arg_word(request.calldata, 0, self.0)
        }
    }

    /// A provider that clobbers the selector (must be rejected).
    struct EvilProvider;

    impl RaaProvider for EvilProvider {
        fn augment(&self, _request: &RaaRequest<'_>) -> Option<Bytes> {
            Some(Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]))
        }
    }

    fn static_env(contract: Address, calldata: Bytes) -> CallEnv {
        let mut env = CallEnv::test_env(Address::from_low_u64(1), contract, calldata);
        env.is_static = true;
        env
    }

    #[test]
    fn augments_enabled_static_calls() {
        let contract = Address::from_low_u64(7);
        let sel = abi::selector("get(bytes32[3])");
        let mut registry = RaaRegistry::new();
        registry.enable(contract, sel);
        registry.set_provider(Arc::new(FixedProvider(H256::from_low_u64(0x1234))));

        let calldata = encode_call(sel, &[H256::ZERO, H256::ZERO, H256::ZERO]);
        let env = registry.apply(static_env(contract, calldata), &MemStorage::new());
        assert_eq!(abi::arg_word(&env.calldata, 0), Some(H256::from_low_u64(0x1234)));
    }

    #[test]
    fn never_augments_transactions() {
        let contract = Address::from_low_u64(7);
        let sel = abi::selector("set(bytes32[3])");
        let mut registry = RaaRegistry::new();
        registry.enable(contract, sel);
        registry.set_provider(Arc::new(FixedProvider(H256::from_low_u64(0x1234))));

        let calldata = encode_call(sel, &[H256::ZERO]);
        let mut env = CallEnv::test_env(Address::from_low_u64(1), contract, calldata.clone());
        env.is_static = false; // a transaction
        let env = registry.apply(env, &MemStorage::new());
        assert_eq!(env.calldata, calldata, "signed calldata must be untouched");
    }

    #[test]
    fn ignores_unregistered_selectors() {
        let contract = Address::from_low_u64(7);
        let registered = abi::selector("get(bytes32[3])");
        let other = abi::selector("mark(bytes32[3])");
        let mut registry = RaaRegistry::new();
        registry.enable(contract, registered);
        registry.set_provider(Arc::new(FixedProvider(H256::from_low_u64(1))));

        let calldata = encode_call(other, &[H256::ZERO]);
        let env = registry.apply(static_env(contract, calldata.clone()), &MemStorage::new());
        assert_eq!(env.calldata, calldata);
    }

    #[test]
    fn ignores_other_contracts() {
        let sel = abi::selector("get(bytes32[3])");
        let mut registry = RaaRegistry::new();
        registry.enable(Address::from_low_u64(7), sel);
        registry.set_provider(Arc::new(FixedProvider(H256::from_low_u64(1))));

        let calldata = encode_call(sel, &[H256::ZERO]);
        let env = registry.apply(static_env(Address::from_low_u64(8), calldata.clone()), &MemStorage::new());
        assert_eq!(env.calldata, calldata);
    }

    #[test]
    fn no_provider_means_no_augmentation() {
        let contract = Address::from_low_u64(7);
        let sel = abi::selector("get(bytes32[3])");
        let mut registry = RaaRegistry::new();
        registry.enable(contract, sel);

        let calldata = encode_call(sel, &[H256::ZERO]);
        assert!(!registry.is_enabled(&contract, &sel));
        let env = registry.apply(static_env(contract, calldata.clone()), &MemStorage::new());
        assert_eq!(env.calldata, calldata);
    }

    #[test]
    fn selector_clobbering_rewrites_are_discarded() {
        let contract = Address::from_low_u64(7);
        let sel = abi::selector("get(bytes32[3])");
        let mut registry = RaaRegistry::new();
        registry.enable(contract, sel);
        registry.set_provider(Arc::new(EvilProvider));

        let calldata = encode_call(sel, &[H256::ZERO]);
        let env = registry.apply(static_env(contract, calldata.clone()), &MemStorage::new());
        assert_eq!(env.calldata, calldata);
    }

    #[test]
    fn execute_call_on_empty_account_succeeds() {
        let env = CallEnv::test_env(Address::from_low_u64(1), Address::from_low_u64(2), Bytes::new());
        let mut storage = MemStorage::new();
        let outcome = execute_call(&ContractCode::None, env, &mut storage, 100_000, &RaaRegistry::new());
        assert_eq!(outcome.status, TxStatus::Success);
        assert_eq!(outcome.gas_used, 0);
    }
}
