//! Shared semantics of `CALL` / `STATICCALL` sub-frames.
//!
//! The interpreter executes sub-calls iteratively —
//! `interpreter::execute_owned` keeps suspended parents in an explicit
//! stack — and builds the child environment, stipend, and native dispatch
//! from the helpers here. [`run_native`] also runs a native contract
//! called at the top level by [`crate::raa::execute_call`].
//!
//! Two deliberate simplifications against the Yellow Paper, both noted in
//! `DESIGN.md` §7:
//!
//! * the 25 000-gas new-account surcharge is not modelled (accounts are
//!   cheap in the simulation and the experiments never create them via
//!   `CALL`);
//! * the caller is charged `child_gas_used - stipend` after the fact
//!   instead of pre-paying the forwarded gas and being refunded — the net
//!   amounts are identical.
//!
//! Sub-calls are **never** RAA-augmented: augmentation is a property of
//! the top-level read-only query path (paper §III-D), not of the call
//! instruction.

use bytes::Bytes;
use sereth_crypto::address::Address;
use sereth_types::receipt::TxStatus;
use sereth_types::u256::U256;

use crate::exec::{CallEnv, CallOutcome, NativeContract, Storage};
use crate::gas::{GasMeter, CALL_STIPEND, NATIVE_CALL_GAS};

/// A decoded `CALL`/`STATICCALL` request, after the caller's frame has
/// popped the operands and read the argument region out of memory.
#[derive(Debug, Clone)]
pub(crate) struct SubCallRequest {
    /// Gas the caller offered (the `gas` stack operand, saturated to u64).
    pub gas_requested: u64,
    /// Callee address.
    pub target: Address,
    /// Value to transfer (always zero for `STATICCALL`).
    pub value: U256,
    /// Child calldata.
    pub calldata: Bytes,
    /// `true` for `STATICCALL`: the child frame is read-only even if the
    /// parent is not.
    pub is_static_call: bool,
}

/// The execution-gas grant accompanying a value transfer.
pub(crate) fn stipend_for(value: U256) -> u64 {
    if value.is_zero() {
        0
    } else {
        CALL_STIPEND
    }
}

/// Builds the child frame's environment from the parent's and the request.
pub(crate) fn child_env(parent: &CallEnv, request: &SubCallRequest) -> CallEnv {
    CallEnv {
        caller: parent.callee,
        callee: request.target,
        call_value: request.value,
        calldata: request.calldata.clone(),
        block_number: parent.block_number,
        timestamp_ms: parent.timestamp_ms,
        is_static: parent.is_static || request.is_static_call,
        depth: parent.depth + 1,
    }
}

/// Runs a native contract as a call target, producing the same outcome
/// shape as a bytecode frame.
pub(crate) fn run_native(
    native: &dyn NativeContract,
    env: &CallEnv,
    storage: &mut dyn Storage,
    gas_limit: u64,
) -> CallOutcome {
    let mut meter = GasMeter::new(gas_limit);
    let mut logs = Vec::new();
    match meter.charge(NATIVE_CALL_GAS).and_then(|()| native.call(env, storage, &mut meter, &mut logs)) {
        Ok(return_data) => {
            CallOutcome { status: TxStatus::Success, return_data, gas_used: meter.used(), logs }
        }
        Err(error) => CallOutcome::from_error(&error, meter.used()),
    }
}

/// Extracts the low 20 bytes of a stack word as an address (how `CALL`
/// and `BALANCE` interpret their address operand).
pub(crate) fn word_address(word: U256) -> Address {
    let bytes = word.to_be_bytes();
    let mut out = [0u8; 20];
    out.copy_from_slice(&bytes[12..]);
    Address::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_at_depth(depth: u16) -> CallEnv {
        let mut env = CallEnv::test_env(Address::from_low_u64(1), Address::from_low_u64(2), Bytes::new());
        env.depth = depth;
        env
    }

    fn transfer_request(value: u64) -> SubCallRequest {
        SubCallRequest {
            gas_requested: 100_000,
            target: Address::from_low_u64(9),
            value: U256::from(value),
            calldata: Bytes::new(),
            is_static_call: false,
        }
    }

    #[test]
    fn child_env_inherits_and_deepens() {
        let parent = env_at_depth(3);
        let request = transfer_request(7);
        let child = child_env(&parent, &request);
        assert_eq!(child.caller, parent.callee);
        assert_eq!(child.callee, request.target);
        assert_eq!(child.depth, 4);
        assert!(!child.is_static);
        let static_request = SubCallRequest { is_static_call: true, ..transfer_request(0) };
        assert!(child_env(&parent, &static_request).is_static);
    }

    #[test]
    fn stipend_only_for_value_transfers() {
        assert_eq!(stipend_for(U256::ZERO), 0);
        assert_eq!(stipend_for(U256::ONE), CALL_STIPEND);
    }

    #[test]
    fn word_address_takes_low_20_bytes() {
        let word = U256::from_be_bytes([0xff; 32]);
        assert_eq!(word_address(word), Address::new([0xff; 20]));
        assert_eq!(word_address(U256::from(7u64)), Address::from_low_u64(7));
    }
}
