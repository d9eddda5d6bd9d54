//! The transaction executor: applies signed transactions to the state and
//! produces receipts; also hosts the read-only (`eth_call`-style) query
//! path through which RAA operates.

use bytes::Bytes;
use sereth_crypto::address::{contract_address, Address};
use sereth_types::block::BlockHeader;
use sereth_types::receipt::{Receipt, TxStatus};
use sereth_types::transaction::Transaction;
use sereth_types::u256::U256;
use sereth_vm::exec::{CallEnv, CallOutcome, ContractCode, Storage};
use sereth_vm::gas::intrinsic_gas;
use sereth_vm::raa::{execute_call, RaaRegistry};

use crate::state::{StateDb, StateView};

/// Block-level facts visible to executing transactions.
#[derive(Debug, Clone)]
pub struct BlockEnv {
    /// Height of the block being built or replayed.
    pub number: u64,
    /// Timestamp of the block (simulated milliseconds).
    pub timestamp_ms: u64,
    /// Gas capacity of the block.
    pub gas_limit: u64,
    /// The block's miner, credited with fees.
    pub miner: Address,
}

impl From<&BlockHeader> for BlockEnv {
    /// The env of the block `header` seals.
    fn from(header: &BlockHeader) -> Self {
        Self {
            number: header.number,
            timestamp_ms: header.timestamp_ms,
            gas_limit: header.gas_limit,
            miner: header.miner,
        }
    }
}

/// Reasons a transaction cannot be included in a block at all.
///
/// These differ from *failed* transactions: a semantically failed Sereth
/// `buy` executes fine and lands in the block (paper §III-A); the variants
/// here are protocol violations that validators reject outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxApplyError {
    /// The signature does not cover the payload (e.g. RAA-tampered input).
    BadSignature,
    /// The nonce does not match the sender's account nonce.
    NonceMismatch {
        /// Nonce the account expects next.
        expected: u64,
        /// Nonce the transaction carried.
        found: u64,
    },
    /// The sender cannot afford `gas_limit * gas_price + value`.
    InsufficientFunds,
    /// `gas_limit` does not even cover the intrinsic calldata gas.
    IntrinsicGasTooHigh,
}

impl core::fmt::Display for TxApplyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadSignature => write!(f, "invalid transaction signature"),
            Self::NonceMismatch { expected, found } => {
                write!(f, "nonce mismatch: expected {expected}, found {found}")
            }
            Self::InsufficientFunds => write!(f, "insufficient funds for gas and value"),
            Self::IntrinsicGasTooHigh => write!(f, "gas limit below intrinsic gas"),
        }
    }
}

impl std::error::Error for TxApplyError {}

/// Applies `tx` to `state`, returning its receipt.
///
/// On success the state reflects the transaction (which may still be a
/// *semantic* no-op for the contract). On [`TxApplyError`] the state is
/// unchanged and the transaction must not be included in a block.
///
/// Transactions are **never** RAA-augmented — their calldata is covered by
/// the signature — so this function needs no [`RaaRegistry`]; augmentation
/// exists only on the [`call_readonly`] path, mirroring the paper's §III-D
/// restriction. Building and replay validation both run this one function,
/// so a block's builder and its validators cannot disagree on semantics.
///
/// # Errors
///
/// See [`TxApplyError`].
pub fn apply_transaction(
    state: &mut StateDb,
    env: &BlockEnv,
    tx: &Transaction,
    index: u32,
) -> Result<Receipt, TxApplyError> {
    if !tx.verify_signature() {
        return Err(TxApplyError::BadSignature);
    }
    let sender = tx.sender();
    let expected_nonce = state.nonce_of(&sender);
    if tx.nonce() != expected_nonce {
        return Err(TxApplyError::NonceMismatch { expected: expected_nonce, found: tx.nonce() });
    }
    let intrinsic = intrinsic_gas(tx.input());
    if intrinsic > tx.gas_limit() {
        return Err(TxApplyError::IntrinsicGasTooHigh);
    }
    let gas_cost = U256::from(tx.gas_limit()) * U256::from(tx.gas_price());
    let total_cost = gas_cost + tx.value();
    if state.balance_get(&sender) < total_cost {
        return Err(TxApplyError::InsufficientFunds);
    }

    // Buy the gas and bump the nonce; these survive even if execution
    // reverts (the failed transaction still pays).
    assert!(state.debit(&sender, gas_cost), "funds checked above");
    state.set_nonce(&sender, expected_nonce + 1);

    let exec_checkpoint = state.checkpoint();
    let (callee, code) = match tx.to() {
        Some(to) => (to, state.code_get(&to)),
        None => {
            // Contract creation: install calldata as runtime code (the
            // substrate skips constructor semantics; see DESIGN.md §7).
            let created = contract_address(&sender, expected_nonce);
            state.set_code(&created, ContractCode::Bytecode(tx.input().clone()));
            (created, ContractCode::None)
        }
    };

    // Transfer the value, then run the code.
    let mut outcome = if state.debit(&sender, tx.value()) {
        state.credit(&callee, tx.value());
        let call_env = CallEnv {
            caller: sender,
            callee,
            call_value: tx.value(),
            calldata: tx.input().clone(),
            block_number: env.number,
            timestamp_ms: env.timestamp_ms,
            is_static: false,
            depth: 0,
        };
        let vm_gas_limit = tx.gas_limit() - intrinsic;
        execute_call(&code, call_env, state, vm_gas_limit, &RaaRegistry::new())
    } else {
        CallOutcome { status: TxStatus::Reverted, return_data: Bytes::new(), gas_used: 0, logs: Vec::new() }
    };

    if !outcome.status.is_success() {
        state.revert_checkpoint(exec_checkpoint);
        outcome.logs.clear();
    }

    let gas_used = intrinsic + outcome.gas_used;
    debug_assert!(gas_used <= tx.gas_limit());

    // Refund unused gas; pay the miner.
    let refund = U256::from(tx.gas_limit() - gas_used) * U256::from(tx.gas_price());
    state.credit(&sender, refund);
    state.credit(&env.miner, U256::from(gas_used) * U256::from(tx.gas_price()));

    Ok(Receipt { tx_hash: tx.hash(), index, status: outcome.status, gas_used, logs: outcome.logs })
}

/// Runs a read-only call against an immutable state view (the `eth_call`
/// analogue). This is the path on which RAA augmentation happens; the
/// Sereth client's `get`/`mark` queries go through here (paper Fig. 1).
///
/// The view is never copied: execution runs over an
/// [`OverlayStorage`](sereth_vm::exec::OverlayStorage) whose construction
/// is O(1) in state size, so read latency is independent of how many
/// accounts exist. Obtain the view in O(1) via [`StateDb::view`] or
/// [`crate::store::ChainStore::head_state_view`].
pub fn call_readonly(
    view: &StateView,
    caller: Address,
    contract: Address,
    calldata: Bytes,
    env: &BlockEnv,
    raa: &RaaRegistry,
) -> CallOutcome {
    let code = view.code_of(&contract);
    let mut scratch = sereth_vm::exec::OverlayStorage::new(view);
    let call_env = CallEnv {
        caller,
        callee: contract,
        call_value: U256::ZERO,
        calldata,
        block_number: env.number,
        timestamp_ms: env.timestamp_ms,
        is_static: true,
        depth: 0,
    };
    execute_call(&code, call_env, &mut scratch, env.gas_limit, raa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sereth_crypto::hash::H256;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::transaction::TxPayload;
    use sereth_vm::asm::assemble;

    fn env() -> BlockEnv {
        BlockEnv {
            number: 1,
            timestamp_ms: 1_000,
            gas_limit: 8_000_000,
            miner: Address::from_low_u64(0xbeef),
        }
    }

    fn fund(state: &mut StateDb, key: &SecretKey, amount: u64) {
        state.credit(&key.address(), U256::from(amount));
        state.clear_journal();
    }

    fn transfer_tx(key: &SecretKey, nonce: u64, to: Address, value: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 30_000,
                to: Some(to),
                value: U256::from(value),
                input: Bytes::new(),
            },
            key,
        )
    }

    #[test]
    fn simple_transfer_moves_value_and_pays_miner() {
        let mut state = StateDb::new();
        let key = SecretKey::from_label(1);
        fund(&mut state, &key, 1_000_000);
        let to = Address::from_low_u64(0xaa);

        let receipt = apply_transaction(&mut state, &env(), &transfer_tx(&key, 0, to, 500), 0).unwrap();
        assert_eq!(receipt.status, TxStatus::Success);
        assert_eq!(receipt.gas_used, 21_000);
        assert_eq!(state.balance_of(&to), U256::from(500u64));
        assert_eq!(state.balance_of(&env().miner), U256::from(21_000u64));
        assert_eq!(state.balance_of(&key.address()), U256::from(1_000_000u64 - 500 - 21_000));
        assert_eq!(state.nonce_of(&key.address()), 1);
    }

    #[test]
    fn nonce_must_match() {
        let mut state = StateDb::new();
        let key = SecretKey::from_label(1);
        fund(&mut state, &key, 1_000_000);
        let err =
            apply_transaction(&mut state, &env(), &transfer_tx(&key, 5, Address::ZERO, 1), 0).unwrap_err();
        assert_eq!(err, TxApplyError::NonceMismatch { expected: 0, found: 5 });
    }

    #[test]
    fn insufficient_funds_rejected_without_state_change() {
        let mut state = StateDb::new();
        let key = SecretKey::from_label(1);
        fund(&mut state, &key, 100); // cannot afford 30k gas
        let root = state.state_root();
        let err =
            apply_transaction(&mut state, &env(), &transfer_tx(&key, 0, Address::ZERO, 1), 0).unwrap_err();
        assert_eq!(err, TxApplyError::InsufficientFunds);
        assert_eq!(state.state_root(), root);
    }

    #[test]
    fn tampered_transaction_rejected() {
        let mut state = StateDb::new();
        let key = SecretKey::from_label(1);
        fund(&mut state, &key, 1_000_000);
        let tx = transfer_tx(&key, 0, Address::ZERO, 1).with_tampered_input(Bytes::from_static(b"evil"));
        let err = apply_transaction(&mut state, &env(), &tx, 0).unwrap_err();
        assert_eq!(err, TxApplyError::BadSignature);
    }

    #[test]
    fn intrinsic_gas_enforced() {
        let mut state = StateDb::new();
        let key = SecretKey::from_label(1);
        fund(&mut state, &key, 10_000_000);
        let tx = Transaction::sign(
            TxPayload {
                nonce: 0,
                gas_price: 1,
                gas_limit: 20_000, // below the 21k intrinsic
                to: Some(Address::ZERO),
                value: U256::ZERO,
                input: Bytes::new(),
            },
            &key,
        );
        assert_eq!(
            apply_transaction(&mut state, &env(), &tx, 0).unwrap_err(),
            TxApplyError::IntrinsicGasTooHigh
        );
    }

    #[test]
    fn reverting_contract_keeps_tx_in_block_but_rolls_back_state() {
        let mut state = StateDb::new();
        let key = SecretKey::from_label(1);
        fund(&mut state, &key, 10_000_000);
        let contract = Address::from_low_u64(0xc0de);
        // Store 1 at slot 0, then revert.
        let code = assemble("PUSH1 0x01\nPUSH1 0x00\nSSTORE\nPUSH1 0x00\nPUSH1 0x00\nREVERT").unwrap();
        state.set_code(&contract, ContractCode::Bytecode(Bytes::from(code)));
        state.clear_journal();

        let tx = Transaction::sign(
            TxPayload {
                nonce: 0,
                gas_price: 1,
                gas_limit: 100_000,
                to: Some(contract),
                value: U256::ZERO,
                input: Bytes::new(),
            },
            &key,
        );
        let receipt = apply_transaction(&mut state, &env(), &tx, 0).unwrap();
        assert_eq!(receipt.status, TxStatus::Reverted);
        assert!(receipt.logs.is_empty());
        // The slot write was rolled back…
        assert_eq!(state.storage_get(&contract, &H256::ZERO), H256::ZERO);
        // …but the nonce advanced and gas was paid: the failure is recorded
        // on-chain, exactly as the paper describes.
        assert_eq!(state.nonce_of(&key.address()), 1);
        assert!(state.balance_of(&env().miner) > U256::ZERO);
    }

    #[test]
    fn successful_contract_call_persists_storage_and_logs() {
        let mut state = StateDb::new();
        let key = SecretKey::from_label(1);
        fund(&mut state, &key, 10_000_000);
        let contract = Address::from_low_u64(0xc0de);
        let code = assemble("PUSH1 0x2a\nPUSH1 0x00\nSSTORE\nPUSH1 0x07\nPUSH1 0x00\nPUSH1 0x00\nLOG1\nSTOP")
            .unwrap();
        state.set_code(&contract, ContractCode::Bytecode(Bytes::from(code)));
        state.clear_journal();

        let tx = Transaction::sign(
            TxPayload {
                nonce: 0,
                gas_price: 2,
                gas_limit: 100_000,
                to: Some(contract),
                value: U256::ZERO,
                input: Bytes::new(),
            },
            &key,
        );
        let receipt = apply_transaction(&mut state, &env(), &tx, 3).unwrap();
        assert_eq!(receipt.status, TxStatus::Success);
        assert_eq!(receipt.index, 3);
        assert_eq!(receipt.logs.len(), 1);
        assert_eq!(state.storage_get(&contract, &H256::ZERO), H256::from_low_u64(0x2a));
    }

    #[test]
    fn contract_creation_installs_code() {
        let mut state = StateDb::new();
        let key = SecretKey::from_label(1);
        fund(&mut state, &key, 10_000_000);
        let runtime = assemble("PUSH1 0x01\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN").unwrap();
        let tx = Transaction::sign(
            TxPayload {
                nonce: 0,
                gas_price: 1,
                gas_limit: 200_000,
                to: None,
                value: U256::ZERO,
                input: Bytes::from(runtime.clone()),
            },
            &key,
        );
        let receipt = apply_transaction(&mut state, &env(), &tx, 0).unwrap();
        assert_eq!(receipt.status, TxStatus::Success);
        let created = contract_address(&key.address(), 0);
        assert_eq!(state.code_of(&created), ContractCode::Bytecode(Bytes::from(runtime)));
    }

    #[test]
    fn readonly_call_does_not_mutate_state() {
        let mut state = StateDb::new();
        let contract = Address::from_low_u64(0xc0de);
        let code = assemble("PUSH1 0x05\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN").unwrap();
        state.set_code(&contract, ContractCode::Bytecode(Bytes::from(code)));
        state.clear_journal();
        let root = state.state_root();

        let outcome =
            call_readonly(&state.view(), Address::ZERO, contract, Bytes::new(), &env(), &RaaRegistry::new());
        assert_eq!(outcome.status, TxStatus::Success);
        assert_eq!(outcome.return_data[31], 5);
        assert_eq!(state.state_root(), root);
    }
}
