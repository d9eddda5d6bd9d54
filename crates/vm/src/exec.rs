//! Execution context types: environments, storage access, contract code,
//! and call outcomes.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_types::receipt::{Log, TxStatus};
use sereth_types::u256::U256;

use crate::error::VmError;
use crate::gas::GasMeter;

/// World state as seen by executing code: storage slots plus the account
/// facts needed by `BALANCE`, `CALL`, and `STATICCALL`.
///
/// The chain's journaled state database implements this; unit tests use
/// [`MemStorage`]. The checkpoint pair gives sub-calls transactional
/// semantics: a reverting child frame must undo only its own writes while
/// the parent frame continues.
pub trait Storage {
    /// Reads a storage slot; absent slots read as zero.
    fn storage_get(&self, address: &Address, key: &H256) -> H256;
    /// Writes a storage slot.
    fn storage_set(&mut self, address: &Address, key: H256, value: H256);

    /// The executable code of an account, for cross-contract calls.
    ///
    /// The default treats every account as externally owned (no code), which
    /// makes `CALL` a plain value transfer — appropriate for backends that
    /// only model storage.
    fn code_get(&self, _address: &Address) -> ContractCode {
        ContractCode::None
    }

    /// The balance of an account (`BALANCE` / `SELFBALANCE`).
    fn balance_get(&self, _address: &Address) -> U256 {
        U256::ZERO
    }

    /// Moves `value` from `from` to `to`, returning `false` (and changing
    /// nothing) on insufficient funds. The default supports only zero-value
    /// transfers.
    fn transfer(&mut self, _from: &Address, _to: &Address, value: U256) -> bool {
        value.is_zero()
    }

    /// Marks a rollback point covering every subsequent write.
    fn checkpoint(&self) -> usize;

    /// Undoes every write made after `checkpoint` was taken.
    fn revert_checkpoint(&mut self, checkpoint: usize);
}

/// A plain in-memory [`Storage`] for tests and stand-alone execution,
/// with just enough account state (balances, code) to exercise the
/// cross-contract call path without a full chain behind it.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    slots: std::collections::HashMap<(Address, H256), H256>,
    balances: std::collections::HashMap<Address, U256>,
    code: std::collections::HashMap<Address, ContractCode>,
    undo: Vec<MemUndo>,
}

#[derive(Debug, Clone)]
enum MemUndo {
    Slot { address: Address, key: H256, prev: H256 },
    Balance { address: Address, prev: U256 },
}

/// Pops and re-applies every [`MemUndo`] recorded after `checkpoint` —
/// the one undo-log algorithm shared by [`MemStorage`] and
/// [`OverlayStorage`].
fn replay_undo(
    undo: &mut Vec<MemUndo>,
    checkpoint: usize,
    slots: &mut std::collections::HashMap<(Address, H256), H256>,
    balances: &mut std::collections::HashMap<Address, U256>,
) {
    while undo.len() > checkpoint {
        match undo.pop().expect("length checked") {
            MemUndo::Slot { address, key, prev } => {
                slots.insert((address, key), prev);
            }
            MemUndo::Balance { address, prev } => {
                balances.insert(address, prev);
            }
        }
    }
}

impl MemStorage {
    /// An empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an account balance directly (test setup; not journaled).
    pub fn set_balance(&mut self, address: Address, balance: U256) {
        self.balances.insert(address, balance);
    }

    /// Installs account code directly (test setup; not journaled).
    pub fn set_code(&mut self, address: Address, code: ContractCode) {
        self.code.insert(address, code);
    }
}

impl Storage for MemStorage {
    fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        self.slots.get(&(*address, *key)).copied().unwrap_or(H256::ZERO)
    }

    fn storage_set(&mut self, address: &Address, key: H256, value: H256) {
        let prev = self.storage_get(address, &key);
        self.undo.push(MemUndo::Slot { address: *address, key, prev });
        self.slots.insert((*address, key), value);
    }

    fn code_get(&self, address: &Address) -> ContractCode {
        self.code.get(address).cloned().unwrap_or(ContractCode::None)
    }

    fn balance_get(&self, address: &Address) -> U256 {
        self.balances.get(address).copied().unwrap_or(U256::ZERO)
    }

    fn transfer(&mut self, from: &Address, to: &Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        let from_balance = self.balance_get(from);
        let Some(from_next) = from_balance.checked_sub(value) else {
            return false;
        };
        self.undo.push(MemUndo::Balance { address: *from, prev: from_balance });
        self.balances.insert(*from, from_next);
        let to_balance = self.balance_get(to);
        self.undo.push(MemUndo::Balance { address: *to, prev: to_balance });
        self.balances.insert(*to, to_balance + value);
        true
    }

    fn checkpoint(&self) -> usize {
        self.undo.len()
    }

    fn revert_checkpoint(&mut self, checkpoint: usize) {
        replay_undo(&mut self.undo, checkpoint, &mut self.slots, &mut self.balances);
    }
}

/// Read-only world state — the subset of [`Storage`] a frozen snapshot can
/// serve. Implemented by the chain's O(1) state views; [`OverlayStorage`]
/// lifts any implementor into a full [`Storage`] without copying it.
pub trait ReadStorage {
    /// Reads a storage slot; absent slots read as zero.
    fn storage_get(&self, address: &Address, key: &H256) -> H256;

    /// The executable code of an account.
    fn code_get(&self, _address: &Address) -> ContractCode {
        ContractCode::None
    }

    /// The balance of an account.
    fn balance_get(&self, _address: &Address) -> U256 {
        U256::ZERO
    }
}

/// A mutable [`Storage`] over a borrowed [`ReadStorage`] base: reads fall
/// through to the base, writes land in a journaled in-memory overlay.
///
/// Construction is O(1) regardless of base size, which is what keeps the
/// read-only call path (`call_readonly`) free of any state copy: a frame
/// that never writes costs nothing beyond the base reads, and a frame that
/// does write (a non-static call against a snapshot) pays only for the
/// slots it touches. The base is never mutated.
#[derive(Debug)]
pub struct OverlayStorage<'a, B: ReadStorage + ?Sized> {
    base: &'a B,
    slots: std::collections::HashMap<(Address, H256), H256>,
    balances: std::collections::HashMap<Address, U256>,
    undo: Vec<MemUndo>,
}

impl<'a, B: ReadStorage + ?Sized> OverlayStorage<'a, B> {
    /// An empty overlay over `base`.
    pub fn new(base: &'a B) -> Self {
        Self {
            base,
            slots: std::collections::HashMap::new(),
            balances: std::collections::HashMap::new(),
            undo: Vec::new(),
        }
    }
}

impl<B: ReadStorage + ?Sized> Storage for OverlayStorage<'_, B> {
    fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        match self.slots.get(&(*address, *key)) {
            Some(value) => *value,
            None => self.base.storage_get(address, key),
        }
    }

    fn storage_set(&mut self, address: &Address, key: H256, value: H256) {
        let prev = Storage::storage_get(self, address, &key);
        self.undo.push(MemUndo::Slot { address: *address, key, prev });
        self.slots.insert((*address, key), value);
    }

    fn code_get(&self, address: &Address) -> ContractCode {
        // Code is immutable within a call frame; no overlay needed.
        self.base.code_get(address)
    }

    fn balance_get(&self, address: &Address) -> U256 {
        match self.balances.get(address) {
            Some(balance) => *balance,
            None => self.base.balance_get(address),
        }
    }

    fn transfer(&mut self, from: &Address, to: &Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        let from_balance = Storage::balance_get(self, from);
        let Some(from_next) = from_balance.checked_sub(value) else {
            return false;
        };
        self.undo.push(MemUndo::Balance { address: *from, prev: from_balance });
        self.balances.insert(*from, from_next);
        let to_balance = Storage::balance_get(self, to);
        self.undo.push(MemUndo::Balance { address: *to, prev: to_balance });
        self.balances.insert(*to, to_balance + value);
        true
    }

    fn checkpoint(&self) -> usize {
        self.undo.len()
    }

    fn revert_checkpoint(&mut self, checkpoint: usize) {
        replay_undo(&mut self.undo, checkpoint, &mut self.slots, &mut self.balances);
    }
}

/// Immutable facts about the call being executed.
#[derive(Debug, Clone)]
pub struct CallEnv {
    /// The account that invoked the contract (`CALLER`).
    pub caller: Address,
    /// The contract being executed (`ADDRESS`).
    pub callee: Address,
    /// Wei sent with the call (`CALLVALUE`).
    pub call_value: U256,
    /// Calldata: 4-byte selector plus ABI-encoded arguments.
    pub calldata: Bytes,
    /// Current block height (`NUMBER`).
    pub block_number: u64,
    /// Current block timestamp in simulated milliseconds (`TIMESTAMP`).
    pub timestamp_ms: u64,
    /// `true` for read-only (`eth_call`-style) execution: `SSTORE` and
    /// `LOG` raise [`VmError::StaticViolation`]. RAA only ever augments
    /// static calls (paper §III-D).
    pub is_static: bool,
    /// Call nesting depth; 0 for the transaction's outer frame. `CALL`
    /// and `STATICCALL` at depth [`crate::gas::CALL_DEPTH_LIMIT`] fail
    /// flat, as in the EVM.
    pub depth: u16,
}

impl CallEnv {
    /// A minimal environment for tests: `caller` calls `callee` with
    /// `calldata` in block 1.
    pub fn test_env(caller: Address, callee: Address, calldata: Bytes) -> Self {
        Self {
            caller,
            callee,
            call_value: U256::ZERO,
            calldata,
            block_number: 1,
            timestamp_ms: 1_000,
            is_static: false,
            depth: 0,
        }
    }

    /// The first four calldata bytes, if present.
    pub fn selector(&self) -> Option<[u8; 4]> {
        if self.calldata.len() < 4 {
            return None;
        }
        let mut sel = [0u8; 4];
        sel.copy_from_slice(&self.calldata[..4]);
        Some(sel)
    }
}

/// The result of running a call frame to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    /// VM-level status.
    pub status: TxStatus,
    /// Bytes produced by `RETURN` (empty on `STOP` or error). A frame
    /// that executed `REVERT` carries its revert payload here, which
    /// callers observe through `RETURNDATACOPY` — as in the EVM.
    pub return_data: Bytes,
    /// Gas consumed by the frame (excluding intrinsic transaction gas).
    pub gas_used: u64,
    /// Logs emitted; empty unless the frame succeeded.
    pub logs: Vec<Log>,
}

impl CallOutcome {
    /// Builds the outcome for a frame that failed with `error`.
    pub fn from_error(error: &VmError, gas_used: u64) -> Self {
        let status = match error {
            VmError::OutOfGas => TxStatus::OutOfGas,
            _ => TxStatus::Reverted,
        };
        Self { status, return_data: Bytes::new(), gas_used, logs: Vec::new() }
    }
}

/// A contract implemented in Rust rather than bytecode.
///
/// Native contracts let large simulations skip interpreter dispatch while
/// keeping identical semantics — the test suite proves the Sereth contract's
/// native and bytecode forms equivalent.
pub trait NativeContract: Send + Sync {
    /// A stable name; hashed to form the account's code hash.
    fn name(&self) -> &'static str;

    /// Executes the contract.
    ///
    /// Implementations must honour `env.is_static` (no writes, no logs) and
    /// charge `gas` for their work.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] aborts the frame; the executor rolls back.
    fn call(
        &self,
        env: &CallEnv,
        storage: &mut dyn Storage,
        gas: &mut GasMeter,
        logs: &mut Vec<Log>,
    ) -> Result<Bytes, VmError>;
}

/// The executable form of an account.
#[derive(Clone, Default)]
pub enum ContractCode {
    /// An externally-owned account: no code.
    #[default]
    None,
    /// EVM-subset bytecode, run by the interpreter.
    Bytecode(Bytes),
    /// A Rust-native contract.
    Native(Arc<dyn NativeContract>),
}

impl ContractCode {
    /// `true` for accounts with no code.
    pub fn is_empty(&self) -> bool {
        matches!(self, Self::None)
    }

    /// A commitment to the code, used in state roots and for equality.
    pub fn code_hash(&self) -> H256 {
        match self {
            Self::None => H256::ZERO,
            Self::Bytecode(code) => H256::keccak(code),
            Self::Native(native) => H256::keccak(format!("native:{}", native.name()).as_bytes()),
        }
    }
}

impl PartialEq for ContractCode {
    fn eq(&self, other: &Self) -> bool {
        self.code_hash() == other.code_hash()
    }
}

impl Eq for ContractCode {}

impl fmt::Debug for ContractCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::None => write!(f, "ContractCode::None"),
            Self::Bytecode(code) => write!(f, "ContractCode::Bytecode({} bytes)", code.len()),
            Self::Native(native) => write!(f, "ContractCode::Native({})", native.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lifts a [`MemStorage`] into a [`ReadStorage`] base for overlay
    /// tests (the production base is the chain's `StateView`; `MemStorage`
    /// deliberately does not implement `ReadStorage` itself to keep its
    /// `Storage` methods unambiguous at call sites).
    struct ReadOnly(MemStorage);

    impl ReadStorage for ReadOnly {
        fn storage_get(&self, address: &Address, key: &H256) -> H256 {
            self.0.storage_get(address, key)
        }

        fn code_get(&self, address: &Address) -> ContractCode {
            self.0.code_get(address)
        }

        fn balance_get(&self, address: &Address) -> U256 {
            self.0.balance_get(address)
        }
    }

    #[test]
    fn mem_storage_defaults_to_zero() {
        let storage = MemStorage::new();
        assert_eq!(storage.storage_get(&Address::from_low_u64(1), &H256::ZERO), H256::ZERO);
    }

    #[test]
    fn mem_storage_round_trip() {
        let mut storage = MemStorage::new();
        let addr = Address::from_low_u64(1);
        storage.storage_set(&addr, H256::from_low_u64(1), H256::from_low_u64(42));
        assert_eq!(storage.storage_get(&addr, &H256::from_low_u64(1)), H256::from_low_u64(42));
        // Slots are per-address.
        assert_eq!(storage.storage_get(&Address::from_low_u64(2), &H256::from_low_u64(1)), H256::ZERO);
    }

    #[test]
    fn overlay_reads_fall_through_and_writes_stay_local() {
        let mut inner = MemStorage::new();
        let addr = Address::from_low_u64(1);
        inner.storage_set(&addr, H256::from_low_u64(1), H256::from_low_u64(7));
        inner.set_balance(addr, U256::from(100u64));
        let base = ReadOnly(inner);

        let mut overlay = OverlayStorage::new(&base);
        // Reads fall through to the base.
        assert_eq!(overlay.storage_get(&addr, &H256::from_low_u64(1)), H256::from_low_u64(7));
        assert_eq!(overlay.balance_get(&addr), U256::from(100u64));
        // Writes land only in the overlay.
        overlay.storage_set(&addr, H256::from_low_u64(1), H256::from_low_u64(9));
        assert_eq!(overlay.storage_get(&addr, &H256::from_low_u64(1)), H256::from_low_u64(9));
        assert_eq!(overlay.slots.len(), 1);
        drop(overlay);
        assert_eq!(base.0.storage_get(&addr, &H256::from_low_u64(1)), H256::from_low_u64(7));
    }

    #[test]
    fn overlay_checkpoints_revert_writes_and_transfers() {
        let mut inner = MemStorage::new();
        let a = Address::from_low_u64(1);
        let b = Address::from_low_u64(2);
        inner.set_balance(a, U256::from(50u64));
        let base = ReadOnly(inner);

        let mut overlay = OverlayStorage::new(&base);
        let checkpoint = overlay.checkpoint();
        overlay.storage_set(&a, H256::from_low_u64(3), H256::from_low_u64(4));
        assert!(overlay.transfer(&a, &b, U256::from(20u64)));
        assert_eq!(overlay.balance_get(&b), U256::from(20u64));
        overlay.revert_checkpoint(checkpoint);
        assert_eq!(overlay.storage_get(&a, &H256::from_low_u64(3)), H256::ZERO);
        assert_eq!(overlay.balance_get(&a), U256::from(50u64));
        assert_eq!(overlay.balance_get(&b), U256::ZERO);
        // Insufficient funds leave everything untouched.
        assert!(!overlay.transfer(&a, &b, U256::from(1_000u64)));
        assert_eq!(overlay.balance_get(&a), U256::from(50u64));
    }

    #[test]
    fn selector_extraction() {
        let env = CallEnv::test_env(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
            Bytes::from_static(&[0xaa, 0xbb, 0xcc, 0xdd, 0x01]),
        );
        assert_eq!(env.selector(), Some([0xaa, 0xbb, 0xcc, 0xdd]));
        let short = CallEnv::test_env(Address::ZERO, Address::ZERO, Bytes::from_static(&[1, 2, 3]));
        assert_eq!(short.selector(), None);
    }

    #[test]
    fn code_hash_distinguishes_kinds() {
        let empty = ContractCode::None;
        let code = ContractCode::Bytecode(Bytes::from_static(&[0x00]));
        assert_ne!(empty.code_hash(), code.code_hash());
        assert_eq!(empty, ContractCode::None);
        assert_ne!(code, ContractCode::None);
    }

    #[test]
    fn outcome_from_error_maps_status() {
        assert_eq!(CallOutcome::from_error(&VmError::OutOfGas, 5).status, TxStatus::OutOfGas);
        assert_eq!(CallOutcome::from_error(&VmError::Reverted, 5).status, TxStatus::Reverted);
        assert_eq!(CallOutcome::from_error(&VmError::StackUnderflow, 5).status, TxStatus::Reverted);
    }
}
