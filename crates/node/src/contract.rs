//! The Sereth smart contract — Listing 1 of the paper — in two equivalent
//! forms: hand-written assembly for the bytecode interpreter (standing in
//! for the paper's Solidity) and a native Rust implementation for fast
//! large-scale simulation. The test suite proves the two forms equivalent.
//!
//! Storage layout:
//!
//! | slot | contents |
//! |---|---|
//! | 0 | `p[0]` — address word of the last successful caller |
//! | 1 | `p[1]` — the current mark |
//! | 2 | `p[2]` — the current value (the price) |
//! | 3 | `nSet` — successful `set` count |
//! | 4 | `nBuy` — successful `buy` count |

use bytes::Bytes;
use sereth_core::fpv::{BUY_OK_TOPIC, BUY_SELECTOR, SET_OK_TOPIC, SET_SELECTOR};
use sereth_core::mark::genesis_mark;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::keccak::{keccak256, keccak256_concat};
use sereth_types::receipt::Log;
use sereth_vm::abi::{self, Selector};
use sereth_vm::asm::assemble;
use sereth_vm::error::VmError;
use sereth_vm::exec::{CallEnv, ContractCode, NativeContract, Storage};
use sereth_vm::gas::GasMeter;

/// Storage slot of `p[0]` (last successful caller).
pub const SLOT_ADDRESS: H256 = H256::new(slot_bytes(0));
/// Storage slot of `p[1]` (current mark).
pub const SLOT_MARK: H256 = H256::new(slot_bytes(1));
/// Storage slot of `p[2]` (current value / price).
pub const SLOT_VALUE: H256 = H256::new(slot_bytes(2));
/// Storage slot of `nSet`.
pub const SLOT_N_SET: H256 = H256::new(slot_bytes(3));
/// Storage slot of `nBuy`.
pub const SLOT_N_BUY: H256 = H256::new(slot_bytes(4));

const fn slot_bytes(n: u8) -> [u8; 32] {
    let mut bytes = [0u8; 32];
    bytes[31] = n;
    bytes
}

/// The default address the experiments deploy the contract at.
pub fn default_contract_address() -> Address {
    Address::from_low_u64(0x5e7e_7411)
}

// The ABI values below are precomputed (the contract compares calldata
// against them on every call); `tests::selectors_are_stable` pins each
// against its signature hash.

/// Selector of `set(bytes32[3])`.
pub fn set_selector() -> Selector {
    SET_SELECTOR
}

/// Selector of `buy(bytes32[3])`.
pub fn buy_selector() -> Selector {
    BUY_SELECTOR
}

/// Selector of `get(bytes32[3])` (read-only, RAA-augmented).
pub fn get_selector() -> Selector {
    [0x15, 0x22, 0x27, 0xad]
}

/// Selector of `mark(bytes32[3])` (read-only, RAA-augmented).
pub fn mark_selector() -> Selector {
    [0xe4, 0x47, 0x25, 0x25]
}

/// Event topic emitted by a successful `set`: `keccak("SetOk(bytes32)")`.
pub fn set_ok_topic() -> H256 {
    SET_OK_TOPIC
}

/// Event topic emitted by a successful `buy`: `keccak("BuyOk(bytes32)")`.
pub fn buy_ok_topic() -> H256 {
    BUY_OK_TOPIC
}

fn selector_hex(sel: Selector) -> String {
    sel.iter().map(|b| format!("{b:02x}")).collect()
}

/// The contract's assembly source, standing in for Listing 1's Solidity.
pub fn sereth_asm_source() -> String {
    format!(
        r#"
; Sereth contract (paper Listing 1) for the sereth-vm opcode subset.
; dispatcher: selector = calldata[0] >> 224
    PUSH1 0x00
    CALLDATALOAD
    PUSH1 0xe0
    SHR
    DUP1
    PUSH4 0x{set_sel}
    EQ
    PUSH @fn_set
    JUMPI
    DUP1
    PUSH4 0x{buy_sel}
    EQ
    PUSH @fn_buy
    JUMPI
    DUP1
    PUSH4 0x{get_sel}
    EQ
    PUSH @fn_get
    JUMPI
    DUP1
    PUSH4 0x{mark_sel}
    EQ
    PUSH @fn_mark
    JUMPI
    STOP                      ; unknown selector: no-op

fn_set:
    JUMPDEST
    ; if keccak(fpv[1]) == keccak(p[1])  — Listing 1's guard
    PUSH1 0x24
    CALLDATALOAD              ; fpv1 = prev_mark
    DUP1
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    SHA3                      ; keccak(fpv1)
    PUSH1 0x01
    SLOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    SHA3                      ; keccak(p1)
    EQ
    PUSH @set_do
    JUMPI
    STOP                      ; stale mark: include in block, change nothing

set_do:
    JUMPDEST                  ; stack: [fpv1]
    ; nSet++
    PUSH1 0x03
    SLOAD
    PUSH1 0x01
    ADD
    PUSH1 0x03
    SSTORE
    ; p[0] = msg.sender
    CALLER
    PUSH1 0x00
    SSTORE
    ; p[1] = keccak256(fpv1, fpv2); p[2] = fpv2
    PUSH1 0x00
    MSTORE                    ; memory[0..32] = fpv1
    PUSH1 0x44
    CALLDATALOAD              ; fpv2 = value
    DUP1
    PUSH1 0x20
    MSTORE                    ; memory[32..64] = fpv2
    PUSH1 0x40
    PUSH1 0x00
    SHA3                      ; new mark
    PUSH1 0x01
    SSTORE                    ; stack: [fpv2]
    PUSH1 0x02
    SSTORE                    ; p[2] = fpv2
    ; emit SetOk(value): data = memory[32..64]
    PUSH32 0x{set_topic}
    PUSH1 0x20
    PUSH1 0x20
    LOG1
    STOP

fn_buy:
    JUMPDEST
    ; if keccak(offer[1]) == keccak(p[1]) && keccak(offer[2]) == keccak(p[2])
    PUSH1 0x24
    CALLDATALOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    SHA3                      ; keccak(offer1)
    PUSH1 0x01
    SLOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    SHA3                      ; keccak(p1)
    EQ                        ; mark matches?
    PUSH1 0x44
    CALLDATALOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    SHA3                      ; keccak(offer2)
    PUSH1 0x02
    SLOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    SHA3                      ; keccak(p2)
    EQ                        ; price matches?
    AND
    PUSH @buy_do
    JUMPI
    STOP                      ; stale offer: include in block, change nothing

buy_do:
    JUMPDEST
    ; nBuy++
    PUSH1 0x04
    SLOAD
    PUSH1 0x01
    ADD
    PUSH1 0x04
    SSTORE
    ; p[0] = msg.sender
    CALLER
    PUSH1 0x00
    SSTORE
    ; emit BuyOk(price): data = p[2]
    PUSH1 0x02
    SLOAD
    PUSH1 0x00
    MSTORE
    PUSH32 0x{buy_topic}
    PUSH1 0x20
    PUSH1 0x00
    LOG1
    STOP

fn_get:
    JUMPDEST
    ; return raa[2] — the (augmented) value argument
    PUSH1 0x44
    CALLDATALOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    RETURN

fn_mark:
    JUMPDEST
    ; return raa[1] — the (augmented) mark argument
    PUSH1 0x24
    CALLDATALOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    RETURN
"#,
        set_sel = selector_hex(set_selector()),
        buy_sel = selector_hex(buy_selector()),
        get_sel = selector_hex(get_selector()),
        mark_sel = selector_hex(mark_selector()),
        set_topic = sereth_crypto::encode_hex(set_ok_topic().as_bytes()),
        buy_topic = sereth_crypto::encode_hex(buy_ok_topic().as_bytes()),
    )
}

/// Assembles the contract bytecode.
///
/// # Panics
///
/// Panics if the embedded assembly fails to assemble — that is a build
/// defect, covered by tests.
pub fn sereth_bytecode() -> Bytes {
    Bytes::from(assemble(&sereth_asm_source()).expect("embedded sereth assembly is valid"))
}

/// The native (Rust) implementation of the same contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerethNative;

impl SerethNative {
    fn word_hash(word: &H256) -> [u8; 32] {
        keccak256(word.as_bytes())
    }
}

impl NativeContract for SerethNative {
    fn name(&self) -> &'static str {
        "sereth-v1"
    }

    fn call(
        &self,
        env: &CallEnv,
        storage: &mut dyn Storage,
        gas: &mut GasMeter,
        logs: &mut Vec<Log>,
    ) -> Result<Bytes, VmError> {
        let Some(selector) = env.selector() else {
            return Ok(Bytes::new()); // fallback like the asm dispatcher
        };
        let me = env.callee;
        if selector == set_selector() {
            let fpv1 = abi::arg_word(&env.calldata, 1).ok_or(VmError::BadCalldata("set needs 3 words"))?;
            let fpv2 = abi::arg_word(&env.calldata, 2).ok_or(VmError::BadCalldata("set needs 3 words"))?;
            gas.charge(2 * 30 + 200)?; // two hashes + p1 sload
            let p1 = storage.storage_get(&me, &SLOT_MARK);
            if Self::word_hash(&fpv1) != Self::word_hash(&p1) {
                return Ok(Bytes::new());
            }
            if env.is_static {
                return Err(VmError::StaticViolation);
            }
            gas.charge(200 + 4 * 5_000 + 30)?; // nSet sload + 4 sstores + mark hash
            let n_set = storage.storage_get(&me, &SLOT_N_SET).low_u64();
            storage.storage_set(&me, SLOT_N_SET, H256::from_low_u64(n_set + 1));
            let mut caller_word = [0u8; 32];
            caller_word[12..].copy_from_slice(env.caller.as_bytes());
            storage.storage_set(&me, SLOT_ADDRESS, H256::new(caller_word));
            let new_mark = H256::new(keccak256_concat(fpv1.as_bytes(), fpv2.as_bytes()));
            storage.storage_set(&me, SLOT_MARK, new_mark);
            storage.storage_set(&me, SLOT_VALUE, fpv2);
            logs.push(Log {
                address: me,
                topics: vec![set_ok_topic()],
                data: Bytes::copy_from_slice(fpv2.as_bytes()),
            });
            Ok(Bytes::new())
        } else if selector == buy_selector() {
            let offer1 = abi::arg_word(&env.calldata, 1).ok_or(VmError::BadCalldata("buy needs 3 words"))?;
            let offer2 = abi::arg_word(&env.calldata, 2).ok_or(VmError::BadCalldata("buy needs 3 words"))?;
            gas.charge(4 * 30 + 2 * 200)?;
            let p1 = storage.storage_get(&me, &SLOT_MARK);
            let p2 = storage.storage_get(&me, &SLOT_VALUE);
            let matches = Self::word_hash(&offer1) == Self::word_hash(&p1)
                && Self::word_hash(&offer2) == Self::word_hash(&p2);
            if !matches {
                return Ok(Bytes::new());
            }
            if env.is_static {
                return Err(VmError::StaticViolation);
            }
            gas.charge(200 + 2 * 5_000)?;
            let n_buy = storage.storage_get(&me, &SLOT_N_BUY).low_u64();
            storage.storage_set(&me, SLOT_N_BUY, H256::from_low_u64(n_buy + 1));
            let mut caller_word = [0u8; 32];
            caller_word[12..].copy_from_slice(env.caller.as_bytes());
            storage.storage_set(&me, SLOT_ADDRESS, H256::new(caller_word));
            logs.push(Log {
                address: me,
                topics: vec![buy_ok_topic()],
                data: Bytes::copy_from_slice(p2.as_bytes()),
            });
            Ok(Bytes::new())
        } else if selector == get_selector() {
            gas.charge(10)?;
            let value = abi::arg_word(&env.calldata, 2).ok_or(VmError::BadCalldata("get needs 3 words"))?;
            Ok(abi::encode_word(value))
        } else if selector == mark_selector() {
            gas.charge(10)?;
            let mark = abi::arg_word(&env.calldata, 1).ok_or(VmError::BadCalldata("mark needs 3 words"))?;
            Ok(abi::encode_word(mark))
        } else {
            Ok(Bytes::new())
        }
    }
}

/// Which form of the contract to install.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContractForm {
    /// The native Rust implementation (fast; default for experiments).
    #[default]
    Native,
    /// The assembled bytecode run by the interpreter.
    Bytecode,
}

/// The code object for the chosen form.
pub fn sereth_code(form: ContractForm) -> ContractCode {
    match form {
        ContractForm::Native => ContractCode::Native(std::sync::Arc::new(SerethNative)),
        ContractForm::Bytecode => ContractCode::Bytecode(sereth_bytecode()),
    }
}

/// The genesis storage slots for a fresh Sereth contract holding
/// `initial_value`, owned by `owner`.
pub fn sereth_genesis_slots(owner: &Address, initial_value: H256) -> Vec<(H256, H256)> {
    let mut owner_word = [0u8; 32];
    owner_word[12..].copy_from_slice(owner.as_bytes());
    vec![(SLOT_ADDRESS, H256::new(owner_word)), (SLOT_MARK, genesis_mark()), (SLOT_VALUE, initial_value)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sereth_core::fpv::{Flag, Fpv};
    use sereth_core::mark::compute_mark;
    use sereth_types::receipt::TxStatus;
    use sereth_vm::exec::MemStorage;
    use sereth_vm::raa::{execute_call, RaaRegistry};

    const GAS: u64 = 10_000_000;

    fn fresh_storage(contract: &Address) -> MemStorage {
        let mut storage = MemStorage::new();
        for (slot, value) in sereth_genesis_slots(&Address::from_low_u64(0xb055), H256::from_low_u64(50)) {
            storage.storage_set(contract, slot, value);
        }
        storage
    }

    fn call(
        code: &ContractCode,
        storage: &mut MemStorage,
        caller: Address,
        contract: Address,
        calldata: Bytes,
    ) -> sereth_vm::exec::CallOutcome {
        let env = CallEnv::test_env(caller, contract, calldata);
        execute_call(code, env, storage, GAS, &RaaRegistry::new())
    }

    #[test]
    fn bytecode_assembles() {
        let code = sereth_bytecode();
        assert!(code.len() > 100, "non-trivial bytecode, got {} bytes", code.len());
    }

    fn exercise_set_and_buy(code: ContractCode) {
        let contract = default_contract_address();
        let mut storage = fresh_storage(&contract);
        let owner = Address::from_low_u64(0xa11ce);
        let buyer = Address::from_low_u64(0xb0b);

        // Valid set(60) chained on the genesis mark.
        let fpv = Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(60));
        let outcome = call(&code, &mut storage, owner, contract, fpv.to_calldata(set_selector()));
        assert_eq!(outcome.status, TxStatus::Success);
        assert!(outcome.logs.iter().any(|l| l.topics.first() == Some(&set_ok_topic())), "SetOk expected");
        let new_mark = compute_mark(&genesis_mark(), &H256::from_low_u64(60));
        assert_eq!(storage.storage_get(&contract, &SLOT_MARK), new_mark);
        assert_eq!(storage.storage_get(&contract, &SLOT_VALUE), H256::from_low_u64(60));
        assert_eq!(storage.storage_get(&contract, &SLOT_N_SET).low_u64(), 1);

        // A buy at the right (mark, price) succeeds.
        let offer = Fpv { flag_word: H256::ZERO, prev_mark: new_mark, value: H256::from_low_u64(60) };
        let outcome = call(&code, &mut storage, buyer, contract, offer.to_calldata(buy_selector()));
        assert_eq!(outcome.status, TxStatus::Success);
        assert!(outcome.logs.iter().any(|l| l.topics.first() == Some(&buy_ok_topic())), "BuyOk expected");
        assert_eq!(storage.storage_get(&contract, &SLOT_N_BUY).low_u64(), 1);

        // A buy at a stale mark is included but has no effect — the
        // paper's "failed transaction".
        let stale = Fpv { flag_word: H256::ZERO, prev_mark: genesis_mark(), value: H256::from_low_u64(60) };
        let outcome = call(&code, &mut storage, buyer, contract, stale.to_calldata(buy_selector()));
        assert_eq!(outcome.status, TxStatus::Success, "no revert — a silent no-op");
        assert!(outcome.logs.is_empty());
        assert_eq!(storage.storage_get(&contract, &SLOT_N_BUY).low_u64(), 1);

        // A buy at the right mark but the wrong price also fails.
        let wrong_price = Fpv { flag_word: H256::ZERO, prev_mark: new_mark, value: H256::from_low_u64(61) };
        let outcome = call(&code, &mut storage, buyer, contract, wrong_price.to_calldata(buy_selector()));
        assert_eq!(outcome.status, TxStatus::Success);
        assert_eq!(storage.storage_get(&contract, &SLOT_N_BUY).low_u64(), 1);

        // A set with a stale mark fails silently too.
        let stale_set = Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(99));
        let outcome = call(&code, &mut storage, owner, contract, stale_set.to_calldata(set_selector()));
        assert_eq!(outcome.status, TxStatus::Success);
        assert_eq!(storage.storage_get(&contract, &SLOT_N_SET).low_u64(), 1);
        assert_eq!(storage.storage_get(&contract, &SLOT_VALUE), H256::from_low_u64(60));
    }

    #[test]
    fn native_contract_implements_listing_1() {
        exercise_set_and_buy(sereth_code(ContractForm::Native));
    }

    #[test]
    fn bytecode_contract_implements_listing_1() {
        exercise_set_and_buy(sereth_code(ContractForm::Bytecode));
    }

    #[test]
    fn get_and_mark_echo_their_arguments() {
        for form in [ContractForm::Native, ContractForm::Bytecode] {
            let code = sereth_code(form);
            let contract = default_contract_address();
            let mut storage = fresh_storage(&contract);
            let words = [H256::from_low_u64(1), H256::keccak(b"mark"), H256::from_low_u64(77)];
            let outcome =
                call(&code, &mut storage, Address::ZERO, contract, abi::encode_call(get_selector(), &words));
            assert_eq!(abi::decode_word(&outcome.return_data), Some(H256::from_low_u64(77)), "{form:?}");
            let outcome =
                call(&code, &mut storage, Address::ZERO, contract, abi::encode_call(mark_selector(), &words));
            assert_eq!(abi::decode_word(&outcome.return_data), Some(H256::keccak(b"mark")), "{form:?}");
        }
    }

    #[test]
    fn unknown_selector_is_a_noop() {
        for form in [ContractForm::Native, ContractForm::Bytecode] {
            let code = sereth_code(form);
            let contract = default_contract_address();
            let mut storage = fresh_storage(&contract);
            let outcome = call(
                &code,
                &mut storage,
                Address::ZERO,
                contract,
                abi::encode_call([0xde, 0xad, 0xbe, 0xef], &[]),
            );
            assert_eq!(outcome.status, TxStatus::Success, "{form:?}");
            assert!(outcome.logs.is_empty());
        }
    }

    #[test]
    fn selectors_are_stable() {
        // Pin the ABI: changing a signature silently would break recorded
        // experiments.
        assert_eq!(set_selector(), abi::selector("set(bytes32[3])"));
        assert_eq!(buy_selector(), abi::selector("buy(bytes32[3])"));
        assert_eq!(get_selector(), abi::selector("get(bytes32[3])"));
        assert_eq!(mark_selector(), abi::selector("mark(bytes32[3])"));
        assert_eq!(set_ok_topic(), H256::keccak(b"SetOk(bytes32)"));
        assert_eq!(buy_ok_topic(), H256::keccak(b"BuyOk(bytes32)"));
    }
}
