//! An EVM-subset virtual machine with the Runtime Argument Augmentation
//! (RAA) hook from *Read-Uncommitted Transactions for Smart Contract
//! Performance* (Cook et al., ICDCS 2019, §III-D).
//!
//! * [`opcode`] / [`interpreter`] — a 256-bit stack machine over ~60 EVM
//!   opcodes with Yellow-Paper byte values;
//! * [`asm`] — a two-pass assembler so contracts can be authored as text
//!   (the Sereth contract of Listing 1 ships in assembly and native Rust);
//! * [`gas`] — metering, intrinsic transaction gas, and block-capacity
//!   economics;
//! * [`abi`] — selectors and 32-byte-word argument coding (the FPV triple);
//! * [`exec`] — call environments, storage access, native contracts;
//! * [`raa`] — the interpreter hook that lets an external data service
//!   rewrite the arguments of read-only calls before execution.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use sereth_crypto::Address;
//! use sereth_vm::asm::assemble;
//! use sereth_vm::exec::{CallEnv, MemStorage};
//! use sereth_vm::interpreter::execute;
//!
//! // return 41 + 1
//! let code = assemble(
//!     "PUSH1 0x29\nPUSH1 0x01\nADD\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nRETURN",
//! )?;
//! let env = CallEnv::test_env(Address::from_low_u64(1), Address::from_low_u64(2), Bytes::new());
//! let mut storage = MemStorage::new();
//! let outcome = execute(&code, &env, &mut storage, 100_000);
//! assert_eq!(outcome.return_data[31], 42);
//! # Ok::<(), sereth_vm::asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
pub mod asm;
pub mod error;
pub mod exec;
pub mod gas;
pub mod interpreter;
pub mod opcode;
pub mod raa;
mod subcall;

pub use abi::Selector;
pub use error::VmError;
pub use exec::{
    CallEnv, CallOutcome, ContractCode, MemStorage, NativeContract, OverlayStorage, ReadStorage, Storage,
};
pub use gas::{intrinsic_gas, GasMeter};
pub use opcode::Opcode;
pub use raa::{execute_call, RaaProvider, RaaRegistry, RaaRequest};
