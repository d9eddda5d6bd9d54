//! Cryptographic substrate for the `sereth` workspace.
//!
//! Everything here is implemented from scratch for the reproduction of
//! *Read-Uncommitted Transactions for Smart Contract Performance*
//! (Cook et al., ICDCS 2019):
//!
//! * [`keccak`] — Keccak-256 (Ethereum's hash, used for Hash-Mark-Set
//!   marks) over the Keccak-f\[1600\] permutation, with an exact
//!   per-thread count of permutations run;
//! * [`hash`] — fixed-width [`hash::H256`] / [`hash::H160`] newtypes with
//!   hex parsing and formatting;
//! * [`address`] — account and contract address derivation;
//! * [`sig`] — simulated signatures providing sender binding and tamper
//!   evidence (see the module docs for the substitution rationale);
//! * [`rlp`] — canonical Recursive Length Prefix encoding, Ethereum's
//!   serialization for transactions and blocks, which their hashes cover;
//! * [`merkle`] — binary Merkle roots, and the kept levels of one tree
//!   that let a root rehash only the ancestors of changed leaves.
//!
//! # Examples
//!
//! Computing a Hash-Mark-Set *mark* exactly as the paper defines it
//! (`Txn1.mark = Keccak256(Txn0.mark, Txn1.val)`, §III-C):
//!
//! ```
//! use sereth_crypto::hash::H256;
//! use sereth_crypto::keccak::keccak256_concat;
//!
//! let genesis_mark = H256::keccak(b"genesis");
//! let value = H256::from_low_u64(5); // set the price to 5
//! let mark = H256::new(keccak256_concat(genesis_mark.as_bytes(), value.as_bytes()));
//! assert_ne!(mark, genesis_mark);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod hash;
pub mod keccak;
pub mod merkle;
pub mod rlp;
pub mod sig;

pub use address::{contract_address, Address};
pub use hash::{encode_hex, ParseHexError, H160, H256};
pub use keccak::{keccak256, keccak256_concat, Keccak256};
pub use rlp::RlpStream;
pub use sig::{PublicKey, SecretKey, Signature};
