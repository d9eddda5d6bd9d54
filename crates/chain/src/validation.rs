//! Block validation by transaction replay.
//!
//! "To accept a published block every peer must perform block validation,
//! the task of checking that the block is consistent with the state of the
//! network … The process of peers redundantly validating transactions in a
//! block is called transaction replay" (paper §II-D). Replay is also what
//! defeats RAA tampering of signed transactions: a block containing a
//! mutated transaction fails signature checks here and is rejected by every
//! honest peer (§III-D).
//!
//! Replay runs the block's transactions one by one through the builder's
//! own [`apply_transaction`], so an honest block replays to exactly the
//! receipts and state its miner sealed.

use sereth_types::block::{Block, BlockHeader};
use sereth_types::receipt::Receipt;

use crate::executor::{apply_transaction, BlockEnv, TxApplyError};
use crate::state::StateDb;

/// Why a block was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// `parent_hash` does not match the parent header.
    WrongParent,
    /// Block number is not parent number + 1.
    WrongNumber,
    /// Timestamp is not strictly after the parent's.
    NonMonotonicTimestamp,
    /// The header's transaction root does not commit to the body.
    TxRootMismatch,
    /// A transaction failed to apply during replay.
    BadTransaction {
        /// Index of the offending transaction.
        index: usize,
        /// The underlying error.
        error: TxApplyError,
    },
    /// Declared gas used differs from replay.
    GasUsedMismatch {
        /// Header value.
        declared: u64,
        /// Replay value.
        replayed: u64,
    },
    /// The receipts root does not match replay.
    ReceiptsRootMismatch,
    /// The state root does not match replay.
    StateRootMismatch,
    /// The block exceeds its own gas limit.
    GasLimitExceeded,
}

impl core::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WrongParent => write!(f, "parent hash mismatch"),
            Self::WrongNumber => write!(f, "block number not sequential"),
            Self::NonMonotonicTimestamp => write!(f, "timestamp not after parent"),
            Self::TxRootMismatch => write!(f, "transaction root mismatch"),
            Self::BadTransaction { index, error } => write!(f, "transaction {index} invalid: {error}"),
            Self::GasUsedMismatch { declared, replayed } => {
                write!(f, "gas used mismatch: declared {declared}, replayed {replayed}")
            }
            Self::ReceiptsRootMismatch => write!(f, "receipts root mismatch"),
            Self::StateRootMismatch => write!(f, "state root mismatch"),
            Self::GasLimitExceeded => write!(f, "block gas limit exceeded"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A successfully replayed block's artifacts.
#[derive(Debug, Clone)]
pub struct Validated {
    /// Receipts, in block order.
    pub receipts: Vec<Receipt>,
    /// State after the block.
    pub post_state: StateDb,
}

/// Replays `block` on top of `parent_state` and checks every commitment.
///
/// Returns the receipts and post-state on success.
///
/// # Errors
///
/// See [`ValidationError`]; any error means the block must be rejected and
/// not propagated.
pub fn validate_block(
    parent: &BlockHeader,
    parent_state: &StateDb,
    block: &Block,
) -> Result<Validated, ValidationError> {
    if block.header.parent_hash != parent.hash() {
        return Err(ValidationError::WrongParent);
    }
    if block.header.number != parent.number + 1 {
        return Err(ValidationError::WrongNumber);
    }
    if block.header.timestamp_ms <= parent.timestamp_ms {
        return Err(ValidationError::NonMonotonicTimestamp);
    }
    if !block.body_matches_header() {
        return Err(ValidationError::TxRootMismatch);
    }

    let mut state = parent_state.clone();
    state.clear_journal();
    let env = BlockEnv::from(&block.header);

    let mut receipts = Vec::with_capacity(block.transactions.len());
    let mut gas_used = 0u64;
    for (index, tx) in block.transactions.iter().enumerate() {
        let receipt = apply_transaction(&mut state, &env, tx, index as u32)
            .map_err(|error| ValidationError::BadTransaction { index, error })?;
        gas_used += receipt.gas_used;
        receipts.push(receipt);
    }

    if gas_used > block.header.gas_limit {
        return Err(ValidationError::GasLimitExceeded);
    }
    if gas_used != block.header.gas_used {
        return Err(ValidationError::GasUsedMismatch { declared: block.header.gas_used, replayed: gas_used });
    }
    if Block::compute_receipts_root(&receipts) != block.header.receipts_root {
        return Err(ValidationError::ReceiptsRootMismatch);
    }
    state.clear_journal();
    if state.state_root() != block.header.state_root {
        return Err(ValidationError::StateRootMismatch);
    }
    Ok(Validated { receipts, post_state: state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_block, BlockLimits};
    use crate::genesis::GenesisBuilder;
    use bytes::Bytes;
    use sereth_crypto::address::Address;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::transaction::{Transaction, TxPayload};
    use sereth_types::u256::U256;

    fn setup() -> (BlockHeader, StateDb, SecretKey) {
        let key = SecretKey::from_label(1);
        let genesis = GenesisBuilder::new().fund(key.address(), U256::from(10_000_000u64)).build();
        (genesis.block.header, genesis.state, key)
    }

    fn transfer(key: &SecretKey, nonce: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 21_000,
                to: Some(Address::from_low_u64(7)),
                value: U256::from(1u64),
                input: Bytes::new(),
            },
            key,
        )
    }

    fn valid_block(parent: &BlockHeader, state: &StateDb, key: &SecretKey) -> Block {
        build_block(
            parent,
            state,
            vec![transfer(key, 0), transfer(key, 1)],
            Address::from_low_u64(9),
            15_000,
            &BlockLimits::default(),
        )
        .block
    }

    #[test]
    fn honestly_built_blocks_validate() {
        let (parent, state, key) = setup();
        let block = valid_block(&parent, &state, &key);
        let validated = validate_block(&parent, &state, &block).unwrap();
        assert_eq!(validated.receipts.len(), 2);
        assert_eq!(validated.post_state.state_root(), block.header.state_root);
    }

    #[test]
    fn rejects_wrong_parent() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.parent_hash = sereth_crypto::hash::H256::keccak(b"fake");
        assert_eq!(validate_block(&parent, &state, &block).unwrap_err(), ValidationError::WrongParent);
    }

    #[test]
    fn rejects_wrong_number() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.number = 5;
        assert_eq!(validate_block(&parent, &state, &block).unwrap_err(), ValidationError::WrongNumber);
    }

    #[test]
    fn rejects_stale_timestamp() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.timestamp_ms = 0;
        assert_eq!(
            validate_block(&parent, &state, &block).unwrap_err(),
            ValidationError::NonMonotonicTimestamp
        );
    }

    #[test]
    fn rejects_reordered_body() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.transactions.swap(0, 1);
        assert_eq!(validate_block(&parent, &state, &block).unwrap_err(), ValidationError::TxRootMismatch);
    }

    #[test]
    fn rejects_raa_tampered_transaction() {
        // The paper's experiment: a malicious client rewrites the calldata
        // of a signed transaction. The block carries a consistent tx root
        // (the miner sealed the mutated tx) but replay detects the broken
        // signature.
        let (parent, state, key) = setup();
        let tampered = transfer(&key, 0).with_tampered_input(Bytes::from_static(b"augmented"));
        let mut block = valid_block(&parent, &state, &key);
        block.transactions[0] = tampered;
        block.header.tx_root = Block::compute_tx_root(&block.transactions);
        let err = validate_block(&parent, &state, &block).unwrap_err();
        assert_eq!(err, ValidationError::BadTransaction { index: 0, error: TxApplyError::BadSignature });
    }

    #[test]
    fn rejects_false_gas_claim() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.gas_used += 1;
        assert!(matches!(
            validate_block(&parent, &state, &block).unwrap_err(),
            ValidationError::GasUsedMismatch { .. }
        ));
    }

    #[test]
    fn rejects_false_state_root() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.state_root = sereth_crypto::hash::H256::keccak(b"wrong");
        assert_eq!(validate_block(&parent, &state, &block).unwrap_err(), ValidationError::StateRootMismatch);
    }

    #[test]
    fn rejects_false_receipts_root() {
        let (parent, state, key) = setup();
        let mut block = valid_block(&parent, &state, &key);
        block.header.receipts_root = sereth_crypto::hash::H256::keccak(b"wrong");
        assert_eq!(
            validate_block(&parent, &state, &block).unwrap_err(),
            ValidationError::ReceiptsRootMismatch
        );
    }

    #[test]
    fn validation_and_build_are_deterministic() {
        let (parent, state, key) = setup();
        let a = valid_block(&parent, &state, &key);
        let b = valid_block(&parent, &state, &key);
        assert_eq!(a.hash(), b.hash(), "same inputs, same block");
    }
}
