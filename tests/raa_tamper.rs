//! The paper's RAA security experiment (§III-D): "RAA cannot be used to
//! modify the arguments of a smart contract function that may send a
//! transaction … In testing the limits of RAA we found that the modified
//! transactions would still be mined, but would not be accepted by peers
//! who must validate the newly created block."

use bytes::Bytes;
use sereth::chain::builder::{build_block, BlockLimits};
use sereth::chain::genesis::GenesisBuilder;
use sereth::crypto::{Address, SecretKey, H256};
use sereth::hms::fpv::{Flag, Fpv};
use sereth::hms::mark::genesis_mark;
use sereth::node::contract::{
    default_contract_address, sereth_code, sereth_genesis_slots, set_selector, ContractForm,
};
use sereth::node::node::{BlockReceipt, NodeConfig, NodeHandle};
use sereth::types::{Block, Transaction, TxPayload, U256};

fn make_node(owner: &SecretKey) -> NodeHandle {
    let contract = default_contract_address();
    let genesis = GenesisBuilder::new()
        .fund(owner.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            contract,
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
        )
        .build();
    NodeHandle::new(genesis, NodeConfig::geth(contract).build())
}

fn signed_set(owner: &SecretKey, value: u64) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce: 0,
            gas_price: 1,
            gas_limit: 200_000,
            to: Some(default_contract_address()),
            value: U256::ZERO,
            input: Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(value))
                .to_calldata(set_selector()),
        },
        owner,
    )
}

/// A malicious miner RAA-rewrites the *signed* calldata (doubling the
/// price from 60 to 120), seals a block over it, and presents it to an
/// honest peer. The peer's replay validation must reject the block.
#[test]
fn tampered_transaction_blocks_are_rejected_by_honest_validators() {
    let owner = SecretKey::from_label(1);
    let honest = make_node(&owner);
    let original = signed_set(&owner, 60);

    // The attack: rewrite the value argument in the signed calldata.
    let evil_input =
        Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(120)).to_calldata(set_selector());
    let tampered = original.with_tampered_input(evil_input);

    // The malicious miner can still *seal* a block containing it (it
    // controls its own builder — "the modified transactions would still
    // be mined"). We build the block structure by hand because the honest
    // builder refuses invalid transactions.
    let (parent, parent_state) = honest
        .with_inner(|inner| (inner.chain.head_block().header.clone(), inner.chain.head_state().clone()));
    let honest_block = build_block(
        &parent,
        &parent_state,
        vec![original.clone()],
        Address::from_low_u64(0xbad),
        15_000,
        &BlockLimits::default(),
    );
    let mut evil_block = honest_block.block.clone();
    evil_block.transactions = vec![tampered];
    evil_block.header.tx_root = Block::compute_tx_root(&evil_block.transactions);

    // Honest peers reject it during replay.
    assert_eq!(honest.receive_block(evil_block), BlockReceipt::Rejected);
    assert_eq!(honest.head_number(), 0, "the chain did not advance on the tampered block");

    // The untampered block is accepted fine.
    assert_eq!(honest.receive_block(honest_block.block), BlockReceipt::Imported);
    assert_eq!(honest.head_number(), 1);
}

/// Even without re-sealing the tx root, body/header inconsistency is
/// caught first.
#[test]
fn body_swaps_without_root_update_are_rejected_too() {
    let owner = SecretKey::from_label(1);
    let honest = make_node(&owner);
    let original = signed_set(&owner, 60);
    let (parent, parent_state) = honest
        .with_inner(|inner| (inner.chain.head_block().header.clone(), inner.chain.head_state().clone()));
    let built = build_block(
        &parent,
        &parent_state,
        vec![original.clone()],
        Address::from_low_u64(0xbad),
        15_000,
        &BlockLimits::default(),
    );
    let mut sneaky = built.block.clone();
    sneaky.transactions[0] = original.with_tampered_input(Bytes::from_static(b"subtle"));
    // tx_root left stale on purpose.
    assert_eq!(honest.receive_block(sneaky), BlockReceipt::Rejected);
}

/// The RAA registry refuses to touch non-static calls even when a
/// provider is installed — the interpreter-level half of the defence.
#[test]
fn raa_never_rewrites_transaction_calldata() {
    use sereth::vm::abi;
    use sereth::vm::raa::{RaaProvider, RaaRegistry, RaaRequest};
    use std::sync::Arc;

    struct Evil;
    impl RaaProvider for Evil {
        fn augment(&self, request: &RaaRequest<'_>) -> Option<Bytes> {
            abi::replace_arg_word(request.calldata, 2, H256::from_low_u64(120))
        }
    }

    let contract = default_contract_address();
    let mut registry = RaaRegistry::new();
    registry.enable(contract, set_selector());
    registry.set_provider(Arc::new(Evil));

    let calldata = Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(60)).to_calldata(set_selector());
    let mut env = sereth::vm::exec::CallEnv::test_env(Address::from_low_u64(1), contract, calldata.clone());
    env.is_static = false; // a transaction
    let env = registry.apply(env, &sereth::vm::exec::MemStorage::new());
    assert_eq!(env.calldata, calldata, "transaction calldata must pass through untouched");
}
