//! Cross-contract calls against the full chain: a bytecode *router*
//! contract forwards its calldata to the Sereth market via `CALL`.
//!
//! This exercises the interpreter's sub-call machinery end-to-end —
//! native-contract dispatch from bytecode, log attribution across frames,
//! rollback isolation — and shows that Sereth's silent-no-op semantics
//! (paper §II-D: failed transactions stay in the block without effect)
//! survive an extra call hop.

use bytes::Bytes;
use sereth::chain::genesis::GenesisBuilder;
use sereth::crypto::{Address, SecretKey, H256};
use sereth::hms::fpv::{Flag, Fpv};
use sereth::hms::mark::{compute_mark, genesis_mark};
use sereth::node::contract::{
    default_contract_address, sereth_code, sereth_genesis_slots, set_ok_topic, set_selector, ContractForm,
    SLOT_N_SET, SLOT_VALUE,
};
use sereth::node::miner::MinerPolicy;
use sereth::node::node::{NodeConfig, NodeHandle};
use sereth::types::{Transaction, TxPayload, U256};
use sereth::vm::asm::assemble;
use sereth::vm::exec::Storage;
use sereth::vm::ContractCode;

fn router_address() -> Address {
    Address::from_low_u64(0xe0e7e4)
}

/// A contract that forwards its entire calldata to the Sereth market and
/// returns the call's success flag as a word.
fn router_bytecode(market: Address) -> Bytes {
    let source = format!(
        r#"
        CALLDATASIZE
        PUSH1 0x00
        PUSH1 0x00
        CALLDATACOPY     ; mem[0..cds] = calldata
        PUSH1 0x00       ; out_len
        PUSH1 0x00       ; out_off
        CALLDATASIZE     ; in_len
        PUSH1 0x00       ; in_off
        PUSH1 0x00       ; value
        PUSH20 0x{market:x}
        PUSH3 0x030d40   ; gas: 200000
        CALL
        PUSH1 0x00
        MSTORE
        PUSH1 0x20
        PUSH1 0x00
        RETURN
        "#
    );
    Bytes::from(assemble(&source).expect("router assembles"))
}

fn make_node(owner: &SecretKey, market_form: ContractForm) -> NodeHandle {
    let market = default_contract_address();
    let genesis = GenesisBuilder::new()
        .fund(owner.address(), U256::from(1_000_000_000u64))
        .contract_with_storage(
            market,
            sereth_code(market_form),
            sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
        )
        .contract(router_address(), ContractCode::Bytecode(router_bytecode(market)))
        .build();
    NodeHandle::new(
        genesis,
        NodeConfig::miner(market, MinerPolicy::Standard).coinbase(Address::from_low_u64(0xc0b0)).build(),
    )
}

/// A `set` transaction addressed to the *router*, not the market.
fn routed_set(owner: &SecretKey, nonce: u64, flag: Flag, prev_mark: H256, value: u64) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: 1,
            gas_limit: 400_000,
            to: Some(router_address()),
            value: U256::ZERO,
            input: Fpv::new(flag, prev_mark, H256::from_low_u64(value)).to_calldata(set_selector()),
        },
        owner,
    )
}

fn run_routed_set_updates_market(form: ContractForm) {
    let owner = SecretKey::from_label(1);
    let node = make_node(&owner, form);
    let market = default_contract_address();

    let tx = routed_set(&owner, 0, Flag::Head, genesis_mark(), 60);
    let tx_hash = tx.hash();
    assert!(node.receive_tx(tx, 10));
    node.mine(15_000).expect("block sealed");

    node.with_inner(|inner| {
        let state = inner.chain.head_state();
        // The market's storage changed even though the tx targeted the
        // router: the value is 60 and one set is recorded.
        assert_eq!(state.storage_get(&market, &SLOT_VALUE), H256::from_low_u64(60));
        assert_eq!(state.storage_get(&market, &SLOT_N_SET), H256::from_low_u64(1));
        // The router itself holds no state.
        assert_eq!(state.storage_get(&router_address(), &SLOT_VALUE), H256::ZERO);

        // The SetOk log bubbled out of the child frame and is attributed
        // to the *market*, not the router.
        let (_, receipt) = inner.chain.find_receipt(&tx_hash).expect("receipt stored");
        assert!(receipt.status.is_success());
        let set_logs: Vec<_> =
            receipt.logs.iter().filter(|log| log.topics.contains(&set_ok_topic())).collect();
        assert_eq!(set_logs.len(), 1);
        assert_eq!(set_logs[0].address, market, "log attributed to the callee frame");
    });
}

#[test]
fn routed_set_updates_the_native_market() {
    run_routed_set_updates_market(ContractForm::Native);
}

#[test]
fn routed_set_updates_the_bytecode_market() {
    // Bytecode-calls-bytecode: the router frame descends into the
    // assembled Sereth contract inside the iterative driver.
    run_routed_set_updates_market(ContractForm::Bytecode);
}

#[test]
fn routed_stale_set_is_a_silent_no_op_through_the_hop() {
    let owner = SecretKey::from_label(1);
    let node = make_node(&owner, ContractForm::Native);
    let market = default_contract_address();

    // A fresh set lands…
    let good = routed_set(&owner, 0, Flag::Head, genesis_mark(), 60);
    // …then a second one chains on a *wrong* mark (stale view).
    let stale = routed_set(&owner, 1, Flag::Success, H256::keccak(b"wrong"), 70);
    let stale_hash = stale.hash();
    assert!(node.receive_tx(good, 10));
    assert!(node.receive_tx(stale, 20));
    node.mine(15_000).expect("block sealed");

    node.with_inner(|inner| {
        let state = inner.chain.head_state();
        // The stale set is *in the block* (blockchains persist failures,
        // §III-A) but changed nothing: value still 60, nSet still 1.
        let (_, receipt) = inner.chain.find_receipt(&stale_hash).expect("included");
        assert!(receipt.status.is_success(), "semantic no-op, not a revert");
        assert!(!receipt.logs.iter().any(|log| log.topics.contains(&set_ok_topic())));
        assert_eq!(state.storage_get(&market, &SLOT_VALUE), H256::from_low_u64(60));
        assert_eq!(state.storage_get(&market, &SLOT_N_SET), H256::from_low_u64(1));
    });
}

#[test]
fn routed_and_direct_sets_interleave_on_one_market() {
    let owner = SecretKey::from_label(1);
    let node = make_node(&owner, ContractForm::Native);
    let market = default_contract_address();

    let m0 = genesis_mark();
    let v1 = H256::from_low_u64(60);
    let m1 = compute_mark(&m0, &v1);

    // set(60) through the router, then set(70) directly — the mark chain
    // spans both paths because the chain lives in the market's storage.
    let routed = routed_set(&owner, 0, Flag::Head, m0, 60);
    let direct = Transaction::sign(
        TxPayload {
            nonce: 1,
            gas_price: 1,
            gas_limit: 400_000,
            to: Some(market),
            value: U256::ZERO,
            input: Fpv::new(Flag::Success, m1, H256::from_low_u64(70)).to_calldata(set_selector()),
        },
        &owner,
    );
    assert!(node.receive_tx(routed, 10));
    assert!(node.receive_tx(direct, 20));
    node.mine(15_000).expect("block sealed");

    node.with_inner(|inner| {
        let state = inner.chain.head_state();
        assert_eq!(state.storage_get(&market, &SLOT_VALUE), H256::from_low_u64(70));
        assert_eq!(state.storage_get(&market, &SLOT_N_SET), H256::from_low_u64(2));
    });
}
