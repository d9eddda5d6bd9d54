//! RAA-STATE: node read latency vs account count — the deep-clone baseline
//! (what `query_view_for` did before copy-on-write state) against the O(1)
//! `StateView` path it runs on now.
//!
//! Each read issues the full two-call `mark()`/`get()` query against a
//! Sereth node whose genesis carries N funded accounts. The baseline
//! rebuilds the historical cost: `StateDb::deep_clone()` of the head
//! state per read, then the same two `call_readonly` executions. The
//! snapshot path is `NodeHandle::query_view`, which takes one lock, one
//! O(1) view, and executes outside the lock.

use sereth_bench::{artifact, market_genesis, mean_latency, BenchPoint};
use sereth_chain::executor::{call_readonly, BlockEnv};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{default_contract_address, get_selector, mark_selector};
use sereth_node::node::{NodeConfig, NodeHandle};
use sereth_vm::abi;

const ACCOUNTS: [u64; 4] = [1_024, 16_384, 65_536, 262_144];
/// Snapshot-path reads per size.
const READS: u32 = 2_000;
/// Deep-clone reads per size: the baseline is O(state) per read, so it
/// gets fewer.
const BASE_READS: u32 = 40;
/// The snapshot path must beat the deep clone by this factor at the
/// largest account count.
const MIN_SPEEDUP: f64 = 3.0;

/// The pre-COW read path, reconstructed: deep-clone the whole head state,
/// then run the two augmented read-only calls against the copy.
fn deep_clone_query(node: &NodeHandle, caller: Address) -> (H256, H256) {
    let contract = default_contract_address();
    let (state, raa, env) = node.with_inner(|inner| {
        let head = inner.chain.head_block().header.clone();
        (
            inner.chain.head_state().deep_clone(),
            inner.raa.clone(),
            BlockEnv {
                number: head.number,
                timestamp_ms: head.timestamp_ms,
                gas_limit: head.gas_limit,
                miner: head.miner,
            },
        )
    });
    let view = state.view();
    let zero = [H256::ZERO, H256::ZERO, H256::ZERO];
    let mark_out =
        call_readonly(&view, caller, contract, abi::encode_call(mark_selector(), &zero), &env, &raa);
    let get_out = call_readonly(&view, caller, contract, abi::encode_call(get_selector(), &zero), &env, &raa);
    (
        abi::decode_word(&mark_out.return_data).expect("one word"),
        abi::decode_word(&get_out.return_data).expect("one word"),
    )
}

/// Prints a markdown table of mean per-read latency and the speedup.
pub fn run(_smoke: bool) {
    let caller = Address::from_low_u64(0x11);
    let mut points: Vec<BenchPoint> = Vec::new();

    println!("Node read latency vs state size: full mark()/get() query per read");
    println!("| accounts | deep-clone/read | cow-view/read | speedup |");
    println!("|----------|-----------------|---------------|---------|");
    for accounts in ACCOUNTS {
        let genesis = market_genesis(&SecretKey::from_label(1), accounts);
        let node = NodeHandle::new(genesis, NodeConfig::sereth(default_contract_address()).build());
        let cow_read = || node.query_view(caller).expect("sereth node answers");
        assert_eq!(deep_clone_query(&node, caller), cow_read(), "both read paths answer alike");

        // Baseline: deep clone per read (the historical path). The
        // snapshot path takes an O(1) view per read.
        let deep = mean_latency(BASE_READS, || deep_clone_query(&node, caller));
        let point = BenchPoint::from_durations(accounts, deep, mean_latency(READS, cow_read));
        println!(
            "| {accounts:>8} | {:>12.2} µs | {:>10.2} µs | {:>6.1}x |",
            point.base_us, point.fast_us, point.speedup
        );
        points.push(point);
    }

    artifact(
        "state",
        "state_scale",
        &[("reads", READS.to_string()), ("base_reads", BASE_READS.to_string())],
        &points,
    );

    // The regression gate: if the snapshot path ever degrades back to
    // O(state) (e.g. a deep copy sneaks into `query_view_inner`), its
    // advantage at the largest size collapses toward 1x and this fails.
    let speedup = points.last().expect("ACCOUNTS is non-empty").speedup;
    assert!(
        speedup >= MIN_SPEEDUP,
        "snapshot path regressed: {speedup:.1}x < required {MIN_SPEEDUP:.1}x at the largest size"
    );
}
