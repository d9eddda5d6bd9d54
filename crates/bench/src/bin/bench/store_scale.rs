//! STORE-SCALE: the durable state backend vs the in-memory one as genesis
//! account count grows — cold start, crash recovery, and committed-read
//! latency.
//!
//! Per account count the bench builds twin miner nodes over the same
//! market genesis (one in-memory, one durable on a scratch directory),
//! mines the same chained `set` workload on both, then measures:
//!
//! * **cold start** — opening the fresh durable directory, which writes
//!   the genesis snapshot of N accounts;
//! * **recovery** — dropping the durable node mid-run (`kill -9` model:
//!   no shutdown path) and reopening the directory, which replays the
//!   journal; the recovered state root must be byte-equal to the root
//!   the in-memory twin holds, or the bench exits nonzero;
//! * **committed reads** — the full two-call `mark()`/`get()` query per
//!   node. Both paths ride the same O(1) epoch-pinned `StateView`, so
//!   the gate pins their *parity*: at every account count the durable
//!   read may cost at most [`MAX_READ_OVERHEAD`] times the in-memory one.
//!   A durable-side regression (e.g. a deep copy or disk touch sneaking
//!   into the read path) pushes that overhead up and trips it.

use std::time::Instant;

use sereth_bench::{market_genesis, mean_latency, set_tx};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::default_contract_address;
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{NodeConfig, NodeHandle};
use sereth_store::scratch_dir;

const ACCOUNTS: [u64; 3] = [256, 2_048, 16_384];
/// Blocks mined before the crash, and committed reads per node.
const BLOCKS: u64 = 8;
const READS: u32 = 500;
/// The most a durable committed read may cost over the in-memory one, at
/// any account count (six runs on a 2-vCPU host measured 0.90–1.22×).
const MAX_READ_OVERHEAD: f64 = 2.1;

/// Mines `blocks` chained sets; the same sequence on every node keeps the
/// twins byte-identical.
fn mine_sets(node: &NodeHandle, owner: &SecretKey, blocks: u64) {
    let mut mark = genesis_mark();
    for nonce in 0..blocks {
        let value = H256::from_low_u64(1_000 + nonce);
        let now = (nonce + 1) * 15_000;
        let set = set_tx(owner, default_contract_address(), nonce, mark, value, 2);
        assert!(node.receive_tx(set, now), "set accepted");
        node.mine(now).expect("miner seals");
        mark = compute_mark(&mark, &value);
    }
}

/// Prints one row per account count, then gates the read parity.
pub fn run() {
    let owner = SecretKey::from_label(1);
    let contract = default_contract_address();
    let caller = Address::from_low_u64(0x11);

    println!("Durable backend vs in-memory: cold start, recovery, committed reads ({BLOCKS} blocks mined)");
    println!("| accounts | cold start | recovery | mem-read | durable-read | overhead |");
    println!("|----------|------------|----------|----------|--------------|----------|");

    let mut overheads: Vec<(u64, f64)> = Vec::new();
    for accounts in ACCOUNTS {
        let genesis = market_genesis(&owner, accounts);
        let dir = scratch_dir("store-scale");

        let config = || NodeConfig::miner(contract, MinerPolicy::Standard);
        let open_durable = || NodeHandle::open(genesis.clone(), config().durable_store(&dir).build());
        let mem = NodeHandle::new(genesis.clone(), config().build());
        let start = Instant::now();
        let durable = open_durable().expect("fresh durable dir opens");
        let cold_start = start.elapsed();

        mine_sets(&mem, &owner, BLOCKS);
        mine_sets(&durable, &owner, BLOCKS);
        let committed_root = mem.head_state_root();
        assert_eq!(durable.head_state_root(), committed_root, "twins diverged before the crash");
        drop(durable);

        // The crash model: no shutdown path ran; reopen replays the journal.
        let start = Instant::now();
        let recovered = open_durable().expect("recovery succeeds");
        let recovery = start.elapsed();
        assert_eq!(recovered.head_number(), BLOCKS, "recovered chain height");
        assert_eq!(recovered.head_state_root(), committed_root, "recovered root must be byte-equal");

        // Committed reads: the full two-call `mark()`/`get()` query.
        let mem_read = mean_latency(READS, || mem.query_view(caller).expect("sereth node answers"));
        let durable_read = mean_latency(READS, || recovered.query_view(caller).expect("sereth node answers"));
        let overhead = durable_read.as_nanos() as f64 / mem_read.as_nanos().max(1) as f64;
        overheads.push((accounts, overhead));
        println!(
            "| {accounts:>8} | {:>7.1} ms | {:>5.1} ms | {:>5.2} µs | {:>9.2} µs | {overhead:>7.2}x |",
            cold_start.as_secs_f64() * 1e3,
            recovery.as_secs_f64() * 1e3,
            mem_read.as_nanos() as f64 / 1e3,
            durable_read.as_nanos() as f64 / 1e3,
        );

        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The parity gate: both read paths are O(1) views off the same COW
    // map; if the durable side ever grows a per-read disk or copy cost,
    // its overhead factor explodes and this fails.
    for (accounts, overhead) in overheads {
        assert!(
            overhead <= MAX_READ_OVERHEAD,
            "durable committed read regressed: {overhead:.2}x > allowed {MAX_READ_OVERHEAD:.2}x \
             over the in-memory read at {accounts} accounts"
        );
    }
}
