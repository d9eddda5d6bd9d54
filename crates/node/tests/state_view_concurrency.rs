//! Concurrent readers against copy-on-write state views.
//!
//! N reader threads issue `query_view_for` and capture O(1) `StateView`s
//! while a writer thread keeps sealing blocks that reprice several
//! independent markets, each with its own owner and price chain. The COW
//! contract under load, per market: no torn reads (every captured view's
//! recomputed root equals the header root it was captured with), every
//! view's committed AMV matches the market's deterministic oracle for its
//! block height, and every served `(mark, value)` pair is a member of
//! that market's precomputed mark chain — a torn, aliased or
//! cross-market read would fabricate a pair outside it.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use sereth_chain::genesis::{Genesis, GenesisBuilder};
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::contract::{sereth_code, sereth_genesis_slots, set_selector, ContractForm};
use sereth_node::miner::{committed_amv, MinerPolicy};
use sereth_node::node::{ClientKind, NodeConfig, NodeHandle};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

/// Independent markets on the node, each with its own owner and price
/// chain; market 0 is the node's configured contract, the others are
/// enabled on top of it.
const MARKETS: usize = 3;

fn market(m: usize) -> Address {
    Address::from_low_u64(0x3a17_0000 + m as u64)
}

fn owner(m: usize) -> SecretKey {
    SecretKey::from_label(1 + m as u64)
}

fn initial_price(m: usize) -> u64 {
    50 + m as u64
}

fn test_genesis() -> Genesis {
    let mut builder = GenesisBuilder::new();
    for m in 0..MARKETS {
        builder = builder.fund(owner(m).address(), U256::from(1_000_000_000u64)).contract_with_storage(
            market(m),
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner(m).address(), H256::from_low_u64(initial_price(m))),
        );
    }
    builder.build()
}

fn sereth_node() -> NodeHandle {
    let node = NodeHandle::new(
        test_genesis(),
        NodeConfig::miner(market(0), MinerPolicy::Standard)
            .kind(ClientKind::Sereth)
            .coinbase(Address::from_low_u64(0xc01))
            .build(),
    );
    for m in 1..MARKETS {
        node.enable_market(market(m));
    }
    node
}

fn set_tx(m: usize, nonce: u64, prev: H256, value: H256) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: 1,
            gas_limit: 200_000,
            to: Some(market(m)),
            value: U256::ZERO,
            input: Fpv::new(if nonce == 0 { Flag::Head } else { Flag::Success }, prev, value)
                .to_calldata(set_selector()),
        },
        &owner(m),
    )
}

/// The deterministic oracle, per market: `(mark, value)` after `h` sealed
/// blocks, one set per market per block, values `1000 * (m + 1) + h` —
/// disjoint across markets, so a cross-market read cannot pass.
fn amv_chains(blocks: usize) -> Vec<Vec<(H256, H256)>> {
    (0..MARKETS)
        .map(|m| {
            let mut chain = vec![(genesis_mark(), H256::from_low_u64(initial_price(m)))];
            for b in 0..blocks {
                let (prev_mark, _) = chain[b];
                let value = H256::from_low_u64(1_000 * (m as u64 + 1) + b as u64);
                chain.push((compute_mark(&prev_mark, &value), value));
            }
            chain
        })
        .collect()
}

/// Submits block `b`'s set on every market and seals it.
fn seal_block(node: &NodeHandle, chains: &[Vec<(H256, H256)>], b: usize) -> sereth_types::block::Block {
    for (m, chain) in chains.iter().enumerate() {
        let (prev_mark, _) = chain[b];
        let (_, value) = chain[b + 1];
        assert!(node.receive_tx(set_tx(m, b as u64, prev_mark, value), (b as u64) * 100 + 1 + m as u64));
    }
    node.mine((b as u64 + 1) * 15_000).expect("miner seals")
}

/// The committed `(mark, value)` of every market in `view`.
fn committed_amvs(view: &sereth_chain::state::StateView) -> Vec<(H256, H256)> {
    (0..MARKETS).map(|m| committed_amv(view, &market(m))).collect()
}

/// Every market's oracle entry at `height`.
fn oracle_at(chains: &[Vec<(H256, H256)>], height: usize) -> Vec<(H256, H256)> {
    chains.iter().map(|chain| chain[height]).collect()
}

#[test]
fn readers_never_observe_torn_state_while_writer_seals() {
    const BLOCKS: usize = 24;
    const READERS: usize = 4;

    let node = sereth_node();
    let chains = amv_chains(BLOCKS);
    // The `mark()` and `get()` calls of one query are two separate
    // read-only executions; a block can seal between them, so the *pair*
    // may straddle two adjacent pool states. Each component, however, must
    // be a member of its market's deterministic chain — anything else is a
    // torn or fabricated read.
    let valid_marks: Vec<HashSet<H256>> =
        chains.iter().map(|chain| chain.iter().map(|(m, _)| *m).collect()).collect();
    let valid_values: Vec<HashSet<H256>> =
        chains.iter().map(|chain| chain.iter().map(|(_, v)| *v).collect()).collect();

    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    // Views the writer holds across the whole run, re-verified at the end:
    // (height, header state root, view).
    let held: Mutex<Vec<(u64, H256, sereth_chain::state::StateView)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Writer: submit one set per market, seal them, record the held view.
        scope.spawn(|| {
            for b in 0..BLOCKS {
                let block = seal_block(&node, &chains, b);
                assert_eq!(block.transactions.len(), MARKETS, "every market's set committed in block {b}");
                let (height, view) = node.head_state_view();
                held.lock().unwrap().push((height, block.header.state_root, view));
            }
            // The indexed pool makes sealing fast enough that on a
            // single-CPU host all 24 blocks can land inside one scheduler
            // quantum; hold the shutdown flag until at least one reader
            // iteration has genuinely raced the (now sealed) chain.
            while reads.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });

        // Readers: capture consistent (height, root, view) triples and
        // issue RAA queries, each iteration on the next market in turn,
        // all while the writer seals.
        for r in 0..READERS {
            let reads = &reads;
            let done = &done;
            let node = &node;
            let valid_marks = &valid_marks;
            let valid_values = &valid_values;
            let chains = &chains;
            scope.spawn(move || {
                let caller = Address::from_low_u64(0xbead + r as u64);
                let mut m = r % MARKETS;
                while !done.load(Ordering::Acquire) {
                    // One lock: height, header root, and the O(1) view.
                    let (height, header_root, view) = node.with_inner(|inner| {
                        (
                            inner.chain.head_number(),
                            inner.chain.head_block().header.state_root,
                            inner.chain.head_state_view(),
                        )
                    });
                    // No torn reads: the view recomputes the sealed root.
                    assert_eq!(view.state_root(), header_root, "torn view at height {height}");
                    // The view matches the market's oracle for its height.
                    assert_eq!(
                        committed_amv(&view, &market(m)),
                        chains[m][height as usize],
                        "market {m}: view AMV diverged from oracle at height {height}"
                    );
                    // The RAA read path (uncommitted views included) only
                    // ever serves pairs from the market's own mark chain.
                    let (mark, value) = node.query_view_for(market(m), caller).expect("sereth answers");
                    assert!(valid_marks[m].contains(&mark), "market {m} served a mark outside its chain");
                    assert!(valid_values[m].contains(&value), "market {m} served a value outside its chain");
                    reads.fetch_add(1, Ordering::Relaxed);
                    m = (m + 1) % MARKETS;
                }
            });
        }
    });

    assert_eq!(node.head_number(), BLOCKS as u64);
    assert!(reads.load(Ordering::Relaxed) > 0, "readers actually ran");

    // Views held since each seal are still byte-exact for their height —
    // O(BLOCKS) live snapshots coexisting is the whole point of COW.
    let held = held.into_inner().unwrap();
    assert_eq!(held.len(), BLOCKS);
    for (height, root, view) in &held {
        assert_eq!(view.state_root(), *root, "held view for height {height} drifted");
        assert_eq!(committed_amvs(view), oracle_at(&chains, *height as usize), "held view at {height}");
    }
}

#[test]
fn a_view_held_across_the_whole_run_is_immune_to_the_writer() {
    const BLOCKS: usize = 8;
    let node = sereth_node();
    let chains = amv_chains(BLOCKS);

    let (height, genesis_view) = node.head_state_view();
    assert_eq!(height, 0);
    let genesis_root = genesis_view.state_root();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for b in 0..BLOCKS {
                seal_block(&node, &chains, b);
            }
        });
        // Poll the frozen view from this thread while the writer runs.
        for _ in 0..200 {
            assert_eq!(committed_amvs(&genesis_view), oracle_at(&chains, 0));
        }
    });

    assert_eq!(node.head_number(), BLOCKS as u64);
    assert_eq!(genesis_view.state_root(), genesis_root);
    assert_eq!(committed_amvs(&genesis_view), oracle_at(&chains, 0));
    // And the live chain did move to the oracle's final entries.
    assert_eq!(committed_amvs(&node.head_state_view().1), oracle_at(&chains, BLOCKS));
}
