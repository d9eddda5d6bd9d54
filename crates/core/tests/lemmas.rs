//! Property tests for the paper's §IV correctness claims.
//!
//! * **Lemma 1** — the series generated by HMS is a sequentially
//!   consistent ordering of the longest branch: every adjacent pair chains
//!   marks (`succ.prev_mark == pred.mark`) and no longer rooted branch
//!   exists.
//! * **Lemma 2** — `DEEPESTBRANCH` terminates on every input, including
//!   adversarially forged FPVs (cycles are cryptographically
//!   unrepresentable; forged claims merely fail to form edges).
//!
//! Plus an implementation property the paper does not need but we rely on:
//! the O(V+E) dynamic program and the paper's verbatim recursion
//! (`algorithm3_series`, the oracle) return the *identical* series.

use bytes::Bytes;
use proptest::prelude::*;
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::hms::{hash_mark_set, HmsConfig, ViewSource};
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_core::process::{process, PendingTx};
use sereth_core::series::SeriesGraph;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_vm::abi::{self, Selector};

fn set_sel() -> Selector {
    abi::selector("set(bytes32[3])")
}

fn market() -> Address {
    Address::from_low_u64(0x5e7e)
}

fn pending(seq: u64, fpv: Fpv) -> PendingTx {
    PendingTx {
        hash: H256::keccak(&seq.to_be_bytes()),
        sender: Address::from_low_u64(seq),
        to: Some(market()),
        input: fpv.to_calldata(set_sel()),
        arrival_seq: seq,
    }
}

/// The oracle: the paper's Algorithm 3, lines 7–28, as written. It
/// iterates the head candidates, recursively explores every path
/// (exponential on adversarial diamond graphs) and keeps the strictly
/// deepest, so the first head and the first branch win ties.
fn algorithm3_series(graph: &SeriesGraph) -> Vec<usize> {
    let mut highest_depth = 0usize;
    let mut longest = Vec::new();
    for &head in graph.heads() {
        let mut path = vec![head];
        let mut max_depth = 0usize;
        let mut max_path = Vec::new();
        algorithm3_branch(graph, head, 1, &mut path, &mut max_depth, &mut max_path);
        if max_depth > highest_depth {
            highest_depth = max_depth;
            longest = max_path;
        }
    }
    longest
}

/// `DEEPESTBRANCH`: extends `path` through every successor of `node` and
/// keeps the first complete path that is strictly deeper than `max_depth`.
fn algorithm3_branch(
    graph: &SeriesGraph,
    node: usize,
    depth: usize,
    path: &mut Vec<usize>,
    max_depth: &mut usize,
    max_path: &mut Vec<usize>,
) {
    let successors = graph.successors_of(node);
    if successors.is_empty() {
        if depth > *max_depth {
            *max_depth = depth;
            *max_path = path.clone();
        }
        return;
    }
    for &next in successors {
        path.push(next);
        algorithm3_branch(graph, next, depth + 1, path, max_depth, max_path);
        path.pop();
    }
}

/// Strategy: a pool containing one or more honest chains rooted at the
/// committed mark, plus forged noise transactions with random prev_marks.
fn pool_strategy() -> impl Strategy<Value = Vec<PendingTx>> {
    (
        proptest::collection::vec(1usize..12, 1..4), // chain lengths
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12), // forged (prev, value) noise
        any::<u64>(),                                // shuffle seed
    )
        .prop_map(|(chain_lens, noise, seed)| {
            let mut txs = Vec::new();
            let mut seq = 0u64;
            for (chain_idx, len) in chain_lens.iter().enumerate() {
                let mut prev = genesis_mark();
                for i in 0..*len {
                    let flag = if i == 0 { Flag::Head } else { Flag::Success };
                    let value = H256::from_low_u64(1000 * (chain_idx as u64 + 1) + i as u64);
                    let fpv = Fpv::new(flag, prev, value);
                    prev = compute_mark(&prev, &value);
                    txs.push(pending(seq, fpv));
                    seq += 1;
                }
            }
            for (prev_raw, value_raw) in noise {
                let fpv = Fpv::new(
                    if prev_raw % 2 == 0 { Flag::Success } else { Flag::Head },
                    H256::from_low_u64(prev_raw),
                    H256::from_low_u64(value_raw),
                );
                txs.push(pending(seq, fpv));
                seq += 1;
            }
            // Deterministic pseudo-shuffle so arrival order is adversarial.
            let mut rng_state = seed;
            for i in (1..txs.len()).rev() {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (rng_state >> 33) as usize % (i + 1);
                txs.swap(i, j);
            }
            for (i, tx) in txs.iter_mut().enumerate() {
                tx.arrival_seq = i as u64;
            }
            txs
        })
}

proptest! {
    /// Lemma 1: adjacent series elements chain marks — the sequential
    /// consistency invariant.
    #[test]
    fn lemma1_series_chains_marks(pool in pool_strategy()) {
        let nodes = process(&pool, &market(), set_sel());
        let graph = SeriesGraph::build(nodes, None);
        let series = graph.longest_series();
        for pair in series.windows(2) {
            let pred = &graph.nodes()[pair[0]];
            let succ = &graph.nodes()[pair[1]];
            prop_assert_eq!(succ.fpv.prev_mark, pred.mark);
            prop_assert_eq!(succ.mark, compute_mark(&pred.mark, &succ.fpv.value));
        }
        // The first element, if any, is a head candidate.
        if let Some(&first) = series.first() {
            prop_assert!(graph.heads().contains(&first));
        }
    }

    /// Lemma 1 continued: the returned series is maximal — no other branch
    /// rooted at a head candidate is strictly longer.
    #[test]
    fn lemma1_series_is_longest(pool in pool_strategy()) {
        let nodes = process(&pool, &market(), set_sel());
        let graph = SeriesGraph::build(nodes, None);
        let series_len = graph.longest_series().len();
        // Exhaustively compute depths via the recursion used in the paper.
        let reference = algorithm3_series(&graph).len();
        prop_assert_eq!(series_len, reference);
    }

    /// Lemma 2: SERIES/DEEPESTBRANCH terminate and visit at most the
    /// filtered transactions, on arbitrary (including forged) input.
    #[test]
    fn lemma2_terminates_and_is_bounded(pool in pool_strategy()) {
        let nodes = process(&pool, &market(), set_sel());
        let count = nodes.len();
        let graph = SeriesGraph::build(nodes, None);
        let series = graph.longest_series();
        prop_assert!(series.len() <= count);
        // No node repeats: the series is a simple path.
        let mut sorted = series.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), series.len());
    }

    /// The dynamic program and the paper's verbatim recursion return the
    /// identical series, element for element.
    #[test]
    fn dp_equals_paper_recursion(pool in pool_strategy()) {
        let nodes = process(&pool, &market(), set_sel());
        let graph = SeriesGraph::build(nodes, None);
        prop_assert_eq!(graph.longest_series(), algorithm3_series(&graph));
    }

    /// Algorithm 1 end-to-end: the served view is either the committed
    /// state (empty/unrooted pools) or the tail of a verified chain.
    #[test]
    fn hashmarkset_view_is_consistent(pool in pool_strategy()) {
        let committed = (genesis_mark(), H256::from_low_u64(50));
        let outcome = hash_mark_set(&pool, &market(), set_sel(), committed, &HmsConfig::default());
        match outcome.view.source {
            ViewSource::Committed => {
                prop_assert_eq!(outcome.view.mark, committed.0);
                prop_assert_eq!(outcome.view.value, committed.1);
                prop_assert!(outcome.series.is_empty());
            }
            ViewSource::Uncommitted => {
                let tail = outcome.series.last().expect("uncommitted views carry a series");
                prop_assert_eq!(outcome.view.mark, tail.mark);
                prop_assert_eq!(outcome.view.value, tail.fpv.value);
                // Replaying the whole series from its head reproduces the
                // tail mark — the view is cryptographically grounded.
                let head = outcome.series.first().expect("non-empty");
                let mut mark = head.fpv.prev_mark;
                for node in &outcome.series {
                    mark = compute_mark(&mark, &node.fpv.value);
                }
                prop_assert_eq!(mark, outcome.view.mark);
            }
        }
    }

    /// The committed-head extension never yields a shorter series than the
    /// baseline (it only adds head candidates).
    #[test]
    fn committed_head_extension_dominates(pool in pool_strategy()) {
        let committed = (genesis_mark(), H256::from_low_u64(50));
        let base = hash_mark_set(&pool, &market(), set_sel(), committed, &HmsConfig::default());
        let ext = hash_mark_set(&pool, &market(), set_sel(), committed, &HmsConfig { committed_head: true });
        prop_assert!(ext.view.series_len >= base.view.series_len);
    }

    /// Processing is insensitive to non-Sereth noise in the pool.
    #[test]
    fn foreign_traffic_is_invisible(pool in pool_strategy(),
                                    noise_count in 0usize..20) {
        let committed = (genesis_mark(), H256::from_low_u64(50));
        let base = hash_mark_set(&pool, &market(), set_sel(), committed, &HmsConfig::default());

        let mut noisy = pool.clone();
        for i in 0..noise_count {
            noisy.push(PendingTx {
                hash: H256::keccak(&[i as u8, 0xaa]),
                sender: Address::from_low_u64(i as u64),
                to: Some(Address::from_low_u64(0x0dd)),
                input: Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef, 0x00]),
                arrival_seq: 10_000 + i as u64,
            });
        }
        let with_noise = hash_mark_set(&noisy, &market(), set_sel(), committed, &HmsConfig::default());
        prop_assert_eq!(base.view, with_noise.view);
    }
}

#[test]
fn recursive_agrees_on_straight_chain() {
    let mut prev = genesis_mark();
    let pool: Vec<PendingTx> = (0..6u64)
        .map(|seq| {
            let value = H256::from_low_u64(100 + seq);
            let fpv = Fpv::new(if seq == 0 { Flag::Head } else { Flag::Success }, prev, value);
            prev = compute_mark(&prev, &value);
            pending(seq, fpv)
        })
        .collect();
    let graph = SeriesGraph::build(process(&pool, &market(), set_sel()), None);
    assert_eq!(graph.longest_series(), vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(algorithm3_series(&graph), graph.longest_series());
}
