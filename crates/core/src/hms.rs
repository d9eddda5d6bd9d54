//! Algorithm 1 — `HASHMARKSET`: serialize the transaction pool and produce
//! the READ-UNCOMMITTED view of the managed state variable.

use sereth_crypto::hash::H256;
use sereth_vm::abi::Selector;

use crate::fpv::{Flag, SPECIAL_VALUE};
use crate::process::{process, PendingTx, TxnNode};
use crate::series::SeriesGraph;

/// Where an [`HmsView`] was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewSource {
    /// The filtered pool was empty (Algorithm 1 line 4): the view is the
    /// *committed* contract state and a follow-up transaction should carry
    /// the head flag.
    Committed,
    /// The view is the tail of the pending series (Algorithm 1 line 8).
    Uncommitted,
}

/// The view of the managed state variable that Hash-Mark-Set serves —
/// conceptually the AMV of the series tail (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmsView {
    /// Provenance of the view.
    pub source: ViewSource,
    /// Mark of the tail (or the committed mark): what a new transaction
    /// must present as `prev_mark`/offer mark.
    pub mark: H256,
    /// Value at the tail (or committed value): e.g. the current price.
    pub value: H256,
    /// Length of the series backing the view (0 for committed views).
    pub series_len: usize,
}

impl HmsView {
    /// Encodes the view into the three RAA argument words.
    ///
    /// Word 0 carries the flag hint ([`SPECIAL_VALUE`] for committed views,
    /// the success flag otherwise) — Algorithm 1 line 5 writes
    /// `specialValue` for the empty-pool case and the contract's
    /// `mark`/`get` functions read words 1 and 2 (Listing 1).
    pub fn to_words(&self) -> [H256; 3] {
        let hint = match self.source {
            ViewSource::Committed => SPECIAL_VALUE,
            ViewSource::Uncommitted => Flag::Success.to_word(),
        };
        [hint, self.mark, self.value]
    }
}

/// Configuration for the Hash-Mark-Set algorithm.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HmsConfig {
    /// Enable the committed-head extension (paper §V-C future work):
    /// transactions chaining directly onto the committed mark root the
    /// series even when flagged as successors, closing the post-publish
    /// window that loses 10–20 % of transactions.
    pub committed_head: bool,
}

/// The full result of serializing the pool: the view plus the series
/// itself (which semantic miners consume, paper §V-C).
#[derive(Debug, Clone)]
pub struct HmsOutcome {
    /// The READ-UNCOMMITTED (or fallback committed) view.
    pub view: HmsView,
    /// The longest series, in order; empty for committed views.
    pub series: Vec<TxnNode>,
}

/// Runs Algorithm 1 over a pool snapshot.
///
/// * `pool` — pending transactions in arrival order;
/// * `contract` — the Sereth contract whose state variable is managed
///   (independent markets on one chain have independent series);
/// * `set_selector` — the Sereth `set` function selector (the SIGNATURE
///   filter of Algorithm 2);
/// * `committed` — the `(mark, value)` currently in contract storage, used
///   when the filtered list is empty (Algorithm 1 lines 4–6) and, with
///   [`HmsConfig::committed_head`], to root the series;
/// * `config` — extension toggles.
pub fn hash_mark_set(
    pool: &[PendingTx],
    contract: &sereth_crypto::address::Address,
    set_selector: Selector,
    committed: (H256, H256),
    config: &HmsConfig,
) -> HmsOutcome {
    let txn_list = process(pool, contract, set_selector);
    outcome_from_nodes(txn_list, committed, config)
}

/// Algorithm 1 lines 3–9 over `PROCESS`'s output, in pool-arrival order:
/// the series extraction and view construction.
fn outcome_from_nodes(txn_list: Vec<TxnNode>, committed: (H256, H256), config: &HmsConfig) -> HmsOutcome {
    let (committed_mark, committed_value) = committed;
    let committed_outcome = || HmsOutcome {
        view: HmsView {
            source: ViewSource::Committed,
            mark: committed_mark,
            value: committed_value,
            series_len: 0,
        },
        series: Vec::new(),
    };

    // Algorithm 1 line 4: empty list ⇒ special value ⇒ committed view.
    if txn_list.is_empty() {
        return committed_outcome();
    }

    let root = config.committed_head.then_some(committed_mark);
    let graph = SeriesGraph::build(txn_list, root);
    let indices = graph.longest_series();
    if indices.is_empty() {
        // Filtered transactions exist but none roots a series (e.g. all
        // their predecessors were just committed). Fall back to the
        // committed view, as an empty list would.
        return committed_outcome();
    }

    let series: Vec<TxnNode> = indices.iter().map(|&i| graph.nodes()[i].clone()).collect();
    let tail = series.last().expect("series non-empty");
    HmsOutcome {
        view: HmsView {
            source: ViewSource::Uncommitted,
            mark: tail.mark,
            value: tail.fpv.value,
            series_len: series.len(),
        },
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpv::Fpv;
    use crate::mark::{compute_mark, genesis_mark};
    use bytes::Bytes;
    use sereth_crypto::address::Address;
    use sereth_vm::abi::{self};

    fn set_sel() -> Selector {
        abi::selector("set(bytes32[3])")
    }

    fn contract() -> Address {
        Address::from_low_u64(0x5e7e)
    }

    fn set_tx(seq: u64, flag: Flag, prev: H256, value: u64) -> PendingTx {
        let fpv = Fpv::new(flag, prev, H256::from_low_u64(value));
        PendingTx {
            hash: H256::keccak(&seq.to_be_bytes()),
            sender: Address::from_low_u64(seq + 1000),
            to: Some(contract()),
            input: fpv.to_calldata(set_sel()),
            arrival_seq: seq,
        }
    }

    fn noise_tx(seq: u64) -> PendingTx {
        PendingTx {
            hash: H256::keccak(&[seq as u8, 0xff]),
            sender: Address::from_low_u64(seq),
            to: Some(Address::from_low_u64(0x0dd)),
            input: Bytes::from_static(&[1, 2, 3, 4, 5]),
            arrival_seq: seq,
        }
    }

    #[test]
    fn empty_pool_serves_committed_view() {
        let committed = (genesis_mark(), H256::from_low_u64(50));
        let outcome = hash_mark_set(&[], &contract(), set_sel(), committed, &HmsConfig::default());
        assert_eq!(outcome.view.source, ViewSource::Committed);
        assert_eq!(outcome.view.mark, genesis_mark());
        assert_eq!(outcome.view.value, H256::from_low_u64(50));
        assert!(outcome.series.is_empty());
    }

    #[test]
    fn pool_of_noise_serves_committed_view() {
        let committed = (genesis_mark(), H256::from_low_u64(50));
        let pool: Vec<PendingTx> = (0..10).map(noise_tx).collect();
        let outcome = hash_mark_set(&pool, &contract(), set_sel(), committed, &HmsConfig::default());
        assert_eq!(outcome.view.source, ViewSource::Committed);
    }

    #[test]
    fn chained_sets_serve_the_tail() {
        let committed = (genesis_mark(), H256::from_low_u64(50));
        let s1 = set_tx(0, Flag::Head, genesis_mark(), 60);
        let m1 = compute_mark(&genesis_mark(), &H256::from_low_u64(60));
        let s2 = set_tx(1, Flag::Success, m1, 70);
        let m2 = compute_mark(&m1, &H256::from_low_u64(70));
        let pool = vec![noise_tx(100), s1, s2, noise_tx(101)];
        let outcome = hash_mark_set(&pool, &contract(), set_sel(), committed, &HmsConfig::default());
        assert_eq!(outcome.view.source, ViewSource::Uncommitted);
        assert_eq!(outcome.view.mark, m2);
        assert_eq!(outcome.view.value, H256::from_low_u64(70));
        assert_eq!(outcome.view.series_len, 2);
        assert_eq!(outcome.series.len(), 2);
    }

    #[test]
    fn orphaned_successors_fall_back_to_committed() {
        // The series' head was just committed: a SUCCESS-flagged tx chains
        // onto a mark that is no longer in the pool.
        let committed_mark = H256::keccak(b"published-mark");
        let committed = (committed_mark, H256::from_low_u64(50));
        let orphan = set_tx(0, Flag::Success, committed_mark, 60);
        let outcome = hash_mark_set(
            std::slice::from_ref(&orphan),
            &contract(),
            set_sel(),
            committed,
            &HmsConfig::default(),
        );
        assert_eq!(outcome.view.source, ViewSource::Committed, "paper baseline loses the orphan");

        // The committed-head extension recovers it.
        let extended =
            hash_mark_set(&[orphan], &contract(), set_sel(), committed, &HmsConfig { committed_head: true });
        assert_eq!(extended.view.source, ViewSource::Uncommitted);
        assert_eq!(extended.view.value, H256::from_low_u64(60));
    }

    #[test]
    fn view_words_encode_hint_mark_value() {
        let committed = (genesis_mark(), H256::from_low_u64(50));
        let outcome = hash_mark_set(&[], &contract(), set_sel(), committed, &HmsConfig::default());
        let words = outcome.view.to_words();
        assert_eq!(words[0], SPECIAL_VALUE);
        assert_eq!(words[1], genesis_mark());
        assert_eq!(words[2], H256::from_low_u64(50));
    }

    #[test]
    fn longest_of_competing_series_wins() {
        let committed = (genesis_mark(), H256::from_low_u64(50));
        // Series A: head(60).
        let a1 = set_tx(0, Flag::Head, genesis_mark(), 60);
        // Series B: head(70) -> succ(80).
        let b1 = set_tx(1, Flag::Head, genesis_mark(), 70);
        let b1_mark = compute_mark(&genesis_mark(), &H256::from_low_u64(70));
        let b2 = set_tx(2, Flag::Success, b1_mark, 80);
        let outcome = hash_mark_set(&[a1, b1, b2], &contract(), set_sel(), committed, &HmsConfig::default());
        assert_eq!(outcome.view.value, H256::from_low_u64(80));
        assert_eq!(outcome.view.series_len, 2);
    }
}
