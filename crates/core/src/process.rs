//! Algorithm 2 — `PROCESS`: filter the TxPool for Hash-Mark-Set
//! transactions and compute their marks.

use bytes::Bytes;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_vm::abi::Selector;

use crate::fpv::{Flag, Fpv};
use crate::mark::compute_mark;

/// A pending transaction as Hash-Mark-Set sees it: just enough of the pool
/// entry to filter and order. `sereth-node` converts the chain's pool
/// entries into these, keeping this crate independent of the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTx {
    /// Transaction hash (identifies the tx for semantic mining).
    pub hash: H256,
    /// Sender address.
    pub sender: Address,
    /// Callee contract (`None` for contract creations).
    pub to: Option<Address>,
    /// Full calldata, selector included.
    pub input: Bytes,
    /// Arrival sequence in the pool — the real-time order of the concurrent
    /// history (paper §II-B).
    pub arrival_seq: u64,
}

/// A filtered transaction with its computed mark — the node type the series
/// graph is built from (paper Algorithm 2 line 7, `new Node(txn)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnNode {
    /// The underlying pool view.
    pub pending: PendingTx,
    /// Decoded FPV.
    pub fpv: Fpv,
    /// `keccak256(fpv.prev_mark ‖ fpv.value)` — Algorithm 2 line 6.
    pub mark: H256,
}

impl TxnNode {
    /// The parsed flag.
    pub fn flag(&self) -> Flag {
        self.fpv.flag()
    }
}

/// Filters `pool` for transactions addressed to `contract` invoking
/// `set_selector` whose flag passes the `SUCCESS` predicate, computing
/// each mark (Algorithm 2).
///
/// Scoping by contract keeps independent Sereth markets on one chain from
/// polluting each other's series — each managed state variable gets its
/// own DAG.
///
/// The input order is preserved (callers pass pool-arrival order); "due to
/// this filtering only a small percentage of the TxPool requires
/// processing, so the overhead of HMS is relatively small" (paper §III-C) —
/// the `hms_process` benchmark quantifies that claim.
pub fn process(pool: &[PendingTx], contract: &Address, set_selector: Selector) -> Vec<TxnNode> {
    pool.iter().filter_map(|pending| filter_one(pending, contract, set_selector)).collect()
}

/// Algorithm 2's per-transaction body: `Some(node)` iff `pending` is a
/// Sereth `set` on `contract` with an accepted flag.
fn filter_one(pending: &PendingTx, contract: &Address, set_selector: Selector) -> Option<TxnNode> {
    // The transaction must target the managed contract…
    if pending.to != Some(*contract) {
        return None;
    }
    // …and SIGNATURE(txn) == "set".
    if pending.input.len() < 4 || pending.input[..4] != set_selector {
        return None;
    }
    // SUCCESS(txn): flag is headFlag or successFlag.
    let fpv = Fpv::from_calldata(&pending.input)?;
    if !fpv.flag().is_accepted() {
        return None;
    }
    let mark = compute_mark(&fpv.prev_mark, &fpv.value);
    Some(TxnNode { pending: pending.clone(), fpv, mark })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpv::{HEAD_FLAG, SUCCESS_FLAG};
    use crate::mark::genesis_mark;
    use sereth_vm::abi::{self, encode_call};

    fn set_sel() -> Selector {
        abi::selector("set(bytes32[3])")
    }

    fn buy_sel() -> Selector {
        abi::selector("buy(bytes32[3])")
    }

    fn contract() -> Address {
        Address::from_low_u64(0x5e7e)
    }

    fn pending(seq: u64, selector: Selector, flag: H256, prev: H256, value: u64) -> PendingTx {
        PendingTx {
            hash: H256::keccak(&seq.to_be_bytes()),
            sender: Address::from_low_u64(seq),
            to: Some(contract()),
            input: encode_call(selector, &[flag, prev, H256::from_low_u64(value)]),
            arrival_seq: seq,
        }
    }

    #[test]
    fn filters_by_selector() {
        let pool = vec![
            pending(0, set_sel(), HEAD_FLAG, genesis_mark(), 5),
            pending(1, buy_sel(), HEAD_FLAG, genesis_mark(), 5),
        ];
        let nodes = process(&pool, &contract(), set_sel());
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].pending.arrival_seq, 0);
    }

    #[test]
    fn filters_by_flag() {
        let pool = vec![
            pending(0, set_sel(), HEAD_FLAG, genesis_mark(), 5),
            pending(1, set_sel(), SUCCESS_FLAG, genesis_mark(), 6),
            pending(2, set_sel(), H256::from_low_u64(99), genesis_mark(), 7), // rejected flag
        ];
        let nodes = process(&pool, &contract(), set_sel());
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn computes_marks_per_the_definition() {
        let prev = genesis_mark();
        let pool = vec![pending(0, set_sel(), HEAD_FLAG, prev, 5)];
        let nodes = process(&pool, &contract(), set_sel());
        assert_eq!(nodes[0].mark, compute_mark(&prev, &H256::from_low_u64(5)));
        assert_eq!(nodes[0].flag(), Flag::Head);
    }

    #[test]
    fn malformed_calldata_is_skipped_not_fatal() {
        let mut truncated = pending(0, set_sel(), HEAD_FLAG, genesis_mark(), 5);
        truncated.input = truncated.input.slice(..40); // selector + part of flag
        let short = PendingTx {
            hash: H256::keccak(b"tiny"),
            sender: Address::ZERO,
            to: Some(contract()),
            input: Bytes::from_static(&[0x01]),
            arrival_seq: 1,
        };
        let good = pending(2, set_sel(), SUCCESS_FLAG, genesis_mark(), 6);
        let nodes = process(&[truncated, short, good], &contract(), set_sel());
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].pending.arrival_seq, 2);
    }

    #[test]
    fn preserves_input_order() {
        let pool: Vec<PendingTx> =
            (0..5).map(|i| pending(i, set_sel(), SUCCESS_FLAG, H256::from_low_u64(i), i)).collect();
        let nodes = process(&pool, &contract(), set_sel());
        let seqs: Vec<u64> = nodes.iter().map(|n| n.pending.arrival_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_pool_yields_empty_list() {
        assert!(process(&[], &contract(), set_sel()).is_empty());
    }
}
