//! Committed-history extraction: turning blocks + receipts into the
//! market-operation records the checkers consume.

use sereth_core::fpv::{Fpv, BUY_OK_TOPIC, BUY_SELECTOR, SET_OK_TOPIC, SET_SELECTOR};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_types::block::Block;
use sereth_types::receipt::Receipt;

/// What varies between deployed Sereth markets. Every market shares the
/// contract's selectors ([`SET_SELECTOR`], [`BUY_SELECTOR`]), its success
/// topics ([`SET_OK_TOPIC`], [`BUY_OK_TOPIC`]) and the genesis mark
/// ([`sereth_core::mark::genesis_mark`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarketSpec {
    /// The market contract's address.
    pub contract: Address,
    /// The value (price) the contract holds at genesis.
    pub initial_value: H256,
}

impl MarketSpec {
    /// A market at a made-up address opening at price 50, for
    /// documentation examples and checker tests that build [`TxRecord`]s
    /// directly.
    pub fn example() -> Self {
        Self { contract: Address::from_low_u64(0xc0ffee), initial_value: H256::from_low_u64(50) }
    }
}

/// The market-relevant interpretation of one committed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarketOp {
    /// A `set` invocation with the decoded FPV.
    Set(Fpv),
    /// A `buy` invocation with the decoded FPV (an *offer*).
    Buy(Fpv),
}

/// One committed market transaction, in block order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRecord {
    /// Transaction hash.
    pub tx_hash: H256,
    /// Sender address (the paper's "thread").
    pub sender: Address,
    /// Sender nonce — the program-order index within the thread.
    pub nonce: u64,
    /// Block the transaction committed in.
    pub block_number: u64,
    /// Position within that block.
    pub index_in_block: u32,
    /// What the transaction asked the market to do.
    pub op: MarketOp,
    /// `true` if the chain says the operation changed state (the
    /// contract emitted its success event). Ineffective transactions
    /// still occupy block space — the paper's "failed" transactions
    /// (§II-D, §III-A).
    pub effective: bool,
}

/// One read-only client observation of the market — a `query_view` /
/// `committed_amv` answer as logged by a node or the simulator. Reads
/// never commit, so they live beside the committed [`TxRecord`]s; the
/// dirty-read (G1a) pass of [`crate::check`] consumes them to decide
/// whether each observation was of committed or of speculative state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRecord {
    /// The reading client's address.
    pub reader: Address,
    /// Committed head height of the node that served the read, at the
    /// moment it answered.
    pub at_height: u64,
    /// The mark the client observed.
    pub observed_mark: H256,
    /// The value the client observed.
    pub observed_value: H256,
}

/// A committed history: market operations in commit (block) order, plus
/// the read-only observations clients made along the way (empty unless
/// logged — [`History::from_blocks`] sees only what committed).
#[derive(Debug, Clone, Default)]
pub struct History {
    records: Vec<TxRecord>,
    reads: Vec<ReadRecord>,
}

impl History {
    /// Builds a history from records already in commit order.
    pub fn from_records(records: Vec<TxRecord>) -> Self {
        Self { records, reads: Vec::new() }
    }

    /// Attaches a read-observation log (builder style). Order within the
    /// log is irrelevant — each read is judged against the committed
    /// chain as of its own `at_height`.
    pub fn with_reads(mut self, reads: Vec<ReadRecord>) -> Self {
        self.reads = reads;
        self
    }

    /// The logged read observations.
    pub fn reads(&self) -> &[ReadRecord] {
        &self.reads
    }

    /// Extracts the market history from a canonical chain.
    ///
    /// Transactions not addressed to `spec.contract`, or whose selector is
    /// neither `set` nor `buy`, or whose calldata does not decode as an
    /// FPV, are skipped — they are foreign traffic the checkers have
    /// nothing to say about.
    pub fn from_blocks<'a>(
        spec: &MarketSpec,
        blocks: impl IntoIterator<Item = (&'a Block, &'a [Receipt])>,
    ) -> Self {
        let mut records = Vec::new();
        for (block, receipts) in blocks {
            for (index, tx) in block.transactions.iter().enumerate() {
                if tx.to() != Some(spec.contract) {
                    continue;
                }
                let input = tx.input();
                if input.len() < 4 {
                    continue;
                }
                let selector: [u8; 4] = input[..4].try_into().expect("length checked");
                let (op, ok_topic) = if selector == SET_SELECTOR {
                    let Some(fpv) = Fpv::from_calldata(input) else { continue };
                    (MarketOp::Set(fpv), SET_OK_TOPIC)
                } else if selector == BUY_SELECTOR {
                    let Some(fpv) = Fpv::from_calldata(input) else { continue };
                    (MarketOp::Buy(fpv), BUY_OK_TOPIC)
                } else {
                    continue;
                };
                let effective = receipts
                    .iter()
                    .find(|receipt| receipt.tx_hash == tx.hash())
                    .is_some_and(|receipt| receipt.has_event(ok_topic));
                records.push(TxRecord {
                    tx_hash: tx.hash(),
                    sender: tx.sender(),
                    nonce: tx.nonce(),
                    block_number: block.header.number,
                    index_in_block: index as u32,
                    op,
                    effective,
                });
            }
        }
        Self { records, reads: Vec::new() }
    }

    /// The records in commit order.
    pub fn records(&self) -> &[TxRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no market transactions committed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sereth_core::fpv::Flag;
    use sereth_core::mark::genesis_mark;

    fn record(nonce: u64, effective: bool) -> TxRecord {
        TxRecord {
            tx_hash: H256::from_low_u64(nonce + 100),
            sender: Address::from_low_u64(1),
            nonce,
            block_number: 1,
            index_in_block: nonce as u32,
            op: MarketOp::Set(Fpv::new(Flag::Head, genesis_mark(), H256::from_low_u64(5))),
            effective,
        }
    }

    /// `(effective sets, no-op sets, effective buys, no-op buys)` as the
    /// audit counts them.
    fn kinds(history: &History) -> (usize, usize, usize, usize) {
        let tallies = crate::check(&MarketSpec::example(), history).tallies;
        (tallies.sets_ok, tallies.sets_noop, tallies.buys_ok, tallies.buys_noop)
    }

    #[test]
    fn tallies_count_by_kind_and_effect() {
        let mut records = vec![record(0, true), record(1, false)];
        records.push(TxRecord {
            op: MarketOp::Buy(Fpv::new(Flag::Success, genesis_mark(), H256::from_low_u64(5))),
            effective: true,
            ..record(2, true)
        });
        let history = History::from_records(records);
        assert_eq!(kinds(&history), (1, 1, 1, 0));
        assert_eq!(history.len(), 3);
        assert!(!history.is_empty());
    }

    #[test]
    fn empty_history_reports_empty() {
        let history = History::default();
        assert!(history.is_empty());
        assert_eq!(kinds(&history), (0, 0, 0, 0));
    }
}
