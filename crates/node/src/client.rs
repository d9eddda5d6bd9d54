//! Client-side transaction construction: the contract owner who `set`s the
//! price and the buyers who `buy` at whatever price they can see.
//!
//! The difference between the paper's three scenarios lives here and in
//! the miner policy:
//!
//! * a **Geth buyer** reads the committed `(mark, price)` — stale by up to
//!   a block interval (§V-A);
//! * a **Sereth buyer** asks its node's RAA-augmented `mark`/`get` calls
//!   for the HMS tail — the READ-UNCOMMITTED view (§V-B);
//! * the **owner** chains its own sets locally: it is the only writer, so
//!   it always knows the exact mark its previous set produced — which is
//!   why "all of the sets succeed" in every scenario (§V-A).

use bytes::Bytes;
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::mark::compute_mark;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

use crate::contract::{buy_selector, set_selector};
use crate::node::{ClientKind, IsoObservation, NodeHandle};

/// Gas limit generous enough for any Sereth call.
pub const SERETH_TX_GAS: u64 = 200_000;

/// The price-setting owner.
///
/// Keeps the `(mark, value)` its own last `set` produced, so each new set
/// chains correctly without consulting anyone. The flag is
/// [`Flag::Success`] while the previous set is still pending at the
/// attached node, and [`Flag::Head`] once it has been committed — making
/// the first set after each block publication a *head candidate*, exactly
/// as Algorithm 2 expects.
#[derive(Debug)]
pub struct Owner {
    key: SecretKey,
    contract: Address,
    nonce: u64,
    gas_price: u64,
    last_mark: H256,
    last_value: H256,
    last_set_hash: Option<H256>,
}

impl Owner {
    /// Creates the owner; `committed_mark` is the contract's current mark
    /// (the genesis mark on a fresh deployment) and `committed_value` its
    /// current price.
    pub fn new(key: SecretKey, contract: Address, committed_mark: H256, gas_price: u64) -> Self {
        Self::with_value(key, contract, committed_mark, H256::ZERO, gas_price)
    }

    /// Like [`Owner::new`] but also tracking the committed value, needed
    /// for self-consistent buys in the sequential-history experiment.
    pub fn with_value(
        key: SecretKey,
        contract: Address,
        committed_mark: H256,
        committed_value: H256,
        gas_price: u64,
    ) -> Self {
        Self {
            key,
            contract,
            nonce: 0,
            gas_price,
            last_mark: committed_mark,
            last_value: committed_value,
            last_set_hash: None,
        }
    }

    /// The owner's address.
    pub fn address(&self) -> Address {
        self.key.address()
    }

    /// Builds the next `set(value)` transaction, chained onto the owner's
    /// own mark history.
    pub fn next_set(&mut self, node: &NodeHandle, value: H256) -> Transaction {
        let flag = match &self.last_set_hash {
            Some(hash) if node.pool_contains(hash) => Flag::Success,
            _ => Flag::Head,
        };
        let fpv = Fpv::new(flag, self.last_mark, value);
        let tx = Transaction::sign(
            TxPayload {
                nonce: self.nonce,
                gas_price: self.gas_price,
                gas_limit: SERETH_TX_GAS,
                to: Some(self.contract),
                value: U256::ZERO,
                input: fpv.to_calldata(set_selector()),
            },
            &self.key,
        );
        self.nonce += 1;
        self.last_mark = compute_mark(&self.last_mark, &value);
        self.last_value = value;
        self.last_set_hash = Some(tx.hash());
        tx
    }

    /// Builds a `buy` from the owner's own address against its own last
    /// `(mark, value)` — the single-sender sequential history of §V: nonce
    /// order forces the buy to execute right after its set, so it always
    /// succeeds regardless of client kind or miner policy.
    pub fn next_own_buy(&mut self) -> Transaction {
        let offer =
            Fpv { flag_word: Flag::Success.to_word(), prev_mark: self.last_mark, value: self.last_value };
        let tx = Transaction::sign(
            TxPayload {
                nonce: self.nonce,
                gas_price: self.gas_price,
                gas_limit: SERETH_TX_GAS,
                to: Some(self.contract),
                value: U256::ZERO,
                input: offer.to_calldata(buy_selector()),
            },
            &self.key,
        );
        self.nonce += 1;
        tx
    }

    /// The mark the owner expects after all its sets commit.
    pub fn expected_mark(&self) -> H256 {
        self.last_mark
    }
}

/// A buyer issuing `buy` transactions at whatever price its client shows.
#[derive(Debug)]
pub struct Buyer {
    key: SecretKey,
    contract: Address,
    nonce: u64,
    gas_price: u64,
    kind: ClientKind,
}

impl Buyer {
    /// Creates a buyer using a client of the given kind.
    pub fn new(key: SecretKey, contract: Address, kind: ClientKind, gas_price: u64) -> Self {
        Self { key, contract, nonce: 0, gas_price, kind }
    }

    /// The buyer's address.
    pub fn address(&self) -> Address {
        self.key.address()
    }

    /// Overrides the next nonce — needed when the same key also transacts
    /// outside this `Buyer` (e.g. trading on several markets).
    pub fn set_nonce(&mut self, nonce: u64) {
        self.nonce = nonce;
    }

    /// The view of `(mark, price)` this buyer's client provides: committed
    /// state on Geth, the RAA/HMS view on Sereth.
    pub fn observe(&self, node: &NodeHandle) -> (H256, H256) {
        let observation = self.observe_recorded(node);
        (observation.mark, observation.value)
    }

    /// Like [`Buyer::observe`], but returns the full [`IsoObservation`]
    /// (isolation level served at, committed height of the serving node)
    /// so callers can log the read for the offline anomaly checker.
    pub fn observe_recorded(&self, node: &NodeHandle) -> IsoObservation {
        match self.kind {
            ClientKind::Geth => node.committed_observed(),
            ClientKind::Sereth => {
                node.query_observed(self.key.address()).unwrap_or_else(|| node.committed_observed())
            }
        }
    }

    /// Builds the next `buy` at the observed `(mark, price)`.
    pub fn next_buy(&mut self, node: &NodeHandle) -> Transaction {
        let (mark, price) = self.observe(node);
        self.next_buy_at(mark, price)
    }

    /// Builds the next `buy` at an explicit `(mark, price)` offer —
    /// exposed for the frontrunning and lost-update experiments, which
    /// need precise control of the offer.
    pub fn next_buy_at(&mut self, mark: H256, price: H256) -> Transaction {
        let offer = Fpv { flag_word: Flag::Success.to_word(), prev_mark: mark, value: price };
        let tx = Transaction::sign(
            TxPayload {
                nonce: self.nonce,
                gas_price: self.gas_price,
                gas_limit: SERETH_TX_GAS,
                to: Some(self.contract),
                value: U256::ZERO,
                input: offer.to_calldata(buy_selector()),
            },
            &self.key,
        );
        self.nonce += 1;
        tx
    }
}

/// A plain value transfer, for background traffic in mixed workloads.
pub fn transfer(key: &SecretKey, nonce: u64, to: Address, amount: U256, gas_price: u64) -> Transaction {
    Transaction::sign(
        TxPayload { nonce, gas_price, gas_limit: 21_000, to: Some(to), value: amount, input: Bytes::new() },
        key,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{default_contract_address, sereth_code, sereth_genesis_slots, ContractForm};
    use crate::miner::MinerPolicy;
    use crate::node::NodeConfig;
    use sereth_chain::genesis::GenesisBuilder;
    use sereth_core::mark::genesis_mark;

    fn make_node(kind: ClientKind, owner_key: &SecretKey, buyer_key: &SecretKey) -> NodeHandle {
        let contract = default_contract_address();
        let genesis = GenesisBuilder::new()
            .fund(owner_key.address(), U256::from(1_000_000_000u64))
            .fund(buyer_key.address(), U256::from(1_000_000_000u64))
            .contract_with_storage(
                contract,
                sereth_code(ContractForm::Native),
                sereth_genesis_slots(&owner_key.address(), H256::from_low_u64(50)),
            )
            .build();
        NodeHandle::new(
            genesis,
            NodeConfig::miner(contract, MinerPolicy::Standard)
                .kind(kind)
                .coinbase(Address::from_low_u64(0xc01))
                .build(),
        )
    }

    #[test]
    fn owner_chains_sets_and_flags_heads_correctly() {
        let owner_key = SecretKey::from_label(1);
        let buyer_key = SecretKey::from_label(2);
        let node = make_node(ClientKind::Geth, &owner_key, &buyer_key);
        let mut owner = Owner::new(owner_key, default_contract_address(), genesis_mark(), 1);

        // First set: head candidate.
        let s1 = owner.next_set(&node, H256::from_low_u64(60));
        let fpv1 = Fpv::from_calldata(s1.input()).unwrap();
        assert_eq!(fpv1.flag(), Flag::Head);
        assert_eq!(fpv1.prev_mark, genesis_mark());
        node.receive_tx(s1.clone(), 100);

        // Second set while the first is pending: successor.
        let s2 = owner.next_set(&node, H256::from_low_u64(70));
        let fpv2 = Fpv::from_calldata(s2.input()).unwrap();
        assert_eq!(fpv2.flag(), Flag::Success);
        assert_eq!(fpv2.prev_mark, compute_mark(&genesis_mark(), &H256::from_low_u64(60)));
        node.receive_tx(s2, 200);

        // Mine: pool empties; the next set is a head candidate again.
        node.mine(15_000).unwrap();
        let s3 = owner.next_set(&node, H256::from_low_u64(80));
        let fpv3 = Fpv::from_calldata(s3.input()).unwrap();
        assert_eq!(fpv3.flag(), Flag::Head);

        // The owner's local chain matches the contract after commit.
        let (mark, value) = node.committed_amv();
        assert_eq!(value, H256::from_low_u64(70));
        assert_eq!(mark, fpv3.prev_mark);
    }

    #[test]
    fn owner_sets_always_succeed_end_to_end() {
        let owner_key = SecretKey::from_label(1);
        let buyer_key = SecretKey::from_label(2);
        let node = make_node(ClientKind::Geth, &owner_key, &buyer_key);
        let mut owner = Owner::new(owner_key, default_contract_address(), genesis_mark(), 1);
        for round in 0..4u64 {
            for i in 0..3u64 {
                let tx = owner.next_set(&node, H256::from_low_u64(100 + round * 10 + i));
                assert!(node.receive_tx(tx, round * 15_000 + i));
            }
            node.mine((round + 1) * 15_000).unwrap();
        }
        let inner_counts = node.with_inner(|inner| {
            let mut sets_ok = 0u64;
            for stored in inner.chain.canonical_chain() {
                for receipt in &stored.receipts {
                    if receipt.has_event(crate::contract::set_ok_topic()) {
                        sets_ok += 1;
                    }
                }
            }
            sets_ok
        });
        assert_eq!(inner_counts, 12, "every set succeeds (paper §V-A)");
    }

    #[test]
    fn geth_buyer_sees_committed_sereth_buyer_sees_pending() {
        let owner_key = SecretKey::from_label(1);
        let buyer_key = SecretKey::from_label(2);

        let geth = make_node(ClientKind::Geth, &owner_key, &buyer_key);
        let sereth = make_node(ClientKind::Sereth, &owner_key, &buyer_key);

        let mut owner_g = Owner::new(owner_key.clone(), default_contract_address(), genesis_mark(), 1);
        let mut owner_s = Owner::new(owner_key.clone(), default_contract_address(), genesis_mark(), 1);
        let tx_g = owner_g.next_set(&geth, H256::from_low_u64(99));
        let tx_s = owner_s.next_set(&sereth, H256::from_low_u64(99));
        geth.receive_tx(tx_g, 100);
        sereth.receive_tx(tx_s, 100);

        let geth_buyer = Buyer::new(buyer_key.clone(), default_contract_address(), ClientKind::Geth, 1);
        let sereth_buyer = Buyer::new(buyer_key.clone(), default_contract_address(), ClientKind::Sereth, 1);

        let (_, geth_price) = geth_buyer.observe(&geth);
        assert_eq!(geth_price, H256::from_low_u64(50), "READ-COMMITTED: stale");
        let (_, sereth_price) = sereth_buyer.observe(&sereth);
        assert_eq!(sereth_price, H256::from_low_u64(99), "READ-UNCOMMITTED: fresh");
    }

    #[test]
    fn buys_constructed_from_views_succeed_when_interleaved_correctly() {
        let owner_key = SecretKey::from_label(1);
        let buyer_key = SecretKey::from_label(2);
        let node = make_node(ClientKind::Sereth, &owner_key, &buyer_key);
        let mut owner = Owner::new(owner_key, default_contract_address(), genesis_mark(), 1);
        let mut buyer = Buyer::new(buyer_key, default_contract_address(), ClientKind::Sereth, 1);

        let set = owner.next_set(&node, H256::from_low_u64(60));
        node.receive_tx(set, 100);
        // Buyer sees the pending 60 and offers against it.
        let buy = buyer.next_buy(&node);
        node.receive_tx(buy, 200);
        node.mine(15_000).unwrap();

        let (buys_ok, sets_ok) = node.with_inner(|inner| {
            let mut buys = 0;
            let mut sets = 0;
            for stored in inner.chain.canonical_chain() {
                for receipt in &stored.receipts {
                    if receipt.has_event(crate::contract::buy_ok_topic()) {
                        buys += 1;
                    }
                    if receipt.has_event(crate::contract::set_ok_topic()) {
                        sets += 1;
                    }
                }
            }
            (buys, sets)
        });
        assert_eq!(sets_ok, 1);
        assert_eq!(buys_ok, 1, "the READ-UNCOMMITTED buy lands in its interval");
    }
}
