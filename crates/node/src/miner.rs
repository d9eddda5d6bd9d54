//! Miner policies: how a block's transaction order is chosen.
//!
//! "Special peers, called miners, have the privilege of deciding what goes
//! into a block and in what order" (paper §II-C). The standard policy
//! maximises fees; the *semantic* policy (paper §V-C) runs Hash-Mark-Set
//! over the pool and interleaves dependent `buy`s into the mark interval
//! they were built against, so that "most transactions are successful".
//! The *PWV* policy reproduces the related-work comparator of §VI —
//! piece-wise visibility (Faleiro et al., VLDB 2017) — as a deterministic
//! dependency scheduler with early write visibility confined to block
//! assembly; see [`MinerPolicy::Pwv`].
//!
//! Every policy reads only the pool's two indexes, which every pool
//! mutation keeps current: `ready_by_price` walks the price index in
//! `O(k log k)` for `k` candidates, and `market_snapshot` returns the
//! market book, whose calldata was parsed once at insert. The
//! `txpool_index_props` suite holds both reads equal to oracles it builds
//! from the pool's arrival-ordered snapshot, so an order depends only on
//! what is pooled.

use std::collections::{HashMap, HashSet};

use sereth_chain::state::StateView;
use sereth_chain::txpool::{MarketEntry, MarketKind, TxPool};
use sereth_core::fpv::Fpv;
use sereth_core::hms::{hash_mark_set, HmsConfig};
use sereth_core::process::PendingTx;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_types::transaction::Transaction;

use crate::contract::{set_selector, SLOT_MARK, SLOT_VALUE};

/// How a miner orders candidate transactions.
#[derive(Debug, Clone, Default)]
pub enum MinerPolicy {
    /// Fee-priority with per-sender nonce order — ordinary Ethereum mining.
    #[default]
    Standard,
    /// Semantic mining: order the Sereth series via Hash-Mark-Set and
    /// splice each `buy` into its mark interval.
    Semantic(HmsConfig),
    /// Piece-wise-visibility scheduling (paper §VI's comparator, after
    /// Faleiro et al.): during block assembly, a pending transaction's
    /// writes are visible to later-scheduled transactions immediately, and
    /// the scheduler greedily runs every `buy` whose read dependency is
    /// already satisfied *before* applying the next `set` that would close
    /// its interval. The dependency information comes from read/write sets
    /// alone (offer words vs speculative state) — no HMS flags, no mark
    /// chain walk. Crucially, clients stay unmodified: PWV "only provides
    /// write visibility after a transaction is submitted to the database
    /// system", so offers are still built against committed state — the
    /// limitation §VI contrasts with HMS's pre-submission views.
    Pwv,
}

/// Converts pool entries into the lightweight view HMS consumes, borrowed
/// in place (no entry is cloned).
pub fn pending_view(pool: &TxPool) -> Vec<PendingTx> {
    pool.with_entries_by_arrival(|entries| entries.iter().map(|entry| entry.pending()).collect())
}

/// Reads the committed `(mark, value)` of the Sereth contract from an
/// immutable state view (taken in O(1) via
/// [`sereth_chain::state::StateDb::view`] or
/// `ChainStore::head_state_view`).
pub fn committed_amv(state: &StateView, contract: &Address) -> (H256, H256) {
    (state.storage_get(contract, &SLOT_MARK), state.storage_get(contract, &SLOT_VALUE))
}

/// Orders the pool's candidates according to `policy`, from the pool's
/// indexes.
pub fn order_candidates(
    pool: &TxPool,
    state: &StateView,
    contract: &Address,
    policy: &MinerPolicy,
) -> Vec<Transaction> {
    match policy {
        MinerPolicy::Standard => pool.ready_by_price(|sender| state.nonce_of(sender)),
        MinerPolicy::Semantic(config) => semantic_order(pool, state, contract, config),
        MinerPolicy::Pwv => pwv_order(pool, state, contract),
    }
}

/// Shared tail of the semantic/PWV policies: append the fee-priority
/// order (minus what the market schedule already placed) and repair
/// nonce order.
fn finish_order(
    mut ordered: Vec<Transaction>,
    mut used: HashSet<H256>,
    tail: Vec<Transaction>,
) -> Vec<Transaction> {
    for tx in tail {
        if used.insert(tx.hash()) {
            ordered.push(tx);
        }
    }
    enforce_nonce_order(ordered)
}

/// The PWV schedule over pre-parsed market entries: starting from the
/// committed `(mark, value)`, repeatedly (1) schedule — in arrival order —
/// every pending `buy` whose offer matches the current speculative state,
/// then (2) apply the first pending `set` whose `prev_mark` matches,
/// advancing the speculative state. Returns the scheduled transactions
/// and their hashes.
fn pwv_schedule(market: &[MarketEntry], committed: (H256, H256)) -> (Vec<Transaction>, HashSet<H256>) {
    use sereth_core::mark::compute_mark;

    let (mut mark, mut value) = committed;
    let mut slots: Vec<Option<(&Transaction, &Fpv, MarketKind)>> =
        market.iter().map(|entry| entry.fpv.as_ref().map(|fpv| (&entry.tx, fpv, entry.kind))).collect();
    let mut ordered: Vec<Transaction> = Vec::new();
    let mut used: HashSet<H256> = HashSet::new();
    loop {
        // (1) Every buy whose read set matches visible state is ready.
        for slot in slots.iter_mut() {
            if let Some((tx, fpv, MarketKind::Buy)) = slot {
                if fpv.prev_mark == mark && fpv.value == value {
                    used.insert(tx.hash());
                    ordered.push((*tx).clone());
                    *slot = None;
                }
            }
        }
        // (2) The first dependency-satisfied set advances the state.
        let Some(next_set) = slots
            .iter_mut()
            .find(|slot| matches!(slot, Some((_, fpv, MarketKind::Set)) if fpv.prev_mark == mark))
        else {
            break;
        };
        let Some((tx, fpv, _)) = next_set.take() else { unreachable!("matched above") };
        used.insert(tx.hash());
        ordered.push(tx.clone());
        mark = compute_mark(&fpv.prev_mark, &fpv.value);
        value = fpv.value;
    }
    (ordered, used)
}

/// The PWV order (see [`MinerPolicy::Pwv`]), from the pre-parsed market
/// book: no pool walk, no per-block calldata decoding. Unready market
/// traffic and foreign transactions follow by fee priority.
fn pwv_order(pool: &TxPool, state: &StateView, contract: &Address) -> Vec<Transaction> {
    let committed = committed_amv(state, contract);
    let (ordered, used) = pwv_schedule(&pool.market_snapshot(contract), committed);
    finish_order(ordered, used, pool.ready_by_price(|sender| state.nonce_of(sender)))
}

/// The semantic-mining series assembly (paper §V-C):
///
/// 1. run Hash-Mark-Set over the market's `set`s to obtain the series;
/// 2. bucket pending `buy`s by the mark they offer against;
/// 3. emit `buys(committed mark) ‖ set₁ ‖ buys(mark₁) ‖ set₂ ‖ …`.
fn semantic_schedule(
    market: &[MarketEntry],
    contract: &Address,
    committed: (H256, H256),
    config: &HmsConfig,
) -> (Vec<Transaction>, HashSet<H256>) {
    let pending: Vec<PendingTx> =
        market.iter().filter(|e| e.kind == MarketKind::Set).map(MarketEntry::pending).collect();
    let outcome = hash_mark_set(&pending, contract, set_selector(), committed, config);

    let by_hash: HashMap<H256, &Transaction> = market.iter().map(|e| (e.tx.hash(), &e.tx)).collect();
    let mut buy_buckets: HashMap<H256, Vec<&Transaction>> = HashMap::new();
    for entry in market {
        if entry.kind == MarketKind::Buy {
            if let Some(fpv) = &entry.fpv {
                buy_buckets.entry(fpv.prev_mark).or_default().push(&entry.tx);
            }
        }
    }

    let mut ordered: Vec<Transaction> = Vec::new();
    let mut used: HashSet<H256> = HashSet::new();
    let emit_bucket = |mark: &H256, ordered: &mut Vec<Transaction>, used: &mut HashSet<H256>| {
        if let Some(bucket) = buy_buckets.get(mark) {
            for tx in bucket {
                if used.insert(tx.hash()) {
                    ordered.push((*tx).clone());
                }
            }
        }
    };

    // Buys against the committed mark execute before any set.
    emit_bucket(&committed.0, &mut ordered, &mut used);
    for node in &outcome.series {
        if let Some(tx) = by_hash.get(&node.pending.hash) {
            if used.insert(tx.hash()) {
                ordered.push((*tx).clone());
            }
        }
        emit_bucket(&node.mark, &mut ordered, &mut used);
    }
    (ordered, used)
}

/// The semantic-mining order, from the pre-parsed market book; everything
/// the series does not place follows by fee priority (mostly no-ops, but
/// part of raw throughput).
fn semantic_order(
    pool: &TxPool,
    state: &StateView,
    contract: &Address,
    config: &HmsConfig,
) -> Vec<Transaction> {
    let committed = committed_amv(state, contract);
    let (ordered, used) = semantic_schedule(&pool.market_snapshot(contract), contract, committed, config);
    finish_order(ordered, used, pool.ready_by_price(|sender| state.nonce_of(sender)))
}

/// Rewrites `candidates` so each sender's transactions appear in ascending
/// nonce order while every sender keeps the same *positions* in the list.
/// Needed because splicing buys by mark can invert a buyer's own nonce
/// sequence, which miners must never do (paper §II-C). Account-level nonce
/// validity is the block builder's job; this pass only fixes *relative*
/// order.
pub fn enforce_nonce_order(candidates: Vec<Transaction>) -> Vec<Transaction> {
    let mut per_sender: HashMap<Address, Vec<Transaction>> = HashMap::new();
    for tx in &candidates {
        per_sender.entry(tx.sender()).or_default().push(tx.clone());
    }
    for txs in per_sender.values_mut() {
        txs.sort_by_key(Transaction::nonce);
    }
    let mut cursors: HashMap<Address, usize> = HashMap::new();
    candidates
        .iter()
        .map(|tx| {
            let sender = tx.sender();
            let cursor = cursors.entry(sender).or_insert(0);
            let replacement = per_sender[&sender][*cursor].clone();
            *cursor += 1;
            replacement
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{buy_selector, default_contract_address, sereth_genesis_slots};
    use bytes::Bytes;
    use sereth_chain::state::StateDb;
    use sereth_core::fpv::Flag;
    use sereth_core::mark::{compute_mark, genesis_mark};
    use sereth_crypto::sig::SecretKey;
    use sereth_types::transaction::TxPayload;
    use sereth_types::u256::U256;
    use sereth_vm::exec::Storage;

    fn state_with_contract() -> (StateDb, Address) {
        let contract = default_contract_address();
        let state = sereth_chain::genesis::GenesisBuilder::new()
            .contract_with_storage(
                contract,
                sereth_vm::exec::ContractCode::None,
                sereth_genesis_slots(&Address::from_low_u64(1), H256::from_low_u64(50)),
            )
            .build()
            .state;
        (state, contract)
    }

    fn ordered(pool: &TxPool, state: &StateDb, contract: &Address, policy: &MinerPolicy) -> Vec<Transaction> {
        order_candidates(pool, &state.view(), contract, policy)
    }

    fn sereth_tx(
        key: &SecretKey,
        nonce: u64,
        selector: [u8; 4],
        flag: Flag,
        prev: H256,
        value: u64,
    ) -> Transaction {
        let fpv = if matches!(flag, Flag::Rejected) {
            Fpv { flag_word: H256::from_low_u64(0xbad), prev_mark: prev, value: H256::from_low_u64(value) }
        } else {
            Fpv::new(flag, prev, H256::from_low_u64(value))
        };
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 100_000,
                to: Some(default_contract_address()),
                value: U256::ZERO,
                input: fpv.to_calldata(selector),
            },
            key,
        )
    }

    fn plain_tx(key: &SecretKey, nonce: u64, gas_price: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price,
                gas_limit: 21_000,
                to: Some(Address::from_low_u64(0xee)),
                value: U256::ZERO,
                input: Bytes::new(),
            },
            key,
        )
    }

    #[test]
    fn standard_policy_orders_by_fee() {
        let (state, contract) = state_with_contract();
        let pool = TxPool::new();
        let a = SecretKey::from_label(1);
        let b = SecretKey::from_label(2);
        pool.insert(plain_tx(&a, 0, 5), 0).unwrap();
        pool.insert(plain_tx(&b, 0, 50), 1).unwrap();
        let ordered = ordered(&pool, &state, &contract, &MinerPolicy::Standard);
        assert_eq!(ordered[0].gas_price(), 50);
        assert_eq!(ordered[1].gas_price(), 5);
    }

    #[test]
    fn semantic_policy_interleaves_buys_into_their_intervals() {
        let (state, contract) = state_with_contract();
        let owner = SecretKey::from_label(1);
        let buyer1 = SecretKey::from_label(2);
        let buyer2 = SecretKey::from_label(3);
        let pool = TxPool::new();

        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        let m2 = compute_mark(&m1, &H256::from_low_u64(70));

        // Arrival order is adversarial: buys arrive before their sets.
        let buy_at_m1 = sereth_tx(&buyer1, 0, buy_selector(), Flag::Success, m1, 60);
        let buy_at_m2 = sereth_tx(&buyer2, 0, buy_selector(), Flag::Success, m2, 70);
        let buy_at_m0 = sereth_tx(&buyer1, 1, buy_selector(), Flag::Success, m0, 50);
        let set1 = sereth_tx(&owner, 0, set_selector(), Flag::Head, m0, 60);
        let set2 = sereth_tx(&owner, 1, set_selector(), Flag::Success, m1, 70);
        pool.insert(buy_at_m2.clone(), 0).unwrap();
        pool.insert(buy_at_m1.clone(), 1).unwrap();
        pool.insert(set2.clone(), 2).unwrap();
        pool.insert(set1.clone(), 3).unwrap();
        pool.insert(buy_at_m0.clone(), 4).unwrap();

        let ordered = ordered(&pool, &state, &contract, &MinerPolicy::Semantic(HmsConfig::default()));
        let hashes: Vec<H256> = ordered.iter().map(Transaction::hash).collect();
        // Expected semantic order before nonce repair:
        //   buy@m0, set1, buy@m1, set2, buy@m2
        // buyer1 sends buy@m1 (nonce 0) then buy@m0 (nonce 1): the nonce
        // repair swaps them within buyer1's two positions:
        //   position of buy@m0 gets buyer1's nonce-0 tx (buy@m1),
        //   position of buy@m1 gets buyer1's nonce-1 tx (buy@m0).
        assert_eq!(hashes[0], buy_at_m1.hash());
        assert_eq!(hashes[1], set1.hash());
        assert_eq!(hashes[2], buy_at_m0.hash());
        assert_eq!(hashes[3], set2.hash());
        assert_eq!(hashes[4], buy_at_m2.hash());
        assert_eq!(ordered.len(), 5);
    }

    #[test]
    fn semantic_policy_keeps_independent_buyers_in_mark_order() {
        let (state, contract) = state_with_contract();
        let owner = SecretKey::from_label(1);
        let pool = TxPool::new();
        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        let set1 = sereth_tx(&owner, 0, set_selector(), Flag::Head, m0, 60);
        // Ten buyers target m1; all should land right after set1.
        let mut buys = Vec::new();
        for i in 0..10 {
            let buyer = SecretKey::from_label(100 + i);
            let buy = sereth_tx(&buyer, 0, buy_selector(), Flag::Success, m1, 60);
            pool.insert(buy.clone(), i).unwrap();
            buys.push(buy);
        }
        pool.insert(set1.clone(), 99).unwrap();

        let ordered = ordered(&pool, &state, &contract, &MinerPolicy::Semantic(HmsConfig::default()));
        assert_eq!(ordered[0].hash(), set1.hash());
        assert_eq!(ordered.len(), 11);
        for (i, buy) in buys.iter().enumerate() {
            assert_eq!(ordered[1 + i].hash(), buy.hash());
        }
    }

    #[test]
    fn semantic_policy_appends_unmatched_traffic() {
        let (state, contract) = state_with_contract();
        let owner = SecretKey::from_label(1);
        let stranger = SecretKey::from_label(9);
        let pool = TxPool::new();
        let m0 = genesis_mark();
        let set1 = sereth_tx(&owner, 0, set_selector(), Flag::Head, m0, 60);
        let stale_buy = sereth_tx(&stranger, 0, buy_selector(), Flag::Success, H256::keccak(b"gone"), 1);
        let transfer = plain_tx(&SecretKey::from_label(10), 0, 3);
        pool.insert(stale_buy.clone(), 0).unwrap();
        pool.insert(set1.clone(), 1).unwrap();
        pool.insert(transfer.clone(), 2).unwrap();

        let ordered = ordered(&pool, &state, &contract, &MinerPolicy::Semantic(HmsConfig::default()));
        assert_eq!(ordered.len(), 3);
        assert_eq!(ordered[0].hash(), set1.hash(), "series first");
        let tail: Vec<H256> = ordered[1..].iter().map(Transaction::hash).collect();
        assert!(tail.contains(&stale_buy.hash()));
        assert!(tail.contains(&transfer.hash()));
    }

    #[test]
    fn pwv_schedules_ready_buys_before_the_set_that_closes_their_interval() {
        let (state, contract) = state_with_contract();
        let owner = SecretKey::from_label(1);
        let buyer1 = SecretKey::from_label(2);
        let buyer2 = SecretKey::from_label(3);
        let pool = TxPool::new();

        let m0 = genesis_mark();
        // Buys at the *committed* state (mark m0, price 50) — what
        // unmodified clients produce — plus a set that would close that
        // interval. The set arrives FIRST; fee order would kill the buys.
        let set1 = sereth_tx(&owner, 0, set_selector(), Flag::Head, m0, 60);
        let buy_a = sereth_tx(&buyer1, 0, buy_selector(), Flag::Success, m0, 50);
        let buy_b = sereth_tx(&buyer2, 0, buy_selector(), Flag::Success, m0, 50);
        pool.insert(set1.clone(), 0).unwrap();
        pool.insert(buy_a.clone(), 1).unwrap();
        pool.insert(buy_b.clone(), 2).unwrap();

        let ordered = ordered(&pool, &state, &contract, &MinerPolicy::Pwv);
        let hashes: Vec<H256> = ordered.iter().map(Transaction::hash).collect();
        assert_eq!(hashes, vec![buy_a.hash(), buy_b.hash(), set1.hash()]);
    }

    #[test]
    fn pwv_chains_sets_and_rescues_each_intervals_buys() {
        let (state, contract) = state_with_contract();
        let owner = SecretKey::from_label(1);
        let buyer = SecretKey::from_label(2);
        let pool = TxPool::new();

        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        let set1 = sereth_tx(&owner, 0, set_selector(), Flag::Head, m0, 60);
        let set2 = sereth_tx(&owner, 1, set_selector(), Flag::Success, m1, 70);
        // This buy targets the *intermediate* state (m1, 60): only visible
        // through early write visibility — committed state never shows it
        // if both sets land in one block.
        let buy_mid = sereth_tx(&buyer, 0, buy_selector(), Flag::Success, m1, 60);
        pool.insert(set2.clone(), 0).unwrap();
        pool.insert(buy_mid.clone(), 1).unwrap();
        pool.insert(set1.clone(), 2).unwrap();

        let ordered = ordered(&pool, &state, &contract, &MinerPolicy::Pwv);
        let hashes: Vec<H256> = ordered.iter().map(Transaction::hash).collect();
        assert_eq!(hashes, vec![set1.hash(), buy_mid.hash(), set2.hash()]);
    }

    #[test]
    fn pwv_leaves_unsatisfiable_dependencies_to_fee_order() {
        let (state, contract) = state_with_contract();
        let owner = SecretKey::from_label(1);
        let stranger = SecretKey::from_label(9);
        let pool = TxPool::new();

        let m0 = genesis_mark();
        let set1 = sereth_tx(&owner, 0, set_selector(), Flag::Head, m0, 60);
        // An offer against a mark no reachable schedule produces.
        let hopeless = sereth_tx(&stranger, 0, buy_selector(), Flag::Success, H256::keccak(b"gone"), 1);
        let transfer = plain_tx(&SecretKey::from_label(10), 0, 3);
        pool.insert(hopeless.clone(), 0).unwrap();
        pool.insert(transfer.clone(), 1).unwrap();
        pool.insert(set1.clone(), 2).unwrap();

        let ordered = ordered(&pool, &state, &contract, &MinerPolicy::Pwv);
        assert_eq!(ordered.len(), 3);
        assert_eq!(ordered[0].hash(), set1.hash());
        let tail: Vec<H256> = ordered[1..].iter().map(Transaction::hash).collect();
        assert!(tail.contains(&hopeless.hash()));
        assert!(tail.contains(&transfer.hash()));
    }

    #[test]
    fn pwv_cannot_rescue_offers_for_already_closed_intervals() {
        // The structural limitation §VI describes: a buy whose offer
        // references an interval the *committed* state already closed can
        // never be satisfied by early visibility of pending writes.
        let (mut state, contract) = state_with_contract();
        let buyer = SecretKey::from_label(2);

        // Commit a set on-state directly: committed mark advances past m0.
        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        state.storage_set(&contract, SLOT_MARK, m1);
        state.storage_set(&contract, SLOT_VALUE, H256::from_low_u64(60));
        state.clear_journal();

        let pool = TxPool::new();
        let stale_buy = sereth_tx(&buyer, 0, buy_selector(), Flag::Success, m0, 50);
        pool.insert(stale_buy.clone(), 0).unwrap();

        let ordered = ordered(&pool, &state, &contract, &MinerPolicy::Pwv);
        // Scheduled (it occupies block space) but only via the fee-order
        // tail — the dependency loop never picked it up.
        assert_eq!(ordered.len(), 1);
        assert_eq!(ordered[0].hash(), stale_buy.hash());
    }

    #[test]
    fn nonce_repair_preserves_positions_and_order() {
        let a = SecretKey::from_label(1);
        let b = SecretKey::from_label(2);
        let a0 = plain_tx(&a, 0, 1);
        let a1 = plain_tx(&a, 1, 1);
        let b0 = plain_tx(&b, 0, 1);
        // a's transactions arrive inverted.
        let repaired = enforce_nonce_order(vec![a1.clone(), b0.clone(), a0.clone()]);
        assert_eq!(repaired[0].hash(), a0.hash());
        assert_eq!(repaired[1].hash(), b0.hash());
        assert_eq!(repaired[2].hash(), a1.hash());
    }

    #[test]
    fn committed_amv_reads_contract_slots() {
        let (state, contract) = state_with_contract();
        let (mark, value) = committed_amv(&state.view(), &contract);
        assert_eq!(mark, genesis_mark());
        assert_eq!(value, H256::from_low_u64(50));
    }
}
