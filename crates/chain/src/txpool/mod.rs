//! The pending-transaction pool (TxPool): one map under one lock, with
//! two secondary indexes.
//!
//! "Hash-Mark-Set takes advantage of an underutilized communication channel
//! among the peers on a blockchain, the transaction pool" (paper §III-C).
//! The pool keeps per-sender nonce-ordered queues (miners must respect nonce
//! order, §II-C) and tracks arrival order, which defines the *real time
//! order* of the concurrent history (§II-B) that HMS snapshots.
//!
//! # Architecture
//!
//! One mutex guards the queues and the two indexes built on them (see the
//! `index` module): the `(price, arrival)` index behind fee-priority reads
//! and eviction, and the per-contract market book behind
//! [`TxPool::market_snapshot`] and [`TxPool::market_view`]. Every insert,
//! replacement, removal, commit, prune and eviction updates both indexes
//! in place, so no read ever has to catch up: an ordering read is
//! `O(k log k)` in the `k` candidates it returns, and a view read whose
//! cache is valid is `O(1)`. Each read has this one implementation; the
//! property suites hold it equal to oracles they build from
//! [`TxPool::pending_by_arrival`].
//!
//! One lock rather than sender-keyed shards: a node submits from one
//! thread and orders from another, and a 16-shard pool measured no
//! faster end to end than a 1-shard one.

mod index;

use std::sync::Arc;

use parking_lot::Mutex;
use sereth_core::hms::{HmsConfig, HmsView};
use sereth_core::process::PendingTx;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_telemetry::{Counter, Phase, Telemetry};
use sereth_types::transaction::Transaction;
use sereth_types::SimTime;

pub use index::{MarketEntry, MarketKind};

use index::PoolState;

/// Why the pool declined a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The exact transaction is already pooled.
    Duplicate,
    /// Another transaction with the same sender and nonce is pooled at an
    /// equal-or-better price; Ethereum requires a price bump to replace.
    ReplacementUnderpriced,
    /// The pool is full and the transaction's price does not beat the
    /// cheapest pooled transaction.
    PoolFull,
}

impl core::fmt::Display for PoolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Duplicate => write!(f, "transaction already pooled"),
            Self::ReplacementUnderpriced => write!(f, "replacement transaction underpriced"),
            Self::PoolFull => write!(f, "pool is full"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A pooled transaction together with its arrival bookkeeping.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// The transaction itself.
    pub tx: Transaction,
    /// Global arrival sequence number (defines real-time order).
    pub arrival_seq: u64,
    /// Simulated arrival time.
    pub arrival_time: SimTime,
}

impl PoolEntry {
    /// The entry as Hash-Mark-Set sees it (the calldata is shared, not
    /// copied).
    pub fn pending(&self) -> PendingTx {
        index::pending(&self.tx, self.arrival_seq)
    }
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum number of pooled transactions, exact at every instant: an
    /// insert into a full pool evicts the cheapest entry (or is refused)
    /// under the same lock acquisition that admits it.
    pub capacity: usize,
    /// Percentage price bump required to replace a same-nonce transaction.
    pub replace_bump_pct: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { capacity: 4096, replace_bump_pct: 10 }
    }
}

/// Monotone counters describing how the pool's cached views are read.
/// They are telemetry cells, so a node-wide snapshot carries them for
/// free.
#[derive(Debug, Clone)]
struct PoolCounters {
    /// `raa.hits`: [`TxPool::market_view`] reads served from a valid
    /// cache, or for a contract with no pooled `set` straight from its
    /// committed view.
    view_hits: Counter,
    /// `raa.rebuilds`: [`TxPool::market_view`] reads that reran
    /// Algorithm 1 first.
    view_rebuilds: Counter,
}

impl PoolCounters {
    fn register(telemetry: &Telemetry) -> Self {
        Self { view_hits: telemetry.counter("raa.hits"), view_rebuilds: telemetry.counter("raa.rebuilds") }
    }
}

/// The pending transaction pool (see module docs for the architecture).
///
/// All methods take `&self`: the pool is internally synchronized and is
/// shared between submission, the miner and the RAA provider via `Arc`.
pub struct TxPool {
    config: PoolConfig,
    state: Mutex<PoolState>,
    stats: PoolCounters,
    telemetry: Arc<Telemetry>,
}

impl Default for TxPool {
    fn default() -> Self {
        Self::with_config(PoolConfig::default())
    }
}

impl Clone for TxPool {
    /// Snapshot clone: entries, indexes and cached views are copied under
    /// the lock. The clone gets a fresh hub: counters restart at zero
    /// rather than sharing (or double-counting into) the original's cells.
    fn clone(&self) -> Self {
        let state = self.state.lock().clone();
        let telemetry = Arc::new(Telemetry::enabled());
        Self {
            config: self.config.clone(),
            state: Mutex::new(state),
            stats: PoolCounters::register(&telemetry),
            telemetry,
        }
    }
}

impl core::fmt::Debug for TxPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TxPool").field("len", &self.len()).field("config", &self.config).finish()
    }
}

impl TxPool {
    /// An empty pool with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool with the given configuration and its own (enabled)
    /// telemetry hub.
    pub fn with_config(config: PoolConfig) -> Self {
        Self::with_telemetry(config, Arc::new(Telemetry::enabled()))
    }

    /// An empty pool recording into a shared `telemetry` hub — what a
    /// node does so the `raa.*` counters and admission latencies land in
    /// the node-wide registry. With a disabled hub, the
    /// counters record nothing and inserts skip the clock.
    pub fn with_telemetry(config: PoolConfig, telemetry: Arc<Telemetry>) -> Self {
        Self {
            config,
            state: Mutex::new(PoolState::default()),
            stats: PoolCounters::register(&telemetry),
            telemetry,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Number of pooled transactions.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// `true` if nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if the pool holds the given transaction hash.
    pub fn contains(&self, hash: &H256) -> bool {
        self.state.lock().contains(hash)
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Inserts `tx`, arriving at `now`. The whole admission decision —
    /// dup/replacement/capacity checks and both index updates — is timed
    /// as [`Phase::Admission`].
    ///
    /// # Errors
    ///
    /// See [`PoolError`] for the admission rules.
    pub fn insert(&self, tx: Transaction, now: SimTime) -> Result<(), PoolError> {
        self.telemetry.time(Phase::Admission, || self.insert_inner(tx, now))
    }

    fn insert_inner(&self, tx: Transaction, now: SimTime) -> Result<(), PoolError> {
        let (sender, nonce) = (tx.sender(), tx.nonce());
        let mut state = self.state.lock();
        if state.contains(&tx.hash()) {
            return Err(PoolError::Duplicate);
        }
        if let Some(existing) = state.get(&sender, nonce) {
            let required = existing.tx.gas_price().saturating_mul(100 + self.config.replace_bump_pct) / 100;
            if tx.gas_price() < required.max(existing.tx.gas_price() + 1) {
                return Err(PoolError::ReplacementUnderpriced);
            }
            state.remove(&sender, nonce);
        } else if state.len() >= self.config.capacity {
            // Full: evict the cheapest entry if the newcomer pays more.
            match state.cheapest() {
                Some((price, victim, victim_nonce)) if price < tx.gas_price() => {
                    state.remove(&victim, victim_nonce);
                }
                _ => return Err(PoolError::PoolFull),
            }
        }
        state.add(tx, now);
        Ok(())
    }

    /// Removes a transaction by hash, returning it if present.
    pub fn remove(&self, hash: &H256) -> Option<Transaction> {
        let mut state = self.state.lock();
        let (sender, nonce) = state.locate(hash)?;
        state.remove(&sender, nonce).map(|entry| entry.tx)
    }

    /// Drops every pooled transaction that appears in `block_txs`, and any
    /// pooled transaction whose nonce is now stale for its sender. Called
    /// when a block is imported — this is why, right after publication, the
    /// pool "no longer contains marked transactions" (paper §V-C).
    pub fn remove_committed<'a>(&self, block_txs: impl IntoIterator<Item = &'a Transaction>) {
        let mut state = self.state.lock();
        for tx in block_txs {
            // The included transaction, and the same sender's
            // same-nonce-or-older alternatives, now unincludable.
            state.remove_nonces(&tx.sender(), ..=tx.nonce());
        }
    }

    /// Drops every pooled transaction whose nonce is below its sender's
    /// current account nonce (e.g. after a reorg or a block built
    /// elsewhere). `nonce_of` supplies the account nonce per sender.
    pub fn prune_stale(&self, nonce_of: impl Fn(&Address) -> u64) {
        let mut state = self.state.lock();
        let floors: Vec<(Address, u64)> =
            state.queues().map(|(sender, _)| (*sender, nonce_of(sender))).collect();
        for (sender, floor) in floors {
            state.remove_nonces(&sender, ..floor);
        }
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Every pooled transaction in arrival order — the concurrent history
    /// snapshot that Hash-Mark-Set's `PROCESS` filters (paper Alg. 2).
    /// Clones every entry; prefer [`TxPool::with_entries_by_arrival`] on
    /// read paths.
    pub fn pending_by_arrival(&self) -> Vec<PoolEntry> {
        self.with_entries_by_arrival(|entries| entries.iter().map(|e| (*e).clone()).collect())
    }

    /// Runs `f` over every pooled entry in arrival order, borrowed in
    /// place: only the reference vector is allocated; the entries (and
    /// their calldata) never move. The pool lock is held for the duration,
    /// so the view is atomic — keep `f` short.
    pub fn with_entries_by_arrival<R>(&self, f: impl FnOnce(&[&PoolEntry]) -> R) -> R {
        let state = self.state.lock();
        f(&state.by_arrival())
    }

    // ------------------------------------------------------------------
    // Indexed reads
    // ------------------------------------------------------------------

    /// Executable transactions ordered the way a fee-maximising miner picks
    /// them: highest gas price first, arrival order breaking ties, while
    /// never emitting a sender's nonce `n + 1` before `n` (paper §II-C).
    ///
    /// `base_nonce` supplies each sender's current account nonce; senders
    /// whose next pooled nonce is ahead of their account nonce (a gap) are
    /// held back entirely, and entries below it (a submission racing an
    /// import before the next [`TxPool::prune_stale`]) are skipped.
    ///
    /// Served from the price index in `O(k log k)` for `k` returned
    /// candidates.
    pub fn ready_by_price(&self, base_nonce: impl Fn(&Address) -> u64) -> Vec<Transaction> {
        self.state.lock().ready_by_price(&base_nonce)
    }

    /// Every pooled `set`/`buy` transaction addressed to `contract`, in
    /// arrival order, with its FPV pre-parsed at insert — what the
    /// semantic and PWV miners consume instead of re-decoding the whole
    /// pool per block. A market call is any transaction whose calldata
    /// starts with [`SET_SELECTOR`](sereth_core::fpv::SET_SELECTOR) or
    /// [`BUY_SELECTOR`](sereth_core::fpv::BUY_SELECTOR).
    pub fn market_snapshot(&self, contract: &Address) -> Vec<MarketEntry> {
        self.state.lock().market(contract)
    }

    /// The READ-UNCOMMITTED view of `contract` given its committed
    /// `(mark, value)`: byte-identical to batch
    /// [`hash_mark_set`](sereth_core::hms::hash_mark_set) with
    /// [`SET_SELECTOR`](sereth_core::fpv::SET_SELECTOR) over
    /// [`TxPool::pending_by_arrival`] with the same arguments.
    ///
    /// The view comes from the contract's market book, which caches it
    /// until one of the contract's `set` entries is inserted or removed
    /// (or the caller's `committed`/`config` differ). Cached reads count on
    /// `raa.hits`, recomputations on `raa.rebuilds`.
    pub fn market_view(&self, contract: &Address, committed: (H256, H256), config: &HmsConfig) -> HmsView {
        self.state.lock().market_view(contract, committed, config, &self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::transaction::TxPayload;
    use sereth_types::u256::U256;

    fn tx(key: &SecretKey, nonce: u64, gas_price: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price,
                gas_limit: 21_000,
                to: Some(Address::from_low_u64(1)),
                value: U256::ZERO,
                input: Bytes::new(),
            },
            key,
        )
    }

    #[test]
    fn insert_and_len() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 0, 10), 0).unwrap();
        pool.insert(tx(&key, 1, 10), 1).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
    }

    #[test]
    fn duplicate_rejected() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        let t = tx(&key, 0, 10);
        pool.insert(t.clone(), 0).unwrap();
        assert_eq!(pool.insert(t, 1), Err(PoolError::Duplicate));
    }

    #[test]
    fn replacement_requires_price_bump() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 0, 100), 0).unwrap();
        // The identical transaction is a duplicate, not a replacement.
        assert_eq!(pool.insert(tx(&key, 0, 100), 1), Err(PoolError::Duplicate));
        // +5% is below the 10% bump: refused.
        assert_eq!(pool.insert(tx(&key, 0, 105), 2), Err(PoolError::ReplacementUnderpriced));
        // +10%: accepted, replacing the old one.
        pool.insert(tx(&key, 0, 110), 3).unwrap();
        assert_eq!(pool.len(), 1);
        let pending = pool.pending_by_arrival();
        assert_eq!(pending[0].tx.gas_price(), 110);
    }

    #[test]
    fn capacity_evicts_cheapest_when_newcomer_pays_more() {
        let pool = TxPool::with_config(PoolConfig { capacity: 2, ..PoolConfig::default() });
        let a = SecretKey::from_label(1);
        let b = SecretKey::from_label(2);
        let c = SecretKey::from_label(3);
        pool.insert(tx(&a, 0, 5), 0).unwrap();
        pool.insert(tx(&b, 0, 50), 1).unwrap();
        // Cheaper than everything pooled: refused.
        assert_eq!(pool.insert(tx(&c, 0, 1), 2), Err(PoolError::PoolFull));
        // Richer than the cheapest: evicts it.
        pool.insert(tx(&c, 0, 20), 3).unwrap();
        assert_eq!(pool.len(), 2);
        let prices: Vec<u64> = pool.pending_by_arrival().iter().map(|e| e.tx.gas_price()).collect();
        assert!(prices.contains(&50) && prices.contains(&20));
    }

    #[test]
    fn capacity_eviction_prefers_newest_of_the_cheapest() {
        // Two entries at the same (cheapest) price: the newer arrival is
        // the victim, exactly as the pre-index min_by_key tie-break chose.
        let pool = TxPool::with_config(PoolConfig { capacity: 2, ..PoolConfig::default() });
        let a = SecretKey::from_label(1);
        let b = SecretKey::from_label(2);
        let c = SecretKey::from_label(3);
        let older = tx(&a, 0, 5);
        let newer = tx(&b, 0, 5);
        pool.insert(older.clone(), 0).unwrap();
        pool.insert(newer.clone(), 1).unwrap();
        pool.insert(tx(&c, 0, 20), 2).unwrap();
        assert!(pool.contains(&older.hash()));
        assert!(!pool.contains(&newer.hash()));
    }

    #[test]
    fn pending_by_arrival_preserves_real_time_order() {
        let pool = TxPool::new();
        let a = SecretKey::from_label(1);
        let b = SecretKey::from_label(2);
        pool.insert(tx(&b, 0, 1), 10).unwrap();
        pool.insert(tx(&a, 0, 99), 20).unwrap();
        pool.insert(tx(&b, 1, 1), 30).unwrap();
        let order: Vec<u64> = pool.pending_by_arrival().iter().map(|e| e.arrival_time).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ready_by_price_orders_by_fee_with_nonce_constraint() {
        let pool = TxPool::new();
        let rich = SecretKey::from_label(1);
        let poor = SecretKey::from_label(2);
        // rich sends nonce 0 at low price, nonce 1 at high price; the high
        // price tx must still come after its predecessor.
        pool.insert(tx(&rich, 0, 10), 0).unwrap();
        pool.insert(tx(&rich, 1, 500), 1).unwrap();
        pool.insert(tx(&poor, 0, 100), 2).unwrap();
        let ready = pool.ready_by_price(|_| 0);
        let prices: Vec<u64> = ready.iter().map(Transaction::gas_price).collect();
        assert_eq!(prices, vec![100, 10, 500]);
    }

    #[test]
    fn ready_by_price_holds_back_nonce_gaps() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 1, 100), 0).unwrap(); // gap: nonce 0 missing
        assert!(pool.ready_by_price(|_| 0).is_empty());
        pool.insert(tx(&key, 0, 1), 1).unwrap();
        assert_eq!(pool.ready_by_price(|_| 0).len(), 2);
    }

    #[test]
    fn stale_prefix_is_served_exactly_by_the_index() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 0, 10), 0).unwrap();
        pool.insert(tx(&key, 1, 20), 1).unwrap();
        assert_eq!(pool.ready_by_price(|_| 0).len(), 2);
        // Account nonce moved past the pooled head without a prune: the
        // indexed walk skips the stale entry in place.
        let ready = pool.ready_by_price(|_| 1);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].nonce(), 1);
        // Pruning leaves the answer unchanged.
        pool.prune_stale(|_| 1);
        assert_eq!(pool.ready_by_price(|_| 1), ready);
    }

    #[test]
    fn ready_read_ranks_by_the_effective_entry_not_the_stale_head() {
        // Sender A's head is a stale cheap nonce-0, but its effective
        // entry (nonce 1) outprices everyone. A head-ranked walk would
        // place A below B; the exact walk must emit A's nonce-1 first.
        let pool = TxPool::new();
        let a = SecretKey::from_label(1);
        let b = SecretKey::from_label(2);
        pool.insert(tx(&a, 0, 1), 0).unwrap();
        pool.insert(tx(&a, 1, 100), 1).unwrap();
        pool.insert(tx(&b, 0, 50), 2).unwrap();
        let base = |sender: &Address| if *sender == a.address() { 1 } else { 0 };
        let order: Vec<(Address, u64)> =
            pool.ready_by_price(base).iter().map(|tx| (tx.sender(), tx.nonce())).collect();
        assert_eq!(order, vec![(a.address(), 1), (b.address(), 0)]);
    }

    #[test]
    fn remove_committed_clears_included_and_stale() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        let committed = tx(&key, 1, 10);
        pool.insert(tx(&key, 0, 10), 0).unwrap(); // stale once nonce 1 commits
        pool.insert(committed.clone(), 1).unwrap();
        pool.insert(tx(&key, 2, 10), 2).unwrap(); // still valid
        pool.remove_committed([&committed]);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.pending_by_arrival()[0].tx.nonce(), 2);
    }

    #[test]
    fn remove_unknown_hash_is_none() {
        let pool = TxPool::new();
        assert!(pool.remove(&H256::keccak(b"nothing")).is_none());
    }

    #[test]
    fn clone_is_a_faithful_snapshot() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 0, 10), 0).unwrap();
        pool.insert(tx(&key, 1, 30), 1).unwrap();
        let ready = pool.ready_by_price(|_| 0);
        let snapshot = pool.clone();
        pool.insert(tx(&key, 2, 20), 2).unwrap();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot.ready_by_price(|_| 0), ready);
        assert_eq!(pool.len(), 3);
    }
}
