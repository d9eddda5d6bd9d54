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
//! cache is valid is `O(1)`.
//!
//! One lock rather than sender-keyed shards: a node submits from one
//! thread and orders from another, and a 16-shard pool measured no
//! faster end to end than a 1-shard one.

mod index;

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use sereth_core::hms::{hash_mark_set, HmsConfig, HmsView};
use sereth_core::process::PendingTx;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_telemetry::{Counter, Phase, Telemetry};
use sereth_types::transaction::Transaction;
use sereth_types::SimTime;
use sereth_vm::abi::Selector;

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
    /// The transaction's nonce is already below the sender's account nonce.
    Stale,
}

impl core::fmt::Display for PoolError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Duplicate => write!(f, "transaction already pooled"),
            Self::ReplacementUnderpriced => write!(f, "replacement transaction underpriced"),
            Self::PoolFull => write!(f, "pool is full"),
            Self::Stale => write!(f, "transaction nonce already consumed"),
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

/// The selectors of a managed market, configured so the pool can
/// pre-parse `set`/`buy` calldata once at insert and serve semantic/PWV
/// miners and RAA views from the per-contract market book (see
/// [`TxPool::market_snapshot`] and [`TxPool::market_view`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarketSpec {
    /// The managed-write selector (`set`).
    pub set_selector: Selector,
    /// The dependent-read selector (`buy`).
    pub buy_selector: Selector,
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
    /// Market selectors to pre-parse into the per-contract market book;
    /// `None` serves [`TxPool::market_snapshot`] and
    /// [`TxPool::market_view`] by (counted) rescan instead.
    pub market: Option<MarketSpec>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { capacity: 4096, replace_bump_pct: 10, market: None }
    }
}

/// Monotone counters describing how the pool is read. They are telemetry
/// cells, so a node-wide snapshot carries them for free.
#[derive(Debug, Clone)]
struct PoolCounters {
    /// `pool.index_hits`: ordering/market reads served from the indexes.
    index_hits: Counter,
    /// `pool.rescans`: explicit `*_rescan` oracle calls.
    rescans: Counter,
    /// `pool.market_rescans`: market snapshots and views served by walking
    /// the pool because the requested selectors are not the configured
    /// [`PoolConfig::market`].
    market_rescans: Counter,
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
        Self {
            index_hits: telemetry.counter("pool.index_hits"),
            rescans: telemetry.counter("pool.rescans"),
            market_rescans: telemetry.counter("pool.market_rescans"),
            view_hits: telemetry.counter("raa.hits"),
            view_rebuilds: telemetry.counter("raa.rebuilds"),
        }
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
    /// node does so the `pool.*` and `raa.*` counters and admission
    /// latencies land in the node-wide registry. With a disabled hub, the
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
        state.add(tx, now, self.config.market.as_ref());
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
    /// held back entirely.
    ///
    /// Served from the price index in `O(k log k)` for `k` returned
    /// candidates — counted in `pool.index_hits`.
    pub fn ready_by_price(&self, base_nonce: impl Fn(&Address) -> u64) -> Vec<Transaction> {
        self.ready_by_price_limited(base_nonce, usize::MAX)
    }

    /// [`TxPool::ready_by_price`] emitting at most `limit` candidates —
    /// the indexed read is then `O(limit)` regardless of pool size (what
    /// a miner with a known block capacity should use).
    ///
    /// # Exactness
    ///
    /// Equal to the rescan oracle for every pool shape, every
    /// `base_nonce`, and every `limit`. The indexed walk seeds each
    /// sender's nonce cursor from `base_nonce` on first touch, so stale
    /// entries (pooled nonce below the caller's account nonce — a
    /// submission racing an import before the next [`TxPool::prune_stale`]
    /// catches it) are skipped per-entry during the walk itself rather
    /// than deferred to the next import's prune. The `txpool_index_props`
    /// suite pins this against [`TxPool::ready_by_price_rescan`] across
    /// randomized stale/gap/limit grids.
    pub fn ready_by_price_limited(
        &self,
        base_nonce: impl Fn(&Address) -> u64,
        limit: usize,
    ) -> Vec<Transaction> {
        let out = self.state.lock().ready_by_price(&|sender| base_nonce(sender), limit);
        self.stats.index_hits.inc();
        out
    }

    /// The pre-index implementation: a repeated-selection walk over every
    /// sender queue, `O(candidates · senders)`. Kept verbatim as the
    /// byte-equality oracle for the indexed read (the `txpool_index_props`
    /// suite holds them equal) and as the benchmarks' baseline.
    pub fn ready_by_price_rescan(
        &self,
        base_nonce: impl Fn(&Address) -> u64,
        limit: usize,
    ) -> Vec<Transaction> {
        self.stats.rescans.inc();
        let state = self.state.lock();
        let queues: Vec<(&Address, &BTreeMap<u64, PoolEntry>)> = state.queues().collect();
        let mut cursors: HashMap<Address, u64> =
            queues.iter().map(|(sender, _)| (**sender, base_nonce(sender))).collect();
        let mut out = Vec::new();
        while out.len() < limit {
            let mut best: Option<&PoolEntry> = None;
            for (sender, queue) in &queues {
                let next_nonce = cursors[*sender];
                if let Some(entry) = queue.get(&next_nonce) {
                    let better = match best {
                        None => true,
                        Some(current) => {
                            (entry.tx.gas_price(), current.arrival_seq)
                                > (current.tx.gas_price(), entry.arrival_seq)
                        }
                    };
                    if better {
                        best = Some(entry);
                    }
                }
            }
            match best {
                Some(entry) => {
                    out.push(entry.tx.clone());
                    let cursor = cursors.get_mut(&entry.tx.sender()).expect("cursor exists");
                    match cursor.checked_add(1) {
                        Some(next) => *cursor = next,
                        None => break,
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Every pooled `set`/`buy` transaction addressed to `contract`, in
    /// arrival order, with its FPV pre-parsed — what the semantic and PWV
    /// miners consume instead of re-decoding the whole pool per block.
    ///
    /// Served from the market book when the selectors match the
    /// configured [`PoolConfig::market`]; otherwise (unconfigured pools,
    /// foreign selectors) computed by a counted rescan with the identical
    /// classification rule.
    pub fn market_snapshot(
        &self,
        contract: &Address,
        set_selector: Selector,
        buy_selector: Selector,
    ) -> Vec<MarketEntry> {
        if self.config.market == Some(MarketSpec { set_selector, buy_selector }) {
            self.stats.index_hits.inc();
            return self.state.lock().market(contract);
        }
        self.stats.market_rescans.inc();
        self.with_entries_by_arrival(|entries| {
            entries
                .iter()
                .filter(|e| e.tx.to() == Some(*contract))
                .filter_map(|e| MarketEntry::classify(&e.tx, e.arrival_seq, set_selector, buy_selector))
                .collect()
        })
    }

    /// The READ-UNCOMMITTED view of `contract` given its committed
    /// `(mark, value)`: byte-identical to batch
    /// [`hash_mark_set`] over [`TxPool::pending_by_arrival`] with the same
    /// arguments.
    ///
    /// When `set_selector` is the configured [`PoolConfig::market`]'s, the
    /// view comes from the contract's market book, which caches it until
    /// one of the contract's `set` entries is inserted or removed (or the
    /// caller's `committed`/`config` differ). Cached reads count on
    /// `raa.hits`, recomputations on `raa.rebuilds`. Otherwise the whole
    /// pool is filtered per call, counted on `pool.market_rescans`.
    pub fn market_view(
        &self,
        contract: &Address,
        set_selector: Selector,
        committed: (H256, H256),
        config: &HmsConfig,
    ) -> HmsView {
        if self.config.market.is_some_and(|spec| spec.set_selector == set_selector) {
            return self.state.lock().market_view(contract, set_selector, committed, config, &self.stats);
        }
        self.stats.market_rescans.inc();
        let pending: Vec<PendingTx> =
            self.with_entries_by_arrival(|entries| entries.iter().map(|entry| entry.pending()).collect());
        hash_mark_set(&pending, contract, set_selector, committed, config).view
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

    /// A `pool.*` counter, read from the pool's own telemetry hub.
    fn counter(pool: &TxPool, name: &str) -> u64 {
        pool.telemetry.snapshot().counters[name]
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
        assert_eq!(counter(&pool, "pool.index_hits"), 1);
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
    fn ready_by_price_limited_is_a_prefix_of_the_full_order() {
        let pool = TxPool::new();
        for label in 1..=20u64 {
            let key = SecretKey::from_label(label);
            pool.insert(tx(&key, 0, label * 3 % 17 + 1), label).unwrap();
            pool.insert(tx(&key, 1, label * 5 % 13 + 1), 100 + label).unwrap();
        }
        let full = pool.ready_by_price(|_| 0);
        for limit in [0usize, 1, 7, 23, 40, 100] {
            let limited = pool.ready_by_price_limited(|_| 0, limit);
            assert_eq!(limited.len(), full.len().min(limit));
            assert_eq!(limited[..], full[..limited.len()]);
        }
    }

    #[test]
    fn indexed_ready_matches_rescan_after_churn() {
        let pool = TxPool::new();
        let keys: Vec<SecretKey> = (1..=12).map(SecretKey::from_label).collect();
        for (i, key) in keys.iter().enumerate() {
            for nonce in 0..3 {
                pool.insert(tx(key, nonce, (i as u64 * 7 + nonce * 3) % 19 + 1), i as u64 * 10 + nonce)
                    .unwrap();
            }
        }
        // Churn: remove some, commit some, replace some.
        pool.remove(&tx(&keys[0], 1, 8).hash());
        pool.remove_committed([&tx(&keys[3], 0, 2)]);
        pool.insert(tx(&keys[5], 0, 50), 999).unwrap(); // replacement
        let indexed = pool.ready_by_price(|_| 0);
        let rescan = pool.ready_by_price_rescan(|_| 0, usize::MAX);
        assert_eq!(indexed, rescan);
    }

    #[test]
    fn stale_prefix_is_served_exactly_by_the_index() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 0, 10), 0).unwrap();
        pool.insert(tx(&key, 1, 20), 1).unwrap();
        // Warm the index.
        assert_eq!(pool.ready_by_price(|_| 0).len(), 2);
        let (rescans, index_hits) = (counter(&pool, "pool.rescans"), counter(&pool, "pool.index_hits"));
        // Account nonce moved past the pooled head without a prune: the
        // indexed walk skips the stale entry in place — no rescan.
        let ready = pool.ready_by_price(|_| 1);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].nonce(), 1);
        assert_eq!(counter(&pool, "pool.rescans"), rescans);
        assert_eq!(counter(&pool, "pool.index_hits"), index_hits + 1);
        // Pruning leaves the answer unchanged.
        pool.prune_stale(|_| 1);
        let pruned = pool.ready_by_price(|_| 1);
        assert_eq!(pruned.len(), 1);
        assert_eq!(counter(&pool, "pool.rescans"), rescans);
    }

    #[test]
    fn limited_read_ranks_by_the_effective_entry_not_the_stale_head() {
        // Sender A's head is a stale cheap nonce-0, but its effective
        // entry (nonce 1) outprices everyone. A head-ranked walk would
        // place A below B and emit B under limit 1; the exact walk must
        // emit A's nonce-1 first, like the rescan.
        let pool = TxPool::new();
        let a = SecretKey::from_label(1);
        let b = SecretKey::from_label(2);
        pool.insert(tx(&a, 0, 1), 0).unwrap();
        pool.insert(tx(&a, 1, 100), 1).unwrap();
        pool.insert(tx(&b, 0, 50), 2).unwrap();
        let base = |sender: &Address| if *sender == a.address() { 1 } else { 0 };
        let limited = pool.ready_by_price_limited(base, 1);
        assert_eq!(limited.len(), 1);
        assert_eq!(limited[0].sender(), a.address());
        assert_eq!(limited[0].nonce(), 1);
        assert_eq!(limited, pool.ready_by_price_rescan(base, 1));
        let full = pool.ready_by_price(base);
        assert_eq!(full, pool.ready_by_price_rescan(base, usize::MAX));
        assert_eq!(full.len(), 2);
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
        let snapshot = pool.clone();
        pool.insert(tx(&key, 2, 20), 2).unwrap();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot.ready_by_price(|_| 0).len(), 2);
        assert_eq!(snapshot.ready_by_price(|_| 0), snapshot.ready_by_price_rescan(|_| 0, usize::MAX));
        assert_eq!(pool.len(), 3);
    }
}
