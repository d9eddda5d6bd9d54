//! The pending-transaction pool (TxPool), sharded and incrementally
//! indexed.
//!
//! "Hash-Mark-Set takes advantage of an underutilized communication channel
//! among the peers on a blockchain, the transaction pool" (paper §III-C).
//! The pool keeps per-sender nonce-ordered queues (miners must respect nonce
//! order, §II-C) and tracks arrival order, which defines the *real time
//! order* of the concurrent history (§II-B) that HMS snapshots.
//!
//! # Architecture
//!
//! Three independently locked layers, so that client submission from many
//! users never serializes behind a miner's ordering pass:
//!
//! * **shards** — [`PoolConfig::shards`] sender-keyed locks holding the
//!   nonce queues. An insert touches exactly one shard (a transaction
//!   hash commits to its sender, so even duplicate detection is local).
//! * **event log** — one short-hold mutex stamping every mutation with a
//!   dense sequence number and buffering it for subscribers (the
//!   `sereth-raa` view service externally, the candidate index
//!   internally). This is the only cross-shard serialization point of
//!   the write path, and its hold is a counter bump plus one push.
//! * **candidate index** — fee-priority ready chains and per-contract
//!   pre-parsed market entries (see the `index` module), maintained by draining
//!   the event stream lazily under its own lock. Ordering reads are
//!   `O(k)` in the number of returned candidates instead of `O(pool)`
//!   rescans; a cursor that falls out of the bounded event buffer
//!   triggers a counted full rebuild.
//!
//! Lock order (outer to inner): `index` → shards (ascending) → `events`.
//! Every path acquires along that order, never against it.

mod index;
mod shard;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_telemetry::{Counter, Phase, Telemetry};
use sereth_types::transaction::Transaction;
use sereth_types::SimTime;
use sereth_vm::abi::Selector;

pub use index::{MarketEntry, MarketKind};

use index::CandidateIndex;
use shard::{EventLog, Shard};

/// A pool mutation, as observed by subscribers (the `sereth-raa` view
/// service and the pool's own candidate index consume these to maintain
/// their caches incrementally instead of re-reading the whole pool).
// Inserted dominates the size (it carries the transaction) and also
// dominates the event count, so boxing it would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolEvent {
    /// A transaction entered the pool.
    Inserted {
        /// The pooled transaction.
        tx: Transaction,
        /// Its global arrival sequence number.
        arrival_seq: u64,
    },
    /// A transaction left the pool without committing: replaced by a
    /// higher-priced same-nonce transaction, evicted at capacity, pruned
    /// as nonce-stale, or removed explicitly.
    Removed {
        /// Hash of the departed transaction.
        hash: H256,
        /// Its callee, kept so subscribers indexing by contract can
        /// route the removal without a global hash index.
        to: Option<Address>,
    },
    /// A transaction left the pool because an imported block included it
    /// — "right after publication the pool no longer contains marked
    /// transactions" (paper §V-C).
    Committed {
        /// Hash of the committed transaction.
        hash: H256,
        /// Its callee (see [`PoolEvent::Removed::to`]).
        to: Option<Address>,
    },
}

/// A [`PoolEvent`] stamped with its position in the pool's event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolEventRecord {
    /// Monotone sequence number (dense, starting at 0).
    pub seq: u64,
    /// The event.
    pub event: PoolEvent,
}

/// A subscriber's cursor fell behind the bounded event buffer; the
/// subscriber must resynchronise from a full pool snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLag {
    /// The oldest sequence number still buffered.
    pub oldest_buffered: u64,
    /// The cursor to resume from after resynchronising.
    pub resume_cursor: u64,
}

impl core::fmt::Display for EventLag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "pool event subscriber lagged: oldest buffered seq is {}, resume from {}",
            self.oldest_buffered, self.resume_cursor
        )
    }
}

impl std::error::Error for EventLag {}

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

/// The selectors of a managed market, configured so the pool can
/// pre-parse `set`/`buy` calldata once at insert and serve semantic/PWV
/// miners from the per-contract index (see
/// [`TxPool::market_snapshot`]).
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
    /// Maximum number of pooled transactions. Exact under single-threaded
    /// use; under concurrent submission the bound can be transiently
    /// exceeded by up to one entry per in-flight insert (the admission
    /// check and the admit are not atomic across shards), and the
    /// at-capacity eviction path squeezes the excess back out.
    pub capacity: usize,
    /// Percentage price bump required to replace a same-nonce transaction.
    pub replace_bump_pct: u64,
    /// Number of [`PoolEvent`]s retained for subscribers; a cursor older
    /// than the buffer gets [`EventLag`] and must resynchronise.
    pub event_capacity: usize,
    /// Number of sender-keyed ingestion locks (clamped to at least 1).
    /// More shards, less submission contention; ordering output is
    /// invariant in the shard count.
    pub shards: usize,
    /// Market selectors to pre-parse into the per-contract index; `None`
    /// serves [`TxPool::market_snapshot`] by (counted) rescan instead.
    pub market: Option<MarketSpec>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self { capacity: 4096, replace_bump_pct: 10, event_capacity: 16_384, shards: 16, market: None }
    }
}

/// Monotone counters describing how the pool is being driven — the
/// observable face of the sharded feed. They are telemetry cells named
/// `pool.*`, so a node-wide snapshot carries them for free.
#[derive(Debug, Clone)]
struct PoolCounters {
    /// `pool.index_hits`: ordering/market reads served from the
    /// incremental index.
    index_hits: Counter,
    /// `pool.index_rebuilds`: full index rebuilds — the lazy first
    /// subscription, explicit [`TxPool::rebuild_index`] calls, and
    /// event-buffer overflows ([`EventLag`] on the internal cursor).
    index_rebuilds: Counter,
    /// `pool.rescans`: ready reads that fell back to a full rescan
    /// because a sender held a stale nonce prefix (pool not yet pruned
    /// against the caller's state), plus explicit `*_rescan` oracle
    /// calls.
    rescans: Counter,
    /// `pool.market_rescans`: market snapshots served by walking the
    /// pool because the requested selectors are not the configured
    /// [`PoolConfig::market`].
    market_rescans: Counter,
    /// `pool.events_applied`: pool events the index applied
    /// incrementally.
    events_applied: Counter,
    /// `pool.shard_contention`: times an ingestion path found its shard
    /// lock held and had to wait.
    shard_contention: Counter,
}

impl PoolCounters {
    fn register(telemetry: &Telemetry) -> Self {
        Self {
            index_hits: telemetry.counter("pool.index_hits"),
            index_rebuilds: telemetry.counter("pool.index_rebuilds"),
            rescans: telemetry.counter("pool.rescans"),
            market_rescans: telemetry.counter("pool.market_rescans"),
            events_applied: telemetry.counter("pool.events_applied"),
            shard_contention: telemetry.counter("pool.shard_contention"),
        }
    }
}

/// The pending transaction pool (see module docs for the architecture).
///
/// All methods take `&self`: the pool is internally synchronized and is
/// shared across submission threads and the miner via `Arc`.
pub struct TxPool {
    config: PoolConfig,
    /// Outermost lock (see module docs for the lock order).
    index: Mutex<CandidateIndex>,
    shards: Box<[Mutex<Shard>]>,
    events: Mutex<EventLog>,
    len: AtomicUsize,
    stats: PoolCounters,
    telemetry: Arc<Telemetry>,
}

impl Default for TxPool {
    fn default() -> Self {
        Self::with_config(PoolConfig::default())
    }
}

impl Clone for TxPool {
    /// Snapshot clone: entries, event buffer, and counters are copied
    /// under all locks; the clone's candidate index starts cold and
    /// rebuilds itself on its first ordering read.
    fn clone(&self) -> Self {
        let guards: Vec<MutexGuard<'_, Shard>> = self.shards.iter().map(|m| m.lock()).collect();
        let events = self.events.lock();
        // The clone gets a fresh hub: counters restart at zero rather
        // than sharing (or double-counting into) the original's cells.
        let telemetry = Arc::new(Telemetry::enabled());
        Self {
            config: self.config.clone(),
            index: Mutex::new(CandidateIndex::default()),
            shards: guards.iter().map(|g| Mutex::new((**g).clone())).collect(),
            events: Mutex::new(events.clone()),
            len: AtomicUsize::new(self.len.load(Ordering::Relaxed)),
            stats: PoolCounters::register(&telemetry),
            telemetry,
        }
    }
}

impl core::fmt::Debug for TxPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TxPool")
            .field("len", &self.len())
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish()
    }
}

impl TxPool {
    /// An empty pool with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool with the given configuration (`config.shards` is
    /// clamped to at least 1) and its own (enabled) telemetry hub.
    pub fn with_config(config: PoolConfig) -> Self {
        Self::with_telemetry(config, Arc::new(Telemetry::enabled()))
    }

    /// An empty pool recording into a shared `telemetry` hub — what a
    /// node does so `pool.*` counters and admission latencies land in
    /// the node-wide registry. With a disabled hub, the `pool.*`
    /// counters record nothing and inserts skip the clock.
    pub fn with_telemetry(config: PoolConfig, telemetry: Arc<Telemetry>) -> Self {
        let shard_count = config.shards.max(1);
        Self {
            config,
            index: Mutex::new(CandidateIndex::default()),
            shards: (0..shard_count).map(|_| Mutex::new(Shard::default())).collect(),
            events: Mutex::new(EventLog::default()),
            len: AtomicUsize::new(0),
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
        self.len.load(Ordering::Relaxed)
    }

    /// `true` if nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, sender: &Address) -> usize {
        (sereth_crypto::hash::fnv1a_64(sender.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Locks one shard, counting the acquisition as contended when the
    /// lock was not immediately available (the "submission blocked"
    /// signal `pool.shard_contention` reports).
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        match self.shards[index].try_lock() {
            Some(guard) => guard,
            None => {
                self.stats.shard_contention.inc();
                self.shards[index].lock()
            }
        }
    }

    /// Locks every shard in ascending order (the snapshot paths).
    fn lock_all_shards(&self) -> Vec<MutexGuard<'_, Shard>> {
        self.shards.iter().map(|m| m.lock()).collect()
    }

    /// `true` if the pool holds the given transaction hash.
    pub fn contains(&self, hash: &H256) -> bool {
        self.shards.iter().any(|m| m.lock().by_hash.contains_key(hash))
    }

    // ------------------------------------------------------------------
    // Event stream
    // ------------------------------------------------------------------

    /// The cursor a new event subscriber should start from (the sequence
    /// number the *next* event will carry).
    pub fn event_cursor(&self) -> u64 {
        self.events.lock().next_seq
    }

    /// Turns on event buffering and returns the cursor to read from.
    /// Until this is called (and no indexed ordering read has happened)
    /// the pool only advances its sequence number — mutations cost
    /// nothing extra and [`TxPool::events_since`] reports [`EventLag`]
    /// for any elapsed history, forcing a snapshot rebuild.
    pub fn subscribe(&self) -> u64 {
        let mut events = self.events.lock();
        events.enabled = true;
        events.next_seq
    }

    /// Every event recorded at or after `cursor`, in order.
    ///
    /// # Errors
    ///
    /// [`EventLag`] when `cursor` has already been evicted from the
    /// bounded buffer; the caller must rebuild from a full snapshot
    /// ([`TxPool::snapshot_with_cursor`]) and resume from the snapshot's
    /// cursor.
    pub fn events_since(&self, cursor: u64) -> Result<Vec<PoolEventRecord>, EventLag> {
        let events = self.events.lock();
        if cursor >= events.next_seq {
            return Ok(Vec::new());
        }
        let oldest = match events.buffer.front() {
            Some(record) => record.seq,
            None => events.next_seq,
        };
        if cursor < oldest {
            return Err(EventLag { oldest_buffered: oldest, resume_cursor: events.next_seq });
        }
        let skip = (cursor - oldest) as usize;
        Ok(events.buffer.iter().skip(skip).cloned().collect())
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Inserts `tx`, arriving at `now`. The whole admission decision —
    /// shard lock, dup/replacement/capacity checks, event emission — is
    /// timed as [`Phase::Admission`].
    ///
    /// # Errors
    ///
    /// See [`PoolError`] for the admission rules.
    pub fn insert(&self, tx: Transaction, now: SimTime) -> Result<(), PoolError> {
        self.telemetry.time(Phase::Admission, || self.insert_inner(tx, now))
    }

    fn insert_inner(&self, tx: Transaction, now: SimTime) -> Result<(), PoolError> {
        let sender = tx.sender();
        let nonce = tx.nonce();
        let hash = tx.hash();
        loop {
            {
                let mut shard = self.lock_shard(self.shard_of(&sender));
                if shard.by_hash.contains_key(&hash) {
                    return Err(PoolError::Duplicate);
                }
                if let Some(existing) = shard.by_sender.get(&sender).and_then(|queue| queue.get(&nonce)) {
                    let required =
                        existing.tx.gas_price().saturating_mul(100 + self.config.replace_bump_pct) / 100;
                    if tx.gas_price() < required.max(existing.tx.gas_price() + 1) {
                        return Err(PoolError::ReplacementUnderpriced);
                    }
                    let old_hash = existing.tx.hash();
                    let old_to = existing.tx.to();
                    shard.by_hash.remove(&old_hash);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    self.admit(&mut shard, tx, now, Some((old_hash, old_to)));
                    return Ok(());
                }
                if self.len.load(Ordering::Relaxed) < self.config.capacity {
                    self.admit(&mut shard, tx, now, None);
                    return Ok(());
                }
            }
            // At capacity: evict the globally cheapest entry if the
            // newcomer pays more (under the index lock, which we must not
            // acquire while holding our shard), then retry the fast path.
            self.make_room_for(&tx)?;
        }
    }

    /// Stamps and stores an admitted entry under an already-held shard
    /// lock. `replaced` carries the same-nonce predecessor, whose
    /// `Removed` event must precede the `Inserted` one.
    fn admit(
        &self,
        shard: &mut Shard,
        tx: Transaction,
        now: SimTime,
        replaced: Option<(H256, Option<Address>)>,
    ) {
        let sender = tx.sender();
        let nonce = tx.nonce();
        let arrival_seq;
        {
            let mut events = self.events.lock();
            if let Some((old_hash, old_to)) = replaced {
                events.emit_with(self.config.event_capacity, || PoolEvent::Removed {
                    hash: old_hash,
                    to: old_to,
                });
            }
            arrival_seq = events.arrival_counter;
            events.arrival_counter += 1;
            // The clone stays inside the closure: unwatched pools never
            // pay it (the whole point of `emit_with`).
            events.emit_with(self.config.event_capacity, || PoolEvent::Inserted {
                tx: tx.clone(),
                arrival_seq,
            });
        }
        let entry = PoolEntry { arrival_seq, arrival_time: now, tx };
        shard.by_hash.insert(entry.tx.hash(), (sender, nonce));
        shard.by_sender.entry(sender).or_default().insert(nonce, entry);
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Evicts the globally cheapest pooled transaction if `tx` pays more.
    ///
    /// # Errors
    ///
    /// [`PoolError::PoolFull`] when nothing cheaper than `tx` is pooled.
    fn make_room_for(&self, tx: &Transaction) -> Result<(), PoolError> {
        let mut index = self.index.lock();
        self.refresh_index(&mut index);
        if self.len.load(Ordering::Relaxed) < self.config.capacity {
            return Ok(()); // a concurrent removal made room
        }
        let Some((price, sender, nonce)) = index.cheapest() else {
            return Err(PoolError::PoolFull);
        };
        if price >= tx.gas_price() {
            return Err(PoolError::PoolFull);
        }
        // Remove the victim through the normal shard path (lock order:
        // index → shard → events); the index learns of the removal from
        // the event stream on its next refresh. The victim's price is
        // re-checked under the shard lock: a concurrent replacement may
        // have bumped the slot the index still thinks is cheapest, and
        // the admission rule — evict only what the newcomer out-pays —
        // must hold against the entry actually stored, not the index's
        // snapshot of it. A mismatch just retries the outer insert loop.
        let mut shard = self.lock_shard(self.shard_of(&sender));
        let victim = shard
            .by_sender
            .get(&sender)
            .and_then(|queue| queue.get(&nonce))
            .filter(|entry| entry.tx.gas_price() < tx.gas_price())
            .map(|entry| entry.tx.hash());
        if let Some(hash) = victim {
            self.remove_from_shard(&mut shard, &sender, nonce, &hash, false);
        }
        Ok(())
    }

    /// Removes one entry from an already-locked shard, emitting the
    /// departure event.
    fn remove_from_shard(
        &self,
        shard: &mut Shard,
        sender: &Address,
        nonce: u64,
        hash: &H256,
        committed: bool,
    ) -> Option<Transaction> {
        shard.by_hash.remove(hash)?;
        let queue = shard.by_sender.get_mut(sender)?;
        let entry = queue.remove(&nonce);
        if queue.is_empty() {
            shard.by_sender.remove(sender);
        }
        let tx = entry.map(|e| e.tx);
        if let Some(tx) = &tx {
            self.len.fetch_sub(1, Ordering::Relaxed);
            let to = tx.to();
            let hash = *hash;
            let mut events = self.events.lock();
            events.emit_with(self.config.event_capacity, || {
                if committed {
                    PoolEvent::Committed { hash, to }
                } else {
                    PoolEvent::Removed { hash, to }
                }
            });
        }
        tx
    }

    /// Removes a transaction by hash, returning it if present.
    pub fn remove(&self, hash: &H256) -> Option<Transaction> {
        for mutex in self.shards.iter() {
            let mut shard = mutex.lock();
            if let Some(&(sender, nonce)) = shard.by_hash.get(hash) {
                return self.remove_from_shard(&mut shard, &sender, nonce, hash, false);
            }
        }
        None
    }

    /// Drops every pooled transaction that appears in `block_txs`, and any
    /// pooled transaction whose nonce is now stale for its sender. Called
    /// when a block is imported — this is why, right after publication, the
    /// pool "no longer contains marked transactions" (paper §V-C).
    pub fn remove_committed<'a>(&self, block_txs: impl IntoIterator<Item = &'a Transaction>) {
        for tx in block_txs {
            let sender = tx.sender();
            let mut shard = self.lock_shard(self.shard_of(&sender));
            let hash = tx.hash();
            if let Some(&(owner, nonce)) = shard.by_hash.get(&hash) {
                self.remove_from_shard(&mut shard, &owner, nonce, &hash, true);
            }
            // Same-sender same-nonce-or-older alternatives are now
            // unincludable.
            let stale: Vec<(u64, H256)> = shard
                .by_sender
                .get(&sender)
                .map(|queue| queue.range(..=tx.nonce()).map(|(n, e)| (*n, e.tx.hash())).collect())
                .unwrap_or_default();
            for (nonce, hash) in stale {
                self.remove_from_shard(&mut shard, &sender, nonce, &hash, false);
            }
        }
    }

    /// Drops every pooled transaction whose nonce is below its sender's
    /// current account nonce (e.g. after a reorg or a block built
    /// elsewhere). `nonce_of` supplies the account nonce per sender.
    pub fn prune_stale(&self, nonce_of: impl Fn(&Address) -> u64) {
        for mutex in self.shards.iter() {
            let mut shard = mutex.lock();
            let stale: Vec<(Address, u64, H256)> = shard
                .by_sender
                .iter()
                .flat_map(|(sender, queue)| {
                    let floor = nonce_of(sender);
                    queue.range(..floor).map(|(n, e)| (*sender, *n, e.tx.hash())).collect::<Vec<_>>()
                })
                .collect();
            for (sender, nonce, hash) in stale {
                self.remove_from_shard(&mut shard, &sender, nonce, &hash, false);
            }
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
    /// their calldata) never move. All shards are held for the duration,
    /// so the view is atomic — keep `f` short.
    pub fn with_entries_by_arrival<R>(&self, f: impl FnOnce(&[&PoolEntry]) -> R) -> R {
        let guards = self.lock_all_shards();
        let mut entries: Vec<&PoolEntry> =
            guards.iter().flat_map(|g| g.by_sender.values().flat_map(|queue| queue.values())).collect();
        entries.sort_by_key(|entry| entry.arrival_seq);
        f(&entries)
    }

    /// An atomic full snapshot plus the event cursor that immediately
    /// follows it — what a lagged subscriber rebuilds from: applying
    /// events from the returned cursor onward to the returned entries
    /// reproduces every later pool state.
    pub fn snapshot_with_cursor(&self) -> (Vec<PoolEntry>, u64) {
        let guards = self.lock_all_shards();
        let cursor = self.events.lock().next_seq;
        let mut entries: Vec<PoolEntry> = guards
            .iter()
            .flat_map(|g| g.by_sender.values().flat_map(|queue| queue.values().cloned()))
            .collect();
        entries.sort_by_key(|entry| entry.arrival_seq);
        (entries, cursor)
    }

    // ------------------------------------------------------------------
    // Indexed reads
    // ------------------------------------------------------------------

    /// Brings the candidate index up to the event stream's head. Called
    /// with the index lock held; acquires shards and/or the event log
    /// (inner locks) as needed.
    fn refresh_index(&self, index: &mut CandidateIndex) {
        if !index.subscribed {
            self.rebuild_index_locked(index);
            return;
        }
        match self.events_since(index.cursor) {
            Ok(records) => {
                if let Some(last) = records.last() {
                    index.cursor = last.seq + 1;
                }
                let applied = records.len() as u64;
                for record in &records {
                    index.apply_event(&record.event, self.config.market.as_ref());
                }
                self.stats.events_applied.add(applied);
            }
            Err(_lag) => self.rebuild_index_locked(index),
        }
    }

    /// Rebuilds the index from a full snapshot taken under all shard
    /// locks (so the captured cursor exactly matches the entries), and
    /// subscribes the pool's event stream for future incremental catch-up.
    fn rebuild_index_locked(&self, index: &mut CandidateIndex) {
        let guards = self.lock_all_shards();
        let cursor = {
            let mut events = self.events.lock();
            events.enabled = true;
            events.next_seq
        };
        let mut entries: Vec<&PoolEntry> =
            guards.iter().flat_map(|g| g.by_sender.values().flat_map(|queue| queue.values())).collect();
        entries.sort_by_key(|entry| entry.arrival_seq);
        index.rebuild(entries.iter().copied(), self.config.market.as_ref());
        index.cursor = cursor;
        index.subscribed = true;
        self.stats.index_rebuilds.inc();
    }

    /// Forces a full index rebuild (test hook for the equivalence
    /// properties; production code never needs it).
    pub fn rebuild_index(&self) {
        let mut index = self.index.lock();
        self.rebuild_index_locked(&mut index);
    }

    /// Executable transactions ordered the way a fee-maximising miner picks
    /// them: highest gas price first, arrival order breaking ties, while
    /// never emitting a sender's nonce `n + 1` before `n` (paper §II-C).
    ///
    /// `base_nonce` supplies each sender's current account nonce; senders
    /// whose next pooled nonce is ahead of their account nonce (a gap) are
    /// held back entirely.
    ///
    /// Served from the incremental index in `O(k log k)` for `k` returned
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
    /// catches it) are skipped per-entry
    /// during the walk itself rather than deferred to the next import's
    /// prune. There is no fallback path: budgeted reads under churn stay
    /// index-served and byte-equal to [`TxPool::ready_by_price_rescan`],
    /// which the `txpool_index_props` suite pins across randomized
    /// stale/gap/limit grids.
    pub fn ready_by_price_limited(
        &self,
        base_nonce: impl Fn(&Address) -> u64,
        limit: usize,
    ) -> Vec<Transaction> {
        let out = {
            let mut index = self.index.lock();
            self.refresh_index(&mut index);
            index.ready_by_price(&|sender| base_nonce(sender), limit)
        };
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
        let guards = self.lock_all_shards();
        let queues: Vec<(&Address, &std::collections::BTreeMap<u64, PoolEntry>)> =
            guards.iter().flat_map(|g| g.by_sender.iter()).collect();
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
    /// Served from the per-contract index when the selectors match the
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
            let mut index = self.index.lock();
            self.refresh_index(&mut index);
            self.stats.index_hits.inc();
            return index.market(contract);
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
        let pool = TxPool::with_config(PoolConfig { shards: 4, ..PoolConfig::default() });
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
    fn events_record_insert_remove_commit() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        let cursor = pool.subscribe();
        let t0 = tx(&key, 0, 10);
        let t1 = tx(&key, 1, 10);
        pool.insert(t0.clone(), 0).unwrap();
        pool.insert(t1.clone(), 1).unwrap();
        pool.remove(&t1.hash());
        pool.remove_committed([&t0]);
        let events: Vec<PoolEvent> =
            pool.events_since(cursor).unwrap().into_iter().map(|r| r.event).collect();
        assert_eq!(
            events,
            vec![
                PoolEvent::Inserted { tx: t0.clone(), arrival_seq: 0 },
                PoolEvent::Inserted { tx: t1.clone(), arrival_seq: 1 },
                PoolEvent::Removed { hash: t1.hash(), to: t1.to() },
                PoolEvent::Committed { hash: t0.hash(), to: t0.to() },
            ]
        );
        // The cursor advanced past everything: nothing new.
        assert!(pool.events_since(pool.event_cursor()).unwrap().is_empty());
    }

    #[test]
    fn replacement_emits_removed_then_inserted() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        let cheap = tx(&key, 0, 100);
        pool.subscribe();
        pool.insert(cheap.clone(), 0).unwrap();
        let cursor = pool.event_cursor();
        let rich = tx(&key, 0, 110);
        pool.insert(rich.clone(), 1).unwrap();
        let events: Vec<PoolEvent> =
            pool.events_since(cursor).unwrap().into_iter().map(|r| r.event).collect();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], PoolEvent::Removed { hash, .. } if *hash == cheap.hash()));
        assert!(matches!(&events[1], PoolEvent::Inserted { tx, .. } if tx.hash() == rich.hash()));
    }

    #[test]
    fn stale_nonce_collateral_emits_removed() {
        let pool = TxPool::new();
        let key = SecretKey::from_label(1);
        let n0 = tx(&key, 0, 10);
        let committed = tx(&key, 1, 10);
        pool.subscribe();
        pool.insert(n0.clone(), 0).unwrap();
        pool.insert(committed.clone(), 1).unwrap();
        let cursor = pool.event_cursor();
        pool.remove_committed([&committed]);
        let events: Vec<PoolEvent> =
            pool.events_since(cursor).unwrap().into_iter().map(|r| r.event).collect();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], PoolEvent::Committed { hash, .. } if *hash == committed.hash()));
        assert!(matches!(&events[1], PoolEvent::Removed { hash, .. } if *hash == n0.hash()));
    }

    #[test]
    fn lagged_cursor_reports_resync_point() {
        let pool = TxPool::with_config(PoolConfig { event_capacity: 2, ..PoolConfig::default() });
        pool.subscribe();
        let key = SecretKey::from_label(1);
        for nonce in 0..5 {
            pool.insert(tx(&key, nonce, 10), nonce).unwrap();
        }
        let err = pool.events_since(0).unwrap_err();
        assert_eq!(err.oldest_buffered, 3);
        assert_eq!(err.resume_cursor, 5);
        // The still-buffered suffix is readable.
        assert_eq!(pool.events_since(3).unwrap().len(), 2);
    }

    #[test]
    fn event_overflow_forces_a_counted_index_rebuild() {
        let pool = TxPool::with_config(PoolConfig { event_capacity: 4, ..PoolConfig::default() });
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 0, 10), 0).unwrap();
        assert_eq!(pool.ready_by_price(|_| 0).len(), 1);
        let rebuilds_after_first = counter(&pool, "pool.index_rebuilds");
        assert!(rebuilds_after_first >= 1, "lazy subscription rebuilds once");
        // Push the internal cursor out of the buffer.
        for nonce in 1..20 {
            pool.insert(tx(&key, nonce, 10), nonce).unwrap();
        }
        let ready = pool.ready_by_price(|_| 0);
        assert_eq!(ready.len(), 20);
        assert_eq!(counter(&pool, "pool.index_rebuilds"), rebuilds_after_first + 1);
        // And the rebuilt index still matches the oracle.
        assert_eq!(ready, pool.ready_by_price_rescan(|_| 0, usize::MAX));
    }

    #[test]
    fn ordering_is_invariant_in_the_shard_count() {
        let build = |shards: usize| {
            let pool = TxPool::with_config(PoolConfig { shards, ..PoolConfig::default() });
            for label in 1..=17u64 {
                let key = SecretKey::from_label(label);
                pool.insert(tx(&key, 0, label % 5 + 1), label).unwrap();
                pool.insert(tx(&key, 1, label % 7 + 1), 50 + label).unwrap();
            }
            pool.remove_committed([&tx(&SecretKey::from_label(3), 0, 4)]);
            pool
        };
        let one = build(1);
        let many = build(16);
        assert_eq!(one.ready_by_price(|_| 0), many.ready_by_price(|_| 0));
        let arrivals = |pool: &TxPool| -> Vec<(H256, u64)> {
            pool.pending_by_arrival().iter().map(|e| (e.tx.hash(), e.arrival_seq)).collect()
        };
        assert_eq!(arrivals(&one), arrivals(&many));
    }

    #[test]
    fn snapshot_with_cursor_matches_event_stream() {
        let pool = TxPool::new();
        pool.subscribe();
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 0, 10), 0).unwrap();
        let (entries, cursor) = pool.snapshot_with_cursor();
        assert_eq!(entries.len(), 1);
        assert_eq!(cursor, pool.event_cursor());
        pool.insert(tx(&key, 1, 10), 1).unwrap();
        // Applying the events from the snapshot cursor reproduces the pool.
        let later = pool.events_since(cursor).unwrap();
        assert_eq!(later.len(), 1);
        assert!(matches!(&later[0].event, PoolEvent::Inserted { arrival_seq: 1, .. }));
    }

    #[test]
    fn clone_is_a_faithful_snapshot_with_a_cold_index() {
        let pool = TxPool::new();
        pool.subscribe();
        let key = SecretKey::from_label(1);
        pool.insert(tx(&key, 0, 10), 0).unwrap();
        pool.insert(tx(&key, 1, 30), 1).unwrap();
        let snapshot = pool.clone();
        pool.insert(tx(&key, 2, 20), 2).unwrap();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot.event_cursor(), 2);
        assert_eq!(snapshot.ready_by_price(|_| 0), snapshot.ready_by_price_rescan(|_| 0, usize::MAX));
        assert_eq!(pool.len(), 3);
    }
}
