//! The incremental RAA view service.
//!
//! [`RaaService`] consumes the ordered [`PoolEvent`] stream of a
//! [`TxPool`] and maintains, per contract, the filtered Sereth `set`
//! list that Algorithm 2 (`PROCESS`) would produce over a snapshot —
//! keyed and ordered by pool arrival sequence. A query then only pays
//! for Algorithm 3/1 over **that contract's own transactions**, and only
//! when they changed since the last query; clean reads return a cached
//! view under a shard read-lock.
//!
//! Sharding is by contract address, so independent markets contend on
//! independent locks — the service-level analogue of the paper's
//! observation that independent managed state variables have independent
//! series.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sereth_chain::txpool::{PoolEvent, TxPool};
use sereth_core::hms::{HmsConfig, HmsOutcome, HmsView};
use sereth_core::outcome_from_nodes;
use sereth_core::process::{filter_one, PendingTx, TxnNode};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_telemetry::{Counter, Telemetry};
use sereth_types::transaction::Transaction;
use sereth_vm::abi::Selector;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct RaaConfig {
    /// Number of contract shards (locks). More shards, less read/write
    /// contention across independent markets.
    pub shards: usize,
    /// The Sereth `set` selector (Algorithm 2's SIGNATURE filter).
    pub set_selector: Selector,
    /// HMS extension toggles, applied identically to every contract.
    pub hms: HmsConfig,
}

impl RaaConfig {
    /// A default configuration for `set_selector` (8 shards, baseline
    /// HMS).
    pub fn new(set_selector: Selector) -> Self {
        Self { shards: 8, set_selector, hms: HmsConfig::default() }
    }
}

/// The service's counters, registered as `raa.*` in a telemetry
/// registry (updated lock-free on the read and event paths). They are
/// monotone event counts with no cross-counter invariants, so a reader
/// may observe a torn aggregate mid-update; that is fine for monitoring.
/// Because they live in the registry, a node-wide snapshot and the
/// Prometheus/JSON exporters carry them without the service summing
/// anything itself.
#[derive(Debug, Clone)]
struct RaaCounters {
    /// `raa.hits`: views served straight from a clean cache.
    hits: Counter,
    /// `raa.rebuilds`: views that had to rebuild the contract's series
    /// graph first.
    rebuilds: Counter,
    /// `raa.events_applied`: pool events applied across shards.
    events: Counter,
    /// `raa.events_filtered`: events ignored because the transaction is
    /// not a tracked Sereth `set` (foreign traffic filtered by
    /// Algorithm 2).
    filtered: Counter,
    /// `raa.resyncs`: full resynchronisations after event-buffer lag.
    resyncs: Counter,
}

impl RaaCounters {
    fn register(telemetry: &Telemetry) -> Self {
        Self {
            hits: telemetry.counter("raa.hits"),
            rebuilds: telemetry.counter("raa.rebuilds"),
            events: telemetry.counter("raa.events_applied"),
            filtered: telemetry.counter("raa.events_filtered"),
            resyncs: telemetry.counter("raa.resyncs"),
        }
    }
}

/// One contract's incrementally-maintained state.
#[derive(Debug, Default)]
struct ContractCache {
    /// Filtered `set` nodes in pool-arrival order — exactly what
    /// `process()` would return over a snapshot.
    nodes: BTreeMap<u64, TxnNode>,
    /// The committed `(mark, value)` the cached outcome was built with.
    committed: (H256, H256),
    /// The cached outcome; `None` means dirty (events arrived since).
    outcome: Option<HmsOutcome>,
}

#[derive(Debug, Default)]
struct Shard {
    contracts: HashMap<Address, ContractCache>,
    /// Tracked set-transaction hash → (contract, arrival_seq), so
    /// `Removed`/`Committed` events resolve in O(1).
    by_hash: HashMap<H256, (Address, u64)>,
}

/// The incremental, concurrent RAA view service (see crate docs).
pub struct RaaService {
    config: RaaConfig,
    shards: Vec<RwLock<Shard>>,
    counters: RaaCounters,
    /// Serialises event application; readers never take it.
    sync_cursor: Mutex<u64>,
}

impl RaaService {
    /// Builds a service from `config` (`config.shards` is clamped to at
    /// least 1) with its own (enabled) telemetry hub.
    pub fn new(config: RaaConfig) -> Self {
        Self::with_telemetry(config, Arc::new(Telemetry::enabled()))
    }

    /// Builds a service recording into a shared `telemetry` hub — what
    /// a node does so `raa.*` counters land in the node-wide registry.
    /// With a disabled hub the counters record nothing.
    pub fn with_telemetry(config: RaaConfig, telemetry: Arc<Telemetry>) -> Self {
        let shard_count = config.shards.max(1);
        Self {
            config,
            shards: (0..shard_count).map(|_| RwLock::new(Shard::default())).collect(),
            counters: RaaCounters::register(&telemetry),
            sync_cursor: Mutex::new(0),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &RaaConfig {
        &self.config
    }

    fn shard_index(&self, contract: &Address) -> usize {
        (sereth_crypto::hash::fnv1a_64(contract.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Applies every pool event since the service's cursor. On
    /// [`EventLag`](sereth_chain::txpool::EventLag) the service rebuilds
    /// from a full snapshot (counted on `raa.resyncs`).
    pub fn sync(&self, pool: &TxPool) {
        let mut cursor = self.sync_cursor.lock();
        match pool.events_since(*cursor) {
            Ok(records) => {
                // Advance exactly past what was read: the pool is shared
                // with concurrent submitters now, so re-reading the head
                // cursor after the drain could skip events appended in
                // between.
                if let Some(last) = records.last() {
                    *cursor = last.seq + 1;
                }
                for record in records {
                    self.apply_event(&record.event);
                }
            }
            Err(_lag) => {
                *cursor = self.rebuild_from(pool);
                self.counters.resyncs.inc();
            }
        }
    }

    /// Drops every cache and re-ingests an atomic pool snapshot,
    /// returning the event cursor that immediately follows the snapshot
    /// (so applying later events to the rebuilt caches is gap-free).
    /// Public so integrators can force-reconcile (e.g. after swapping
    /// pools); the service's own cursor is **not** touched — use
    /// [`RaaService::sync`] for cursor management.
    pub fn rebuild_from(&self, pool: &TxPool) -> u64 {
        let (entries, cursor) = pool.snapshot_with_cursor();
        for shard in &self.shards {
            let mut guard = shard.write();
            guard.contracts.clear();
            guard.by_hash.clear();
        }
        for entry in &entries {
            self.ingest(&entry.tx, entry.arrival_seq);
        }
        cursor
    }

    /// Applies a single pool event.
    pub fn apply_event(&self, event: &PoolEvent) {
        match event {
            PoolEvent::Inserted { tx, arrival_seq } => self.ingest(tx, *arrival_seq),
            PoolEvent::Removed { hash, to } | PoolEvent::Committed { hash, to } => {
                let Some(contract) = to else { return };
                let index = self.shard_index(contract);
                let mut shard = self.shards[index].write();
                let Some((owner, seq)) = shard.by_hash.remove(hash) else {
                    self.counters.filtered.inc();
                    return;
                };
                if let Some(cache) = shard.contracts.get_mut(&owner) {
                    cache.nodes.remove(&seq);
                    cache.outcome = None;
                    if cache.nodes.is_empty() {
                        // Keep the map bounded by *live* contracts: the
                        // empty-cache query path serves the committed
                        // view without an entry, so nothing is lost.
                        shard.contracts.remove(&owner);
                    }
                }
                self.counters.events.inc();
            }
        }
    }

    fn ingest(&self, tx: &Transaction, arrival_seq: u64) {
        let Some(contract) = tx.to() else { return };
        let index = self.shard_index(&contract);
        let pending = PendingTx {
            hash: tx.hash(),
            sender: tx.sender(),
            to: Some(contract),
            input: tx.input().clone(),
            arrival_seq,
        };
        let Some(node) = filter_one(&pending, &contract, self.config.set_selector) else {
            self.counters.filtered.inc();
            return;
        };
        let mut shard = self.shards[index].write();
        shard.by_hash.insert(pending.hash, (contract, arrival_seq));
        let cache = shard.contracts.entry(contract).or_default();
        cache.nodes.insert(arrival_seq, node);
        cache.outcome = None;
        self.counters.events.inc();
    }

    /// The READ-UNCOMMITTED view of `contract` given its committed
    /// `(mark, value)` — byte-identical to batch
    /// [`hash_mark_set`](sereth_core::hash_mark_set) over a pool
    /// snapshot at the service's cursor.
    pub fn view(&self, contract: &Address, committed: (H256, H256)) -> HmsView {
        self.outcome(contract, committed).view
    }

    /// Like [`RaaService::view`] but returns the full outcome, series
    /// included (what a semantic miner consumes).
    pub fn outcome(&self, contract: &Address, committed: (H256, H256)) -> HmsOutcome {
        let index = self.shard_index(contract);
        let counters = &self.counters;
        {
            let shard = self.shards[index].read();
            match shard.contracts.get(contract) {
                Some(cache) if cache.committed == committed => {
                    if let Some(outcome) = &cache.outcome {
                        counters.hits.inc();
                        return outcome.clone();
                    }
                }
                Some(_) => {}
                None => {
                    // Never saw a set for this contract: the filtered
                    // list is empty and Algorithm 1 line 4 serves the
                    // committed view. No cache entry is created, so
                    // foreign contracts cannot bloat the service.
                    counters.hits.inc();
                    return outcome_from_nodes(Vec::new(), committed, &self.config.hms);
                }
            }
        }

        let mut shard = self.shards[index].write();
        let Some(cache) = shard.contracts.get_mut(contract) else {
            counters.hits.inc();
            return outcome_from_nodes(Vec::new(), committed, &self.config.hms);
        };
        // Double-check under the write lock: another thread may have
        // rebuilt while we waited.
        if cache.committed == committed {
            if let Some(outcome) = &cache.outcome {
                counters.hits.inc();
                return outcome.clone();
            }
        }
        let nodes: Vec<TxnNode> = cache.nodes.values().cloned().collect();
        let outcome = outcome_from_nodes(nodes, committed, &self.config.hms);
        cache.committed = committed;
        cache.outcome = Some(outcome.clone());
        counters.rebuilds.inc();
        outcome
    }

    /// Filtered `set` transactions currently cached across contracts —
    /// a cache size (a walk of the shards), not a counter.
    pub fn tracked_nodes(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().by_hash.len()).sum()
    }
}

impl core::fmt::Debug for RaaService {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RaaService")
            .field("shards", &self.shards.len())
            .field("tracked_nodes", &self.tracked_nodes())
            .finish()
    }
}
