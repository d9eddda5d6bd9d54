//! The pool's state behind its one lock: the per-sender nonce queues and
//! the two secondary indexes that every insert, replacement, removal,
//! commit, prune and eviction updates in place.
//!
//! * **price index** — every entry keyed `(gas_price, !arrival, sender,
//!   nonce)`. Its minimum is the capacity-eviction victim in O(log n). A
//!   fee-priority read is a lazy merge: walk the index descending, keep a
//!   per-sender nonce cursor seeded from the caller's `base_nonce` on
//!   first touch (so stale and gapped entries are skipped exactly, not
//!   deferred to the next `prune_stale`), promote each emitted sender's
//!   next nonce into a side heap when the walk has already passed it, and
//!   always take the larger of (next walk entry, heap top) — `O(k log k)`
//!   for `k` returned candidates, where a repeated-selection walk over
//!   the sender queues would be `O(k · senders)`.
//! * **market book** — per contract, the arrival-ordered `set`/`buy`
//!   entries with their [`Fpv`] parsed once at insert, so semantic/PWV
//!   miners never re-decode calldata per block, plus the contract's cached
//!   Algorithm 1 view. Only inserting or removing one of the contract's
//!   `set` entries drops that cache; `buy`s and foreign traffic leave it
//!   valid.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::ops::RangeBounds;

use sereth_core::fpv::{Fpv, BUY_SELECTOR, SET_SELECTOR};
use sereth_core::hms::{hash_mark_set, HmsConfig, HmsView};
use sereth_core::process::PendingTx;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_types::transaction::Transaction;
use sereth_types::SimTime;

use super::{PoolCounters, PoolEntry};

/// Which market call a [`MarketEntry`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketKind {
    /// A `set` — the managed write that advances the mark chain.
    Set,
    /// A `buy` — a dependent read whose offer words reference a mark.
    Buy,
}

/// One pre-parsed market transaction from the per-contract book.
#[derive(Debug, Clone)]
pub struct MarketEntry {
    /// The pooled transaction.
    pub tx: Transaction,
    /// Its global arrival sequence number.
    pub arrival_seq: u64,
    /// `set` or `buy`, by calldata selector.
    pub kind: MarketKind,
    /// The FPV words, when the calldata carried all three (`None` for a
    /// selector-matched but malformed payload — HMS filters those the
    /// same way whether or not they are booked).
    pub fpv: Option<Fpv>,
}

impl MarketEntry {
    /// Classifies `tx`: `Some` iff it calls a contract with
    /// [`SET_SELECTOR`] or [`BUY_SELECTOR`]. The rule the market book
    /// files every insert by.
    pub fn classify(tx: &Transaction, arrival_seq: u64) -> Option<Self> {
        tx.to()?;
        let input = tx.input();
        if input.len() < 4 {
            return None;
        }
        let kind = if input[..4] == SET_SELECTOR {
            MarketKind::Set
        } else if input[..4] == BUY_SELECTOR {
            MarketKind::Buy
        } else {
            return None;
        };
        Some(Self { tx: tx.clone(), arrival_seq, kind, fpv: Fpv::from_calldata(input) })
    }

    /// The entry as Hash-Mark-Set sees it (the calldata is shared, not
    /// copied).
    pub fn pending(&self) -> PendingTx {
        pending(&self.tx, self.arrival_seq)
    }
}

/// `tx` as Hash-Mark-Set sees it.
pub(super) fn pending(tx: &Transaction, arrival_seq: u64) -> PendingTx {
    PendingTx { hash: tx.hash(), sender: tx.sender(), to: tx.to(), input: tx.input().clone(), arrival_seq }
}

/// A price-index key: ordering ascending by `(gas_price, !arrival_seq)`
/// and walking backwards yields price-descending, arrival-ascending — the
/// fee-priority order with the miner's arrival tie-break.
type PriceKey = (u64, u64, Address, u64);

fn price_key(entry: &PoolEntry) -> PriceKey {
    (entry.tx.gas_price(), !entry.arrival_seq, entry.tx.sender(), entry.tx.nonce())
}

/// One contract's market book.
#[derive(Debug, Clone, Default)]
struct MarketBook {
    /// `set`/`buy` entries keyed by arrival sequence.
    entries: BTreeMap<u64, MarketEntry>,
    /// How many of `entries` are `set`s.
    sets: usize,
    /// The last Algorithm 1 result; `None` once a `set` came or went.
    view: Option<CachedView>,
}

/// A cached view and the inputs it was computed from.
#[derive(Debug, Clone)]
struct CachedView {
    committed: (H256, H256),
    config: HmsConfig,
    view: HmsView,
}

/// Everything the pool's mutex guards (see module docs).
#[derive(Debug, Clone, Default)]
pub(super) struct PoolState {
    /// Per-sender nonce-ordered queues: the pool itself.
    senders: HashMap<Address, BTreeMap<u64, PoolEntry>>,
    /// Hash → (sender, nonce).
    by_hash: HashMap<H256, (Address, u64)>,
    /// The price index; `first()` is the eviction victim (cheapest,
    /// newest arrival on ties).
    by_price: BTreeSet<PriceKey>,
    /// The market book, per contract.
    markets: HashMap<Address, MarketBook>,
    /// Arrival sequence number the next admitted transaction gets.
    next_arrival: u64,
}

impl PoolState {
    /// Number of pooled transactions.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// `true` if `hash` is pooled.
    pub fn contains(&self, hash: &H256) -> bool {
        self.by_hash.contains_key(hash)
    }

    /// The pooled entry at `(sender, nonce)`.
    pub fn get(&self, sender: &Address, nonce: u64) -> Option<&PoolEntry> {
        self.senders.get(sender)?.get(&nonce)
    }

    /// Where `hash` is pooled.
    pub fn locate(&self, hash: &H256) -> Option<(Address, u64)> {
        self.by_hash.get(hash).copied()
    }

    /// Every sender's nonce queue (in no particular order).
    pub fn queues(&self) -> impl Iterator<Item = (&Address, &BTreeMap<u64, PoolEntry>)> {
        self.senders.iter()
    }

    /// Every entry, in arrival order.
    pub fn by_arrival(&self) -> Vec<&PoolEntry> {
        let mut entries: Vec<&PoolEntry> = self.senders.values().flat_map(BTreeMap::values).collect();
        entries.sort_by_key(|entry| entry.arrival_seq);
        entries
    }

    /// The cheapest entry's `(gas_price, sender, nonce)` — the
    /// capacity-eviction victim (cheapest price, newest arrival on ties).
    pub fn cheapest(&self) -> Option<(u64, Address, u64)> {
        self.by_price.first().map(|&(price, _, sender, nonce)| (price, sender, nonce))
    }

    /// Stamps `tx` with the next arrival sequence number and files it in
    /// the queues and both indexes. The `(sender, nonce)` slot must be
    /// free.
    pub fn add(&mut self, tx: Transaction, now: SimTime) {
        let arrival_seq = self.next_arrival;
        self.next_arrival += 1;
        if let (Some(to), Some(entry)) = (tx.to(), MarketEntry::classify(&tx, arrival_seq)) {
            let book = self.markets.entry(to).or_default();
            if entry.kind == MarketKind::Set {
                book.sets += 1;
                book.view = None;
            }
            book.entries.insert(arrival_seq, entry);
        }
        let entry = PoolEntry { tx, arrival_seq, arrival_time: now };
        let (sender, nonce) = (entry.tx.sender(), entry.tx.nonce());
        self.by_hash.insert(entry.tx.hash(), (sender, nonce));
        self.by_price.insert(price_key(&entry));
        self.senders.entry(sender).or_default().insert(nonce, entry);
    }

    /// Removes the entry at `(sender, nonce)` from the queues and both
    /// indexes.
    pub fn remove(&mut self, sender: &Address, nonce: u64) -> Option<PoolEntry> {
        let queue = self.senders.get_mut(sender)?;
        let entry = queue.remove(&nonce)?;
        if queue.is_empty() {
            self.senders.remove(sender);
        }
        self.by_hash.remove(&entry.tx.hash());
        self.by_price.remove(&price_key(&entry));
        if let Some(contract) = entry.tx.to() {
            if let Some(book) = self.markets.get_mut(&contract) {
                if let Some(booked) = book.entries.remove(&entry.arrival_seq) {
                    if booked.kind == MarketKind::Set {
                        book.sets -= 1;
                        book.view = None;
                    }
                    if book.entries.is_empty() {
                        self.markets.remove(&contract);
                    }
                }
            }
        }
        Some(entry)
    }

    /// Removes `sender`'s entries whose nonces fall in `nonces`.
    pub fn remove_nonces(&mut self, sender: &Address, nonces: impl RangeBounds<u64>) {
        let doomed: Vec<u64> = self
            .senders
            .get(sender)
            .map(|queue| queue.range(nonces).map(|(nonce, _)| *nonce).collect())
            .unwrap_or_default();
        for nonce in doomed {
            self.remove(sender, nonce);
        }
    }

    /// All booked `set`/`buy` entries of `contract`, arrival-ordered.
    pub fn market(&self, contract: &Address) -> Vec<MarketEntry> {
        self.markets.get(contract).map(|book| book.entries.values().cloned().collect()).unwrap_or_default()
    }

    /// Algorithm 1 over `contract`'s booked `set`s, served from the
    /// book's cache when it was computed from the same `committed` and
    /// `config`. A contract with no pooled `set` serves its committed view
    /// (Algorithm 1 line 4) without a cache.
    pub fn market_view(
        &mut self,
        contract: &Address,
        committed: (H256, H256),
        config: &HmsConfig,
        counters: &PoolCounters,
    ) -> HmsView {
        let Some(book) = self.markets.get_mut(contract).filter(|book| book.sets > 0) else {
            counters.view_hits.inc();
            return hash_mark_set(&[], contract, SET_SELECTOR, committed, config).view;
        };
        if let Some(cached) = &book.view {
            if cached.committed == committed && cached.config == *config {
                counters.view_hits.inc();
                return cached.view;
            }
        }
        let sets: Vec<PendingTx> = book
            .entries
            .values()
            .filter(|entry| entry.kind == MarketKind::Set)
            .map(MarketEntry::pending)
            .collect();
        let view = hash_mark_set(&sets, contract, SET_SELECTOR, committed, config).view;
        book.view = Some(CachedView { committed, config: config.clone(), view });
        counters.view_rebuilds.inc();
        view
    }

    /// The fee-priority ready order (see module docs): price-descending
    /// with arrival tie-break, nonce-exact against the caller's
    /// `base_nonce` — stale entries (nonce below base) and gapped entries
    /// (nonce above the sender's next selectable nonce) are skipped in
    /// place, so the result is exact for every pool shape, including pools
    /// whose `prune_stale` has not yet caught up with the latest import.
    ///
    /// Why the walk is exact: it merges two price-descending streams —
    /// the price index walked backwards and a heap of *promoted
    /// successors* (the next nonce of each emitted sender, pushed only
    /// when the walk has already passed its key, otherwise the walk itself
    /// will reach it). At every step each sender's next selectable entry
    /// (its cursor nonce) is either ahead of the walk or in the heap, so
    /// taking the larger of (heap top, next walk entry) and skipping
    /// cursor mismatches always emits the globally best selectable entry —
    /// the greedy choice a repeated-selection walk over every sender's
    /// next nonce would make.
    pub fn ready_by_price(&self, base_nonce: &dyn Fn(&Address) -> u64) -> Vec<Transaction> {
        let mut out = Vec::new();
        let mut walk = self.by_price.iter().rev().peekable();
        // Promoted nonce-chain successors, keyed like `by_price`.
        let mut heap: BinaryHeap<PriceKey> = BinaryHeap::new();
        // Each sender's next selectable nonce, seeded from `base_nonce`
        // the first time the walk meets the sender.
        let mut cursors: HashMap<Address, u64> = HashMap::new();
        loop {
            let from_heap = match (heap.peek(), walk.peek()) {
                (Some(&(hp, hr, _, _)), Some(&&(wp, wr, _, _))) => (hp, hr) > (wp, wr),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (sender, nonce) = if from_heap {
                let (_, _, sender, nonce) = heap.pop().expect("peeked above");
                (sender, nonce)
            } else {
                let &(_, _, sender, nonce) = walk.next().expect("peeked above");
                let cursor = *cursors.entry(sender).or_insert_with(|| base_nonce(&sender));
                if nonce != cursor {
                    // Below: stale (already mined, or emitted earlier via
                    // the heap). Above: blocked behind a gap or a cheaper
                    // predecessor the walk has not reached yet — if that
                    // predecessor is emitted later, this entry re-enters
                    // through the successor heap.
                    continue;
                }
                (sender, nonce)
            };
            let queue = self.senders.get(&sender).expect("emitted sender has a queue");
            let entry = queue.get(&nonce).expect("emitted nonce is pooled");
            out.push(entry.tx.clone());
            if let Some(next_nonce) = nonce.checked_add(1) {
                cursors.insert(sender, next_nonce);
                if let Some(next) = queue.get(&next_nonce) {
                    let key = price_key(next);
                    // Promote only entries the walk already passed; the
                    // walk reaches the rest on its own.
                    let passed = match walk.peek() {
                        Some(&&ahead) => key > ahead,
                        None => true,
                    };
                    if passed {
                        heap.push(key);
                    }
                }
            }
        }
        out
    }
}
