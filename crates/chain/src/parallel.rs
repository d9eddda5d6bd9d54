//! Conflict-aware parallel block execution.
//!
//! The sequential builder applies transactions one by one; nothing about
//! block semantics *requires* that — only the result must equal the
//! sequential history. This module executes a candidate list in **waves**:
//!
//! 1. **Plan.** The next window of candidates is split into transactions
//!    worth speculating and transactions scheduled for in-order execution:
//!    a sender's second transaction in the window serializes behind its
//!    first (nonce chains), and plain transfers whose statically-known
//!    footprint ([`AccessKey`] sets) collides with an earlier window-mate
//!    are serialized up front instead of wasting a speculation.
//! 2. **Speculate.** Every planned transaction executes on its own
//!    journaled overlay (`SpecStorage`) over one shared, frozen
//!    [`StateView`] of the wave base, concurrently under
//!    [`std::thread::scope`]. Execution runs the *same* algorithm as the
//!    sequential path (`apply_tx_inner`) and records the exact
//!    read/write [`AccessSet`] it observed, in the footprint vocabulary
//!    of `sereth_vm::access`, including its chain-level nonce/code keys.
//! 3. **Merge.** Journals merge strictly in canonical order. A speculation
//!    is still valid iff nothing it *read* was written by a transaction
//!    merged after the wave base was frozen (tracked in a dirty-key set).
//!    A mis-speculation falls back to sequential re-execution against the
//!    live state — observably counted in [`ExecStats::fallbacks`] — so the
//!    merged history is byte-equivalent to the sequential one: same state
//!    root, receipts, gas, and logs (proven by the
//!    `parallel_exec_props` property suite).
//!
//! Miner fees are the one deliberate departure from literal replay: every
//! transaction credits the miner, which would serialize everything on one
//! balance. `apply_tx_inner` defers the fee, the merge applies it in
//! canonical order (credits commute into an identical sum), and the
//! miner's balance key is marked dirty so any transaction that genuinely
//! *reads* it falls back.
//!
//! Blocks whose conflict ratio makes speculation a net loss degrade
//! gracefully: when more than half of a wave mis-speculates, subsequent
//! windows run sequentially, with exponentially backed-off probe waves to
//! detect when parallelism starts paying again.
//!
//! The wave loop itself is policy-free: `run_waves` drives planning,
//! speculation, and in-order merging against a `WaveSink` that decides
//! what *inclusion* means. The block builder's sink admits against block
//! limits and counts skips; replay validation's sink
//! ([`crate::validation`]) admits everything and aborts on the first
//! apply error — so building, validating, and the sequential baseline all
//! run the one [`TxState`] transaction algorithm and provably cannot
//! drift.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_telemetry::{Counter, Phase, Telemetry};
use sereth_types::receipt::Receipt;
use sereth_types::transaction::Transaction;
use sereth_types::u256::U256;
use sereth_vm::access::{AccessKey, AccessSet};
use sereth_vm::exec::{ContractCode, Storage};

use crate::builder::BlockLimits;
use crate::executor::{apply_transaction, apply_tx_inner, BlockEnv, TxApplyError, TxState};
use crate::state::{StateDb, StateView};

/// How a block's transactions execute: the builder's pass over its
/// candidate list and replay validation's pass over a published body
/// take the same mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The classic one-by-one loop (the baseline and the default).
    #[default]
    Sequential,
    /// Conflict-aware optimistic execution in waves. Sealed blocks are
    /// byte-identical to [`ExecMode::Sequential`]'s and replay verdicts
    /// are identical, honest or tampered.
    Parallel {
        /// Worker threads per wave (clamped to at least 1).
        threads: usize,
    },
}

/// Counters describing how a block (or a node's lifetime of blocks) was
/// executed. All additive; [`ExecStats::absorb`] accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Speculation waves run (parallel mode only).
    pub waves: u64,
    /// Transactions executed optimistically against a wave base.
    pub speculated: u64,
    /// Speculations that merged without re-execution.
    pub fast_commits: u64,
    /// Speculations invalidated at merge (observed reads hit a dirty key)
    /// and re-executed sequentially — the mis-prediction counter.
    pub fallbacks: u64,
    /// Transactions executed sequentially by plan: nonce chains, predicted
    /// static conflicts, and adaptive high-conflict windows.
    pub sequential_txs: u64,
}

impl ExecStats {
    /// Adds `other`'s counters into `self`.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.waves += other.waves;
        self.speculated += other.speculated;
        self.fast_commits += other.fast_commits;
        self.fallbacks += other.fallbacks;
        self.sequential_txs += other.sequential_txs;
    }
}

/// Registry-backed [`ExecStats`] accumulation: five named counters in a
/// telemetry registry, absorbable lock-free from any thread and
/// readable back as a plain [`ExecStats`] without any node or store
/// lock. This is what unifies the node's lifetime executor stats and
/// the store's validation stats over the one telemetry substrate.
///
/// Registered under `<prefix>.waves`, `<prefix>.speculated`,
/// `<prefix>.fast_commits`, `<prefix>.fallbacks`, and
/// `<prefix>.sequential_txs`. Cloning shares the cells. When the
/// owning telemetry hub is disabled the counters are inert and
/// [`ExecStatsCells::snapshot`] reads zero.
#[derive(Debug, Clone)]
pub struct ExecStatsCells {
    waves: Counter,
    speculated: Counter,
    fast_commits: Counter,
    fallbacks: Counter,
    sequential_txs: Counter,
}

impl ExecStatsCells {
    /// Registers (or re-resolves) the five counters under `prefix`.
    pub fn register(telemetry: &Telemetry, prefix: &str) -> Self {
        Self {
            waves: telemetry.counter(&format!("{prefix}.waves")),
            speculated: telemetry.counter(&format!("{prefix}.speculated")),
            fast_commits: telemetry.counter(&format!("{prefix}.fast_commits")),
            fallbacks: telemetry.counter(&format!("{prefix}.fallbacks")),
            sequential_txs: telemetry.counter(&format!("{prefix}.sequential_txs")),
        }
    }

    /// Adds one block's counters into the cells (atomic, lock-free).
    pub fn absorb(&self, stats: &ExecStats) {
        self.waves.add(stats.waves);
        self.speculated.add(stats.speculated);
        self.fast_commits.add(stats.fast_commits);
        self.fallbacks.add(stats.fallbacks);
        self.sequential_txs.add(stats.sequential_txs);
    }

    /// The accumulated totals as a plain value.
    pub fn snapshot(&self) -> ExecStats {
        ExecStats {
            waves: self.waves.get(),
            speculated: self.speculated.get(),
            fast_commits: self.fast_commits.get(),
            fallbacks: self.fallbacks.get(),
            sequential_txs: self.sequential_txs.get(),
        }
    }
}

/// What executing a candidate list produced (mode-independent shape).
#[derive(Default)]
pub(crate) struct ExecOutcome {
    pub included: Vec<Transaction>,
    pub receipts: Vec<Receipt>,
    pub gas_used: u64,
    pub skipped: usize,
    pub stats: ExecStats,
}

/// Undo-log entry of [`SpecStorage`]: `None` priors mean "no overlay entry
/// existed", so a revert restores the exact overlay shape — entries that
/// only ever held rolled-back writes vanish again, and the final maps are
/// precisely the transaction's surviving net effect.
enum SpecUndo {
    Balance(Address, Option<U256>),
    Nonce(Address, Option<u64>),
    Code(Address, Option<ContractCode>),
    Slot(Address, H256, Option<H256>),
    Created(Address),
}

/// A journaled, access-recording overlay over a frozen [`StateView`] —
/// the speculative counterpart of [`StateDb`], mirroring its mutation
/// semantics (account auto-creation, no-op storage writes skipped,
/// zero-slot removal expressed as an explicit zero entry) entry for entry.
///
/// Reads arrive through `&self` trait methods, so the access set sits in a
/// `RefCell`; each instance lives entirely inside one worker.
struct SpecStorage<'a> {
    base: &'a StateView,
    balances: HashMap<Address, U256>,
    nonces: HashMap<Address, u64>,
    codes: HashMap<Address, ContractCode>,
    slots: HashMap<(Address, H256), H256>,
    created: HashSet<Address>,
    undo: Vec<SpecUndo>,
    access: RefCell<AccessSet>,
}

impl<'a> SpecStorage<'a> {
    fn new(base: &'a StateView) -> Self {
        Self {
            base,
            balances: HashMap::new(),
            nonces: HashMap::new(),
            codes: HashMap::new(),
            slots: HashMap::new(),
            created: HashSet::new(),
            undo: Vec::new(),
            access: RefCell::new(AccessSet::new()),
        }
    }

    fn read(&self, key: AccessKey) {
        self.access.borrow_mut().read(key);
    }

    fn wrote(&self, key: AccessKey) {
        self.access.borrow_mut().wrote(key);
    }

    fn exists(&self, address: &Address) -> bool {
        self.created.contains(address) || self.base.account(address).is_some()
    }

    fn ensure(&mut self, address: &Address) {
        if !self.exists(address) {
            self.created.insert(*address);
            self.undo.push(SpecUndo::Created(*address));
        }
    }

    fn set_balance(&mut self, address: &Address, balance: U256) {
        self.ensure(address);
        self.wrote(AccessKey::Balance(*address));
        let prev = self.balances.insert(*address, balance);
        self.undo.push(SpecUndo::Balance(*address, prev));
    }

    fn access_snapshot(&self) -> AccessSet {
        self.access.borrow().clone()
    }

    fn into_commit(self, receipt: Receipt, fee: U256) -> SpecCommit {
        SpecCommit {
            receipt,
            fee,
            created: {
                let mut created: Vec<Address> = self.created.into_iter().collect();
                created.sort();
                created
            },
            balances: self.balances.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect(),
            nonces: self.nonces.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect(),
            codes: self.codes.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect(),
            slots: self.slots.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect(),
        }
    }
}

impl Storage for SpecStorage<'_> {
    fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        self.read(AccessKey::Slot(*address, *key));
        match self.slots.get(&(*address, *key)) {
            Some(value) => *value,
            None => self.base.storage_get(address, key),
        }
    }

    fn storage_set(&mut self, address: &Address, key: H256, value: H256) {
        // Mirrors `StateDb::storage_set`: the no-op check *reads* the slot
        // (recorded — it makes the write's survival depend on prior state).
        let prev = self.storage_get(address, &key);
        if prev == value {
            return;
        }
        self.ensure(address);
        self.wrote(AccessKey::Slot(*address, key));
        let overlay_prev = self.slots.insert((*address, key), value);
        self.undo.push(SpecUndo::Slot(*address, key, overlay_prev));
    }

    fn code_get(&self, address: &Address) -> ContractCode {
        self.read(AccessKey::Code(*address));
        match self.codes.get(address) {
            Some(code) => code.clone(),
            None => self.base.code_of(address),
        }
    }

    fn balance_get(&self, address: &Address) -> U256 {
        self.read(AccessKey::Balance(*address));
        match self.balances.get(address) {
            Some(balance) => *balance,
            None => self.base.balance_of(address),
        }
    }

    fn transfer(&mut self, from: &Address, to: &Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        if !TxState::debit(self, from, value) {
            return false;
        }
        TxState::credit(self, to, value);
        true
    }

    fn checkpoint(&self) -> usize {
        self.undo.len()
    }

    fn revert_checkpoint(&mut self, checkpoint: usize) {
        while self.undo.len() > checkpoint {
            match self.undo.pop().expect("length checked") {
                SpecUndo::Balance(address, Some(prev)) => {
                    self.balances.insert(address, prev);
                }
                SpecUndo::Balance(address, None) => {
                    self.balances.remove(&address);
                }
                SpecUndo::Nonce(address, Some(prev)) => {
                    self.nonces.insert(address, prev);
                }
                SpecUndo::Nonce(address, None) => {
                    self.nonces.remove(&address);
                }
                SpecUndo::Code(address, Some(prev)) => {
                    self.codes.insert(address, prev);
                }
                SpecUndo::Code(address, None) => {
                    self.codes.remove(&address);
                }
                SpecUndo::Slot(address, key, Some(prev)) => {
                    self.slots.insert((address, key), prev);
                }
                SpecUndo::Slot(address, key, None) => {
                    self.slots.remove(&(address, key));
                }
                SpecUndo::Created(address) => {
                    self.created.remove(&address);
                }
            }
        }
    }
}

impl TxState for SpecStorage<'_> {
    fn nonce_of(&self, address: &Address) -> u64 {
        self.read(AccessKey::Nonce(*address));
        match self.nonces.get(address) {
            Some(nonce) => *nonce,
            None => self.base.nonce_of(address),
        }
    }

    fn set_nonce(&mut self, address: &Address, nonce: u64) {
        self.ensure(address);
        self.wrote(AccessKey::Nonce(*address));
        let prev = self.nonces.insert(*address, nonce);
        self.undo.push(SpecUndo::Nonce(*address, prev));
    }

    fn set_code(&mut self, address: &Address, code: ContractCode) {
        self.ensure(address);
        self.wrote(AccessKey::Code(*address));
        let prev = self.codes.insert(*address, code);
        self.undo.push(SpecUndo::Code(*address, prev));
    }

    fn credit(&mut self, address: &Address, amount: U256) {
        let next = Storage::balance_get(self, address) + amount;
        self.set_balance(address, next);
    }

    fn debit(&mut self, address: &Address, amount: U256) -> bool {
        let current = Storage::balance_get(self, address);
        match current.checked_sub(amount) {
            Some(next) => {
                self.set_balance(address, next);
                true
            }
            None => false,
        }
    }
}

/// A speculation's surviving net effect, ready to merge: absolute values
/// per touched key, the accounts whose creation survived, the deferred
/// miner fee, and the receipt (index fixed up at merge time).
struct SpecCommit {
    receipt: Receipt,
    fee: U256,
    created: Vec<Address>,
    balances: Vec<(Address, U256)>,
    nonces: Vec<(Address, u64)>,
    codes: Vec<(Address, ContractCode)>,
    slots: Vec<((Address, H256), H256)>,
}

/// One speculated transaction: the commit (or the admission error the
/// speculation predicts) plus the exact access set it observed — including
/// the reads that *led* to an error, so a stale error re-executes too.
struct SpecOutcome {
    result: Result<SpecCommit, TxApplyError>,
    access: AccessSet,
}

/// Executes `tx` speculatively against the frozen `base`.
fn speculate(base: &StateView, env: &BlockEnv, tx: &Transaction) -> SpecOutcome {
    let mut overlay = SpecStorage::new(base);
    match apply_tx_inner(&mut overlay, env, tx, 0, false) {
        Ok((receipt, fee)) => {
            let access = overlay.access_snapshot();
            SpecOutcome { result: Ok(overlay.into_commit(receipt, fee)), access }
        }
        Err(error) => {
            let access = overlay.access_snapshot();
            SpecOutcome { result: Err(error), access }
        }
    }
}

/// Applies a validated commit to the live state (canonical-order merge
/// step) and returns the receipt with its final block index.
fn apply_commit(state: &mut StateDb, commit: &SpecCommit, miner: &Address, index: u32) -> Receipt {
    for address in &commit.created {
        if state.account(address).is_none() {
            // Materialize the account even if every field is default —
            // exactly what the sequential journal would have left behind.
            state.set_nonce(address, 0);
        }
    }
    for (address, balance) in &commit.balances {
        state.set_balance(address, *balance);
    }
    for (address, nonce) in &commit.nonces {
        state.set_nonce(address, *nonce);
    }
    for (address, code) in &commit.codes {
        state.set_code(address, code.clone());
    }
    for ((address, key), value) in &commit.slots {
        state.storage_set(address, *key, *value);
    }
    state.credit(miner, commit.fee);
    let mut receipt = commit.receipt.clone();
    receipt.index = index;
    receipt
}

/// The statically-known footprint of a plain value transfer (no code at
/// the destination), or `None` when the footprint is dynamic (contract
/// call or creation) and only execution can discover it.
fn static_footprint(tx: &Transaction, base: &StateView) -> Option<AccessSet> {
    let to = tx.to()?; // creation: dynamic (installs code, runs nothing — but address depends on nonce)
    if !base.code_of(&to).is_empty() {
        return None;
    }
    let sender = tx.sender();
    let mut footprint = AccessSet::new();
    footprint.read(AccessKey::Nonce(sender));
    footprint.wrote(AccessKey::Nonce(sender));
    footprint.read(AccessKey::Balance(sender));
    footprint.wrote(AccessKey::Balance(sender));
    footprint.read(AccessKey::Code(to));
    footprint.read(AccessKey::Balance(to));
    footprint.wrote(AccessKey::Balance(to));
    Some(footprint)
}

/// Decides which window transactions are worth speculating (`true`) and
/// which serialize to merge-time execution (`false`): nonce chains and
/// statically predicted write collisions.
fn plan_wave(chunk: &[Transaction], base: &StateView) -> Vec<bool> {
    let mut senders: HashSet<Address> = HashSet::new();
    let mut predicted_writes: HashSet<AccessKey> = HashSet::new();
    chunk
        .iter()
        .map(|tx| {
            if !senders.insert(tx.sender()) {
                return false; // second tx of a nonce chain in this wave
            }
            match static_footprint(tx, base) {
                Some(footprint) => {
                    // Serialized or not, the transfer's writes will land
                    // before later window-mates merge — predict them.
                    let conflict = footprint.reads.iter().any(|key| predicted_writes.contains(key));
                    predicted_writes.extend(footprint.writes.iter().copied());
                    !conflict // predicted read-after-write: execute in order
                }
                // Dynamic footprint: speculate and let merge validation
                // catch the (unpredictable) conflicts.
                None => true,
            }
        })
        .collect()
}

/// Runs speculation for one wave: `plan[i]`-selected transactions execute
/// concurrently on `threads` workers against the shared `base`.
fn speculate_wave(
    chunk: &[Transaction],
    plan: &[bool],
    base: &StateView,
    env: &BlockEnv,
    threads: usize,
) -> Vec<Option<SpecOutcome>> {
    if threads <= 1 {
        return chunk
            .iter()
            .zip(plan)
            .map(|(tx, speculate_it)| speculate_it.then(|| speculate(base, env, tx)))
            .collect();
    }
    let results: Vec<Mutex<Option<SpecOutcome>>> = chunk.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(chunk.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= chunk.len() {
                    break;
                }
                if !plan[i] {
                    continue;
                }
                let outcome = speculate(base, env, &chunk[i]);
                *results[i].lock().expect("speculation result lock") = Some(outcome);
            });
        }
    });
    results.into_iter().map(|slot| slot.into_inner().expect("workers joined")).collect()
}

/// What the wave driver asks of its consumer: the policy half of the
/// algorithm. [`run_waves`] owns planning, speculation, in-order merging,
/// dirty-key validation, and adaptive degradation; the sink owns admission
/// and what happens to applied/failed transactions. The block builder's
/// sink enforces block limits and counts skips; the replay-validation sink
/// admits everything and aborts on the first error.
pub(crate) trait WaveSink {
    /// Pre-execution admission; `false` means the transaction does not
    /// enter the block at this point (never executed, never merged).
    fn admit(&mut self, tx: &Transaction) -> bool;
    /// The receipt index the next included transaction receives.
    fn next_index(&self) -> u32;
    /// A transaction applied (speculatively merged or executed live).
    fn include(&mut self, tx: &Transaction, receipt: Receipt);
    /// The transaction at absolute candidate position `index` failed to
    /// apply. Returns `false` to abort the whole run (replay validation);
    /// `true` to keep going (the builder records a skip).
    fn reject(&mut self, index: usize, error: TxApplyError) -> bool;
}

/// Drives `candidates` through plan/speculate/merge waves against `state`,
/// feeding results into `sink`. Byte-equivalent to the sequential loop
/// over the same sink. Returns the executor counters; stops early when the
/// sink aborts. Each wave's speculation and merge stages are recorded
/// into `telemetry`'s [`Phase::Speculate`] / [`Phase::Merge`] histograms
/// (free when the hub is disabled). See the module docs for the
/// algorithm.
pub(crate) fn run_waves<S: WaveSink>(
    state: &mut StateDb,
    env: &BlockEnv,
    candidates: &[Transaction],
    threads: usize,
    sink: &mut S,
    telemetry: &Telemetry,
) -> ExecStats {
    let threads = threads.max(1);
    let window = (threads * 8).clamp(8, 64);
    let mut stats = ExecStats::default();

    let mut speculating = true;
    let mut probing = false; // the wave after re-enabling runs narrow
    let mut probe_backoff = 1usize; // sequential windows before re-probing
    let mut sequential_windows = 0usize;
    let mut cursor = 0usize;
    while cursor < candidates.len() {
        let wave_window = if speculating && probing { (window / 4).max(4) } else { window };
        let chunk_base = cursor;
        let end = (cursor + wave_window).min(candidates.len());
        let chunk = &candidates[cursor..end];
        cursor = end;

        if !speculating {
            // Adaptive degradation: this window runs exactly like the
            // sequential builder (no overlays, no views) so a block of
            // pure conflicts costs what sequential execution costs.
            for (offset, tx) in chunk.iter().enumerate() {
                if !sink.admit(tx) {
                    continue;
                }
                stats.sequential_txs += 1;
                match apply_transaction(state, env, tx, sink.next_index()) {
                    Ok(receipt) => sink.include(tx, receipt),
                    Err(error) => {
                        if !sink.reject(chunk_base + offset, error) {
                            return stats;
                        }
                    }
                }
            }
            sequential_windows += 1;
            if sequential_windows >= probe_backoff {
                speculating = true; // probe the next window (narrow)
                probing = true;
                sequential_windows = 0;
            }
            continue;
        }

        stats.waves += 1;
        let base = state.view();
        let plan = plan_wave(chunk, &base);
        let mut results =
            telemetry.time(Phase::Speculate, || speculate_wave(chunk, &plan, &base, env, threads));
        stats.speculated += results.iter().filter(|r| r.is_some()).count() as u64;

        // Merge in canonical order. `dirty` holds every key written to the
        // live state since `base` was frozen (plus the miner's balance,
        // whose fee credits are applied here rather than speculated).
        let mut dirty: HashSet<AccessKey> = HashSet::new();
        let mut wave_conflicts = 0usize;
        let aborted = telemetry.time(Phase::Merge, || {
            for (offset, tx) in chunk.iter().enumerate() {
                if !sink.admit(tx) {
                    continue;
                }
                match results[offset].take() {
                    Some(spec) if !spec.access.reads_hit(&dirty) => match spec.result {
                        Ok(commit) => {
                            stats.fast_commits += 1;
                            let receipt = apply_commit(state, &commit, &env.miner, sink.next_index());
                            dirty.extend(spec.access.writes.iter().copied());
                            dirty.insert(AccessKey::Balance(env.miner));
                            sink.include(tx, receipt);
                        }
                        // A still-valid predicted apply error merges
                        // nothing. Its observed reads survived the dirty
                        // check, so it IS the error the sequential replay
                        // would hit here — safe to hand to the sink as-is.
                        Err(error) => {
                            if !sink.reject(chunk_base + offset, error) {
                                return true;
                            }
                        }
                    },
                    invalid_or_planned => {
                        // Mis-speculation (observed reads no longer match the
                        // pre-state this transaction actually sees) or planned
                        // sequential execution. Either way: run the plain
                        // sequential path against the live state and feed its
                        // journaled write set into the dirty tracker.
                        if invalid_or_planned.is_some() {
                            stats.fallbacks += 1;
                            wave_conflicts += 1;
                        } else {
                            stats.sequential_txs += 1;
                        }
                        let journal_mark = state.checkpoint();
                        match apply_transaction(state, env, tx, sink.next_index()) {
                            Ok(receipt) => {
                                dirty.extend(state.journal_writes_since(journal_mark));
                                sink.include(tx, receipt);
                            }
                            Err(error) => {
                                if !sink.reject(chunk_base + offset, error) {
                                    return true;
                                }
                            }
                        }
                    }
                }
            }
            false
        });
        if aborted {
            return stats;
        }

        if wave_conflicts * 2 > chunk.len() {
            speculating = false;
            probe_backoff = if probing { (probe_backoff * 2).min(32) } else { 1 };
        } else {
            probing = false;
            probe_backoff = 1;
        }
    }
    stats
}

/// The block builder's [`WaveSink`]: admission against block limits,
/// skips counted, never aborts.
struct BuildSink<'a> {
    out: ExecOutcome,
    limits: &'a BlockLimits,
}

impl WaveSink for BuildSink<'_> {
    fn admit(&mut self, tx: &Transaction) -> bool {
        admit(&mut self.out, tx, self.limits)
    }

    fn next_index(&self) -> u32 {
        self.out.included.len() as u32
    }

    fn include(&mut self, tx: &Transaction, receipt: Receipt) {
        include(&mut self.out, tx, receipt);
    }

    fn reject(&mut self, _index: usize, _error: TxApplyError) -> bool {
        self.out.skipped += 1;
        true
    }
}

/// Executes `candidates` in waves against `state`, byte-equivalent to the
/// sequential builder loop: [`run_waves`] under the builder's sink.
pub(crate) fn execute_candidates(
    state: &mut StateDb,
    env: &BlockEnv,
    candidates: &[Transaction],
    limits: &BlockLimits,
    threads: usize,
    telemetry: &Telemetry,
) -> ExecOutcome {
    let mut sink = BuildSink { out: ExecOutcome::default(), limits };
    let stats = run_waves(state, env, candidates, threads, &mut sink, telemetry);
    let mut out = sink.out;
    out.stats = stats;
    out
}

/// The builder's admission checks, shared by every execution path —
/// sequential, speculated wave, and degraded window — so the
/// byte-equivalence invariant cannot drift between copies: block
/// transaction cap and gas capacity. Returns `false` (counting a skip)
/// when the transaction cannot enter the block at this point.
pub(crate) fn admit(out: &mut ExecOutcome, tx: &Transaction, limits: &BlockLimits) -> bool {
    if let Some(max) = limits.max_txs {
        if out.included.len() >= max {
            out.skipped += 1;
            return false;
        }
    }
    if out.gas_used + tx.gas_limit() > limits.gas_limit {
        out.skipped += 1;
        return false;
    }
    true
}

/// Accumulates an applied transaction into the outcome (shared with the
/// sequential builder, like [`admit`]).
pub(crate) fn include(out: &mut ExecOutcome, tx: &Transaction, receipt: Receipt) {
    out.gas_used += receipt.gas_used;
    out.receipts.push(receipt);
    out.included.push(tx.clone());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_block, build_block_with_mode, BlockLimits};
    use crate::genesis::GenesisBuilder;
    use bytes::Bytes;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::block::BlockHeader;
    use sereth_types::transaction::TxPayload;
    use sereth_vm::asm::assemble;

    fn transfer(key: &SecretKey, nonce: u64, to: Address, value: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 21_000,
                to: Some(to),
                value: U256::from(value),
                input: Bytes::new(),
            },
            key,
        )
    }

    fn call_tx(key: &SecretKey, nonce: u64, to: Address) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 100_000,
                to: Some(to),
                value: U256::ZERO,
                input: Bytes::new(),
            },
            key,
        )
    }

    /// Increments its own slot 0 — the canonical conflicting workload.
    fn counter_code() -> Bytes {
        Bytes::from(assemble("PUSH1 0x00\nSLOAD\nPUSH1 0x01\nADD\nPUSH1 0x00\nSSTORE\nSTOP").unwrap())
    }

    fn genesis_with_counter(keys: &[SecretKey], counter: Address) -> (BlockHeader, StateDb) {
        let mut builder = GenesisBuilder::new();
        for key in keys {
            builder = builder.fund(key.address(), U256::from(10_000_000u64));
        }
        let genesis = builder.build();
        let mut state = genesis.state;
        state.set_code(&counter, ContractCode::Bytecode(counter_code()));
        state.clear_journal();
        (genesis.block.header, state)
    }

    #[test]
    fn disjoint_transfers_commit_without_fallbacks() {
        let keys: Vec<SecretKey> = (0..8).map(SecretKey::from_label).collect();
        let (parent, state) = genesis_with_counter(&keys, Address::from_low_u64(0xc0de));
        let candidates: Vec<Transaction> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| transfer(key, 0, Address::from_low_u64(0x9000 + i as u64), 5))
            .collect();
        let sequential = build_block(
            &parent,
            &state,
            candidates.clone(),
            Address::from_low_u64(0xaa),
            15_000,
            &BlockLimits::default(),
        );
        let parallel = build_block_with_mode(
            &parent,
            &state,
            &candidates,
            Address::from_low_u64(0xaa),
            15_000,
            &BlockLimits::default(),
            &ExecMode::Parallel { threads: 4 },
        );
        assert_eq!(parallel.block.hash(), sequential.block.hash());
        assert_eq!(parallel.receipts, sequential.receipts);
        assert_eq!(parallel.post_state.state_root(), sequential.post_state.state_root());
        assert_eq!(parallel.stats.fallbacks, 0, "disjoint transfers never mis-speculate");
        assert_eq!(parallel.stats.fast_commits, 8);
        assert_eq!(sequential.stats.waves, 0, "a sequential build never waves");
        assert_eq!(sequential.stats.speculated, 0);
    }

    #[test]
    fn mis_predicted_write_set_triggers_fallback_without_changing_the_result() {
        // Two contract calls whose (dynamic) write sets collide on the
        // counter's slot 0: the planner cannot see the conflict, the first
        // commits, the second's observed read set hits the dirty key and
        // must fall back — and the block still equals the sequential one.
        let keys: Vec<SecretKey> = (0..2).map(SecretKey::from_label).collect();
        let counter = Address::from_low_u64(0xc0de);
        let (parent, state) = genesis_with_counter(&keys, counter);
        let candidates = vec![call_tx(&keys[0], 0, counter), call_tx(&keys[1], 0, counter)];
        let sequential = build_block(
            &parent,
            &state,
            candidates.clone(),
            Address::from_low_u64(0xaa),
            15_000,
            &BlockLimits::default(),
        );
        let parallel = build_block_with_mode(
            &parent,
            &state,
            &candidates,
            Address::from_low_u64(0xaa),
            15_000,
            &BlockLimits::default(),
            &ExecMode::Parallel { threads: 2 },
        );
        assert_eq!(parallel.block.hash(), sequential.block.hash());
        assert_eq!(parallel.post_state.state_root(), sequential.post_state.state_root());
        assert!(parallel.stats.fallbacks >= 1, "the collision must be observed: {:?}", parallel.stats);
        // The counter really was incremented twice.
        use sereth_vm::exec::Storage as _;
        assert_eq!(parallel.post_state.storage_get(&counter, &H256::ZERO), H256::from_low_u64(2));
    }

    #[test]
    fn nonce_chains_serialize_by_plan_not_by_fallback() {
        let key = SecretKey::from_label(1);
        let (parent, state) = genesis_with_counter(std::slice::from_ref(&key), Address::from_low_u64(0xc0de));
        let candidates: Vec<Transaction> =
            (0..6).map(|n| transfer(&key, n, Address::from_low_u64(0x9000), 1)).collect();
        let sequential = build_block(
            &parent,
            &state,
            candidates.clone(),
            Address::from_low_u64(0xaa),
            15_000,
            &BlockLimits::default(),
        );
        let parallel = build_block_with_mode(
            &parent,
            &state,
            &candidates,
            Address::from_low_u64(0xaa),
            15_000,
            &BlockLimits::default(),
            &ExecMode::Parallel { threads: 4 },
        );
        assert_eq!(parallel.block.hash(), sequential.block.hash());
        assert_eq!(parallel.block.transactions.len(), 6);
        assert_eq!(parallel.stats.fallbacks, 0, "the chain is planned sequential, not mis-speculated");
        assert!(parallel.stats.sequential_txs >= 5);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = ExecStats { waves: 1, speculated: 2, fast_commits: 3, fallbacks: 4, sequential_txs: 5 };
        let b = ExecStats { waves: 10, speculated: 20, fast_commits: 30, fallbacks: 40, sequential_txs: 50 };
        a.absorb(&b);
        assert_eq!(
            a,
            ExecStats { waves: 11, speculated: 22, fast_commits: 33, fallbacks: 44, sequential_txs: 55 }
        );
    }

    #[test]
    fn stats_cells_accumulate_share_and_read_without_locks() {
        let telemetry = Telemetry::enabled();
        let cells = ExecStatsCells::register(&telemetry, "exec");
        let shared = cells.clone(); // clones share the same registry cells
        cells.absorb(&ExecStats {
            waves: 1,
            speculated: 2,
            fast_commits: 3,
            fallbacks: 4,
            sequential_txs: 5,
        });
        shared.absorb(&ExecStats { waves: 1, ..ExecStats::default() });
        assert_eq!(cells.snapshot().waves, 2);
        assert_eq!(shared.snapshot().speculated, 2);
        // The same totals surface in the registry snapshot under the prefix.
        assert_eq!(telemetry.snapshot().counters["exec.sequential_txs"], 5);

        let disabled = ExecStatsCells::register(&Telemetry::disabled(), "exec");
        disabled.absorb(&ExecStats { waves: 9, ..ExecStats::default() });
        assert_eq!(disabled.snapshot(), ExecStats::default(), "disabled hubs record nothing");
    }
}
