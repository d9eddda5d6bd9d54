//! A full network node: chain store, transaction pool, and RAA registry.
//! [`crate::netnode::NetNode`] puts it on the simulated network.
//!
//! A node is either a standard **Geth** client or a modified **Sereth**
//! client (paper §III-B). The only difference — faithfully to the paper —
//! is that the Sereth client compiles in the RAA data service: its RAA
//! registry carries a [`PoolRaaProvider`] over the node's own pool, whose
//! market book caches each contract's Hash-Mark-Set view, so read-only
//! `get`/`mark` calls against the Sereth contract return READ-UNCOMMITTED
//! views.
//! "Deployment of Sereth in the wild would not require a fork" (§V):
//! both kinds interoperate on one network here too, which
//! `tests/interop.rs` exercises.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard, RwLock};
use sereth_chain::builder::{build_block_traced, BlockLimits, BuiltBlock};
use sereth_chain::executor::{call_readonly, BlockEnv};
use sereth_chain::genesis::Genesis;
use sereth_chain::state::{StateDb, StateView};
use sereth_chain::store::{ChainStore, ImportError, ImportOutcome, StateBackendConfig, StoreConfig};
use sereth_chain::txpool::{PoolConfig, TxPool};
use sereth_chain::StoreError;
use sereth_core::hms::HmsConfig;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_raa::PoolRaaProvider;
use sereth_telemetry::{BlockTrace, Histogram, Phase, Telemetry, TelemetryConfig, TelemetrySnapshot};
use sereth_types::block::{Block, BlockHeader};
use sereth_types::transaction::Transaction;
use sereth_types::{IsolationLevel, SimTime};
use sereth_vm::abi;
use sereth_vm::raa::RaaRegistry;

use crate::contract::{get_selector, mark_selector, SLOT_MARK, SLOT_VALUE};
use crate::miner::{committed_amv, order_candidates, MinerPolicy};

/// Standard vs. modified client (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// Unmodified client: state reads are READ-COMMITTED.
    Geth,
    /// HMS-enabled client: RAA serves READ-UNCOMMITTED views.
    Sereth,
}

/// When blocks are produced.
#[derive(Debug, Clone)]
pub enum BlockSchedule {
    /// A block every `interval` milliseconds.
    Fixed(SimTime),
    /// Exponentially distributed inter-block times with the given mean —
    /// memoryless, like proof-of-work.
    Exponential {
        /// Mean interval in milliseconds.
        mean: SimTime,
    },
}

impl BlockSchedule {
    /// Samples the next inter-block delay.
    pub fn next_delay<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        match self {
            Self::Fixed(interval) => (*interval).max(1),
            Self::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                ((-(u.ln()) * *mean as f64) as SimTime).clamp(1, mean.saturating_mul(20))
            }
        }
    }
}

/// Mining configuration for a node.
///
/// `Default` is a standard-ordering miner on a fixed 15 s schedule with
/// the sim's conventional coinbase — the base the
/// [`NodeConfigBuilder`]'s mining setters refine.
#[derive(Debug, Clone)]
pub struct MinerSetup {
    /// Ordering policy.
    pub policy: MinerPolicy,
    /// Production schedule.
    pub schedule: BlockSchedule,
    /// Address credited with fees.
    pub coinbase: Address,
}

impl Default for MinerSetup {
    fn default() -> Self {
        Self {
            policy: MinerPolicy::Standard,
            schedule: BlockSchedule::Fixed(15_000),
            coinbase: Address::from_low_u64(0xc0b0),
        }
    }
}

/// Per-node configuration.
///
/// Construct through [`NodeConfig::builder`] or the presets
/// ([`NodeConfig::geth`], [`NodeConfig::sereth`], [`NodeConfig::miner`]):
/// the builder is the one construction surface, so a new knob (like
/// [`NodeConfig::isolation`]) never again requires touching every
/// call site. The fields stay public for inspection.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Client kind (decides whether RAA/HMS is compiled in).
    pub kind: ClientKind,
    /// Address of the Sereth contract under management.
    pub contract: Address,
    /// Mining setup, if this node mines.
    pub miner: Option<MinerSetup>,
    /// Block capacity limits.
    pub limits: BlockLimits,
    /// HMS extensions (committed-head).
    pub hms: HmsConfig,
    /// Transaction-pool configuration (capacity, replacement bump).
    pub pool: PoolConfig,
    /// The telemetry switch. On by default (the layer is cheap enough to
    /// leave running); disabled, every subsystem records nothing and the
    /// registry stays empty.
    pub telemetry: TelemetryConfig,
    /// Which rung of the isolation ladder this node serves read-only
    /// queries (and miner ordering) at. The default —
    /// [`IsolationLevel::ReadUncommitted`] — is the paper's mode and
    /// preserves the historical behavior of every read path exactly:
    ///
    /// * `ReadUncommitted`: RAA/HMS queries see the pending pool;
    /// * `ReadCommitted`: queries answer from the committed head only,
    ///   and semantic/PWV miner ordering (which reads pending state)
    ///   degrades to standard ordering;
    /// * `Sequential`: queries additionally answer from a view pinned at
    ///   the last import — one serialization point between blocks, no
    ///   speculative answers.
    pub isolation: IsolationLevel,
    /// Which state backend the chain store opens on: in-memory (the
    /// default) or the durable snapshot + journal directory. Durable
    /// nodes must be built with [`NodeHandle::open`] so recovery errors
    /// surface instead of panicking.
    pub store: StateBackendConfig,
}

impl Default for NodeConfig {
    /// A non-mining Geth client on the default contract at
    /// READ-UNCOMMITTED — the base every preset refines.
    fn default() -> Self {
        Self {
            kind: ClientKind::Geth,
            contract: crate::contract::default_contract_address(),
            miner: None,
            limits: BlockLimits::default(),
            hms: HmsConfig::default(),
            pool: PoolConfig::default(),
            telemetry: TelemetryConfig::default(),
            isolation: IsolationLevel::default(),
            store: StateBackendConfig::InMemory,
        }
    }
}

impl NodeConfig {
    /// A builder over [`NodeConfig::default`].
    pub fn builder() -> NodeConfigBuilder {
        NodeConfigBuilder { config: NodeConfig::default() }
    }

    /// Preset: a non-mining standard (Geth) client on `contract`.
    pub fn geth(contract: Address) -> NodeConfigBuilder {
        Self::builder().kind(ClientKind::Geth).contract(contract)
    }

    /// Preset: a non-mining Sereth client (RAA/HMS compiled in) on
    /// `contract`.
    pub fn sereth(contract: Address) -> NodeConfigBuilder {
        Self::builder().kind(ClientKind::Sereth).contract(contract)
    }

    /// Preset: a mining node on `contract` ordering with `policy`. The
    /// client kind follows the policy — semantic/PWV ordering is the
    /// modified client's behavior, standard ordering the stock one —
    /// and can be overridden with [`NodeConfigBuilder::kind`].
    pub fn miner(contract: Address, policy: MinerPolicy) -> NodeConfigBuilder {
        let kind = match policy {
            MinerPolicy::Standard => ClientKind::Geth,
            _ => ClientKind::Sereth,
        };
        Self::builder().kind(kind).contract(contract).mining(policy)
    }
}

/// Chainable constructor for [`NodeConfig`] — every construction site
/// outside this module goes through it (or a preset returning it).
#[derive(Debug, Clone, Default)]
pub struct NodeConfigBuilder {
    config: NodeConfig,
}

impl NodeConfigBuilder {
    /// Sets the client kind.
    pub fn kind(mut self, kind: ClientKind) -> Self {
        self.config.kind = kind;
        self
    }

    /// Sets the managed contract address.
    pub fn contract(mut self, contract: Address) -> Self {
        self.config.contract = contract;
        self
    }

    /// Sets the isolation level read paths run at.
    pub fn isolation(mut self, level: IsolationLevel) -> Self {
        self.config.isolation = level;
        self
    }

    /// Selects the chain-store backend (in-memory by default). Pair a
    /// durable choice with [`NodeHandle::open`] so recovery errors
    /// surface as `Result` instead of a panic.
    pub fn store(mut self, store: StateBackendConfig) -> Self {
        self.config.store = store;
        self
    }

    /// Shorthand for a durable store under `dir` with default
    /// [`sereth_chain::DurableOptions`].
    pub fn durable_store(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.store(StateBackendConfig::Durable {
            dir: dir.into(),
            options: sereth_chain::DurableOptions::default(),
        })
    }

    /// Makes this node mine with `policy` (default schedule and
    /// coinbase; refine with [`NodeConfigBuilder::schedule`] and
    /// [`NodeConfigBuilder::coinbase`]).
    pub fn mining(mut self, policy: MinerPolicy) -> Self {
        self.miner_mut().policy = policy;
        self
    }

    /// Removes any mining setup (presets like [`NodeConfig::miner`]
    /// install one).
    pub fn no_miner(mut self) -> Self {
        self.config.miner = None;
        self
    }

    /// Sets the miner's block-production schedule (installing a
    /// standard-ordering setup if none exists yet).
    pub fn schedule(mut self, schedule: BlockSchedule) -> Self {
        self.miner_mut().schedule = schedule;
        self
    }

    /// Sets the miner's coinbase (installing a standard-ordering setup
    /// if none exists yet).
    pub fn coinbase(mut self, coinbase: Address) -> Self {
        self.miner_mut().coinbase = coinbase;
        self
    }

    fn miner_mut(&mut self) -> &mut MinerSetup {
        self.config.miner.get_or_insert_with(MinerSetup::default)
    }

    /// Sets the block capacity limits.
    pub fn limits(mut self, limits: BlockLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Sets the block gas limit, keeping the other limits.
    pub fn gas_limit(mut self, gas_limit: u64) -> Self {
        self.config.limits.gas_limit = gas_limit;
        self
    }

    /// Sets the per-block transaction cap, keeping the other limits.
    pub fn max_txs(mut self, max_txs: Option<usize>) -> Self {
        self.config.limits.max_txs = max_txs;
        self
    }

    /// Sets the HMS extension parameters.
    pub fn hms(mut self, hms: HmsConfig) -> Self {
        self.config.hms = hms;
        self
    }

    /// Sets the transaction-pool configuration.
    pub fn pool(mut self, pool: PoolConfig) -> Self {
        self.config.pool = pool;
        self
    }

    /// Sets the telemetry configuration.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> NodeConfig {
        self.config
    }
}

/// Most blocks the orphan stash holds. An orphan that arrives when it is
/// full is dropped and counted on `node.orphans_dropped`.
const ORPHAN_CAP: usize = 1_024;

/// Whether `block`, whose hash is `hash`, belongs in the orphan stash:
/// `chain` stores neither it nor its parent. The stored check comes
/// first because a durable store keeps the block at its GC floor while
/// pruning that block's parent, and a stored block is `Known`.
fn awaits_parent(chain: &ChainStore, hash: &H256, block: &Block) -> bool {
    chain.get(hash).is_none() && chain.get(&block.header.parent_hash).is_none()
}

/// The lock-protected node state: what writers (mining's import, block
/// imports, orphan retry) change and the historical reads that need the
/// whole chain.
pub struct NodeInner {
    /// Chain store (canonical chain + side chains).
    pub chain: ChainStore,
    /// Blocks whose parents have not arrived yet, each once, with its
    /// hash, in arrival order.
    orphans: Vec<(H256, Block)>,
}

/// The canonical head as readers see it: everything a head read needs,
/// captured together when the head moves. [`NodeHandle`] publishes it as
/// one `Arc` and replaces it only under the node lock, so a read clones
/// the `Arc` and never waits for an import; the height, the view and the
/// env it answers from always describe the same block.
struct Head {
    /// Canonical head hash.
    hash: H256,
    /// The head block's header: the canonical height, the env read-only
    /// calls execute under, and the parent the miner builds on.
    header: BlockHeader,
    /// Epoch-pinned view of the head's post-state. The head is replaced
    /// only at import, so this is also the SEQUENTIAL rung's pin: every
    /// read between two imports observes this one height.
    view: StateView,
    /// RAA registry (holds the HMS provider on Sereth nodes).
    raa: RaaRegistry,
}

impl Head {
    /// The head of `chain` as of now, with `raa`.
    fn capture(chain: &ChainStore, raa: RaaRegistry) -> Self {
        Self {
            hash: chain.head_hash(),
            header: chain.head_block().header.clone(),
            view: chain.head_state_view(),
            raa,
        }
    }
}

/// An epoch-pinned read transaction over a node's committed state: an
/// O(1) [`StateView`] stamped with the height it was captured at. While
/// any clone is alive, garbage collection keeps that epoch servable
/// (durable backends included), and copy-on-write keeps the bytes frozen
/// — reads through a reader are repeatable no matter how far the chain
/// advances.
#[derive(Debug, Clone)]
pub struct StateReader {
    height: u64,
    view: StateView,
}

impl StateReader {
    /// The canonical height this reader was captured at.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The frozen state view.
    pub fn view(&self) -> &StateView {
        &self.view
    }

    /// Consumes the reader into its view (the pin travels along).
    fn into_view(self) -> StateView {
        self.view
    }

    /// Commitment to the viewed state.
    pub fn state_root(&self) -> H256 {
        self.view.state_root()
    }
}

/// Outcome of [`NodeHandle::receive_block`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockReceipt {
    /// Newly imported (possibly with previously-orphaned descendants);
    /// forward to peers.
    Imported,
    /// Already known; do not forward again.
    Known,
    /// Parent unknown; stashed for retry (or already stashed), not
    /// forwarded yet.
    Orphaned,
    /// Parent unknown and the orphan stash full; not kept, not forwarded.
    /// Pull the parent anyway: its import drains the stash.
    Dropped,
    /// Validation failed; dropped.
    Rejected,
}

/// One read-only market observation, stamped with the serialization
/// point it was served at. Clients log these; the offline checker in
/// `sereth-consistency` judges each against the committed chain as of
/// `height` to count dirty reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsoObservation {
    /// The read mode that produced the answer (the node's isolation
    /// level for queries; READ COMMITTED for `committed_observed`).
    pub level: IsolationLevel,
    /// Committed head height the answer was served at (the pinned
    /// height at SEQUENTIAL).
    pub height: u64,
    /// Observed mark.
    pub mark: H256,
    /// Observed value.
    pub value: H256,
}

/// Per-rung read counter names (`iso.reads.*`).
fn iso_read_counter(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadUncommitted => "iso.reads.read_uncommitted",
        IsolationLevel::ReadCommitted => "iso.reads.read_committed",
        IsolationLevel::Sequential => "iso.reads.sequential",
    }
}

/// The ordering policy a miner may actually run at `isolation`:
/// semantic and PWV ordering consult the pending pool's uncommitted
/// writes, which READ COMMITTED and SEQUENTIAL forbid — there they
/// degrade to standard (price) ordering, counted on
/// `iso.policy_degraded` per ordering pass.
fn effective_policy(policy: &MinerPolicy, isolation: IsolationLevel, telemetry: &Telemetry) -> MinerPolicy {
    if isolation == IsolationLevel::ReadUncommitted || matches!(policy, MinerPolicy::Standard) {
        return policy.clone();
    }
    telemetry.counter("iso.policy_degraded").inc();
    MinerPolicy::Standard
}

/// A shareable handle to one node. Clients attached to the node (the
/// paper's smart-contract users) query through this handle — the analogue
/// of local RPC against one's own client process.
///
/// Only writers take the node lock: mining's import, block imports,
/// orphan retry, `enable_market`, [`NodeHandle::with_inner`] and the
/// historical reads that need the chain. Head reads clone the published
/// `Head`, pool reads go to the pool, admission checks the head and the
/// pool, and the config is fixed at `open`, so none of them waits for an
/// import.
#[derive(Clone)]
pub struct NodeHandle {
    inner: Arc<Mutex<NodeInner>>,
    /// The published head. The `RwLock` is held only to clone or swap
    /// the `Arc`.
    head: Arc<RwLock<Arc<Head>>>,
    /// The configuration the node was opened with; it never changes.
    config: Arc<NodeConfig>,
    /// Pending transaction pool. Internally synchronized (one lock of its
    /// own), so submission, the miner's ordering pass and RAA reads run
    /// outside the node lock against the same pool.
    pool: Arc<TxPool>,
    /// The node-wide telemetry hub every subsystem (pool and its RAA
    /// views, store, miner) records into.
    telemetry: Arc<Telemetry>,
    /// Hold-time histogram of the node lock (`node.lock_hold`): one
    /// sample per acquisition, so the lock-discipline regression tests
    /// count acquisitions as deltas of its count.
    lock_hold: Histogram,
}

/// The timed node-lock guard: dereferences to [`NodeInner`] and, when
/// telemetry is enabled, records how long the lock was *held* (not
/// waited for) into the `node.lock_hold` histogram on drop.
struct NodeLockGuard<'a> {
    guard: MutexGuard<'a, NodeInner>,
    held_since: Option<Instant>,
    hold: &'a Histogram,
}

impl Deref for NodeLockGuard<'_> {
    type Target = NodeInner;

    fn deref(&self) -> &NodeInner {
        &self.guard
    }
}

impl DerefMut for NodeLockGuard<'_> {
    fn deref_mut(&mut self) -> &mut NodeInner {
        &mut self.guard
    }
}

impl Drop for NodeLockGuard<'_> {
    fn drop(&mut self) {
        if let Some(since) = self.held_since {
            self.hold.record_ns(since.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

impl NodeHandle {
    /// Acquires the node lock. Disabled telemetry skips the clock
    /// entirely — the guard is then exactly a `MutexGuard`.
    fn lock(&self) -> NodeLockGuard<'_> {
        let guard = self.inner.lock();
        let held_since = self.lock_hold.is_enabled().then(Instant::now);
        NodeLockGuard { guard, held_since, hold: &self.lock_hold }
    }

    /// The published head: one `Arc` clone under a read lock that no one
    /// holds for longer than a swap.
    fn head(&self) -> Arc<Head> {
        self.head.read().clone()
    }

    /// Publishes the head of `inner.chain`, serving `raa`. Callers hold
    /// the node lock, so two publishers never race.
    fn publish(&self, inner: &NodeInner, raa: RaaRegistry) {
        let head = Arc::new(Head::capture(&inner.chain, raa));
        // Dropped after the write lock is released: the last clone of the
        // old head unpins its epoch, which readers need not wait for.
        let _previous = std::mem::replace(&mut *self.head.write(), head);
    }
}

impl NodeHandle {
    /// Builds a node from `genesis` with the given configuration,
    /// panicking if the store cannot open. In-memory opens are
    /// infallible, so this stays the ergonomic constructor for
    /// simulations and tests; durable nodes should prefer
    /// [`NodeHandle::open`].
    pub fn new(genesis: Genesis, config: NodeConfig) -> Self {
        Self::open(genesis, config).expect("store opens")
    }

    /// Builds a node from `genesis` with the given configuration,
    /// opening (and, for a durable backend, recovering) the chain store.
    /// Sereth nodes at READ UNCOMMITTED get the RAA provider installed
    /// for the contract's `get`/`mark` selectors.
    ///
    /// # Errors
    ///
    /// Whatever [`ChainStore::open`] reports: I/O failure, corrupt
    /// on-disk data, or a directory from a different genesis.
    pub fn open(genesis: Genesis, config: NodeConfig) -> Result<Self, StoreError> {
        let telemetry = Arc::new(Telemetry::new(config.telemetry));
        let chain = ChainStore::open(
            StoreConfig::in_memory(genesis).with_backend(config.store.clone()).telemetry(telemetry.clone()),
        )?;
        let pool = Arc::new(TxPool::with_telemetry(config.pool.clone(), telemetry.clone()));
        let mut raa = RaaRegistry::new();
        // The RAA provider exists to serve READ-UNCOMMITTED views; at the
        // stronger rungs queries never consult it, so it is not installed
        // and no pool view is ever computed.
        if config.kind == ClientKind::Sereth && config.isolation == IsolationLevel::ReadUncommitted {
            let provider = PoolRaaProvider::new(pool.clone(), (SLOT_MARK, SLOT_VALUE), config.hms.clone());
            raa.enable(config.contract, get_selector());
            raa.enable(config.contract, mark_selector());
            raa.set_provider(Arc::new(provider));
        }
        // The first head is captured before the handle exists, so opening
        // takes no lock at all.
        let head = Head::capture(&chain, raa);
        let inner = NodeInner { chain, orphans: Vec::new() };
        let lock_hold = telemetry.histogram("node.lock_hold");
        Ok(Self {
            inner: Arc::new(Mutex::new(inner)),
            head: Arc::new(RwLock::new(Arc::new(head))),
            config: Arc::new(config),
            pool,
            telemetry,
            lock_hold,
        })
    }

    /// The configuration this node was opened with.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The node's client kind.
    pub fn kind(&self) -> ClientKind {
        self.config.kind
    }

    /// The isolation level this node serves read-only queries at.
    pub fn isolation(&self) -> IsolationLevel {
        self.config.isolation
    }

    /// Canonical head height. At SEQUENTIAL it is also the height every
    /// query is pinned to: the head moves only on import.
    pub fn head_number(&self) -> u64 {
        self.head().header.number
    }

    /// Canonical head hash, with the height it was read at — one
    /// published head, so the pair is consistent (gossip can move the
    /// head between two separate calls).
    pub fn head_id(&self) -> (u64, H256) {
        let head = self.head();
        (head.header.number, head.hash)
    }

    /// Canonical head hash.
    pub fn head_hash(&self) -> H256 {
        self.head().hash
    }

    /// The state root at the canonical head — what cluster convergence
    /// checks compare byte-for-byte across nodes.
    pub fn head_state_root(&self) -> H256 {
        self.head().view.state_root()
    }

    /// The parent hashes this node is still missing for its stashed
    /// orphans (deduplicated, in stash order) — what an anti-entropy
    /// pass re-requests from peers, since the original `GetBlock` may
    /// have been dropped by the network.
    pub fn orphan_parents(&self) -> Vec<H256> {
        let inner = self.lock();
        let mut parents = Vec::new();
        for (_, block) in &inner.orphans {
            let parent = block.header.parent_hash;
            if inner.chain.get(&parent).is_none() && !parents.contains(&parent) {
                parents.push(parent);
            }
        }
        parents
    }

    /// Total blocks this node stores, side chains included. Exceeding the
    /// canonical length proves the node held (and abandoned) a competing
    /// branch — the observable trace of a reorg.
    pub fn stored_blocks(&self) -> usize {
        self.lock().chain.len()
    }

    /// The node's pending pool: its own lock, not the node's.
    pub fn pool(&self) -> &Arc<TxPool> {
        &self.pool
    }

    /// Number of pooled transactions.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// `true` if the pool currently holds `hash`.
    pub fn pool_contains(&self, hash: &H256) -> bool {
        self.pool.contains(hash)
    }

    /// The committed `(mark, value)` of the managed contract — what a
    /// standard Geth client sees (READ-COMMITTED).
    pub fn committed_amv(&self) -> (H256, H256) {
        let observation = self.committed_observed();
        (observation.mark, observation.value)
    }

    /// [`NodeHandle::committed_amv`] with its serialization point: the
    /// committed `(mark, value)` stamped with the height of the head it
    /// was read from. This is the observation clients log for the
    /// offline dirty-read audit.
    pub fn committed_observed(&self) -> IsoObservation {
        let head = self.head();
        let (mark, value) = committed_amv(&head.view, &self.config.contract);
        IsoObservation { level: IsolationLevel::ReadCommitted, height: head.header.number, mark, value }
    }

    /// Account nonce at the canonical head.
    pub fn account_nonce(&self, address: &Address) -> u64 {
        self.head().view.nonce_of(address)
    }

    /// An O(1) immutable snapshot of the canonical head state, plus the
    /// height it was taken at. The view can be held across blocks: it
    /// stays frozen while the node keeps sealing. Sugar over
    /// [`NodeHandle::state_reader`].
    pub fn head_state_view(&self) -> (u64, sereth_chain::state::StateView) {
        let reader = self.state_reader();
        (reader.height(), reader.into_view())
    }

    /// Opens an epoch-pinned read transaction at the canonical head —
    /// no node lock, O(1), frozen and GC-protected until the last clone
    /// drops.
    pub fn state_reader(&self) -> StateReader {
        let head = self.head();
        StateReader { height: head.header.number, view: head.view.clone() }
    }

    /// Issues the two read-only calls `mark(...)` and `get(...)` against
    /// the contract, answered at the node's configured
    /// [`IsolationLevel`]. Returns `(mark, value)`.
    ///
    /// At READ UNCOMMITTED (the default, the paper's mode) the calls
    /// execute with RAA applied when this node is a Sereth client (paper
    /// Fig. 1); on a Geth node they execute without augmentation and
    /// echo the zero arguments — callers should use
    /// [`NodeHandle::committed_amv`] instead, exactly as unmodified
    /// clients must. At the stronger rungs both kinds answer from
    /// committed state only — see [`NodeHandle::query_observed`].
    pub fn query_view(&self, caller: Address) -> Option<(H256, H256)> {
        self.query_observed_inner(None, caller).map(|observation| (observation.mark, observation.value))
    }

    /// Like [`NodeHandle::query_view`] but against an explicit contract —
    /// one node (and one RAA provider) serves many independent markets,
    /// provided RAA was enabled for that contract's selectors (see
    /// [`NodeHandle::enable_market`]).
    pub fn query_view_for(&self, contract: Address, caller: Address) -> Option<(H256, H256)> {
        self.query_observed_inner(Some(contract), caller)
            .map(|observation| (observation.mark, observation.value))
    }

    /// [`NodeHandle::query_view`] with its serialization point: the
    /// answer stamped with the level that produced it and the height it
    /// was served at — at [`IsolationLevel::Sequential`] the *pinned*
    /// height, which moves only on import. This is the observation
    /// clients log for the offline dirty-read audit.
    pub fn query_observed(&self, caller: Address) -> Option<IsoObservation> {
        self.query_observed_inner(None, caller)
    }

    /// The read path behind every query entry point. It clones the
    /// published head and answers from it at the configured rung: the
    /// RAA-augmented calls over the head view at READ UNCOMMITTED, the
    /// committed `(mark, value)` of the head view at READ COMMITTED and
    /// SEQUENTIAL (the head moves only at import, so it is the pin). No
    /// node lock is taken, so read latency is independent of both state
    /// size and writer activity at every rung, and each rung counts its
    /// reads (`iso.reads.*`).
    fn query_observed_inner(&self, contract: Option<Address>, caller: Address) -> Option<IsoObservation> {
        let head = self.head();
        let level = self.config.isolation;
        let contract = contract.unwrap_or(self.config.contract);
        self.telemetry.counter(iso_read_counter(level)).inc();
        let (mark, value) = match level {
            IsolationLevel::ReadUncommitted => {
                // The provider reads the committed AMV from the call's
                // state, i.e. from this head view.
                let env = BlockEnv::from(&head.header);
                let call = |selector| {
                    let zero = [H256::ZERO, H256::ZERO, H256::ZERO];
                    let out = call_readonly(
                        &head.view,
                        caller,
                        contract,
                        abi::encode_call(selector, &zero),
                        &env,
                        &head.raa,
                    );
                    abi::decode_word(&out.return_data)
                };
                (call(mark_selector())?, call(get_selector())?)
            }
            IsolationLevel::ReadCommitted | IsolationLevel::Sequential => {
                committed_amv(&head.view, &contract)
            }
        };
        Some(IsoObservation { level, height: head.header.number, mark, value })
    }

    /// Enables RAA on this node for an additional market contract's
    /// `get`/`mark` selectors (the configured contract is enabled at
    /// construction). No-op on Geth nodes.
    pub fn enable_market(&self, contract: Address) {
        if self.config.kind == ClientKind::Sereth {
            // Publishers hold the node lock, so no import publishes
            // between the read of the registry and the swap.
            let inner = self.lock();
            let mut raa = self.head().raa.clone();
            raa.enable(contract, get_selector());
            raa.enable(contract, mark_selector());
            self.publish(&inner, raa);
        }
    }

    /// Accepts a transaction from gossip or local submission. Returns
    /// `true` when newly accepted (the caller should gossip it onward).
    ///
    /// The head and the pool are the dedup: a transaction whose nonce the
    /// published head has passed, or that the pool already holds, is
    /// refused before its signature is checked. One whose signature
    /// failed never reaches the pool, so a repeat is verified again.
    /// Takes no node lock, so admission never waits for an import.
    pub fn receive_tx(&self, tx: Transaction, now: SimTime) -> bool {
        self.telemetry.time(Phase::ReceiveTx, || {
            tx.nonce() >= self.head().view.nonce_of(&tx.sender())
                && !self.pool.contains(&tx.hash())
                && tx.verify_signature()
                && self.pool.insert(tx, now).is_ok()
        })
    }

    /// Accepts a block from gossip, importing it and any orphans it
    /// unblocks. A stored block answers `Known`; a block whose parent is
    /// not stored waits in the orphan stash; only the rest move into the
    /// chain's import, so no block is copied on its way in.
    pub fn receive_block(&self, block: Block) -> BlockReceipt {
        let mut inner = self.lock();
        let hash = block.hash();
        if awaits_parent(&inner.chain, &hash, &block) {
            return if inner.orphans.iter().any(|(stashed, _)| *stashed == hash) {
                BlockReceipt::Orphaned
            } else if inner.orphans.len() < ORPHAN_CAP {
                inner.orphans.push((hash, block));
                BlockReceipt::Orphaned
            } else {
                self.telemetry.counter("node.orphans_dropped").inc();
                BlockReceipt::Dropped
            };
        }
        match self.import(&mut inner, hash, |chain| chain.import(block)) {
            Ok(ImportOutcome::AlreadyKnown) => BlockReceipt::Known,
            // A Store error still imported the block in memory: keep
            // serving (and forwarding) from memory.
            Ok(_) | Err(ImportError::Store(_)) => {
                self.retry_orphans(&mut inner);
                BlockReceipt::Imported
            }
            // The parent was found under this lock, so `UnknownParent`
            // does not come back here.
            Err(ImportError::UnknownParent | ImportError::Invalid(_)) => BlockReceipt::Rejected,
        }
    }

    /// Imports the block `hash` with `store`: the one routine behind
    /// block receipt and orphan release, which replay the block
    /// (`ChainStore::import`), and mining, which commits it as built
    /// (`ChainStore::import_built`). A block the chain already stores is
    /// answered before `store` runs, so before it is cloned.
    /// `ImportError::Store` means the block entered the in-memory chain
    /// and only its persistence failed; every such fault is counted here
    /// on `node.store_failed`, once per block. When the canonical head
    /// moved, the head is published and the pool brought up to date; a
    /// block that lost fork choice commits nothing, so its transactions
    /// stay pooled for this node to mine.
    fn import(
        &self,
        inner: &mut NodeInner,
        hash: H256,
        store: impl FnOnce(&mut ChainStore) -> Result<ImportOutcome, ImportError>,
    ) -> Result<ImportOutcome, ImportError> {
        if inner.chain.get(&hash).is_some() {
            return Ok(ImportOutcome::AlreadyKnown);
        }
        let previous_head = inner.chain.head_hash();
        let result = store(&mut inner.chain);
        if matches!(result, Err(ImportError::Store(_))) {
            self.telemetry.counter("node.store_failed").inc();
        }
        if inner.chain.head_hash() != previous_head {
            self.after_import(inner);
        }
        result
    }

    /// Head publication and pool upkeep after an import moved the
    /// canonical head, which is then the imported block.
    fn after_import(&self, inner: &NodeInner) {
        // Imports are the only place the head moves, so between two
        // imports every read, the SEQUENTIAL rung's included, answers at
        // one height. The head goes first: until the upkeep below, an RU
        // read pairs the new head with a pool that still holds the
        // block's sets. The other order would pair the old head with a
        // pool that lacks them, a view older than both.
        self.publish(inner, self.head().raa.clone());
        self.pool.remove_committed(inner.chain.head_block().transactions.iter());
        let head_state = inner.chain.head_state();
        self.pool.prune_stale(|sender| head_state.nonce_of(sender));
    }

    /// Imports every stashed orphan whose parent has arrived, in stash
    /// order, repeating until a pass releases none. The rest stay stashed
    /// in their order.
    fn retry_orphans(&self, inner: &mut NodeInner) {
        loop {
            let mut progressed = false;
            for (hash, block) in std::mem::take(&mut inner.orphans) {
                if awaits_parent(&inner.chain, &hash, &block) {
                    inner.orphans.push((hash, block));
                    continue;
                }
                match self.import(inner, hash, |chain| chain.import(block)) {
                    Ok(ImportOutcome::AlreadyKnown)
                    | Err(ImportError::UnknownParent | ImportError::Invalid(_)) => {}
                    // Stored, canonical or not (a Store error still
                    // imported it in memory): its descendants may import.
                    Ok(_) | Err(ImportError::Store(_)) => progressed = true,
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// The node's telemetry hub (shared with the pool and the store).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// An owned snapshot of every metric this node recorded — counters
    /// (`pool.*`, `raa.*`, `node.*`), gauges, phase and
    /// lock-hold histograms, and the recent block traces. Reads only
    /// atomics and the short trace ring lock: **zero** node-lock
    /// acquisitions, which `telemetry_reads_take_zero_node_locks` pins
    /// along with every head and pool read and `receive_tx`.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Seals a block at `now` (miner nodes only) and imports it locally.
    ///
    /// The block is ordered and built on the published head: its header
    /// is the parent, and a COW state over its view is the parent state.
    /// So the node lock is taken once, briefly, to commit the sealed
    /// block, which is not replayed, and client submission keeps flowing
    /// into the pool while the block is being built.
    pub fn mine(&self, now: SimTime) -> Option<Block> {
        let built = self.build(now)?;
        self.import_mined(built)
    }

    /// Orders and builds a block at `now` on the published head, without
    /// the node lock (miner nodes only).
    fn build(&self, now: SimTime) -> Option<BuiltBlock> {
        let config = &*self.config;
        let setup = config.miner.as_ref()?;
        let head = self.head();
        let policy = effective_policy(&setup.policy, config.isolation, &self.telemetry);
        let (candidates, order_ns) = self.telemetry.time_ns(Phase::OrderCandidates, || {
            order_candidates(&self.pool, &head.view, &config.contract, &policy)
        });
        let timestamp = now.max(head.header.timestamp_ms + 1);
        let built = build_block_traced(
            &head.header,
            &StateDb::from(&head.view),
            &candidates,
            setup.coinbase,
            timestamp,
            &config.limits,
            &self.telemetry,
        );
        // Lock-free bookkeeping before locking: the ordering span goes in
        // the block's trace (the store adds an `import`-role trace for the
        // same number).
        self.telemetry.trace_block(BlockTrace {
            number: built.block.number(),
            role: "build",
            phase_ns: vec![(Phase::OrderCandidates, order_ns)],
        });
        Some(built)
    }

    /// The one lock of a mining pass: commits a block this node just
    /// built, counting a self-import failure instead of swallowing it.
    fn import_mined(&self, built: BuiltBlock) -> Option<Block> {
        let block = built.block.clone();
        match self.import(&mut self.lock(), block.hash(), |chain| chain.import_built(built)) {
            // A gossip block imported while this one was built can beat it
            // to the head: it is then a side chain and its transactions
            // stay pooled for the next attempt. A Store error leaves it in
            // memory; only persistence failed.
            Ok(_) | Err(ImportError::Store(_)) => Some(block),
            // The parent is not in the store: pruned while the block was
            // built, or never there. A fault worth counting.
            Err(ImportError::UnknownParent) => {
                self.telemetry.counter("node.self_import_failed").inc();
                self.telemetry.counter("node.self_import_failed.unknown_parent").inc();
                None
            }
            Err(ImportError::Invalid(error)) => {
                unreachable!("a built block is committed unreplayed: {error}")
            }
        }
    }

    /// Looks up a block by hash (canonical or side-chain), for sync
    /// replies.
    pub fn block_by_hash(&self, hash: &H256) -> Option<Block> {
        self.lock().chain.get(hash).map(|stored| stored.block.clone())
    }

    /// Runs `f` with the locked inner state (post-run inspection).
    pub fn with_inner<T>(&self, f: impl FnOnce(&NodeInner) -> T) -> T {
        f(&self.lock())
    }

    /// Where a submitted transaction stands from this node's view — what a
    /// client polls to decide whether to retry (the abort-rate workload).
    pub fn tx_commit_status(&self, tx_hash: &H256, success_topic: H256) -> TxCommitStatus {
        let inner = self.lock();
        match inner.chain.find_receipt(tx_hash) {
            Some((stored, receipt)) => {
                if receipt.has_event(success_topic) {
                    TxCommitStatus::Succeeded { block: stored.block.number() }
                } else {
                    TxCommitStatus::NoEffect { block: stored.block.number() }
                }
            }
            None => TxCommitStatus::Pending,
        }
    }
}

/// Commit status of a transaction as observed by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxCommitStatus {
    /// Not yet in a canonical block (pooled, in flight, or dropped).
    Pending,
    /// Committed and the contract emitted the success event.
    Succeeded {
        /// Block number it committed in.
        block: u64,
    },
    /// Committed but made no state change — the paper's failed
    /// transaction (§III-A): it occupies block space to no effect.
    NoEffect {
        /// Block number it committed in.
        block: u64,
    },
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeHandle")
            .field("kind", &self.config.kind)
            .field("head", &self.head_number())
            .field("pool", &self.pool.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{
        default_contract_address, sereth_code, sereth_genesis_slots, set_selector, ContractForm,
    };
    use sereth_chain::genesis::GenesisBuilder;
    use sereth_core::mark::genesis_mark;
    use sereth_crypto::sig::SecretKey;
    use sereth_types::u256::U256;

    fn test_genesis(owner: &SecretKey) -> Genesis {
        let contract = default_contract_address();
        GenesisBuilder::new()
            .fund(owner.address(), U256::from(1_000_000_000u64))
            .contract_with_storage(
                contract,
                sereth_code(ContractForm::Native),
                sereth_genesis_slots(&owner.address(), H256::from_low_u64(50)),
            )
            .build()
    }

    fn node(kind: ClientKind, owner: &SecretKey, miner: bool) -> NodeHandle {
        node_at(kind, owner, miner, IsolationLevel::ReadUncommitted)
    }

    fn node_at(kind: ClientKind, owner: &SecretKey, miner: bool, level: IsolationLevel) -> NodeHandle {
        let mut builder = NodeConfig::builder().kind(kind).isolation(level);
        if miner {
            builder = builder.mining(MinerPolicy::Standard).coinbase(Address::from_low_u64(0xc01));
        }
        NodeHandle::new(test_genesis(owner), builder.build())
    }

    /// Node-lock acquisitions so far: every acquisition through the
    /// handle records one `node.lock_hold` sample when its guard drops.
    fn lock_count(node: &NodeHandle) -> u64 {
        node.telemetry_snapshot().histograms["node.lock_hold"].count()
    }

    /// How long a thread holding the node lock waits for a read to finish
    /// before it gives up and releases the lock.
    const HOLD_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(3);

    /// Runs `read` while another thread holds the node lock inside
    /// `with_inner`, and returns whether `read` finished before the holder
    /// gave up. A read that takes the node lock, raw or timed, can only
    /// finish after the holder's timeout, so it reports `false` instead of
    /// deadlocking.
    fn finishes_under_a_held_node_lock(node: &NodeHandle, read: impl FnOnce()) -> bool {
        let parked = std::sync::Barrier::new(2);
        let (finished, done) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let parked = &parked;
            let holder = scope.spawn(move || {
                node.with_inner(|_| {
                    parked.wait();
                    done.recv_timeout(HOLD_TIMEOUT).is_ok()
                })
            });
            parked.wait();
            read();
            // The holder has dropped its receiver if it already gave up.
            let _ = finished.send(());
            holder.join().expect("the lock holder does not panic")
        })
    }

    fn set_tx(owner: &SecretKey, nonce: u64, prev: H256, value: u64) -> Transaction {
        use sereth_core::fpv::{Flag, Fpv};
        use sereth_types::transaction::TxPayload;
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 200_000,
                to: Some(default_contract_address()),
                value: U256::ZERO,
                input: Fpv::new(
                    if nonce == 0 { Flag::Head } else { Flag::Success },
                    prev,
                    H256::from_low_u64(value),
                )
                .to_calldata(set_selector()),
            },
            owner,
        )
    }

    #[test]
    fn geth_node_query_view_echoes_zeros() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, false);
        let (mark, value) = node.query_view(owner.address()).unwrap();
        assert_eq!(mark, H256::ZERO);
        assert_eq!(value, H256::ZERO);
        // The standard client must fall back to committed state.
        let (cmark, cvalue) = node.committed_amv();
        assert_eq!(cmark, genesis_mark());
        assert_eq!(cvalue, H256::from_low_u64(50));
    }

    #[test]
    fn sereth_node_query_view_serves_committed_when_pool_empty() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Sereth, &owner, false);
        let (mark, value) = node.query_view(owner.address()).unwrap();
        assert_eq!(mark, genesis_mark());
        assert_eq!(value, H256::from_low_u64(50));
    }

    #[test]
    fn sereth_node_query_view_tracks_pending_sets() {
        use sereth_core::mark::compute_mark;
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Sereth, &owner, false);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        assert!(node.receive_tx(tx, 100));
        let (mark, value) = node.query_view(owner.address()).unwrap();
        assert_eq!(mark, compute_mark(&genesis_mark(), &H256::from_low_u64(75)));
        assert_eq!(value, H256::from_low_u64(75));
    }

    #[test]
    fn query_view_takes_zero_node_locks() {
        // Both entry points answer from the published head, on both
        // client kinds. A Sereth node's RAA provider reads the committed
        // AMV from the call's own state, so it takes no lock either; the
        // barrier test below also catches a raw lock this count cannot
        // see.
        let owner = SecretKey::from_label(1);
        for kind in [ClientKind::Geth, ClientKind::Sereth] {
            let node = node(kind, &owner, false);
            let before = lock_count(&node);
            node.query_view(owner.address()).unwrap();
            assert_eq!(lock_count(&node), before, "query_view on {kind:?}");
            node.query_view_for(default_contract_address(), owner.address()).unwrap();
            assert_eq!(lock_count(&node), before, "query_view_for on {kind:?}");
        }
    }

    #[test]
    fn committed_reads_take_zero_node_locks() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, false);
        let before = lock_count(&node);
        node.committed_amv();
        node.account_nonce(&owner.address());
        node.head_state_view();
        assert_eq!(lock_count(&node), before, "committed reads answer from the published head");
    }

    #[test]
    fn state_reader_takes_zero_node_locks_and_readers_pin_their_epoch() {
        // A head reader clones the published head; a historical one needs
        // the chain and takes the node lock once. Either view pins its
        // epoch, so durable-backend GC can never reclaim the snapshot
        // under the reader.
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100);
        node.mine(15_000).expect("miner seals");
        assert_eq!(node.head_number(), 1);

        let before = lock_count(&node);
        let reader = node.state_reader();
        assert_eq!(lock_count(&node), before, "state_reader takes no node lock");
        assert_eq!(reader.height(), 1);
        assert_eq!(reader.view().pinned_epoch(), Some(1), "head reader pins the head epoch");

        let before = lock_count(&node);
        let at_genesis = node.with_inner(|inner| inner.chain.state_view_at(0)).expect("genesis is canonical");
        assert_eq!(lock_count(&node) - before, 1, "a historical read is one lock");
        assert_eq!(at_genesis.pinned_epoch(), Some(0), "historical view pins its epoch");
        assert_eq!(at_genesis.nonce_of(&owner.address()), 0, "view is frozen at its epoch");
    }

    #[test]
    fn held_views_stay_frozen_while_the_node_seals() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        let (height, view) = node.head_state_view();
        assert_eq!(height, 0);
        let root_at_genesis = view.state_root();

        node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100);
        node.mine(15_000).expect("miner seals");
        assert_eq!(node.head_number(), 1);

        // The held view still shows genesis; a fresh view shows block 1.
        assert_eq!(view.state_root(), root_at_genesis);
        assert_eq!(view.nonce_of(&owner.address()), 0);
        let (new_height, new_view) = node.head_state_view();
        assert_eq!(new_height, 1);
        assert_eq!(new_view.nonce_of(&owner.address()), 1);
        assert_ne!(new_view.state_root(), root_at_genesis);
    }

    #[test]
    fn duplicate_tx_not_accepted_twice() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        assert!(node.receive_tx(tx.clone(), 100));
        assert!(!node.receive_tx(tx.clone(), 200), "the pool holds it");
        node.mine(15_000).expect("miner seals");
        assert!(!node.pool_contains(&tx.hash()));
        assert!(!node.receive_tx(tx, 300), "the head has passed its nonce");
    }

    #[test]
    fn a_transaction_displaced_by_a_reorg_can_be_submitted_again() {
        // The reorg does not put `tx` back in the pool, but neither the
        // pool nor the new head holds it, so a client (or a peer's
        // re-offer) can submit it again.
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let rival = rival(&owner);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        assert!(miner.receive_tx(tx.clone(), 100));
        assert!(miner.mine(15_000).expect("miner seals").transactions.contains(&tx));
        for block in [rival.mine(14_000), rival.mine(29_000)] {
            assert_eq!(miner.receive_block(block.expect("rival seals")), BlockReceipt::Imported);
        }
        assert_eq!(miner.head_number(), 2, "the rival's longer branch is canonical");
        assert_eq!(miner.account_nonce(&owner.address()), 0);

        assert!(miner.receive_tx(tx.clone(), 200), "the displaced transaction is admitted again");
        assert!(miner.mine(45_000).expect("miner seals").transactions.contains(&tx));
        assert_eq!(miner.account_nonce(&owner.address()), 1);
    }

    #[test]
    fn a_transaction_refused_by_a_full_pool_is_admitted_once_there_is_room() {
        let owner = SecretKey::from_label(1);
        let node = NodeHandle::new(
            test_genesis(&owner),
            NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
                .coinbase(Address::from_low_u64(0xc01))
                .pool(PoolConfig { capacity: 1, ..PoolConfig::default() })
                .build(),
        );
        let pricier = crate::client::transfer(&owner, 0, Address::from_low_u64(0xb0b), U256::from(1u64), 10);
        let cheaper = crate::client::transfer(&SecretKey::from_label(2), 0, owner.address(), U256::ZERO, 1);
        assert!(node.receive_tx(pricier.clone(), 100));
        assert!(!node.receive_tx(cheaper.clone(), 200), "a full pool of pricier entries refuses it");
        assert!(node.mine(15_000).expect("miner seals").transactions.contains(&pricier));
        assert!(node.receive_tx(cheaper, 300), "the same transaction fits now");
    }

    #[test]
    fn mining_commits_pool_transactions() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        node.receive_tx(tx, 100);
        assert_eq!(node.pool_len(), 1);
        let block = node.mine(15_000).expect("miner node seals");
        assert_eq!(block.transactions.len(), 1);
        assert_eq!(node.head_number(), 1);
        assert_eq!(node.pool_len(), 0, "committed txs leave the pool");
        // The committed view moved.
        let (_, value) = node.committed_amv();
        assert_eq!(value, H256::from_low_u64(75));
    }

    #[test]
    fn non_miner_mine_is_none() {
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, false);
        assert!(node.mine(1_000).is_none());
    }

    #[test]
    fn self_import_failure_is_counted_not_swallowed() {
        // Regression: `mine()`'s import tail used to map `Err(_)` to
        // `None` silently. Force the failure by handing `import_mined` a
        // block built on a *different genesis* (its parent hash is
        // unknown here) and pin the failure telemetry.
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Geth, &owner, true);
        let foreign_owner = SecretKey::from_label(2);
        let foreign = NodeHandle::new(
            GenesisBuilder::new().fund(foreign_owner.address(), U256::from(1_000_000_000u64)).build(),
            NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
                .coinbase(Address::from_low_u64(0xc01))
                .build(),
        );
        let alien = foreign.build(15_000).expect("foreign miner builds");
        assert!(node.import_mined(alien).is_none());
        let snapshot = node.telemetry_snapshot();
        assert_eq!(snapshot.counters.get("node.self_import_failed").copied(), Some(1));
        assert_eq!(snapshot.counters.get("node.self_import_failed.unknown_parent").copied(), Some(1));
        // A successful mine is unaffected.
        assert!(node.mine(15_000).is_some());
        assert_eq!(node.telemetry_snapshot().counters.get("node.self_import_failed").copied(), Some(1));
    }

    /// A standard miner on the test genesis whose blocks differ from the
    /// default miner's (another coinbase), to race it for a height.
    fn rival(owner: &SecretKey) -> NodeHandle {
        NodeHandle::new(
            test_genesis(owner),
            NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
                .coinbase(Address::from_low_u64(0xd1f))
                .build(),
        )
    }

    #[test]
    fn sealed_block_beaten_to_the_head_keeps_its_transactions_pooled() {
        // `mine()` builds without the node lock, so a gossip block can
        // reach the head between the build and the self-import. The
        // sealed block then lands on a side chain and its transactions
        // are not committed, so they must stay pooled for the next block.
        // The miner's build step runs alone, so the rival can be imported
        // between it and the commit.
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        assert!(miner.receive_tx(tx.clone(), 100));
        let built = miner.build(15_000).expect("miner builds");
        let sealed = built.block.clone();
        assert!(sealed.transactions.contains(&tx));

        let gossip = rival(&owner).mine(14_000).expect("rival seals");
        assert_eq!(miner.receive_block(gossip.clone()), BlockReceipt::Imported);

        assert_eq!(miner.import_mined(built), Some(sealed));
        assert_eq!(miner.head_hash(), gossip.hash(), "the first block at height 1 keeps the head");
        assert!(miner.pool_contains(&tx.hash()), "a side-chain block commits nothing");
        assert_eq!(miner.telemetry_snapshot().counters.get("node.self_import_failed").copied(), None);

        let next = miner.mine(30_000).expect("miner seals");
        assert_eq!(next.header.parent_hash, gossip.hash());
        assert!(next.transactions.contains(&tx), "the pooled transaction commits next");
        assert!(!miner.pool_contains(&tx.hash()));
    }

    #[test]
    fn gossiped_block_beaten_to_the_head_keeps_its_transactions_pooled() {
        // The gossip path of the race above: a rival block takes height
        // 1, then a twin's block carrying the pooled `tx` arrives. It
        // loses fork choice, so it commits nothing and `tx` stays pooled.
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let twin = node(ClientKind::Geth, &owner, true);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        assert!(miner.receive_tx(tx.clone(), 100));
        assert!(twin.receive_tx(tx.clone(), 100));
        let sealed = twin.mine(15_000).expect("twin seals");
        assert!(sealed.transactions.contains(&tx));
        let gossip = rival(&owner).mine(14_000).expect("rival seals");

        assert_eq!(miner.receive_block(gossip.clone()), BlockReceipt::Imported);
        assert_eq!(miner.receive_block(sealed), BlockReceipt::Imported);
        assert_eq!(miner.head_hash(), gossip.hash(), "the first block at height 1 keeps the head");
        assert!(miner.pool_contains(&tx.hash()), "a side-chain block commits nothing");

        let next = miner.mine(30_000).expect("miner seals");
        assert!(next.transactions.contains(&tx), "the pooled transaction commits next");
    }

    #[test]
    fn released_orphan_on_a_side_chain_keeps_its_transactions_pooled() {
        // The orphan path: the twin's block 2 carries `tx` and arrives
        // before its parent, while the rival's chain already holds height
        // 2. Releasing it after its parent puts it on a side chain.
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let twin = node(ClientKind::Geth, &owner, true);
        let rival = rival(&owner);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        let t1 = twin.mine(15_000).expect("twin seals");
        assert!(twin.receive_tx(tx.clone(), 100));
        let t2 = twin.mine(30_000).expect("twin seals");
        assert!(t2.transactions.contains(&tx));
        for block in [rival.mine(14_000), rival.mine(29_000)] {
            assert_eq!(miner.receive_block(block.expect("rival seals")), BlockReceipt::Imported);
        }
        assert!(miner.receive_tx(tx.clone(), 100));

        assert_eq!(miner.receive_block(t2), BlockReceipt::Orphaned);
        assert_eq!(miner.receive_block(t1), BlockReceipt::Imported);
        assert!(miner.orphan_parents().is_empty(), "block 2 was released");
        assert_eq!(miner.stored_blocks(), 5, "genesis, two rival blocks, two twin blocks");
        assert_eq!(miner.head_number(), 2);
        assert!(miner.pool_contains(&tx.hash()), "a released side-chain block commits nothing");

        let next = miner.mine(45_000).expect("miner seals");
        assert!(next.transactions.contains(&tx), "the pooled transaction commits next");
    }

    #[test]
    fn blocks_propagate_between_nodes() {
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let follower = node(ClientKind::Geth, &owner, false);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        miner.receive_tx(tx.clone(), 100);
        follower.receive_tx(tx, 120);
        let block = miner.mine(15_000).unwrap();
        assert_eq!(follower.receive_block(block.clone()), BlockReceipt::Imported);
        assert_eq!(follower.receive_block(block), BlockReceipt::Known);
        assert_eq!(follower.head_number(), 1);
        assert_eq!(follower.pool_len(), 0, "follower pool cleaned after import");
    }

    #[test]
    fn a_follower_replays_each_received_block_once_and_the_miner_none() {
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Sereth, &owner, true);
        let follower = node(ClientKind::Sereth, &owner, false);
        let validations = |node: &NodeHandle| node.telemetry_snapshot().histograms["phase.validate"].count();
        let mut prev = genesis_mark();
        for (nonce, value) in [(0u64, 75u64), (1, 80), (2, 85)] {
            let tx = set_tx(&owner, nonce, prev, value);
            prev = sereth_core::mark::compute_mark(&prev, &H256::from_low_u64(value));
            assert!(miner.receive_tx(tx, 100 * (nonce + 1)));
            let block = miner.mine(15_000 * (nonce + 1)).expect("miner seals");
            assert_eq!(follower.receive_block(block.clone()), BlockReceipt::Imported);
            assert_eq!(follower.receive_block(block), BlockReceipt::Known, "a known block is not replayed");
        }
        assert_eq!(validations(&follower), 3, "one replay per received block");
        assert_eq!(validations(&miner), 0, "the miner commits what it built");
        assert_eq!(follower.head_hash(), miner.head_hash());
        assert_eq!(follower.head_state_root(), miner.head_state_root());
    }

    #[test]
    fn orphan_blocks_import_after_parent_arrives() {
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let follower = node(ClientKind::Geth, &owner, false);
        let b1 = miner.mine(15_000).unwrap();
        let b2 = miner.mine(30_000).unwrap();
        assert_eq!(follower.receive_block(b2), BlockReceipt::Orphaned);
        assert_eq!(follower.head_number(), 0);
        assert_eq!(follower.receive_block(b1), BlockReceipt::Imported);
        assert_eq!(follower.head_number(), 2, "orphan retried after parent");
    }

    /// A mined block with `parent_hash` changed to `parent`: an orphan
    /// that `ChainStore::import` refuses as `UnknownParent` before any
    /// replay, so a stash full of them is cheap to build.
    fn orphan_of(block: &Block, parent: u64) -> Block {
        let mut orphan = block.clone();
        orphan.header.parent_hash = H256::from_low_u64(parent);
        orphan
    }

    #[test]
    fn a_full_orphan_stash_drops_and_counts_the_next_orphan() {
        let owner = SecretKey::from_label(1);
        let block = node(ClientKind::Geth, &owner, true).mine(15_000).unwrap();
        let follower = node(ClientKind::Geth, &owner, false);
        for parent in 1..=ORPHAN_CAP as u64 {
            assert_eq!(follower.receive_block(orphan_of(&block, parent)), BlockReceipt::Orphaned);
        }
        let last = orphan_of(&block, ORPHAN_CAP as u64 + 1);
        assert_eq!(follower.receive_block(last), BlockReceipt::Dropped);
        let snapshot = follower.telemetry_snapshot();
        assert_eq!(snapshot.counters["node.orphans_dropped"], 1);
        assert_eq!(snapshot.histograms["phase.validate"].count(), 0, "no orphan was replayed");
        assert_eq!(follower.orphan_parents().len(), ORPHAN_CAP);
    }

    #[test]
    fn a_repeated_orphan_is_stashed_once() {
        let owner = SecretKey::from_label(1);
        let block = node(ClientKind::Geth, &owner, true).mine(15_000).unwrap();
        let follower = node(ClientKind::Geth, &owner, false);
        for _ in 0..ORPHAN_CAP {
            assert_eq!(follower.receive_block(orphan_of(&block, 1)), BlockReceipt::Orphaned);
        }
        assert_eq!(follower.receive_block(orphan_of(&block, 2)), BlockReceipt::Orphaned);
        assert_eq!(follower.orphan_parents(), vec![H256::from_low_u64(1), H256::from_low_u64(2)]);
    }

    #[test]
    fn a_resent_block_at_the_gc_floor_is_known_not_orphaned() {
        // A durable node keeps the block at its GC floor and prunes that
        // block's parent. Sent again, the block is known; a parent check
        // made first would stash it as an orphan.
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let dir = sereth_store::scratch_dir("node-gc-floor");
        let options = sereth_chain::DurableOptions { history: 2, snapshot_every: 4, ..Default::default() };
        let store = StateBackendConfig::Durable { dir: dir.clone(), options };
        let follower = NodeHandle::open(
            test_genesis(&owner),
            NodeConfig::builder().kind(ClientKind::Geth).store(store).build(),
        )
        .expect("fresh dir opens");
        let blocks: Vec<Block> = (1..=8).map(|n| miner.mine(15_000 * n).expect("miner seals")).collect();
        for block in &blocks {
            assert_eq!(follower.receive_block(block.clone()), BlockReceipt::Imported);
        }
        let floor = follower.with_inner(|inner| inner.chain.retained_floor());
        assert!(floor > 0, "the snapshot at block 8 ran GC");
        let at_floor = blocks[floor as usize - 1].clone();
        assert!(
            follower.with_inner(|inner| inner.chain.get(&at_floor.header.parent_hash).is_none()),
            "the floor block's parent is pruned"
        );
        assert_eq!(follower.receive_block(at_floor), BlockReceipt::Known);
        assert!(follower.orphan_parents().is_empty(), "nothing was stashed");
        std::fs::remove_dir_all(&dir).expect("scratch dir removable");
    }

    #[test]
    fn telemetry_reads_take_zero_node_locks() {
        // Metrics consumers, readers and submitters must never contend
        // with the miner. The snapshot reads registry atomics, head reads
        // clone the published head, pool reads go to the pool, and the
        // config is fixed at `open`, so the node-lock sample count must
        // not move at all: a call that locked would add its own sample on
        // unlock.
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Sereth, &owner, true);
        let first = set_tx(&owner, 0, genesis_mark(), 75);
        assert!(node.receive_tx(first.clone(), 100));
        node.mine(15_000).expect("miner seals");

        let before = lock_count(&node);
        let snapshot = node.telemetry_snapshot();
        assert_eq!(snapshot.histograms["node.lock_hold"].count(), before, "metrics reads must not lock");
        assert_eq!(lock_count(&node), before, "metrics reads must not take the node lock");

        let mark = sereth_core::mark::compute_mark(&genesis_mark(), &H256::from_low_u64(75));
        let second = set_tx(&owner, 1, mark, 80);
        assert!(node.receive_tx(second.clone(), 200));
        assert!(!node.receive_tx(first, 300), "a duplicate is refused without the node lock too");
        node.query_observed(owner.address()).unwrap();
        node.query_view_for(default_contract_address(), owner.address()).unwrap();
        node.committed_observed();
        node.state_reader();
        node.account_nonce(&owner.address());
        node.head_id();
        node.head_state_root();
        node.isolation();
        node.kind();
        assert!(node.pool_contains(&second.hash()));
        assert_eq!(node.pool_len(), 1);
        assert_eq!(lock_count(&node), before, "reads and admission must not take the node lock");

        assert!(snapshot.histograms["phase.receive_tx"].count() >= 1);
        assert!(snapshot.histograms["phase.admission"].count() >= 1);
        assert!(snapshot.histograms["phase.order_candidates"].count() >= 1);
        assert!(snapshot.histograms["phase.seal"].count() >= 1);
        assert!(snapshot.histograms["phase.import"].count() >= 1);
        assert_eq!(snapshot.histograms["phase.validate"].count(), 0, "a miner never replays its own block");
        assert!(snapshot.histograms["node.lock_hold"].count() >= 1);
        let roles: Vec<&str> = snapshot.blocks.iter().map(|t| t.role).collect();
        assert!(roles.contains(&"build") && roles.contains(&"import"), "traces: {roles:?}");
    }

    #[test]
    fn disabled_telemetry_records_and_costs_nothing() {
        let owner = SecretKey::from_label(1);
        let node = NodeHandle::new(
            test_genesis(&owner),
            NodeConfig::miner(default_contract_address(), MinerPolicy::Standard)
                .coinbase(Address::from_low_u64(0xc01))
                .telemetry(TelemetryConfig { enabled: false })
                .build(),
        );
        assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
        node.mine(15_000).expect("miner seals");
        let snapshot = node.telemetry_snapshot();
        assert!(snapshot.counters.is_empty(), "disabled hubs register nothing: {snapshot:?}");
        assert!(snapshot.histograms.is_empty());
        assert!(snapshot.blocks.is_empty());
    }

    #[test]
    fn builder_presets_cover_the_ladder() {
        let contract = Address::from_low_u64(0xfeed);
        let geth = NodeConfig::geth(contract).build();
        assert_eq!(geth.kind, ClientKind::Geth);
        assert_eq!(geth.contract, contract);
        assert!(geth.miner.is_none());
        assert_eq!(geth.isolation, IsolationLevel::ReadUncommitted, "the default is the paper's mode");

        let sereth = NodeConfig::sereth(contract).isolation(IsolationLevel::Sequential).build();
        assert_eq!(sereth.kind, ClientKind::Sereth);
        assert_eq!(sereth.isolation, IsolationLevel::Sequential);

        let miner = NodeConfig::miner(contract, MinerPolicy::Semantic(HmsConfig::default()))
            .coinbase(Address::from_low_u64(0xc0de))
            .max_txs(Some(10))
            .build();
        assert_eq!(miner.kind, ClientKind::Sereth, "semantic mining implies the modified client");
        let setup = miner.miner.expect("preset installs a miner");
        assert!(matches!(setup.policy, MinerPolicy::Semantic(_)));
        assert_eq!(setup.coinbase, Address::from_low_u64(0xc0de));
        assert_eq!(miner.limits.max_txs, Some(10));

        let standard = NodeConfig::miner(contract, MinerPolicy::Standard).build();
        assert_eq!(standard.kind, ClientKind::Geth);
    }

    #[test]
    fn read_committed_queries_never_observe_a_pending_pool_write() {
        // The ladder's regression guarantee: a Sereth node configured at
        // READ COMMITTED answers queries from committed state only, even
        // with a fresher write sitting in its pool.
        let owner = SecretKey::from_label(1);
        let node = node_at(ClientKind::Sereth, &owner, false, IsolationLevel::ReadCommitted);
        assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
        assert_eq!(node.pool_len(), 1, "the write is pending");
        let (mark, value) = node.query_view(owner.address()).unwrap();
        assert_eq!(mark, genesis_mark(), "no speculative mark leaks through");
        assert_eq!(value, H256::from_low_u64(50), "the committed price, not the pending 75");
        // And the per-level counter attributed the read.
        let counters = node.telemetry_snapshot().counters;
        assert_eq!(counters.get("iso.reads.read_committed").copied(), Some(1));
        assert_eq!(counters.get("iso.reads.read_uncommitted").copied(), None);
    }

    #[test]
    fn sequential_queries_pin_to_the_last_import() {
        use sereth_core::mark::compute_mark;
        let owner = SecretKey::from_label(1);
        let node = node_at(ClientKind::Sereth, &owner, true, IsolationLevel::Sequential);
        assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
        let observation = node.query_observed(owner.address()).unwrap();
        assert_eq!(observation.level, IsolationLevel::Sequential);
        assert_eq!(observation.height, 0, "pinned at genesis until an import moves it");
        assert_eq!(observation.value, H256::from_low_u64(50));

        node.mine(15_000).expect("miner seals");
        let observation = node.query_observed(owner.address()).unwrap();
        assert_eq!(observation.height, 1, "the import advanced the pin");
        assert_eq!(observation.mark, compute_mark(&genesis_mark(), &H256::from_low_u64(75)));
        assert_eq!(observation.value, H256::from_low_u64(75));
        assert_eq!(
            node.telemetry_snapshot().counters.get("iso.reads.sequential").copied(),
            Some(2),
            "both pinned reads counted"
        );
    }

    #[test]
    fn every_isolation_level_reads_with_zero_node_locks() {
        let owner = SecretKey::from_label(1);
        for level in IsolationLevel::ALL {
            for kind in [ClientKind::Geth, ClientKind::Sereth] {
                let node = node_at(kind, &owner, false, level);
                let before = lock_count(&node);
                node.query_view(owner.address()).unwrap();
                assert_eq!(lock_count(&node), before, "query_view at {level} on {kind:?}");
                node.committed_observed();
                assert_eq!(lock_count(&node), before, "committed_observed at {level} on {kind:?}");
            }
        }
    }

    #[test]
    fn reads_and_admission_finish_while_the_node_lock_is_held() {
        // A thread parked inside `with_inner` stands in for an import
        // holding the node lock through replay and a state root. Every
        // head and pool read and `receive_tx` must still finish on
        // another thread. Unlike `lock_count`, this also catches a raw
        // re-lock that bypasses the timed guard.
        let owner = SecretKey::from_label(1);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        let mut waited = Vec::new();
        let mut check = |node: &NodeHandle, name: String, read: &dyn Fn()| {
            if !finishes_under_a_held_node_lock(node, read) {
                waited.push(name);
            }
        };
        for level in IsolationLevel::ALL {
            for kind in [ClientKind::Geth, ClientKind::Sereth] {
                let node = node_at(kind, &owner, false, level);
                let on = format!("at {level} on {kind:?}");
                check(&node, format!("receive_tx {on}"), &|| assert!(node.receive_tx(tx.clone(), 100)));
                check(&node, format!("query_observed {on}"), &|| {
                    node.query_observed(owner.address()).unwrap();
                });
            }
        }

        let node = node(ClientKind::Sereth, &owner, false);
        assert!(node.receive_tx(tx.clone(), 100));
        check(&node, "committed_observed".into(), &|| assert_eq!(node.committed_observed().height, 0));
        check(&node, "state_reader".into(), &|| assert_eq!(node.state_reader().height(), 0));
        check(&node, "account_nonce".into(), &|| assert_eq!(node.account_nonce(&owner.address()), 0));
        check(&node, "pool_len".into(), &|| assert_eq!(node.pool_len(), 1));
        check(&node, "pool_contains".into(), &|| assert!(node.pool_contains(&tx.hash())));
        check(&node, "kind".into(), &|| assert_eq!(node.kind(), ClientKind::Sereth));
        check(&node, "config".into(), &|| assert_eq!(node.config().contract, default_contract_address()));
        check(&node, "Debug".into(), &|| assert!(format!("{node:?}").contains("Sereth")));
        assert!(waited.is_empty(), "these waited for the node lock: {waited:?}");
    }

    #[test]
    fn ru_observations_match_the_committed_state_at_their_stamped_height() {
        // With the pool empty, a READ-UNCOMMITTED answer is the committed
        // `(mark, value)`. The RAA provider reads it from the head the
        // query captured, so it must be the state at the stamped height.
        use sereth_core::mark::compute_mark;
        let owner = SecretKey::from_label(1);
        let node = node(ClientKind::Sereth, &owner, true);
        let mut mark = genesis_mark();
        for nonce in 0..4 {
            let value = 60 + nonce;
            assert!(node.receive_tx(set_tx(&owner, nonce, mark, value), 100 * (nonce + 1)));
            node.mine(15_000 * (nonce + 1)).expect("miner seals");
            assert_eq!(node.pool_len(), 0, "the set committed");
            mark = compute_mark(&mark, &H256::from_low_u64(value));

            let observation = node.query_observed(owner.address()).unwrap();
            assert_eq!(observation.height, nonce + 1);
            let view = node
                .with_inner(|inner| inner.chain.state_view_at(observation.height))
                .expect("canonical height");
            assert_eq!(
                (observation.mark, observation.value),
                committed_amv(&view, &default_contract_address())
            );
            assert_eq!((observation.mark, observation.value), (mark, H256::from_low_u64(value)));
        }
    }

    #[test]
    fn semantic_ordering_degrades_to_standard_above_read_uncommitted() {
        let owner = SecretKey::from_label(1);
        let contract = default_contract_address();
        for level in [IsolationLevel::ReadCommitted, IsolationLevel::Sequential] {
            let node = NodeHandle::new(
                test_genesis(&owner),
                NodeConfig::miner(contract, MinerPolicy::Semantic(HmsConfig::default()))
                    .coinbase(Address::from_low_u64(0xc01))
                    .isolation(level)
                    .build(),
            );
            assert!(node.receive_tx(set_tx(&owner, 0, genesis_mark(), 75), 100));
            node.mine(15_000).expect("miner seals");
            let counters = node.telemetry_snapshot().counters;
            assert_eq!(counters.get("iso.policy_degraded").copied(), Some(1), "degraded at {level}");
        }
        // At READ UNCOMMITTED the semantic and PWV policies run
        // undegraded: each mine is one ordering pass that commits the set.
        for policy in [MinerPolicy::Semantic(HmsConfig::default()), MinerPolicy::Pwv] {
            let node = NodeHandle::new(
                test_genesis(&owner),
                NodeConfig::miner(contract, policy.clone()).coinbase(Address::from_low_u64(0xc01)).build(),
            );
            let mut mark = genesis_mark();
            for nonce in 0..2 {
                let value = 75 + nonce;
                assert!(node.receive_tx(set_tx(&owner, nonce, mark, value), 100 + nonce));
                let passes = || node.telemetry_snapshot().histograms["phase.order_candidates"].count();
                let before = passes();
                let block = node.mine(15_000 * (nonce + 1)).expect("miner seals");
                assert_eq!(block.transactions.len(), 1, "{policy:?} commits the set");
                assert_eq!(passes() - before, 1, "{policy:?} orders once per mine");
                mark = sereth_core::mark::compute_mark(&mark, &H256::from_low_u64(value));
            }
            assert_eq!(node.telemetry_snapshot().counters.get("iso.policy_degraded").copied(), None);
        }
    }

    #[test]
    fn tampered_blocks_are_rejected() {
        use bytes::Bytes;
        let owner = SecretKey::from_label(1);
        let miner = node(ClientKind::Geth, &owner, true);
        let follower = node(ClientKind::Geth, &owner, false);
        let tx = set_tx(&owner, 0, genesis_mark(), 75);
        miner.receive_tx(tx, 100);
        let mut block = miner.mine(15_000).unwrap();
        // RAA-style tampering of the signed calldata.
        block.transactions[0] = block.transactions[0].with_tampered_input(Bytes::from_static(b"oops"));
        block.header.tx_root = Block::compute_tx_root(&block.transactions);
        assert_eq!(follower.receive_block(block), BlockReceipt::Rejected);
        assert_eq!(follower.head_number(), 0);
    }
}
