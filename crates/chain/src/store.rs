//! The chain store: block storage, canonical-chain tracking, longest-chain
//! fork choice — and, when it holds a [`DurableStore`], durable persistence
//! with crash recovery and MVCC epoch-pinned reads.
//!
//! Construction goes through [`ChainStore::open`] with a [`StoreConfig`]:
//! [`StoreConfig::in_memory`] keeps everything in the COW account map and
//! never prunes; [`StoreConfig::durable`] adds a snapshot + journal
//! directory that survives restarts. Reads are identical on both: O(1)
//! [`StateView`] snapshots that pin their epoch in the store's one pin
//! table, so garbage collection never reclaims a height a reader still
//! holds.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_store::{
    AccountRecord, BlockRecord, CodeRecord, DurableOptions, DurableStore, EpochPins, Recovered,
    SnapshotRecord, StoreError,
};
use sereth_telemetry::{BlockTrace, Phase, Telemetry};
use sereth_types::block::Block;
use sereth_types::receipt::Receipt;
use sereth_vm::exec::ContractCode;

use crate::builder::BuiltBlock;
use crate::genesis::Genesis;
use crate::state::{Account, StateDb, StateView};
use crate::validation::{validate_block, ValidationError};

/// A block retained with its replay artifacts.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    /// The block itself.
    pub block: Block,
    /// Receipts, from validation replay or, for a block this process
    /// built, from the builder.
    pub receipts: Vec<Receipt>,
    /// State after the block.
    pub post_state: StateDb,
}

/// What happened when a block was imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportOutcome {
    /// The block extended the canonical head.
    ExtendedCanonical,
    /// The block joined a side chain that is not (yet) canonical.
    SideChain,
    /// The block caused a reorganisation; the previous head was replaced.
    Reorged {
        /// Canonical blocks discarded by the reorg.
        reverted: usize,
    },
    /// The block was already known.
    AlreadyKnown,
}

/// Errors from [`ChainStore::import`] and [`ChainStore::import_built`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportError {
    /// The parent block is unknown (the substrate does not buffer orphans;
    /// gossip re-delivery handles them in the simulator).
    UnknownParent,
    /// The block failed replay validation.
    Invalid(ValidationError),
    /// Persisting the (validly imported) block failed. The in-memory
    /// import stands; the journal is behind — callers should treat this
    /// as fatal for the durable directory.
    Store(StoreError),
}

impl core::fmt::Display for ImportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownParent => write!(f, "unknown parent block"),
            Self::Invalid(err) => write!(f, "invalid block: {err}"),
            Self::Store(err) => write!(f, "block imported but not persisted: {err}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// Whether a store persists: in memory only, or through a
/// [`DurableStore`] opened on a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateBackendConfig {
    /// State lives purely in the COW account map; nothing persists,
    /// nothing is pruned.
    InMemory,
    /// Snapshot + journal persistence rooted at `dir`.
    Durable {
        /// The store directory (created if absent).
        dir: PathBuf,
        /// Segment rotation, snapshot cadence, retention, fsync.
        options: DurableOptions,
    },
}

/// Everything [`ChainStore::open`] needs: the genesis to root at, whether
/// and where to persist, and the telemetry hub to record into.
///
/// # Examples
///
/// ```
/// use sereth_chain::genesis::GenesisBuilder;
/// use sereth_chain::store::{ChainStore, StoreConfig};
///
/// let genesis = GenesisBuilder::new().build();
/// let store = ChainStore::open(StoreConfig::in_memory(genesis)).unwrap();
/// assert_eq!(store.head_number(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct StoreConfig {
    genesis: Genesis,
    backend: StateBackendConfig,
    telemetry: Option<Arc<Telemetry>>,
}

impl StoreConfig {
    /// A non-persistent store rooted at `genesis` — the default for
    /// simulations and tests.
    pub fn in_memory(genesis: Genesis) -> Self {
        Self { genesis, backend: StateBackendConfig::InMemory, telemetry: None }
    }

    /// A durable store rooted at `genesis`, persisting under `dir` with
    /// default [`DurableOptions`]. Reopening the same directory recovers
    /// the chain; a directory from a different genesis is refused.
    pub fn durable(genesis: Genesis, dir: impl Into<PathBuf>) -> Self {
        Self {
            genesis,
            backend: StateBackendConfig::Durable { dir: dir.into(), options: DurableOptions::default() },
            telemetry: None,
        }
    }

    /// Rebuilds with an explicit backend choice (how node configs carry
    /// the selection without holding a `Genesis` yet).
    pub fn with_backend(mut self, backend: StateBackendConfig) -> Self {
        self.backend = backend;
        self
    }

    /// Records store metrics into a shared hub instead of a private one —
    /// what a node does so store metrics land in the node-wide registry.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Overrides the durable engine's options. No effect on an in-memory
    /// config.
    pub fn durable_options(mut self, options: DurableOptions) -> Self {
        if let StateBackendConfig::Durable { options: slot, .. } = &mut self.backend {
            *slot = options;
        }
        self
    }
}

/// Block storage with longest-chain fork choice (ties favour the incumbent,
/// then the lower hash, so every node resolves ties identically).
///
/// A durable store appends every import's account write-set to the
/// journal and — on the snapshot cadence — checkpoints full state,
/// garbage-collecting disk segments *and* in-memory block versions down to
/// `min(pinned epoch, head - history)`. An in-memory store keeps every
/// block.
#[derive(Debug)]
pub struct ChainStore {
    blocks: HashMap<H256, StoredBlock>,
    /// Canonical block hashes by height; the last one is the head.
    canonical: Vec<H256>,
    /// Lowest height still resident in memory. 0 until durable pruning
    /// runs; reads below it return `None`.
    floor: u64,
    /// The hub `import` records into: `validate`/`import` phase
    /// histograms and per-block traces.
    telemetry: Arc<Telemetry>,
    /// The engine imports persist through; `None` in an in-memory store,
    /// which persists and prunes nothing.
    durable: Option<DurableStore>,
    /// Every view handed out pins its epoch here, and durable GC never
    /// passes the lowest pin.
    pins: EpochPins,
    /// Native contract code by address, harvested from genesis — the only
    /// installer of native code — so recovery can re-resolve
    /// [`CodeRecord::Native`] names back to live objects.
    natives: BTreeMap<Address, ContractCode>,
}

impl ChainStore {
    /// Opens a store per `config`: roots at the genesis, and on a durable
    /// backend recovers whatever the directory already holds (snapshot
    /// restore + journal replay, torn tails truncated) or seeds a fresh
    /// directory with a genesis checkpoint.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// when recovered data fails integrity checks, and
    /// [`StoreError::GenesisMismatch`] when the directory belongs to a
    /// different chain. In-memory opens are infallible in practice.
    pub fn open(config: StoreConfig) -> Result<Self, StoreError> {
        let StoreConfig { genesis, backend, telemetry } = config;
        let telemetry = telemetry.unwrap_or_else(|| Arc::new(Telemetry::enabled()));
        let natives: BTreeMap<Address, ContractCode> = genesis
            .state
            .iter()
            .filter(|(_, account)| matches!(account.code, ContractCode::Native(_)))
            .map(|(address, account)| (*address, account.code.clone()))
            .collect();
        let genesis_hash = genesis.block.hash();
        let stored = StoredBlock { block: genesis.block, receipts: vec![], post_state: genesis.state };
        let mut blocks = HashMap::new();
        blocks.insert(genesis_hash, stored);

        let mut store = Self {
            blocks,
            canonical: vec![genesis_hash],
            floor: 0,
            telemetry,
            durable: None,
            pins: EpochPins::new(),
            natives,
        };
        if let StateBackendConfig::Durable { dir, options } = backend {
            let (mut engine, recovered) = DurableStore::open(dir, options)?;
            store.recover(&mut engine, recovered)?;
            store.durable = Some(engine);
        }
        Ok(store)
    }

    /// The epoch-pin table every view from this store registers in.
    /// Cloning shares it.
    pub fn pins(&self) -> &EpochPins {
        &self.pins
    }

    /// `true` when imports persist to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Lowest canonical height still readable. Always 0 in memory-only
    /// stores; durable pruning advances it (never past a pinned epoch).
    pub fn retained_floor(&self) -> u64 {
        self.floor
    }

    /// Hash of the canonical head.
    pub fn head_hash(&self) -> H256 {
        *self.canonical.last().expect("the canonical chain holds at least its base block")
    }

    fn head(&self) -> &StoredBlock {
        &self.blocks[&self.head_hash()]
    }

    /// The canonical head block.
    pub fn head_block(&self) -> &Block {
        &self.head().block
    }

    /// State at the canonical head.
    pub fn head_state(&self) -> &StateDb {
        &self.head().post_state
    }

    /// An O(1) immutable snapshot of the canonical head state. This is the
    /// read path: the view can be handed out of any lock guarding the
    /// store and stays frozen while the chain advances. The view pins its
    /// epoch, so garbage collection keeps the height servable until the
    /// last clone drops.
    pub fn head_state_view(&self) -> StateView {
        self.head_state().view().with_pin(self.pins.pin(self.head_number()))
    }

    /// An O(1) immutable, epoch-pinned snapshot of the canonical state at
    /// `number` — `None` when the height does not exist or was pruned
    /// below the retention floor.
    pub fn state_view_at(&self, number: u64) -> Option<StateView> {
        self.canonical_block(number).map(|stored| stored.post_state.view().with_pin(self.pins.pin(number)))
    }

    /// Height of the canonical head.
    pub fn head_number(&self) -> u64 {
        self.head_block().number()
    }

    /// Looks up any stored block by hash.
    pub fn get(&self, hash: &H256) -> Option<&StoredBlock> {
        self.blocks.get(hash)
    }

    /// The canonical block at `number`, if within the chain and not pruned.
    pub fn canonical_block(&self, number: u64) -> Option<&StoredBlock> {
        self.canonical.get(number as usize).and_then(|hash| self.blocks.get(hash))
    }

    /// `true` if `hash` is on the canonical chain.
    pub fn is_canonical(&self, hash: &H256) -> bool {
        self.blocks
            .get(hash)
            .is_some_and(|stored| self.canonical.get(stored.block.number() as usize) == Some(hash))
    }

    /// Finds the *canonical* receipt of a transaction, with the block it
    /// committed in — the `eth_getTransactionReceipt` analogue. Returns
    /// `None` while the transaction is pending (or only on side chains),
    /// and cannot see blocks pruned below the retention floor.
    pub fn find_receipt(&self, tx_hash: &H256) -> Option<(&StoredBlock, &Receipt)> {
        // Pool sizes and chain lengths in the simulation make a linear
        // scan over canonical blocks perfectly adequate; an index would
        // need reorg-aware maintenance for no measurable gain here.
        for block_hash in self.canonical.iter().rev() {
            let Some(stored) = self.blocks.get(block_hash) else { break };
            if let Some(receipt) = stored.receipts.iter().find(|r| &r.tx_hash == tx_hash) {
                return Some((stored, receipt));
            }
        }
        None
    }

    /// All retained canonical logs whose first topic equals `topic`,
    /// oldest first, with their block numbers — the `eth_getLogs` analogue
    /// the metrics and clients use to observe contract-level success
    /// events.
    pub fn logs_with_topic(&self, topic: &H256) -> Vec<(u64, sereth_types::receipt::Log)> {
        let mut out = Vec::new();
        for block_hash in &self.canonical {
            let Some(stored) = self.blocks.get(block_hash) else { continue };
            for receipt in &stored.receipts {
                for log in &receipt.logs {
                    if log.topics.first() == Some(topic) {
                        out.push((stored.block.number(), log.clone()));
                    }
                }
            }
        }
        out
    }

    /// Number of resident blocks (canonical and side-chain; pruned blocks
    /// are not counted).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if the chain has not advanced past genesis.
    pub fn is_empty(&self) -> bool {
        self.head_number() == 0
    }

    /// Validates and stores `block`, running fork choice, then — on a
    /// durable store — journals the block's write-set and checkpoints on
    /// the snapshot cadence (pruning memory and disk down to the GC floor,
    /// which never passes a pinned epoch).
    ///
    /// # Errors
    ///
    /// See [`ImportError`].
    pub fn import(&mut self, block: Block) -> Result<ImportOutcome, ImportError> {
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return Ok(ImportOutcome::AlreadyKnown);
        }
        let parent = self.blocks.get(&block.header.parent_hash).ok_or(ImportError::UnknownParent)?;
        // Timed whether or not the block is accepted: an invalid block
        // costs (up to) a full replay before its verdict, and that spend
        // must show in `phase.validate`.
        let (validated, validate_ns) = self
            .telemetry
            .time_ns(Phase::Validate, || validate_block(&parent.block.header, &parent.post_state, &block));
        let validated = validated.map_err(ImportError::Invalid)?;
        let stored = StoredBlock { block, receipts: validated.receipts, post_state: validated.post_state };
        self.commit(hash, stored, vec![(Phase::Validate, validate_ns)])
    }

    /// Stores a block this process built with
    /// [`build_block_traced`](crate::builder::build_block_traced) on a
    /// stored parent, as [`ChainStore::import`] does but without replaying
    /// it: building and replay run the one `apply_transaction`, so the
    /// builder's receipts and post-state are what a replay would produce.
    /// Blocks from anywhere else go through [`ChainStore::import`].
    ///
    /// # Errors
    ///
    /// [`ImportError::UnknownParent`] when the parent is not stored and
    /// [`ImportError::Store`] as for [`ChainStore::import`]; never
    /// [`ImportError::Invalid`].
    pub fn import_built(&mut self, built: BuiltBlock) -> Result<ImportOutcome, ImportError> {
        let BuiltBlock { block, receipts, post_state, .. } = built;
        let hash = block.hash();
        if self.blocks.contains_key(&hash) {
            return Ok(ImportOutcome::AlreadyKnown);
        }
        if !self.blocks.contains_key(&block.header.parent_hash) {
            return Err(ImportError::UnknownParent);
        }
        self.commit(hash, StoredBlock { block, receipts, post_state }, Vec::new())
    }

    /// The commit both imports share: insert, fork choice, the
    /// `import`-role trace (after the phases in `phase_ns`) and, on a
    /// durable store, persistence of the write-set against the parent.
    fn commit(
        &mut self,
        hash: H256,
        stored: StoredBlock,
        mut phase_ns: Vec<(Phase, u64)>,
    ) -> Result<ImportOutcome, ImportError> {
        let telemetry = Arc::clone(&self.telemetry);
        let number = stored.block.number();
        let (outcome, import_ns) = telemetry.time_ns(Phase::Import, || {
            self.blocks.insert(hash, stored);
            self.place_block(hash, number)
        });
        phase_ns.push((Phase::Import, import_ns));
        telemetry.trace_block(BlockTrace { number, role: "import", phase_ns });
        self.persist_block(&hash).map_err(ImportError::Store)?;
        Ok(outcome)
    }

    /// Fork choice for the already-inserted block `hash` at `number`:
    /// strictly longer chains win; equal length keeps the incumbent
    /// (deterministic but incumbent-sticky, like observed miner
    /// behaviour). Shared by live imports and recovery replay.
    fn place_block(&mut self, hash: H256, number: u64) -> ImportOutcome {
        if number <= self.head_number() {
            return ImportOutcome::SideChain;
        }
        let extends_head = number > 0
            && self.canonical.get(number as usize - 1) == Some(&self.blocks[&hash].block.header.parent_hash);
        if extends_head {
            self.canonical.push(hash);
            ImportOutcome::ExtendedCanonical
        } else {
            let reverted = self.rebuild_canonical(hash);
            ImportOutcome::Reorged { reverted }
        }
    }

    /// Rewrites the canonical vector to end at `new_head`, returning how
    /// many previously-canonical blocks were displaced. Walks parents only
    /// back to the fork point (the first ancestor already canonical at its
    /// height), so reorg cost scales with fork depth, not chain length.
    fn rebuild_canonical(&mut self, new_head: H256) -> usize {
        let mut path = Vec::new();
        let mut cursor = new_head;
        let splice_at = loop {
            let Some(stored) = self.blocks.get(&cursor) else {
                // The fork point fell below the pruned horizon. Imports
                // reject unknown parents, so no live fork can reach here
                // while retention covers `history` epochs; splice at the
                // front defensively rather than panic.
                break 0;
            };
            let number = stored.block.number() as usize;
            if self.canonical.get(number) == Some(&cursor) {
                break number + 1;
            }
            path.push(cursor);
            if number == 0 {
                break 0;
            }
            cursor = stored.block.header.parent_hash;
        };
        path.reverse();
        let displaced = self.canonical.len().saturating_sub(splice_at);
        self.canonical.truncate(splice_at);
        self.canonical.extend(path);
        displaced
    }

    /// Iterates retained canonical blocks in height order (from the
    /// retention floor — genesis unless durable pruning advanced it — to
    /// head).
    pub fn canonical_chain(&self) -> impl Iterator<Item = &StoredBlock> + '_ {
        self.canonical.iter().filter_map(move |hash| self.blocks.get(hash))
    }

    // ---- durable path -----------------------------------------------------

    /// On a durable store, journals the freshly imported block `hash` (its
    /// write-set against its parent's post-state) and, on the snapshot
    /// cadence, checkpoints and prunes down to the engine's GC base, which
    /// never passes a pinned epoch. An in-memory store does nothing here.
    fn persist_block(&mut self, hash: &H256) -> Result<(), StoreError> {
        let Some(durable) = &mut self.durable else { return Ok(()) };
        let stored = &self.blocks[hash];
        let parent = &self.blocks[&stored.block.header.parent_hash];
        let writes = parent
            .post_state
            .view()
            .diff_accounts(&stored.post_state.view())
            .into_iter()
            .map(|(address, post)| (address, post.map(|account| account_to_record(&account))))
            .collect();
        durable.record_block(&BlockRecord {
            block: stored.block.clone(),
            receipts: stored.receipts.clone(),
            writes,
        })?;
        // Field borrows rather than `self.head()`, which `durable` forbids.
        let head =
            &self.blocks[self.canonical.last().expect("the canonical chain holds at least its base block")];
        if durable.wants_snapshot(head.block.number()) {
            let floor =
                durable.apply_snapshot(snapshot_record(head, &self.canonical), self.pins.min_pinned())?;
            self.prune_below(floor);
        }
        Ok(())
    }

    /// Drops in-memory blocks below `floor` — the durable engine's GC
    /// base, which already honours the pin table, so pinned heights stay
    /// resident. Reads below the floor return `None` afterwards.
    fn prune_below(&mut self, floor: u64) {
        if floor <= self.floor {
            return;
        }
        self.blocks.retain(|_, stored| stored.block.number() >= floor);
        self.floor = floor;
    }

    /// Rebuilds chain state from what `engine` recovered from its
    /// directory: restore the newest snapshot, replay intact journal
    /// records through the same fork choice as live imports, and verify the
    /// head commitment. A fresh directory instead gets seeded with a
    /// genesis checkpoint so the journal always has a base.
    fn recover(&mut self, engine: &mut DurableStore, recovered: Recovered) -> Result<(), StoreError> {
        let genesis_hash = self.canonical[0];
        match recovered.snapshot {
            None => {
                engine.apply_snapshot(snapshot_record(self.head(), &self.canonical), None)?;
            }
            Some(snapshot) => {
                if snapshot.genesis_hash != genesis_hash {
                    return Err(StoreError::GenesisMismatch {
                        on_disk: snapshot.genesis_hash,
                        expected: genesis_hash,
                    });
                }
                self.restore_snapshot(snapshot)?;
                for record in recovered.blocks {
                    self.replay_record(record)?;
                }
                let head = self.head();
                if head.post_state.state_root() != head.block.header.state_root {
                    return Err(StoreError::corrupt(format!(
                        "recovered head {} does not reproduce its state root",
                        head.block.number()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Installs a decoded snapshot as the chain's base: full account map,
    /// canonical index, head. Everything below it lives only on disk.
    fn restore_snapshot(&mut self, snapshot: SnapshotRecord) -> Result<(), StoreError> {
        let hash = snapshot.block.hash();
        if snapshot.block.number() != snapshot.epoch
            || snapshot.canonical.len() as u64 != snapshot.epoch + 1
            || snapshot.canonical.last() != Some(&hash)
            || snapshot.canonical.first() != Some(&self.canonical[0])
        {
            return Err(StoreError::corrupt("snapshot canonical index is inconsistent"));
        }
        let mut accounts = Vec::with_capacity(snapshot.accounts.len());
        for (address, record) in &snapshot.accounts {
            accounts.push((*address, self.account_from_record(*address, record)?));
        }
        let state = StateDb::from_accounts(accounts);
        if state.state_root() != snapshot.block.header.state_root {
            return Err(StoreError::corrupt(format!(
                "snapshot {} does not reproduce its state root",
                snapshot.epoch
            )));
        }
        let stored = StoredBlock { block: snapshot.block, receipts: snapshot.receipts, post_state: state };
        self.blocks.clear();
        self.blocks.insert(hash, stored);
        self.floor = snapshot.epoch;
        self.canonical = snapshot.canonical;
        Ok(())
    }

    /// Replays one journal record during recovery: apply its write-set to
    /// the parent's post-state and run fork choice. Records whose parent
    /// is unknown (pruned below the snapshot base, or on a discarded side
    /// chain) are skipped — fork choice could never select them over the
    /// snapshot head.
    fn replay_record(&mut self, record: BlockRecord) -> Result<(), StoreError> {
        let hash = record.block.hash();
        if self.blocks.contains_key(&hash) {
            return Ok(());
        }
        let Some(parent) = self.blocks.get(&record.block.header.parent_hash) else {
            return Ok(());
        };
        let mut post_state = parent.post_state.clone();
        post_state.clear_journal();
        for (address, write) in record.writes {
            let account = write.map(|post| self.account_from_record(address, &post)).transpose()?;
            post_state.replace_account(address, account);
        }
        let number = record.block.number();
        self.blocks.insert(hash, StoredBlock { block: record.block, receipts: record.receipts, post_state });
        self.place_block(hash, number);
        Ok(())
    }

    /// Reconstructs a live [`Account`] from its persisted image, resolving
    /// native-code names against what this genesis installed.
    fn account_from_record(&self, address: Address, record: &AccountRecord) -> Result<Account, StoreError> {
        let code = match &record.code {
            CodeRecord::None => ContractCode::None,
            CodeRecord::Bytecode(code) => ContractCode::Bytecode(code.clone()),
            CodeRecord::Native(name) => match self.natives.get(&address) {
                Some(code @ ContractCode::Native(native)) if native.name() == name.as_str() => code.clone(),
                _ => {
                    return Err(StoreError::corrupt(format!(
                        "native contract '{name}' at {address} is not installed by this genesis"
                    )))
                }
            },
        };
        Ok(Account {
            nonce: record.nonce,
            balance: record.balance,
            code,
            storage: record.storage.iter().copied().collect(),
        })
    }
}

/// A full checkpoint of `head`, the last block of `canonical`: block,
/// receipts, the height-indexed canonical hash list, and every account.
fn snapshot_record(head: &StoredBlock, canonical: &[H256]) -> SnapshotRecord {
    SnapshotRecord {
        genesis_hash: canonical[0],
        epoch: head.block.number(),
        block: head.block.clone(),
        receipts: head.receipts.clone(),
        canonical: canonical.to_vec(),
        accounts: head
            .post_state
            .iter()
            .map(|(address, account)| (*address, account_to_record(account)))
            .collect(),
    }
}

/// The persisted image of a live [`Account`].
fn account_to_record(account: &Account) -> AccountRecord {
    let code = match &account.code {
        ContractCode::None => CodeRecord::None,
        ContractCode::Bytecode(code) => CodeRecord::Bytecode(code.clone()),
        ContractCode::Native(native) => CodeRecord::Native(native.name().to_string()),
    };
    AccountRecord {
        nonce: account.nonce,
        balance: account.balance,
        code,
        storage: account.storage.iter().map(|(key, value)| (*key, *value)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_block, BlockLimits};
    use crate::genesis::GenesisBuilder;
    use bytes::Bytes;
    use sereth_crypto::sig::SecretKey;
    use sereth_store::scratch_dir;
    use sereth_types::transaction::{Transaction, TxPayload};
    use sereth_types::u256::U256;

    fn genesis(key: &SecretKey) -> Genesis {
        GenesisBuilder::new().fund(key.address(), U256::from(100_000_000u64)).build()
    }

    fn open_mem(genesis: Genesis) -> ChainStore {
        ChainStore::open(StoreConfig::in_memory(genesis)).unwrap()
    }

    fn transfer(key: &SecretKey, nonce: u64, value: u64) -> Transaction {
        Transaction::sign(
            TxPayload {
                nonce,
                gas_price: 1,
                gas_limit: 21_000,
                to: Some(Address::from_low_u64(7)),
                value: U256::from(value),
                input: Bytes::new(),
            },
            key,
        )
    }

    fn extend(store: &ChainStore, txs: Vec<Transaction>, miner: u64, ts: u64) -> Block {
        let parent = store.head_block().header.clone();
        build_block(
            &parent,
            store.head_state(),
            txs,
            Address::from_low_u64(miner),
            ts,
            &BlockLimits::default(),
        )
        .block
    }

    #[test]
    fn imports_extend_canonical_chain() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let b1 = extend(&store, vec![transfer(&key, 0, 5)], 1, 15_000);
        assert_eq!(store.import(b1.clone()).unwrap(), ImportOutcome::ExtendedCanonical);
        assert_eq!(store.head_number(), 1);
        let b2 = extend(&store, vec![transfer(&key, 1, 5)], 1, 30_000);
        assert_eq!(store.import(b2).unwrap(), ImportOutcome::ExtendedCanonical);
        assert_eq!(store.head_number(), 2);
        assert_eq!(store.canonical_chain().count(), 3);
        assert!(store.is_canonical(&b1.hash()));
    }

    #[test]
    fn duplicate_import_is_already_known() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let b1 = extend(&store, vec![], 1, 15_000);
        store.import(b1.clone()).unwrap();
        assert_eq!(store.import(b1).unwrap(), ImportOutcome::AlreadyKnown);
    }

    #[test]
    fn unknown_parent_rejected() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let mut b1 = extend(&store, vec![], 1, 15_000);
        b1.header.parent_hash = H256::keccak(b"nowhere");
        assert_eq!(store.import(b1).unwrap_err(), ImportError::UnknownParent);
    }

    #[test]
    fn invalid_block_rejected() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let mut b1 = extend(&store, vec![transfer(&key, 0, 5)], 1, 15_000);
        b1.header.state_root = H256::keccak(b"lies");
        assert!(matches!(store.import(b1).unwrap_err(), ImportError::Invalid(_)));
        assert_eq!(store.head_number(), 0, "head unchanged after rejection");
    }

    #[test]
    fn equal_length_fork_stays_with_incumbent() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let b1a = extend(&store, vec![], 1, 15_000);
        let b1b = extend(&store, vec![], 2, 16_000); // same parent, different miner
        store.import(b1a.clone()).unwrap();
        assert_eq!(store.import(b1b).unwrap(), ImportOutcome::SideChain);
        assert_eq!(store.head_hash(), b1a.hash());
    }

    #[test]
    fn longer_side_chain_triggers_reorg() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        // Canonical: g -> a1.
        let a1 = extend(&store, vec![transfer(&key, 0, 1)], 1, 15_000);
        store.import(a1.clone()).unwrap();
        // Side chain from genesis: g -> b1 -> b2 (longer).
        let g = store.canonical_block(0).unwrap().block.header.clone();
        let g_state = store.canonical_block(0).unwrap().post_state.clone();
        let b1 = build_block(&g, &g_state, vec![], Address::from_low_u64(2), 16_000, &BlockLimits::default());
        store.import(b1.block.clone()).unwrap();
        let b2 = build_block(
            &b1.block.header,
            &b1.post_state,
            vec![transfer(&key, 0, 2)],
            Address::from_low_u64(2),
            31_000,
            &BlockLimits::default(),
        );
        let outcome = store.import(b2.block.clone()).unwrap();
        assert_eq!(outcome, ImportOutcome::Reorged { reverted: 1 });
        assert_eq!(store.head_hash(), b2.block.hash());
        assert!(!store.is_canonical(&a1.hash()));
        assert!(store.is_canonical(&b1.block.hash()));
        assert_eq!(store.head_number(), 2);
    }

    #[test]
    fn find_receipt_locates_canonical_transactions() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let tx = transfer(&key, 0, 9);
        let b1 = extend(&store, vec![tx.clone()], 1, 15_000);
        store.import(b1.clone()).unwrap();
        let (stored, receipt) = store.find_receipt(&tx.hash()).expect("committed");
        assert_eq!(stored.block.hash(), b1.hash());
        assert_eq!(receipt.tx_hash, tx.hash());
        assert!(store.find_receipt(&H256::keccak(b"unknown")).is_none());
    }

    #[test]
    fn find_receipt_ignores_side_chains() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let tx = transfer(&key, 0, 5);
        // Canonical: empty block. Side chain: the tx.
        let empty = extend(&store, vec![], 1, 15_000);
        store.import(empty).unwrap();
        let g = store.canonical_block(0).unwrap();
        let side = build_block(
            &g.block.header.clone(),
            &g.post_state.clone(),
            vec![tx.clone()],
            Address::from_low_u64(2),
            16_000,
            &BlockLimits::default(),
        );
        assert_eq!(store.import(side.block).unwrap(), ImportOutcome::SideChain);
        assert!(store.find_receipt(&tx.hash()).is_none(), "side-chain receipts are not canonical");
    }

    #[test]
    fn logs_with_topic_walks_the_canonical_chain() {
        let key = SecretKey::from_label(1);
        let store = open_mem(genesis(&key));
        // Transfers emit no logs; the query returns empty rather than
        // erroring on log-free chains.
        assert!(store.logs_with_topic(&H256::keccak(b"SetOk(bytes32)")).is_empty());
    }

    #[test]
    fn rejected_imports_still_record_their_replay_time() {
        // A wrong-root block replays in full before the commitment check
        // fires; that spend must show in the shared hub, or an adversary
        // feeding invalid blocks would look free.
        let key = SecretKey::from_label(1);
        let telemetry = Arc::new(Telemetry::enabled());
        let mut store =
            ChainStore::open(StoreConfig::in_memory(genesis(&key)).telemetry(telemetry.clone())).unwrap();
        let validations = || telemetry.phase(Phase::Validate).snapshot().count();

        let b1 = extend(&store, vec![transfer(&key, 0, 5), transfer(&key, 1, 7)], 1, 15_000);
        assert_eq!(store.import(b1).unwrap(), ImportOutcome::ExtendedCanonical);
        assert_eq!(validations(), 1);

        let mut evil = extend(&store, vec![transfer(&key, 2, 5)], 1, 30_000);
        evil.header.state_root = H256::keccak(b"lies");
        assert_eq!(store.import(evil).unwrap_err(), ImportError::Invalid(ValidationError::StateRootMismatch));
        assert_eq!(validations(), 2, "the rejected block's replay is recorded");
        assert_eq!(store.head_number(), 1, "head unchanged after rejection");
    }

    #[test]
    fn built_blocks_commit_without_replay() {
        let key = SecretKey::from_label(1);
        let telemetry = Arc::new(Telemetry::enabled());
        let mut store =
            ChainStore::open(StoreConfig::in_memory(genesis(&key)).telemetry(telemetry.clone())).unwrap();
        let parent = store.head_block().header.clone();
        let built = build_block(
            &parent,
            store.head_state(),
            vec![transfer(&key, 0, 5)],
            Address::from_low_u64(1),
            15_000,
            &BlockLimits::default(),
        );
        let hash = built.block.hash();
        assert_eq!(store.import_built(built.clone()).unwrap(), ImportOutcome::ExtendedCanonical);
        assert_eq!(store.head_hash(), hash);
        assert_eq!(store.head_state().balance_of(&Address::from_low_u64(7)), U256::from(5u64));
        assert_eq!(store.import_built(built).unwrap(), ImportOutcome::AlreadyKnown);
        assert_eq!(telemetry.phase(Phase::Validate).snapshot().count(), 0, "nothing was replayed");
        assert_eq!(telemetry.phase(Phase::Import).snapshot().count(), 1);

        let mut stray = build_block(
            &parent,
            &store.canonical_block(0).unwrap().post_state,
            vec![],
            Address::from_low_u64(2),
            16_000,
            &BlockLimits::default(),
        );
        stray.block.header.parent_hash = H256::keccak(b"nowhere");
        assert_eq!(store.import_built(stray).unwrap_err(), ImportError::UnknownParent);
        assert_eq!(store.head_hash(), hash);
    }

    #[test]
    fn head_state_reflects_transactions() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let b1 = extend(&store, vec![transfer(&key, 0, 123)], 1, 15_000);
        store.import(b1).unwrap();
        assert_eq!(store.head_state().balance_of(&Address::from_low_u64(7)), U256::from(123u64));
    }

    #[test]
    fn store_views_pin_their_epoch() {
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let b1 = extend(&store, vec![transfer(&key, 0, 1)], 1, 15_000);
        store.import(b1).unwrap();
        let head_view = store.head_state_view();
        assert_eq!(head_view.pinned_epoch(), Some(1));
        assert!(store.pins().is_pinned(1));
        let genesis_view = store.state_view_at(0).unwrap();
        assert_eq!(genesis_view.pinned_epoch(), Some(0));
        let still_pinned = head_view.clone();
        drop(head_view);
        assert!(store.pins().is_pinned(1), "clone keeps the pin alive");
        drop(still_pinned);
        drop(genesis_view);
        assert_eq!(store.pins().pinned_epochs(), 0);
    }

    #[test]
    fn in_memory_store_keeps_every_block() {
        // Past the height where a durable store with the default options
        // has snapshotted and collected below `history`, an in-memory
        // store, which holds no durable engine, still serves every block.
        let key = SecretKey::from_label(1);
        let mut store = open_mem(genesis(&key));
        let DurableOptions { snapshot_every, history, .. } = DurableOptions::default();
        let blocks = snapshot_every + history + 1;
        for number in 1..=blocks {
            let block = extend(&store, vec![], 1, number * 15_000);
            assert_eq!(store.import(block).unwrap(), ImportOutcome::ExtendedCanonical);
        }
        assert!(!store.is_durable());
        assert_eq!(store.retained_floor(), 0);
        assert!(store.state_view_at(0).is_some(), "genesis is still readable");
        let stored = blocks as usize + 1;
        assert_eq!(store.len(), stored);
        assert_eq!(store.canonical_chain().count(), stored);
    }

    #[test]
    fn durable_store_recovers_byte_equal_head_after_reopen() {
        let key = SecretKey::from_label(1);
        let dir = scratch_dir("chain-reopen");
        let mut store = ChainStore::open(StoreConfig::durable(genesis(&key), &dir)).unwrap();
        assert!(store.is_durable());
        for nonce in 0..3 {
            let block = extend(&store, vec![transfer(&key, nonce, 5)], 1, (nonce + 1) * 15_000);
            assert_eq!(store.import(block).unwrap(), ImportOutcome::ExtendedCanonical);
        }
        let head_hash = store.head_hash();
        let root = store.head_state_view().state_root();
        drop(store);

        let mut reopened = ChainStore::open(StoreConfig::durable(genesis(&key), &dir)).unwrap();
        assert_eq!(reopened.head_hash(), head_hash);
        assert_eq!(reopened.head_number(), 3);
        assert_eq!(reopened.head_state_view().state_root(), root, "byte-equal recovered state");
        // The recovered store keeps importing.
        let b4 = extend(&reopened, vec![transfer(&key, 3, 5)], 1, 60_000);
        assert_eq!(reopened.import(b4).unwrap(), ImportOutcome::ExtendedCanonical);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_store_refuses_a_foreign_genesis() {
        let key = SecretKey::from_label(1);
        let other = SecretKey::from_label(2);
        let dir = scratch_dir("chain-foreign");
        drop(ChainStore::open(StoreConfig::durable(genesis(&key), &dir)).unwrap());
        let err = ChainStore::open(StoreConfig::durable(genesis(&other), &dir)).unwrap_err();
        assert!(matches!(err, StoreError::GenesisMismatch { .. }), "got {err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_pruning_respects_pins_and_keeps_views_frozen() {
        let key = SecretKey::from_label(1);
        let dir = scratch_dir("chain-prune");
        let options = DurableOptions { snapshot_every: 2, history: 0, ..Default::default() };
        let mut store =
            ChainStore::open(StoreConfig::durable(genesis(&key), &dir).durable_options(options)).unwrap();
        let mine = |store: &mut ChainStore, nonce: u64| {
            let block = extend(store, vec![transfer(&key, nonce, 1)], 1, (nonce + 1) * 15_000);
            store.import(block).unwrap();
        };
        mine(&mut store, 0);
        mine(&mut store, 1); // snapshot at 2 → floor 2, genesis and 1 pruned
        assert_eq!(store.retained_floor(), 2);
        assert!(store.state_view_at(0).is_none(), "pruned height is unreadable");

        let pinned = store.state_view_at(2).unwrap();
        let frozen_root = pinned.state_root();
        mine(&mut store, 2);
        mine(&mut store, 3); // snapshot at 4; the pin holds the floor at 2
        assert_eq!(store.retained_floor(), 2, "pinned epoch blocks pruning");
        assert!(store.state_view_at(2).is_some());
        assert_eq!(pinned.state_root(), frozen_root, "held view is byte-frozen");

        drop(pinned);
        mine(&mut store, 4);
        mine(&mut store, 5); // snapshot at 6; nothing pinned → floor catches up
        assert_eq!(store.retained_floor(), 6);
        assert!(store.state_view_at(2).is_none(), "released epoch gets pruned");
        assert!(store.state_view_at(6).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
