//! The world state: accounts, balances, contract storage — with a journal
//! so failed transactions can be rolled back while remaining in the block
//! (the paper's §III-A: "the transaction is included in the block, but has
//! no effect on the system state").

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::merkle::{merkle_root, MerkleLevels};
use sereth_crypto::rlp::RlpStream;
use sereth_store::EpochGuard;
use sereth_types::u256::U256;
use sereth_vm::exec::{ContractCode, Storage};

/// One account: an externally-owned account or a contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Account {
    /// Number of transactions sent from this account.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Executable code, if any.
    pub code: ContractCode,
    /// Contract storage; zero-valued slots are kept absent so the state
    /// commitment is canonical.
    pub storage: BTreeMap<H256, H256>,
}

impl Account {
    /// Commitment to this account's storage.
    fn storage_root(&self) -> H256 {
        let leaves: Vec<H256> = self
            .storage
            .iter()
            .map(|(key, value)| {
                let encoded = RlpStream::new_list(2)
                    .append_bytes(key.as_bytes())
                    .append_bytes(value.as_bytes())
                    .finish();
                H256::keccak(&encoded)
            })
            .collect();
        merkle_root(&leaves)
    }

    /// Commitment to the whole account.
    pub fn account_hash(&self, address: &Address) -> H256 {
        let encoded = RlpStream::new_list(5)
            .append_bytes(address.as_bytes())
            .append_u64(self.nonce)
            .append_bytes(&self.balance.to_be_bytes())
            .append_bytes(self.code.code_hash().as_bytes())
            .append_bytes(self.storage_root().as_bytes())
            .finish();
        H256::keccak(&encoded)
    }
}

/// Reverting information for one state mutation.
#[derive(Debug, Clone)]
enum JournalEntry {
    StorageChanged { address: Address, key: H256, prev: H256 },
    BalanceChanged { address: Address, prev: U256 },
    NonceChanged { address: Address, prev: u64 },
    CodeChanged { address: Address, prev: ContractCode },
    AccountCreated { address: Address },
}

/// A snapshot handle returned by [`StateDb::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot(usize);

/// One account in the map, with its [`Account::account_hash`] memoised.
/// The memo is filled by the first root that reads the leaf and cleared
/// by [`StateDb::account_mut`], the only path to a `&mut Account`, so a
/// block's root rehashes only the accounts the block wrote. A shared
/// leaf is never written, so every state and view holding it may fill
/// its memo, from any thread.
#[derive(Clone)]
struct Leaf {
    account: Account,
    hash: OnceLock<H256>,
}

impl Leaf {
    fn new(account: Account) -> Arc<Self> {
        Arc::new(Self { account, hash: OnceLock::new() })
    }

    fn hash(&self, address: &Address) -> H256 {
        *self.hash.get_or_init(|| self.account.account_hash(address))
    }
}

/// The accounts whose address starts with one byte.
type Shard = BTreeMap<Address, Arc<Leaf>>;

/// The positional Merkle tree over an account map's leaf hashes, kept by
/// the newest state of a lineage only.
enum Levels {
    /// None yet: a new map, or a clone of one that held none.
    Empty,
    /// Every level as of the last root, with the shards it was taken
    /// over; a shard still `Arc::ptr_eq` with its entry here is unchanged
    /// since.
    Held { shards: Box<[Arc<Shard>; 256]>, tree: MerkleLevels },
    /// Taken by a clone: this map is an ancestor and caches nothing.
    Moved,
}

/// The persistent account map both [`StateDb`] and [`StateView`] hang off:
/// 256 copy-on-write shards keyed by the first address byte, `Arc` per
/// shard and per account. Sharing the map is O(1); the first write after
/// a share copies the 256-pointer table, then each shard it touches, then
/// each account. Reading the shards in order visits every address in
/// order.
///
/// The map also keeps the [`Levels`] of its state root. Only the newest
/// state of a lineage holds them: the clone that the first write after a
/// share makes (`Arc::make_mut`, whose writer is always the newer state)
/// takes them and leaves the original `Moved`, so no stored block keeps
/// a copy. A second child of one parent finds it `Moved` and rebuilds.
struct Accounts {
    shards: [Arc<Shard>; 256],
    levels: Mutex<Levels>,
}

impl Default for Accounts {
    fn default() -> Self {
        Self { shards: std::array::from_fn(|_| Arc::default()), levels: Mutex::new(Levels::Empty) }
    }
}

impl Clone for Accounts {
    /// Shares every shard and takes the original's levels: it becomes an
    /// ancestor, which caches nothing.
    fn clone(&self) -> Self {
        let mut levels = self.levels.lock().unwrap_or_else(PoisonError::into_inner);
        let taken = match &*levels {
            Levels::Held { .. } => std::mem::replace(&mut *levels, Levels::Moved),
            Levels::Empty | Levels::Moved => Levels::Empty,
        };
        Self { shards: self.shards.clone(), levels: Mutex::new(taken) }
    }
}

impl core::fmt::Debug for Accounts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_map().entries(self.iter().map(|(address, leaf)| (address, &leaf.account))).finish()
    }
}

impl Accounts {
    fn shard_of(address: &Address) -> usize {
        usize::from(address.as_bytes()[0])
    }

    fn get(&self, address: &Address) -> Option<&Account> {
        self.shards[Self::shard_of(address)].get(address).map(|leaf| &leaf.account)
    }

    /// The shard holding `address`, unshared from every other map first.
    fn shard_mut(&mut self, address: &Address) -> &mut Shard {
        Arc::make_mut(&mut self.shards[Self::shard_of(address)])
    }

    /// Every leaf, in address order.
    fn iter(&self) -> impl Iterator<Item = (&Address, &Arc<Leaf>)> {
        self.shards.iter().flat_map(|shard| shard.iter())
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len()).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.is_empty())
    }

    /// Every leaf hash in address order; only leaves whose memo is empty
    /// are hashed.
    fn leaf_hashes(&self) -> Vec<H256> {
        self.iter().map(|(address, leaf)| leaf.hash(address)).collect()
    }

    /// A Merkle root over the account hashes in address order.
    ///
    /// A map holding [`Levels`] compares the leaf hashes of the shards
    /// that changed since its last root with the cached leaf level, and
    /// rehashes only the ancestors of the leaves that differ; a shard
    /// that grew or shrank shifts every later position, so it rebuilds
    /// the tree. A map with none builds and keeps them. An ancestor
    /// (`Moved`) hashes every interior level, outside the lock, and
    /// keeps nothing.
    fn root(&self) -> H256 {
        let mut levels = self.levels.lock().unwrap_or_else(PoisonError::into_inner);
        // Left `Moved` until the new levels are in, so a panic midway
        // leaves a map that caches nothing rather than a stale tree.
        let tree = match std::mem::replace(&mut *levels, Levels::Moved) {
            Levels::Moved => {
                drop(levels);
                return merkle_root(&self.leaf_hashes());
            }
            Levels::Empty => MerkleLevels::new(self.leaf_hashes()),
            Levels::Held { shards, mut tree } => match self.changed_leaves(&shards, tree.leaves()) {
                Some(changed) => {
                    tree.update(changed);
                    tree
                }
                None => MerkleLevels::new(self.leaf_hashes()),
            },
        };
        let root = tree.root();
        *levels = Levels::Held { shards: Box::new(self.shards.clone()), tree };
        root
    }

    /// The `(position, hash)` of every leaf whose hash differs from
    /// `cached`, the leaf level of a tree over `held`, skipping the shards
    /// still shared with `held`; `None` when a shard's length changed.
    fn changed_leaves(&self, held: &[Arc<Shard>; 256], cached: &[H256]) -> Option<Vec<(usize, H256)>> {
        let mut changed = Vec::new();
        let mut offset = 0;
        for (shard, old) in self.shards.iter().zip(held) {
            if !Arc::ptr_eq(shard, old) {
                if shard.len() != old.len() {
                    return None;
                }
                for (position, (address, leaf)) in (offset..).zip(shard.iter()) {
                    let hash = leaf.hash(address);
                    if hash != cached[position] {
                        changed.push((position, hash));
                    }
                }
            }
            offset += shard.len();
        }
        Some(changed)
    }
}

/// The journaled world state.
///
/// All mutation goes through methods that append to the journal, so any
/// prefix of work can be undone with [`StateDb::revert_to`]. The journal is
/// cleared wholesale with [`StateDb::clear_journal`] once a block is sealed.
///
/// The account map is copy-on-write: [`StateDb::view`] (and `clone`) share
/// it in O(1), and the first mutation after a share unshares the table of
/// 256 shard pointers, then each shard and each account as it is touched.
/// Held [`StateView`]s therefore stay frozen at the moment they were taken,
/// including across [`StateDb::revert_to`]; the `state_view_props` suite
/// holds each one, and its root, equal to an eager copy of
/// [`StateDb::iter`] taken at the same instant.
#[derive(Debug, Clone, Default)]
pub struct StateDb {
    accounts: Arc<Accounts>,
    journal: Vec<JournalEntry>,
}

/// An immutable, cheaply shareable snapshot of a [`StateDb`].
///
/// Taking one is O(1) (an `Arc` clone); it can outlive locks, cross
/// threads, and survive arbitrary mutation of the live state. This is what
/// every read-only consumer (node queries, miner pre-execution reads, sim
/// oracles) works against.
///
/// Views handed out by a `ChainStore` read surface additionally *pin*
/// their epoch (canonical height): garbage collection never prunes a
/// pinned epoch, in memory or on disk, so the view stays both byte-frozen
/// (copy-on-write guarantees that part) and re-servable until the last
/// clone drops. Views taken directly from a [`StateDb`] carry no pin.
#[derive(Debug, Clone, Default)]
pub struct StateView {
    accounts: Arc<Accounts>,
    pin: Option<EpochGuard>,
}

impl StateView {
    /// The epoch this view holds against garbage collection, when it was
    /// taken through an epoch-pinning read surface.
    pub fn pinned_epoch(&self) -> Option<u64> {
        self.pin.as_ref().map(EpochGuard::epoch)
    }

    /// Attaches an epoch pin (the `ChainStore` read path does this; the
    /// guard travels with every clone of the view).
    pub(crate) fn with_pin(mut self, pin: EpochGuard) -> Self {
        self.pin = Some(pin);
        self
    }
    /// Read-only view of an account, if it exists.
    pub fn account(&self, address: &Address) -> Option<&Account> {
        self.accounts.get(address)
    }

    /// The account's nonce (0 if absent).
    pub fn nonce_of(&self, address: &Address) -> u64 {
        self.account(address).map_or(0, |a| a.nonce)
    }

    /// The account's balance (0 if absent).
    pub fn balance_of(&self, address: &Address) -> U256 {
        self.account(address).map_or(U256::ZERO, |a| a.balance)
    }

    /// The account's code (empty if absent).
    pub fn code_of(&self, address: &Address) -> ContractCode {
        self.account(address).map_or(ContractCode::None, |a| a.code.clone())
    }

    /// Reads a storage slot; absent slots read as zero.
    pub fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        self.account(address).and_then(|account| account.storage.get(key)).copied().unwrap_or(H256::ZERO)
    }

    /// Number of accounts in the view.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` if no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Deterministic commitment to the viewed state (same function as
    /// [`StateDb::state_root`]).
    pub fn state_root(&self) -> H256 {
        self.accounts.root()
    }

    /// Iterates accounts in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.accounts.iter().map(|(address, leaf)| (address, &leaf.account))
    }

    /// Account-granular diff: the post-image in `other` of every account
    /// whose content differs from `self`, address-ordered (`None` = the
    /// account is absent in `other` — a tombstone). This is the write-set
    /// the durable journal records per block, taken as
    /// `parent_view.diff_accounts(&child_view)`.
    ///
    /// Exploits the copy-on-write sharing: shards and accounts whose
    /// `Arc`s are still shared are skipped without comparison, so the
    /// diff costs only the shards and accounts a block actually touched.
    pub fn diff_accounts(&self, other: &StateView) -> Vec<(Address, Option<Account>)> {
        let mut writes = Vec::new();
        for (left, right) in self.accounts.shards.iter().zip(&other.accounts.shards) {
            if !Arc::ptr_eq(left, right) {
                diff_shard(left, right, &mut writes);
            }
        }
        writes
    }
}

/// Appends to `writes` the post-image in `right` of every account of one
/// shard whose content differs from `left`, address-ordered.
fn diff_shard(left: &Shard, right: &Shard, writes: &mut Vec<(Address, Option<Account>)>) {
    let mut left_iter = left.iter();
    let mut right_iter = right.iter();
    let mut left = left_iter.next();
    let mut right = right_iter.next();
    loop {
        match (left, right) {
            (Some((la, lleaf)), Some((ra, rleaf))) => match la.cmp(ra) {
                Ordering::Equal => {
                    if !Arc::ptr_eq(lleaf, rleaf) && lleaf.account != rleaf.account {
                        writes.push((*la, Some(rleaf.account.clone())));
                    }
                    left = left_iter.next();
                    right = right_iter.next();
                }
                Ordering::Less => {
                    writes.push((*la, None));
                    left = left_iter.next();
                }
                Ordering::Greater => {
                    writes.push((*ra, Some(rleaf.account.clone())));
                    right = right_iter.next();
                }
            },
            (Some((la, _)), None) => {
                writes.push((*la, None));
                left = left_iter.next();
            }
            (None, Some((ra, rleaf))) => {
                writes.push((*ra, Some(rleaf.account.clone())));
                right = right_iter.next();
            }
            (None, None) => break,
        }
    }
}

impl From<&StateView> for StateDb {
    /// A mutable state over `view`'s accounts, in O(1) and with an empty
    /// journal: the first write unshares them, so the view stays frozen.
    /// The view's epoch pin does not travel.
    fn from(view: &StateView) -> Self {
        Self { accounts: Arc::clone(&view.accounts), journal: Vec::new() }
    }
}

impl sereth_vm::exec::ReadStorage for StateView {
    fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        StateView::storage_get(self, address, key)
    }

    fn code_get(&self, address: &Address) -> ContractCode {
        self.code_of(address)
    }

    fn balance_get(&self, address: &Address) -> U256 {
        self.balance_of(address)
    }
}

impl StateDb {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an immutable O(1) snapshot of the current accounts. The view
    /// is unaffected by any later mutation of `self` (writes unshare).
    pub fn view(&self) -> StateView {
        StateView { accounts: Arc::clone(&self.accounts), pin: None }
    }

    /// Rebuilds a state wholesale from recovered account images — the
    /// durable store's snapshot-restore path. The journal starts empty.
    pub(crate) fn from_accounts(accounts: impl IntoIterator<Item = (Address, Account)>) -> Self {
        let mut map = Accounts::default();
        for (address, account) in accounts {
            map.shard_mut(&address).insert(address, Leaf::new(account));
        }
        Self { accounts: Arc::new(map), journal: Vec::new() }
    }

    /// Installs (or, on `None`, deletes) an account post-image without
    /// journaling — recovery replay only, where write-sets are applied
    /// wholesale and rollback never happens. Copy-on-write still applies:
    /// views taken before the call stay frozen.
    pub(crate) fn replace_account(&mut self, address: Address, account: Option<Account>) {
        match account {
            Some(account) => {
                self.shard_mut(&address).insert(address, Leaf::new(account));
            }
            None => {
                self.shard_mut(&address).remove(&address);
            }
        }
    }

    /// The mutable shard holding `address`, unsharing the shard table and
    /// the shard first if any view or clone still holds them.
    fn shard_mut(&mut self, address: &Address) -> &mut Shard {
        Arc::make_mut(&mut self.accounts).shard_mut(address)
    }

    /// Mutable access to an existing account (unshares the shard table,
    /// the shard and the account) and the one place a leaf's memoised
    /// hash is cleared.
    fn account_mut(&mut self, address: &Address) -> &mut Account {
        let leaf = self.shard_mut(address).get_mut(address).expect("journaled account exists");
        let leaf = Arc::make_mut(leaf);
        leaf.hash.take();
        &mut leaf.account
    }

    /// Read-only view of an account, if it exists.
    pub fn account(&self, address: &Address) -> Option<&Account> {
        self.accounts.get(address)
    }

    /// The account's nonce (0 if absent).
    pub fn nonce_of(&self, address: &Address) -> u64 {
        self.account(address).map_or(0, |a| a.nonce)
    }

    /// The account's balance (0 if absent).
    pub fn balance_of(&self, address: &Address) -> U256 {
        self.account(address).map_or(U256::ZERO, |a| a.balance)
    }

    /// The account's code (empty if absent).
    pub fn code_of(&self, address: &Address) -> ContractCode {
        self.account(address).map_or(ContractCode::None, |a| a.code.clone())
    }

    /// Number of accounts in the state.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` if no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    fn ensure_account(&mut self, address: &Address) -> &mut Account {
        if self.account(address).is_none() {
            self.journal.push(JournalEntry::AccountCreated { address: *address });
            self.shard_mut(address).insert(*address, Leaf::new(Account::default()));
        }
        self.account_mut(address)
    }

    /// Sets the balance, journaled.
    pub fn set_balance(&mut self, address: &Address, balance: U256) {
        let prev = self.balance_of(address);
        let account = self.ensure_account(address);
        account.balance = balance;
        self.journal.push(JournalEntry::BalanceChanged { address: *address, prev });
    }

    /// Adds to the balance, journaled.
    pub fn credit(&mut self, address: &Address, amount: U256) {
        let next = self.balance_of(address) + amount;
        self.set_balance(address, next);
    }

    /// Subtracts from the balance, journaled.
    ///
    /// Returns `false` (and changes nothing) when funds are insufficient.
    pub fn debit(&mut self, address: &Address, amount: U256) -> bool {
        let current = self.balance_of(address);
        match current.checked_sub(amount) {
            Some(next) => {
                self.set_balance(address, next);
                true
            }
            None => false,
        }
    }

    /// Sets the nonce, journaled.
    pub fn set_nonce(&mut self, address: &Address, nonce: u64) {
        let prev = self.nonce_of(address);
        let account = self.ensure_account(address);
        account.nonce = nonce;
        self.journal.push(JournalEntry::NonceChanged { address: *address, prev });
    }

    /// Installs contract code, journaled.
    pub fn set_code(&mut self, address: &Address, code: ContractCode) {
        let prev = self.code_of(address);
        let account = self.ensure_account(address);
        account.code = code;
        self.journal.push(JournalEntry::CodeChanged { address: *address, prev });
    }

    /// Takes a snapshot to which the state can later be reverted.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.journal.len())
    }

    /// Undoes every mutation recorded after `snapshot`.
    pub fn revert_to(&mut self, snapshot: Snapshot) {
        while self.journal.len() > snapshot.0 {
            match self.journal.pop().expect("length checked") {
                JournalEntry::StorageChanged { address, key, prev } => {
                    let account = self.account_mut(&address);
                    if prev.is_zero() {
                        account.storage.remove(&key);
                    } else {
                        account.storage.insert(key, prev);
                    }
                }
                JournalEntry::BalanceChanged { address, prev } => {
                    self.account_mut(&address).balance = prev;
                }
                JournalEntry::NonceChanged { address, prev } => {
                    self.account_mut(&address).nonce = prev;
                }
                JournalEntry::CodeChanged { address, prev } => {
                    self.account_mut(&address).code = prev;
                }
                JournalEntry::AccountCreated { address } => {
                    self.shard_mut(&address).remove(&address);
                }
            }
        }
    }

    /// Drops the journal; prior snapshots become unusable. Call after a
    /// block is sealed.
    pub fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// Deterministic commitment to the entire state: a Merkle root over the
    /// sorted account hashes (see `DESIGN.md` §7 for the trie substitution).
    /// Only accounts written since their hash was last read are rehashed.
    /// The newest state of a lineage also keeps the tree's interior levels,
    /// so its root rehashes only the paths above the accounts written since
    /// its parent's root; an ancestor, or a second child of one parent,
    /// rehashes every interior level. Either way the root is the same.
    pub fn state_root(&self) -> H256 {
        self.accounts.root()
    }

    /// Iterates accounts in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.accounts.iter().map(|(address, leaf)| (address, &leaf.account))
    }
}

impl Storage for StateDb {
    fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        self.account(address).and_then(|account| account.storage.get(key)).copied().unwrap_or(H256::ZERO)
    }

    fn storage_set(&mut self, address: &Address, key: H256, value: H256) {
        let prev = self.storage_get(address, &key);
        if prev == value {
            return;
        }
        let account = self.ensure_account(address);
        if value.is_zero() {
            account.storage.remove(&key);
        } else {
            account.storage.insert(key, value);
        }
        self.journal.push(JournalEntry::StorageChanged { address: *address, key, prev });
    }

    fn code_get(&self, address: &Address) -> ContractCode {
        self.code_of(address)
    }

    fn balance_get(&self, address: &Address) -> U256 {
        self.balance_of(address)
    }

    fn transfer(&mut self, from: &Address, to: &Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        if !self.debit(from, value) {
            return false;
        }
        self.credit(to, value);
        true
    }

    fn checkpoint(&self) -> usize {
        self.journal.len()
    }

    fn revert_checkpoint(&mut self, checkpoint: usize) {
        self.revert_to(Snapshot(checkpoint));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    #[test]
    fn balances_default_to_zero() {
        let state = StateDb::new();
        assert_eq!(state.balance_of(&addr(1)), U256::ZERO);
        assert_eq!(state.nonce_of(&addr(1)), 0);
    }

    #[test]
    fn credit_and_debit() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(100u64));
        assert!(state.debit(&addr(1), U256::from(30u64)));
        assert_eq!(state.balance_of(&addr(1)), U256::from(70u64));
        assert!(!state.debit(&addr(1), U256::from(1000u64)));
        assert_eq!(state.balance_of(&addr(1)), U256::from(70u64));
    }

    #[test]
    fn revert_restores_everything() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(10u64));
        state.clear_journal();
        let root_before = state.state_root();

        let snapshot = state.snapshot();
        state.credit(&addr(1), U256::from(5u64));
        state.set_nonce(&addr(1), 3);
        state.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(9));
        state.set_code(&addr(3), ContractCode::Bytecode(bytes::Bytes::from_static(&[0x00])));
        assert_ne!(state.state_root(), root_before);

        state.revert_to(snapshot);
        assert_eq!(state.state_root(), root_before);
        assert_eq!(state.balance_of(&addr(1)), U256::from(10u64));
        assert_eq!(state.nonce_of(&addr(1)), 0);
        assert!(state.account(&addr(2)).is_none(), "created account removed on revert");
        assert!(state.account(&addr(3)).is_none());
    }

    #[test]
    fn nested_snapshots_revert_in_order() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(1u64));
        let outer = state.snapshot();
        state.credit(&addr(1), U256::from(1u64));
        let inner = state.snapshot();
        state.credit(&addr(1), U256::from(1u64));
        assert_eq!(state.balance_of(&addr(1)), U256::from(3u64));
        state.revert_to(inner);
        assert_eq!(state.balance_of(&addr(1)), U256::from(2u64));
        state.revert_to(outer);
        assert_eq!(state.balance_of(&addr(1)), U256::from(1u64));
    }

    #[test]
    fn zero_storage_writes_do_not_bloat_state() {
        let mut state = StateDb::new();
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::from_low_u64(5));
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::ZERO);
        assert_eq!(state.account(&addr(1)).unwrap().storage.len(), 0);
    }

    #[test]
    fn writing_same_value_is_a_noop_for_the_journal() {
        let mut state = StateDb::new();
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::from_low_u64(5));
        let snapshot = state.snapshot();
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::from_low_u64(5));
        state.revert_to(snapshot);
        assert_eq!(state.storage_get(&addr(1), &H256::from_low_u64(1)), H256::from_low_u64(5));
    }

    #[test]
    fn state_root_is_order_independent_but_content_sensitive() {
        let mut a = StateDb::new();
        a.credit(&addr(1), U256::from(1u64));
        a.credit(&addr(2), U256::from(2u64));
        let mut b = StateDb::new();
        b.credit(&addr(2), U256::from(2u64));
        b.credit(&addr(1), U256::from(1u64));
        assert_eq!(a.state_root(), b.state_root());

        b.credit(&addr(3), U256::from(3u64));
        assert_ne!(a.state_root(), b.state_root());
    }

    #[test]
    fn state_root_reflects_storage() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(1u64));
        let before = state.state_root();
        state.storage_set(&addr(1), H256::from_low_u64(7), H256::from_low_u64(8));
        assert_ne!(state.state_root(), before);
    }

    #[test]
    fn views_freeze_at_the_moment_taken() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(10u64));
        state.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(5));
        state.clear_journal();

        let view = state.view();
        let frozen_root = state.state_root();
        assert!(Arc::ptr_eq(&view.accounts, &state.view().accounts), "no mutation yet: the map is shared");

        // Every kind of mutation after the view was taken…
        state.credit(&addr(1), U256::from(90u64));
        state.set_nonce(&addr(1), 7);
        state.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(6));
        state.set_code(&addr(3), ContractCode::Bytecode(bytes::Bytes::from_static(&[0x01])));
        state.clear_journal();

        // …leaves the view byte-identical to the moment of capture.
        assert_eq!(view.state_root(), frozen_root);
        assert_eq!(view.balance_of(&addr(1)), U256::from(10u64));
        assert_eq!(view.nonce_of(&addr(1)), 0);
        assert_eq!(view.storage_get(&addr(2), &H256::from_low_u64(1)), H256::from_low_u64(5));
        assert!(view.account(&addr(3)).is_none());
        assert!(!Arc::ptr_eq(&view.accounts, &state.view().accounts), "the write unshared the map");
        // The live state moved on.
        assert_eq!(state.balance_of(&addr(1)), U256::from(100u64));
    }

    #[test]
    fn views_survive_revert_across_the_cow_boundary() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(10u64));
        state.clear_journal();

        let snapshot = state.snapshot();
        state.credit(&addr(1), U256::from(5u64));
        state.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(9));

        // View taken mid-journal, before the revert.
        let view = state.view();
        assert_eq!(view.balance_of(&addr(1)), U256::from(15u64));

        // The revert happens on the live state only: it COWs away from the
        // view instead of mutating through it.
        state.revert_to(snapshot);
        assert_eq!(state.balance_of(&addr(1)), U256::from(10u64));
        assert!(state.account(&addr(2)).is_none());
        assert_eq!(view.balance_of(&addr(1)), U256::from(15u64));
        assert_eq!(view.storage_get(&addr(2), &H256::from_low_u64(1)), H256::from_low_u64(9));
    }

    #[test]
    fn clones_share_until_either_side_writes() {
        let mut a = StateDb::new();
        a.credit(&addr(1), U256::from(10u64));
        a.clear_journal();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.view().accounts, &b.view().accounts));

        // Writing the clone leaves the original untouched, and vice versa.
        b.credit(&addr(1), U256::from(1u64));
        assert_eq!(a.balance_of(&addr(1)), U256::from(10u64));
        a.set_nonce(&addr(1), 3);
        assert_eq!(b.nonce_of(&addr(1)), 0);
        assert_eq!(b.balance_of(&addr(1)), U256::from(11u64));
    }

    #[test]
    fn storage_is_per_account() {
        let mut state = StateDb::new();
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::from_low_u64(5));
        assert_eq!(state.storage_get(&addr(2), &H256::from_low_u64(1)), H256::ZERO);
    }

    #[test]
    fn diff_accounts_yields_post_images_and_tombstones() {
        let mut a = StateDb::new();
        a.credit(&addr(1), U256::from(10u64));
        a.credit(&addr(2), U256::from(20u64));
        a.credit(&addr(4), U256::from(40u64));
        a.clear_journal();
        let before = a.view();
        assert!(before.diff_accounts(&before).is_empty());

        let mut b = a.clone();
        b.credit(&addr(2), U256::from(1u64)); // changed
        b.credit(&addr(3), U256::from(30u64)); // created
        b.clear_journal();
        // Delete addr(4) via the recovery-only path to exercise tombstones.
        b.replace_account(addr(4), None);
        let after = b.view();

        let writes = before.diff_accounts(&after);
        assert_eq!(
            writes.iter().map(|(address, post)| (*address, post.is_some())).collect::<Vec<_>>(),
            vec![(addr(2), true), (addr(3), true), (addr(4), false)],
            "address-ordered post-images with a tombstone for the deletion"
        );
        assert_eq!(writes[0].1.as_ref().unwrap().balance, U256::from(21u64));

        // Applying the write-set onto the old state reproduces the new one.
        let mut replayed = StateDb::from_accounts(before.iter().map(|(ad, acc)| (*ad, acc.clone())));
        for (address, post) in writes {
            replayed.replace_account(address, post);
        }
        assert_eq!(replayed.state_root(), after.state_root());
        // Unshared-but-equal maps still diff to empty.
        let rebuilt = StateDb::from_accounts(before.iter().map(|(ad, acc)| (*ad, acc.clone())));
        assert!(!Arc::ptr_eq(&rebuilt.view().accounts, &before.accounts));
        assert!(rebuilt.view().diff_accounts(&before).is_empty());
    }

    /// An address in shard `shard`, distinct per `n` within the shard.
    fn in_shard(shard: u8, n: u64) -> Address {
        let mut bytes = *Address::from_low_u64(n).as_bytes();
        bytes[0] = shard;
        Address::new(bytes)
    }

    #[test]
    fn a_write_after_a_share_copies_only_the_shard_it_touches() {
        let mut state = StateDb::new();
        for shard in 0..=255u8 {
            state.credit(&in_shard(shard, 1), U256::from(1u64));
            state.credit(&in_shard(shard, 2), U256::from(2u64));
        }
        state.clear_journal();
        let view = state.view();

        state.credit(&in_shard(7, 2), U256::from(5u64));
        let shared = state.accounts.shards.iter().zip(&view.accounts.shards);
        let unshared: Vec<usize> =
            shared.enumerate().filter(|(_, (live, held))| !Arc::ptr_eq(live, held)).map(|(i, _)| i).collect();
        assert_eq!(unshared, vec![7], "255 of the 256 shards stay shared with the view");
        let (live, held) = (&state.accounts.shards[7], &view.accounts.shards[7]);
        assert!(
            Arc::ptr_eq(&live[&in_shard(7, 1)], &held[&in_shard(7, 1)]),
            "untouched account stays shared"
        );
        assert!(!Arc::ptr_eq(&live[&in_shard(7, 2)], &held[&in_shard(7, 2)]));
        assert_eq!(view.balance_of(&in_shard(7, 2)), U256::from(2u64));
    }

    #[test]
    fn diff_accounts_equals_a_plain_merge_walk() {
        // The walk the shard skipping must agree with: every address of
        // either map whose account differs, with its post-image.
        fn merge_walk(before: &StateView, after: &StateView) -> Vec<(Address, Option<Account>)> {
            let old: BTreeMap<Address, &Account> = before.iter().map(|(a, acc)| (*a, acc)).collect();
            let new: BTreeMap<Address, &Account> = after.iter().map(|(a, acc)| (*a, acc)).collect();
            let mut addresses: Vec<Address> = old.keys().chain(new.keys()).copied().collect();
            addresses.sort();
            addresses.dedup();
            addresses
                .into_iter()
                .filter(|address| old.get(address) != new.get(address))
                .map(|address| (address, new.get(&address).map(|account| (*account).clone())))
                .collect()
        }
        let mut state = StateDb::new();
        for n in 0..300u64 {
            state.credit(&in_shard((n % 97) as u8, n), U256::from(n + 1));
        }
        state.clear_journal();
        let mut views = vec![state.view()];
        for round in 0..6u64 {
            for n in (round..300).step_by(37) {
                state.credit(&in_shard((n % 97) as u8, n), U256::from(round + 1));
                state.storage_set(
                    &in_shard((n % 97) as u8, n),
                    H256::from_low_u64(round),
                    H256::from_low_u64(n),
                );
            }
            state.credit(&in_shard(250, 10_000 + round), U256::from(1u64));
            state.replace_account(in_shard((round * 13 % 97) as u8, round * 13), None);
            // Written back to what it was: unshared but equal, so no write.
            let address = in_shard(90, 90);
            let balance = state.balance_of(&address);
            state.set_balance(&address, balance + U256::from(1u64));
            state.set_balance(&address, balance);
            state.clear_journal();
            views.push(state.view());
        }
        for before in &views {
            for after in &views {
                assert_eq!(before.diff_accounts(after), merge_walk(before, after));
            }
        }
    }

    #[test]
    fn plain_statedb_views_carry_no_pin() {
        let state = StateDb::new();
        assert_eq!(state.view().pinned_epoch(), None);
    }
}
