//! Read/write access sets: which parts of the world state an execution
//! observed and which it mutated.
//!
//! The parallel block executor in `sereth-chain` schedules transactions by
//! these sets: two transactions whose sets are disjoint can execute in the
//! same wave; a transaction whose *observed* reads overlap the writes of a
//! transaction merged before it mis-speculated and must be re-executed.
//! The sets are derived from execution itself — either the tracing
//! interpreter ([`crate::trace::trace_access`]) or any [`Storage`] wrapped
//! in an [`AccessRecorder`] — so they are exact for the run that produced
//! them, not a static approximation.

use std::cell::RefCell;
use std::collections::BTreeSet;

use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_types::u256::U256;

use crate::exec::{ContractCode, Storage};

/// One addressable piece of world state.
///
/// `Nonce` is not visible to the VM itself (no opcode reads it) but is part
/// of transaction admission, so the chain-level executor records it through
/// the same key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKey {
    /// An account balance (`BALANCE`, `SELFBALANCE`, value transfers, gas
    /// purchase and refund).
    Balance(Address),
    /// An account nonce (transaction admission and replacement).
    Nonce(Address),
    /// An account's code (`CALL` dispatch, contract creation).
    Code(Address),
    /// One contract storage slot (`SLOAD` / `SSTORE`).
    Slot(Address, H256),
}

/// The reads and writes one execution performed, as [`AccessKey`]s.
///
/// Writes that were later rolled back by a checkpoint revert stay recorded:
/// the set is a *conservative* footprint (a superset of the net effect),
/// which is the safe direction for conflict detection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSet {
    /// Keys the execution observed.
    pub reads: BTreeSet<AccessKey>,
    /// Keys the execution mutated.
    pub writes: BTreeSet<AccessKey>,
}

impl AccessSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read.
    pub fn read(&mut self, key: AccessKey) {
        self.reads.insert(key);
    }

    /// Records a write.
    pub fn wrote(&mut self, key: AccessKey) {
        self.writes.insert(key);
    }

    /// `true` if any of this set's *reads* hits `written` — the validation
    /// predicate for optimistic execution: a speculation is still valid
    /// after other transactions committed iff nothing it read was written.
    pub fn reads_hit(&self, written: &std::collections::HashSet<AccessKey>) -> bool {
        self.reads.iter().any(|key| written.contains(key))
    }

    /// `true` if the two executions cannot be reordered freely: one's
    /// writes intersect the other's reads or writes.
    pub fn conflicts_with(&self, other: &AccessSet) -> bool {
        self.writes.iter().any(|key| other.reads.contains(key) || other.writes.contains(key))
            || other.writes.iter().any(|key| self.reads.contains(key))
    }

    /// Total number of recorded keys.
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// A [`Storage`] adaptor that forwards every operation to an inner storage
/// while recording the touched [`AccessKey`]s.
///
/// Reads arrive through `&self` methods ([`Storage::storage_get`] and
/// friends), so the set lives in a `RefCell`; the recorder is a
/// single-threaded execution-scoped wrapper, never shared.
///
/// Used by [`crate::trace::trace_access`] to derive a transaction's
/// footprint from the tracing interpreter, and directly by anything that
/// wants an exact access set for an arbitrary execution.
#[derive(Debug)]
pub struct AccessRecorder<'a, S: Storage + ?Sized> {
    inner: &'a mut S,
    access: RefCell<AccessSet>,
}

impl<'a, S: Storage + ?Sized> AccessRecorder<'a, S> {
    /// Wraps `inner`, starting from an empty access set.
    pub fn new(inner: &'a mut S) -> Self {
        Self { inner, access: RefCell::new(AccessSet::new()) }
    }

    /// A snapshot of the recorded accesses so far.
    pub fn access(&self) -> AccessSet {
        self.access.borrow().clone()
    }

    /// Consumes the recorder, returning the recorded accesses.
    pub fn into_access(self) -> AccessSet {
        self.access.into_inner()
    }

    fn read(&self, key: AccessKey) {
        self.access.borrow_mut().read(key);
    }

    fn wrote(&self, key: AccessKey) {
        self.access.borrow_mut().wrote(key);
    }
}

impl<S: Storage + ?Sized> Storage for AccessRecorder<'_, S> {
    fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        self.read(AccessKey::Slot(*address, *key));
        self.inner.storage_get(address, key)
    }

    fn storage_set(&mut self, address: &Address, key: H256, value: H256) {
        // A write is also a read: no-op-skipping backends (the chain's
        // `StateDb`) compare against the prior value, so whether the write
        // *survives* depends on pre-state. Recording the read keeps every
        // recorder in this workspace (this one and the chain executor's
        // speculative overlay) on identical, conservative semantics.
        self.read(AccessKey::Slot(*address, key));
        self.wrote(AccessKey::Slot(*address, key));
        self.inner.storage_set(address, key, value);
    }

    fn code_get(&self, address: &Address) -> ContractCode {
        self.read(AccessKey::Code(*address));
        self.inner.code_get(address)
    }

    fn balance_get(&self, address: &Address) -> U256 {
        self.read(AccessKey::Balance(*address));
        self.inner.balance_get(address)
    }

    fn transfer(&mut self, from: &Address, to: &Address, value: U256) -> bool {
        if !value.is_zero() {
            self.read(AccessKey::Balance(*from));
            self.read(AccessKey::Balance(*to));
            self.wrote(AccessKey::Balance(*from));
            self.wrote(AccessKey::Balance(*to));
        }
        self.inner.transfer(from, to, value)
    }

    fn checkpoint(&self) -> usize {
        self.inner.checkpoint()
    }

    fn revert_checkpoint(&mut self, checkpoint: usize) {
        // Rolled-back writes stay in the set: conservative by design.
        self.inner.revert_checkpoint(checkpoint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::MemStorage;

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    #[test]
    fn records_reads_writes_and_transfers() {
        let mut inner = MemStorage::new();
        inner.set_balance(addr(1), U256::from(100u64));
        inner.storage_set(&addr(1), H256::from_low_u64(5), H256::from_low_u64(6));
        let mut recorder = AccessRecorder::new(&mut inner);
        let _ = recorder.storage_get(&addr(1), &H256::from_low_u64(5));
        recorder.storage_set(&addr(1), H256::from_low_u64(7), H256::from_low_u64(9));
        let _ = recorder.code_get(&addr(4));
        assert!(recorder.transfer(&addr(1), &addr(2), U256::from(10u64)));
        let access = recorder.into_access();
        assert!(access.reads.contains(&AccessKey::Slot(addr(1), H256::from_low_u64(5))));
        assert!(access.reads.contains(&AccessKey::Code(addr(4))));
        assert!(access.writes.contains(&AccessKey::Slot(addr(1), H256::from_low_u64(7))));
        assert!(access.writes.contains(&AccessKey::Balance(addr(1))));
        assert!(access.reads.contains(&AccessKey::Balance(addr(2))));
    }

    #[test]
    fn zero_value_transfer_records_nothing() {
        let mut inner = MemStorage::new();
        let mut recorder = AccessRecorder::new(&mut inner);
        assert!(recorder.transfer(&addr(1), &addr(2), U256::ZERO));
        assert!(recorder.into_access().is_empty());
    }

    #[test]
    fn reverted_writes_stay_recorded() {
        let mut inner = MemStorage::new();
        let mut recorder = AccessRecorder::new(&mut inner);
        let checkpoint = recorder.checkpoint();
        recorder.storage_set(&addr(3), H256::ZERO, H256::from_low_u64(1));
        recorder.revert_checkpoint(checkpoint);
        assert!(recorder.access().writes.contains(&AccessKey::Slot(addr(3), H256::ZERO)));
    }

    #[test]
    fn conflict_predicates() {
        let mut a = AccessSet::new();
        a.read(AccessKey::Slot(addr(1), H256::ZERO));
        a.wrote(AccessKey::Balance(addr(1)));
        let mut b = AccessSet::new();
        b.wrote(AccessKey::Slot(addr(1), H256::ZERO));
        assert!(a.conflicts_with(&b), "b writes what a reads");
        assert!(b.conflicts_with(&a), "symmetric");

        let mut c = AccessSet::new();
        c.read(AccessKey::Balance(addr(2)));
        assert!(!a.conflicts_with(&c));

        let mut dirty = std::collections::HashSet::new();
        dirty.insert(AccessKey::Slot(addr(1), H256::ZERO));
        assert!(a.reads_hit(&dirty));
        assert!(!c.reads_hit(&dirty));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }
}
