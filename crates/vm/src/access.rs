//! Read/write access sets: which parts of the world state an execution
//! observed and which it mutated.
//!
//! The parallel block executor in `sereth-chain` schedules transactions by
//! these sets: two transactions whose sets are disjoint can execute in the
//! same wave; a transaction whose *observed* reads overlap the writes of a
//! transaction merged before it mis-speculated and must be re-executed.
//! The executor's speculative storage overlay records a transaction's set
//! as it runs, so the set is exact for that run, not a static
//! approximation.

use std::collections::BTreeSet;

use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    #[test]
    fn conflict_predicates() {
        let mut a = AccessSet::new();
        a.read(AccessKey::Slot(addr(1), H256::ZERO));
        a.wrote(AccessKey::Balance(addr(1)));
        let mut c = AccessSet::new();
        c.read(AccessKey::Balance(addr(2)));

        let mut dirty = std::collections::HashSet::new();
        dirty.insert(AccessKey::Slot(addr(1), H256::ZERO));
        assert!(a.reads_hit(&dirty));
        assert!(!c.reads_hit(&dirty));
        let dirty = std::collections::HashSet::from([AccessKey::Balance(addr(1))]);
        assert!(!a.reads_hit(&dirty), "a's own write is not a read");
    }
}
