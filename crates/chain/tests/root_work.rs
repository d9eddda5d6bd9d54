//! The exact hashing work of a state root, counted in Keccak-f\[1600\]
//! permutations run on the test's own thread
//! ([`sereth_crypto::keccak::permutations`]), so every count holds on
//! every host.
//!
//! The newest state of a lineage keeps the Merkle levels of its root. A
//! child that writes k accounts after a share takes them, and its root
//! hashes the k accounts and the paths above them: at most one account
//! hash plus one pair hash per level, 15 permutations, per write at
//! 16,384 accounts. A second child of the same parent finds the levels
//! taken and rebuilds them, and the parent, now an ancestor, caches
//! nothing, so each of its roots hashes every interior level again.

use sereth_chain::state::StateDb;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::keccak::permutations;
use sereth_types::u256::U256;

const ACCOUNTS: u64 = 16_384;
/// Pair hashes in a full rebuild of the interior levels.
const INTERIOR: u64 = ACCOUNTS - 1;
/// An account hash plus one pair hash for each of the 14 levels above it.
const PER_WRITE: u64 = 15;

/// Account `n`, at a pseudo-random address, so the accounts spread over
/// all 256 shards of the account map.
fn account(n: u64) -> Address {
    let hash = H256::keccak(&n.to_be_bytes());
    Address::from_slice(&hash.as_bytes()[12..]).expect("20 bytes")
}

/// Credits `k` of the accounts, spread evenly over the address list.
fn write(state: &mut StateDb, k: u64) {
    for i in 0..k {
        state.credit(&account(i * ACCOUNTS / k), U256::from(1_000 + i));
    }
    state.clear_journal();
}

/// `state`'s root and the permutations it took.
fn counted_root(state: &StateDb) -> (H256, u64) {
    let before = permutations();
    let root = state.state_root();
    (root, permutations() - before)
}

#[test]
fn a_root_rehashes_only_the_paths_above_the_written_accounts() {
    let mut base = StateDb::new();
    for n in 0..ACCOUNTS {
        base.credit(&account(n), U256::from(1u64));
    }
    base.clear_journal();
    assert_eq!(base.len() as u64, ACCOUNTS, "distinct addresses");
    base.state_root();

    for k in [1, 75, 761] {
        // A fresh parent that holds its levels: it takes them from `base`
        // on the first pass and rebuilds them from a moved `base` after.
        let mut parent = base.clone();
        parent.credit(&account(ACCOUNTS - 1), U256::from(k));
        parent.clear_journal();
        let parent_root = parent.state_root();

        let mut child = parent.clone();
        write(&mut child, k);
        let (child_root, child_work) = counted_root(&child);
        assert!(child_work <= k * PER_WRITE, "k = {k}: the child's root ran {child_work} permutations");

        let mut second = parent.clone();
        write(&mut second, k);
        let (second_root, second_work) = counted_root(&second);
        assert_eq!(second_work, INTERIOR + k, "k = {k}: a second child rebuilds, hashing only its writes");
        assert_eq!(second_root, child_root, "k = {k}: the cached and the rebuilt root agree");

        for _ in 0..2 {
            assert_eq!(counted_root(&parent), (parent_root, INTERIOR), "k = {k}: an ancestor caches nothing");
        }
    }
}
