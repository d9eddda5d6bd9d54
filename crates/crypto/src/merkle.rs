//! Binary Merkle commitments over ordered lists of 32-byte leaves.
//!
//! Ethereum commits to transactions, receipts, and state with
//! Merkle-Patricia tries. For replay validation the only property the
//! substrate needs is a deterministic, collision-resistant commitment, so we
//! substitute a simple binary Merkle tree (see `DESIGN.md` §7): leaves are
//! hashed pairwise with Keccak-256, odd nodes are carried up unchanged, and
//! the empty list commits to `keccak256("sereth/empty-merkle")`.
//!
//! [`merkle_root`] hashes a list once; [`MerkleLevels`] keeps every level
//! of the same tree, so that a root after a few changed leaves rehashes
//! only their ancestors.

use std::sync::OnceLock;

use crate::hash::H256;
use crate::keccak::{keccak256, keccak256_concat};

/// Commitment to the empty list, hashed once per process: every account
/// without storage commits to it, and so does an empty block's
/// transaction and receipt list.
fn empty_root() -> H256 {
    static EMPTY: OnceLock<H256> = OnceLock::new();
    *EMPTY.get_or_init(|| H256::new(keccak256(b"sereth/empty-merkle")))
}

/// The node above positions `2 * index` and `2 * index + 1` of `level`:
/// a pair hashes, and an odd last node carries up unchanged. Every tree
/// here, [`merkle_root`] and [`MerkleLevels`] alike, is shaped by this
/// one rule.
fn parent(level: &[H256], index: usize) -> H256 {
    match level.get(2 * index + 1) {
        Some(right) => H256::new(keccak256_concat(level[2 * index].as_bytes(), right.as_bytes())),
        None => level[2 * index],
    }
}

/// The level above `level`.
fn next_level(level: &[H256]) -> Vec<H256> {
    (0..level.len().div_ceil(2)).map(|index| parent(level, index)).collect()
}

/// Computes the binary Merkle root of `leaves` in order.
///
/// # Examples
///
/// ```
/// use sereth_crypto::hash::H256;
/// use sereth_crypto::merkle::merkle_root;
///
/// let a = H256::keccak(b"a");
/// let b = H256::keccak(b"b");
/// assert_ne!(merkle_root(&[a, b]), merkle_root(&[b, a]), "order matters");
/// ```
pub fn merkle_root(leaves: &[H256]) -> H256 {
    if leaves.is_empty() {
        return empty_root();
    }
    let mut level = next_level(leaves);
    while level.len() > 1 {
        level = next_level(&level);
    }
    level[0]
}

/// Every level of the tree [`merkle_root`] commits to, kept so that a
/// later root rehashes only the ancestors of the leaves that changed:
/// one leaf costs one pair hash per level above it, where
/// [`merkle_root`] costs `n - 1` for `n` leaves. The leaf count is fixed
/// at [`MerkleLevels::new`]; a list that grows or shrinks is a new tree.
///
/// # Examples
///
/// ```
/// use sereth_crypto::hash::H256;
/// use sereth_crypto::merkle::{merkle_root, MerkleLevels};
///
/// let mut leaves: Vec<H256> = (0..5).map(H256::from_low_u64).collect();
/// let mut tree = MerkleLevels::new(leaves.clone());
/// assert_eq!(tree.root(), merkle_root(&leaves));
///
/// leaves[3] = H256::keccak(b"changed");
/// tree.update([(3, leaves[3])]);
/// assert_eq!(tree.leaves(), &leaves[..]);
/// assert_eq!(tree.root(), merkle_root(&leaves));
/// ```
#[derive(Debug)]
pub struct MerkleLevels {
    /// `levels[0]` holds the leaves and each later level the one above
    /// it; the last holds the root alone, or nothing for no leaves.
    levels: Vec<Vec<H256>>,
}

impl MerkleLevels {
    /// Hashes every level above `leaves`: `n - 1` pair hashes for `n`
    /// leaves, as [`merkle_root`] runs.
    pub fn new(leaves: Vec<H256>) -> Self {
        let mut levels = vec![leaves];
        while let Some(top) = levels.last().filter(|top| top.len() > 1) {
            let next = next_level(top);
            levels.push(next);
        }
        Self { levels }
    }

    /// The leaves, in order.
    pub fn leaves(&self) -> &[H256] {
        &self.levels[0]
    }

    /// The root: equal to [`merkle_root`] over [`MerkleLevels::leaves`].
    pub fn root(&self) -> H256 {
        self.levels.last().and_then(|top| top.first()).copied().unwrap_or_else(empty_root)
    }

    /// Sets each `(position, leaf)` of `changed` and rehashes only the
    /// ancestors of those positions.
    ///
    /// # Panics
    ///
    /// If a position is not below the leaf count.
    pub fn update(&mut self, changed: impl IntoIterator<Item = (usize, H256)>) {
        let mut dirty: Vec<usize> = changed
            .into_iter()
            .map(|(position, leaf)| {
                self.levels[0][position] = leaf;
                position
            })
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        for above in 1..self.levels.len() {
            let (lower, upper) = self.levels.split_at_mut(above);
            let (below, level) = (&lower[above - 1], &mut upper[0]);
            for index in &mut dirty {
                *index /= 2;
            }
            dirty.dedup();
            for &index in &dirty {
                level[index] = parent(below, index);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_list_commits_to_constant() {
        assert_eq!(merkle_root(&[]), empty_root());
        assert_eq!(
            empty_root().to_hex(),
            "0x524ef16d2d2c496d1ad29d48705c4e572039d1484020e9f96e360ba94822df96"
        );
        assert_eq!(empty_root(), H256::keccak(b"sereth/empty-merkle"));
    }

    #[test]
    fn single_leaf_is_its_own_root() {
        let leaf = H256::keccak(b"leaf");
        assert_eq!(merkle_root(&[leaf]), leaf);
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let leaves: Vec<H256> = (0..5).map(H256::from_low_u64).collect();
        let base = merkle_root(&leaves);
        for i in 0..leaves.len() {
            let mut mutated = leaves.clone();
            mutated[i] = H256::from_low_u64(999);
            assert_ne!(merkle_root(&mutated), base, "leaf {i}");
        }
    }

    #[test]
    fn root_changes_with_length() {
        let leaves: Vec<H256> = (0..6).map(H256::from_low_u64).collect();
        assert_ne!(merkle_root(&leaves[..5]), merkle_root(&leaves[..6]));
    }

    /// A seeded stream of pseudo-random numbers (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    #[test]
    fn levels_commit_like_merkle_root() {
        for n in 0..=64u64 {
            let leaves: Vec<H256> = (0..n).map(H256::from_low_u64).collect();
            let tree = MerkleLevels::new(leaves.clone());
            assert_eq!(tree.root(), merkle_root(&leaves), "n = {n}");
            assert_eq!(tree.leaves(), &leaves[..]);
        }
    }

    #[test]
    fn update_then_root_equals_merkle_root() {
        let mut rng = Rng(0x5e7e_7401);
        for n in 0..=64usize {
            let mut leaves: Vec<H256> = (0..n as u64).map(H256::from_low_u64).collect();
            let mut tree = MerkleLevels::new(leaves.clone());
            for round in 0..20 {
                let count = if n == 0 { 0 } else { rng.below(n + 1) };
                let changed: Vec<(usize, H256)> =
                    (0..count).map(|_| (rng.below(n), H256::from_low_u64(rng.next()))).collect();
                // A position listed twice takes its last value, as the
                // leaves below do.
                for &(position, leaf) in &changed {
                    leaves[position] = leaf;
                }
                tree.update(changed);
                assert_eq!(tree.leaves(), &leaves[..], "n = {n}, round {round}");
                assert_eq!(tree.root(), merkle_root(&leaves), "n = {n}, round {round}");
            }
        }
    }

    #[test]
    fn update_rehashes_only_the_ancestors() {
        let leaves: Vec<H256> = (0..1024).map(H256::from_low_u64).collect();
        let before = crate::keccak::permutations();
        let mut tree = MerkleLevels::new(leaves);
        assert_eq!(crate::keccak::permutations() - before, 1023, "n - 1 pair hashes");

        let leaf = H256::keccak(b"x");
        let before = crate::keccak::permutations();
        tree.update([(700, leaf)]);
        assert_eq!(crate::keccak::permutations() - before, 10, "one pair hash per level above the leaf");

        let before = crate::keccak::permutations();
        tree.update([]);
        assert_eq!(crate::keccak::permutations() - before, 0);
    }

    #[test]
    fn odd_counts_are_handled() {
        for n in 1..12 {
            let leaves: Vec<H256> = (0..n).map(H256::from_low_u64).collect();
            // Must not panic, must be deterministic.
            assert_eq!(merkle_root(&leaves), merkle_root(&leaves));
        }
    }
}
