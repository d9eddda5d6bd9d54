//! Binary Merkle commitments over ordered lists of 32-byte leaves.
//!
//! Ethereum commits to transactions, receipts, and state with
//! Merkle-Patricia tries. For replay validation the only property the
//! substrate needs is a deterministic, collision-resistant commitment, so we
//! substitute a simple binary Merkle tree (see `DESIGN.md` §7): leaves are
//! hashed pairwise with Keccak-256, odd nodes are carried up unchanged, and
//! the empty list commits to `keccak256("sereth/empty-merkle")`.

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
    let mut level: Vec<H256> = leaves.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            match pair {
                [left, right] => {
                    next.push(H256::new(keccak256_concat(left.as_bytes(), right.as_bytes())));
                }
                [odd] => next.push(*odd),
                _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
            }
        }
        level = next;
    }
    level[0]
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

    #[test]
    fn odd_counts_are_handled() {
        for n in 1..12 {
            let leaves: Vec<H256> = (0..n).map(H256::from_low_u64).collect();
            // Must not panic, must be deterministic.
            assert_eq!(merkle_root(&leaves), merkle_root(&leaves));
        }
    }
}
