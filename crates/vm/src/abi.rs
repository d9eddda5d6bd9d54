//! Minimal ABI helpers: selectors and 32-byte-word argument coding.
//!
//! The Sereth contract's functions all take a `bytes32[3]` (the paper's FPV
//! triple, §III-C), so the substrate only needs word-array coding: calldata
//! is `selector(4) ++ word₀(32) ++ word₁(32) ++ …`.

use bytes::Bytes;
use sereth_crypto::hash::H256;
use sereth_crypto::keccak::keccak256;

/// A 4-byte function selector.
pub type Selector = [u8; 4];

/// Computes the selector of a Solidity-style signature, e.g.
/// `selector("set(bytes32[3])")`.
pub fn selector(signature: &str) -> Selector {
    let digest = keccak256(signature.as_bytes());
    [digest[0], digest[1], digest[2], digest[3]]
}

/// Encodes a call: selector followed by the given 32-byte words.
pub fn encode_call(sel: Selector, words: &[H256]) -> Bytes {
    let mut out = Vec::with_capacity(4 + 32 * words.len());
    out.extend_from_slice(&sel);
    for word in words {
        out.extend_from_slice(word.as_bytes());
    }
    Bytes::from(out)
}

/// Reads argument word `index` from calldata without fully decoding.
pub fn arg_word(calldata: &[u8], index: usize) -> Option<H256> {
    let start = 4 + 32 * index;
    let end = start + 32;
    if calldata.len() < end {
        return None;
    }
    Some(H256::from_slice(&calldata[start..end]).expect("exact slice"))
}

/// Replaces argument word `index` in calldata, returning new calldata.
///
/// This is the primitive RAA uses to "write RAA data to formal arguments"
/// (paper Fig. 1, activity R3).
pub fn replace_arg_word(calldata: &[u8], index: usize, word: H256) -> Option<Bytes> {
    let start = 4 + 32 * index;
    let end = start + 32;
    if calldata.len() < end {
        return None;
    }
    let mut out = calldata.to_vec();
    out[start..end].copy_from_slice(word.as_bytes());
    Some(Bytes::from(out))
}

/// Encodes a single 32-byte word as return data.
pub fn encode_word(word: H256) -> Bytes {
    Bytes::copy_from_slice(word.as_bytes())
}

/// Decodes return data that is exactly one word.
pub fn decode_word(data: &[u8]) -> Option<H256> {
    if data.len() != 32 {
        return None;
    }
    H256::from_slice(data).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits calldata into its selector and argument words.
    ///
    /// Returns `None` if the data is shorter than a selector or if the argument
    /// region is not a whole number of words.
    fn decode_call(calldata: &[u8]) -> Option<(Selector, Vec<H256>)> {
        if calldata.len() < 4 || !(calldata.len() - 4).is_multiple_of(32) {
            return None;
        }
        let mut sel = [0u8; 4];
        sel.copy_from_slice(&calldata[..4]);
        let words = calldata[4..]
            .chunks_exact(32)
            .map(|chunk| H256::from_slice(chunk).expect("exact 32-byte chunk"))
            .collect();
        Some((sel, words))
    }

    #[test]
    fn selector_is_first_four_keccak_bytes() {
        let sel = selector("set(bytes32[3])");
        let digest = keccak256(b"set(bytes32[3])");
        assert_eq!(sel, [digest[0], digest[1], digest[2], digest[3]]);
    }

    #[test]
    fn selectors_distinguish_signatures() {
        assert_ne!(selector("set(bytes32[3])"), selector("buy(bytes32[3])"));
        assert_ne!(selector("get(bytes32[3])"), selector("mark(bytes32[3])"));
    }

    #[test]
    fn encode_decode_round_trip() {
        let sel = selector("set(bytes32[3])");
        let words = vec![H256::from_low_u64(1), H256::from_low_u64(2), H256::from_low_u64(3)];
        let calldata = encode_call(sel, &words);
        let (sel2, words2) = decode_call(&calldata).unwrap();
        assert_eq!(sel2, sel);
        assert_eq!(words2, words);
    }

    #[test]
    fn decode_rejects_ragged_lengths() {
        assert!(decode_call(&[1, 2, 3]).is_none());
        assert!(decode_call(&[0; 4 + 31]).is_none());
        assert!(decode_call(&[0; 4 + 33]).is_none());
        assert!(decode_call(&[0; 4]).is_some());
    }

    #[test]
    fn arg_word_indexing() {
        let calldata = encode_call([0; 4], &[H256::from_low_u64(10), H256::from_low_u64(20)]);
        assert_eq!(arg_word(&calldata, 0), Some(H256::from_low_u64(10)));
        assert_eq!(arg_word(&calldata, 1), Some(H256::from_low_u64(20)));
        assert_eq!(arg_word(&calldata, 2), None);
    }

    #[test]
    fn replace_arg_word_is_surgical() {
        let calldata = encode_call([9; 4], &[H256::from_low_u64(1), H256::from_low_u64(2)]);
        let replaced = replace_arg_word(&calldata, 1, H256::from_low_u64(99)).unwrap();
        assert_eq!(arg_word(&replaced, 0), Some(H256::from_low_u64(1)));
        assert_eq!(arg_word(&replaced, 1), Some(H256::from_low_u64(99)));
        assert_eq!(&replaced[..4], &[9; 4]);
        assert!(replace_arg_word(&calldata, 5, H256::ZERO).is_none());
    }

    #[test]
    fn word_coding_round_trip() {
        let word = H256::keccak(b"value");
        assert_eq!(decode_word(&encode_word(word)), Some(word));
        assert_eq!(decode_word(&[0u8; 31]), None);
    }
}
