//! Property-based tests for the crypto substrate.

use proptest::prelude::*;
use sereth_crypto::hash::H256;
use sereth_crypto::keccak::{keccak256, keccak256_concat, Keccak256};
use sereth_crypto::sig::SecretKey;

proptest! {
    /// Streaming absorption is equivalent to one-shot hashing regardless of
    /// how the input is chunked.
    #[test]
    fn keccak_streaming_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                        chunk in 1usize..64) {
        let mut hasher = Keccak256::new();
        for piece in data.chunks(chunk) {
            hasher.update(piece);
        }
        prop_assert_eq!(hasher.finalize(), keccak256(&data));
    }

    /// `keccak256_concat` is exactly keccak over the concatenation.
    #[test]
    fn concat_hash_is_concatenation(a in proptest::collection::vec(any::<u8>(), 0..256),
                                    b in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        prop_assert_eq!(keccak256_concat(&a, &b), keccak256(&joined));
    }

    /// Hashing is injective in practice: distinct short inputs never collide
    /// in these runs (a smoke test that the sponge actually mixes input).
    #[test]
    fn distinct_inputs_hash_distinctly(a in proptest::collection::vec(any::<u8>(), 0..64),
                                       b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assume!(a != b);
        prop_assert_ne!(keccak256(&a), keccak256(&b));
    }

    /// Signature verification accepts the signed digest and rejects any
    /// other digest or sender.
    #[test]
    fn signature_binding(label_a in 0u64..1000, label_b in 0u64..1000,
                         payload in proptest::collection::vec(any::<u8>(), 0..64),
                         other in proptest::collection::vec(any::<u8>(), 0..64)) {
        let key = SecretKey::from_label(label_a);
        let digest = H256::keccak(&payload);
        let sig = key.sign(digest);
        prop_assert!(sig.verify(&key.address(), digest));
        if payload != other {
            prop_assert!(!sig.verify(&key.address(), H256::keccak(&other)));
        }
        if label_a != label_b {
            let stranger = SecretKey::from_label(label_b);
            prop_assert!(!sig.verify(&stranger.address(), digest));
        }
    }

    /// Hex round-trip for H256.
    #[test]
    fn h256_hex_round_trip(bytes in any::<[u8; 32]>()) {
        let value = H256::new(bytes);
        let parsed: H256 = value.to_hex().parse().unwrap();
        prop_assert_eq!(parsed, value);
    }
}
