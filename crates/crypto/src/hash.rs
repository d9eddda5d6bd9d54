//! Fixed-width hash and byte-array newtypes, plus hex helpers.

use core::fmt;

use crate::keccak::keccak256;

/// Error returned when building a fixed-width value from bytes of the
/// wrong length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseHexError {
    /// The input had the wrong number of hex digits.
    InvalidLength {
        /// Number of hex characters expected.
        expected: usize,
        /// Number of hex characters found.
        found: usize,
    },
}

impl fmt::Display for ParseHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self::InvalidLength { expected, found } = self;
        write!(f, "invalid hex length: expected {expected} digits, found {found}")
    }
}

impl std::error::Error for ParseHexError {}

/// Encodes `bytes` as lowercase hex without a prefix.
pub fn encode_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

macro_rules! fixed_bytes {
    ($(#[$doc:meta])* $name:ident, $len:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub [u8; $len]);

        impl $name {
            /// Number of bytes in this value.
            pub const LEN: usize = $len;

            /// The all-zero value.
            pub const ZERO: Self = Self([0u8; $len]);

            /// Wraps a raw byte array.
            pub const fn new(bytes: [u8; $len]) -> Self {
                Self(bytes)
            }

            /// Borrows the underlying bytes.
            pub const fn as_bytes(&self) -> &[u8; $len] {
                &self.0
            }

            /// Extracts the underlying byte array.
            pub const fn into_inner(self) -> [u8; $len] {
                self.0
            }

            /// Returns `true` if every byte is zero.
            pub fn is_zero(&self) -> bool {
                self.0.iter().all(|&b| b == 0)
            }

            /// Builds the value from a byte slice.
            ///
            /// # Errors
            ///
            /// Returns [`ParseHexError::InvalidLength`] if `slice` is not
            /// exactly [`Self::LEN`] bytes long.
            pub fn from_slice(slice: &[u8]) -> Result<Self, ParseHexError> {
                if slice.len() != $len {
                    return Err(ParseHexError::InvalidLength {
                        expected: $len * 2,
                        found: slice.len() * 2,
                    });
                }
                let mut out = [0u8; $len];
                out.copy_from_slice(slice);
                Ok(Self(out))
            }

            /// Formats as `0x`-prefixed lowercase hex.
            pub fn to_hex(&self) -> String {
                format!("0x{}", encode_hex(&self.0))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.to_hex())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                // Abbreviate for log readability: 0x1234..abcd.
                let hex = encode_hex(&self.0);
                if f.alternate() || hex.len() <= 12 {
                    write!(f, "0x{hex}")
                } else {
                    write!(f, "0x{}..{}", &hex[..6], &hex[hex.len() - 4..])
                }
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if f.alternate() {
                    write!(f, "0x")?;
                }
                write!(f, "{}", encode_hex(&self.0))
            }
        }

        impl From<[u8; $len]> for $name {
            fn from(bytes: [u8; $len]) -> Self {
                Self(bytes)
            }
        }

        impl From<$name> for [u8; $len] {
            fn from(value: $name) -> Self {
                value.0
            }
        }

        impl AsRef<[u8]> for $name {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
    };
}

fixed_bytes!(
    /// A 256-bit hash value (transaction hashes, block hashes, storage
    /// keys/values, and Hash-Mark-Set *marks*).
    H256,
    32
);

fixed_bytes!(
    /// A 160-bit account address, Ethereum style.
    H160,
    20
);

impl H256 {
    /// Hashes arbitrary bytes with Keccak-256.
    pub fn keccak(data: &[u8]) -> Self {
        Self(keccak256(data))
    }

    /// Interprets the low 8 bytes (big-endian) as a `u64`, ignoring the rest.
    ///
    /// Convenient for test fixtures and counters stored in contract slots.
    pub fn low_u64(&self) -> u64 {
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.0[24..32]);
        u64::from_be_bytes(word)
    }

    /// Builds a value whose low 8 bytes (big-endian) are `value`.
    pub fn from_low_u64(value: u64) -> Self {
        let mut out = [0u8; 32];
        out[24..32].copy_from_slice(&value.to_be_bytes());
        Self(out)
    }
}

impl H160 {
    /// Builds a value whose low 8 bytes (big-endian) are `value`.
    ///
    /// Used pervasively by tests to make readable fixture addresses.
    pub fn from_low_u64(value: u64) -> Self {
        let mut out = [0u8; 20];
        out[12..20].copy_from_slice(&value.to_be_bytes());
        Self(out)
    }
}

/// 64-bit FNV-1a over `bytes` — the cheap non-cryptographic hash the
/// shard routers (TxPool sender shards, RAA contract shards) use to
/// spread both low_u64-style test addresses and keccak-derived ones.
/// Exists once so the constants cannot drift between copies.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors (offset basis for "", "a",
        // "foobar").
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn low_u64_round_trip() {
        let value = H256::from_low_u64(0xdead_beef);
        assert_eq!(value.low_u64(), 0xdead_beef);
    }

    #[test]
    fn display_abbreviates_and_alternate_is_full() {
        let value = H256::from_low_u64(7);
        let short = format!("{value}");
        assert!(short.contains(".."));
        let full = format!("{value:#}");
        assert_eq!(full.len(), 2 + 64);
    }

    #[test]
    fn zero_is_zero() {
        assert!(H256::ZERO.is_zero());
        assert!(!H256::from_low_u64(1).is_zero());
    }

    #[test]
    fn from_slice_validates_length() {
        assert!(H160::from_slice(&[0u8; 20]).is_ok());
        assert!(H160::from_slice(&[0u8; 19]).is_err());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", H256::ZERO).contains("H256"));
    }
}
