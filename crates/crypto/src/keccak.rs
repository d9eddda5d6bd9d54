//! Keccak sponge construction and the Keccak-f\[1600\] permutation.
//!
//! Implemented from scratch against the Keccak reference specification.
//! [`Keccak256`] is the *original* Keccak-256 used by Ethereum
//! (multi-rate padding with domain byte `0x01`), not the FIPS-202
//! SHA3-256 (domain byte `0x06`).
//!
//! The paper's Hash-Mark-Set algorithm computes every transaction *mark*
//! as `keccak256(prev_mark || value)` (§III-C), so this module sits at the
//! very bottom of the dependency graph.
//!
//! # Examples
//!
//! ```
//! use sereth_crypto::keccak::keccak256;
//!
//! let digest = keccak256(b"");
//! assert_eq!(
//!     hex::encode(digest),
//!     "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
//! );
//! # mod hex { pub fn encode(b: [u8; 32]) -> String {
//! #   b.iter().map(|x| format!("{x:02x}")).collect() } }
//! ```

use std::cell::Cell;

/// Number of 64-bit lanes in the Keccak state (5 × 5).
const LANES: usize = 25;

/// Rate in bytes for a 256-bit capacity sponge: (1600 − 2·256) / 8.
const RATE_256: usize = 136;

/// Round constants for the ι step of Keccak-f\[1600\].
const ROUND_CONSTANTS: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rotation offsets for the ρ step, indexed `x + 5 * y`.
const RHO_OFFSETS: [u32; LANES] = [
    0, 1, 62, 28, 27, //
    36, 44, 6, 55, 20, //
    3, 10, 43, 25, 39, //
    41, 45, 15, 21, 8, //
    18, 2, 61, 56, 14,
];

thread_local! {
    /// Keccak-f\[1600\] permutations run on this thread, for [`permutations`].
    static PERMUTATIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many Keccak-f\[1600\] permutations this thread has run. The count
/// is exact and the same on every host, so the difference across a call
/// measures the hashing work the call did: one permutation per 136-byte
/// rate block absorbed, padding included (a 64-byte Merkle pair hash is
/// one).
///
/// # Examples
///
/// ```
/// use sereth_crypto::keccak::{keccak256, permutations};
///
/// let before = permutations();
/// keccak256(&[0u8; 136]);
/// assert_eq!(permutations() - before, 2, "a full rate block, then the padding block");
/// ```
pub fn permutations() -> u64 {
    PERMUTATIONS.with(Cell::get)
}

/// Applies the full 24-round Keccak-f\[1600\] permutation in place.
fn keccak_f1600(state: &mut [u64; LANES]) {
    PERMUTATIONS.with(|count| count.set(count.get() + 1));
    for &rc in &ROUND_CONSTANTS {
        // θ: column parity mixing.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        let mut d = [0u64; 5];
        for x in 0..5 {
            d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
        }
        for x in 0..5 {
            for y in 0..5 {
                state[x + 5 * y] ^= d[x];
            }
        }

        // ρ and π: rotate lanes, then permute their positions.
        let mut b = [0u64; LANES];
        for x in 0..5 {
            for y in 0..5 {
                let rotated = state[x + 5 * y].rotate_left(RHO_OFFSETS[x + 5 * y]);
                b[y + 5 * ((2 * x + 3 * y) % 5)] = rotated;
            }
        }

        // χ: non-linear step along rows.
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] = b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }

        // ι: break symmetry with the round constant.
        state[0] ^= rc;
    }
}

/// Keccak's padding domain byte (FIPS-202 SHA-3 would use `0x06`).
const KECCAK_DOMAIN: u8 = 0x01;

/// Incremental sponge with a 136-byte rate.
#[derive(Clone)]
struct Sponge {
    state: [u64; LANES],
    /// Bytes absorbed into the current (incomplete) rate block.
    buffer: [u8; RATE_256],
    buffered: usize,
}

impl Sponge {
    const fn new() -> Self {
        Self { state: [0; LANES], buffer: [0; RATE_256], buffered: 0 }
    }

    fn absorb(&mut self, mut input: &[u8]) {
        // Top up a partial block first.
        if self.buffered > 0 {
            let take = input.len().min(RATE_256 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == RATE_256 {
                let block = self.buffer;
                self.absorb_block(&block);
                self.buffered = 0;
            }
            if input.is_empty() {
                // The buffer may still hold a partial block; leave it.
                return;
            }
        }
        // Full blocks straight from the input.
        while input.len() >= RATE_256 {
            let (block, rest) = input.split_at(RATE_256);
            let mut tmp = [0u8; RATE_256];
            tmp.copy_from_slice(block);
            self.absorb_block(&tmp);
            input = rest;
        }
        // Stash the tail.
        self.buffer[..input.len()].copy_from_slice(input);
        self.buffered = input.len();
    }

    fn absorb_block(&mut self, block: &[u8; RATE_256]) {
        for (lane, chunk) in block.chunks_exact(8).enumerate() {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.state[lane] ^= u64::from_le_bytes(word);
        }
        keccak_f1600(&mut self.state);
    }

    fn finalize(mut self) -> [u8; 32] {
        // Multi-rate padding: domain byte, zeros, final bit.
        let mut block = [0u8; RATE_256];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        block[self.buffered] = KECCAK_DOMAIN;
        block[RATE_256 - 1] |= 0x80;
        self.absorb_block(&block);

        let mut out = [0u8; 32];
        for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&self.state[i].to_le_bytes());
        }
        out
    }
}

/// Streaming Keccak-256 hasher (Ethereum's hash function).
///
/// # Examples
///
/// ```
/// use sereth_crypto::keccak::{keccak256, Keccak256};
///
/// let mut hasher = Keccak256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), keccak256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Keccak256 {
    sponge: Sponge,
}

impl Keccak256 {
    /// Creates an empty hasher.
    pub const fn new() -> Self {
        Self { sponge: Sponge::new() }
    }

    /// Absorbs `input` into the sponge.
    pub fn update(&mut self, input: &[u8]) {
        self.sponge.absorb(input);
    }

    /// Consumes the hasher and squeezes the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.sponge.finalize()
    }
}

impl Default for Keccak256 {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Keccak256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Keccak256").field("buffered", &self.sponge.buffered).finish()
    }
}

/// One-shot Keccak-256 of `input`.
pub fn keccak256(input: &[u8]) -> [u8; 32] {
    let mut hasher = Keccak256::new();
    hasher.update(input);
    hasher.finalize()
}

/// One-shot Keccak-256 over the concatenation of two byte strings.
///
/// This is the exact operation the paper uses for transaction marks:
/// `mark = Keccak256(prev_mark, value)` (§III-C).
pub fn keccak256_concat(a: &[u8], b: &[u8]) -> [u8; 32] {
    let mut hasher = Keccak256::new();
    hasher.update(a);
    hasher.update(b);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn keccak256_empty_matches_known_vector() {
        // This is Ethereum's ubiquitous EMPTY_CODE_HASH constant.
        assert_eq!(hex(&keccak256(b"")), "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
    }

    #[test]
    fn keccak256_abc_matches_known_vector() {
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn keccak256_fox_matches_known_vector() {
        assert_eq!(
            hex(&keccak256(b"The quick brown fox jumps over the lazy dog")),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
        );
    }

    #[test]
    fn rate_boundary_lengths_hash_consistently() {
        // Exercise lengths straddling the 136-byte rate boundary.
        for len in [0usize, 1, 135, 136, 137, 271, 272, 273, 1000] {
            let data = vec![0xa5u8; len];
            let one_shot = keccak256(&data);
            let mut streaming = Keccak256::new();
            for chunk in data.chunks(7) {
                streaming.update(chunk);
            }
            assert_eq!(one_shot, streaming.finalize(), "length {len}");
        }
    }

    #[test]
    fn keccak256_concat_equals_single_update() {
        let a = b"previous-mark-bytes";
        let b = b"value-bytes";
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        assert_eq!(keccak256_concat(a, b), keccak256(&joined));
    }

    #[test]
    fn permutation_changes_state() {
        let mut state = [0u64; 25];
        keccak_f1600(&mut state);
        assert_ne!(state, [0u64; 25]);
        // First lane of Keccak-f\[1600\] applied to the zero state is a
        // published reference value.
        assert_eq!(state[0], 0xf125_8f79_40e1_dde7);
    }

    #[test]
    fn permutations_count_rate_blocks() {
        let count = |input: &[u8]| {
            let before = permutations();
            keccak256(input);
            permutations() - before
        };
        assert_eq!(count(b""), 1);
        assert_eq!(count(&[0u8; 64]), 1, "a Merkle pair hash");
        assert_eq!(count(&[0u8; 135]), 1, "padding still fits the block");
        assert_eq!(count(&[0u8; 136]), 2);
        assert_eq!(count(&[0u8; 272]), 3);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Keccak256::new()).is_empty());
    }
}
