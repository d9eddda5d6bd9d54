//! Durable chain state: periodic snapshots plus an append-only journal of
//! per-block account write-sets, with segment rotation, crash recovery by
//! torn-tail detection, and MVCC epoch pinning so garbage collection never
//! reclaims a version a reader still holds.
//!
//! * [`record`] — length-prefixed, checksummed record framing and the
//!   [`FaultWriter`] crash-injection wrapper;
//! * [`codec`] — binary payloads: [`BlockRecord`] (block + receipts +
//!   write-set) and [`SnapshotRecord`] (full state at one epoch);
//! * [`durable`] — the [`DurableStore`] engine (journal segments,
//!   atomic snapshots, GC that never passes the lowest pinned epoch it is
//!   given); a durable `ChainStore` holds one, an in-memory one none;
//! * [`pins`] — the [`EpochPins`] refcount table and [`EpochGuard`].
//!
//! This crate is deliberately chain-agnostic: it knows blocks, receipts,
//! and account images, but not execution or fork choice. `sereth-chain`
//! owns the conversion between its live `Account`/`StateDb` types and the
//! records here, and drives recovery replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod durable;
pub mod pins;
pub mod record;

use std::path::PathBuf;

pub use codec::{AccountRecord, BlockRecord, CodeRecord, SnapshotRecord};
pub use durable::{DurableOptions, DurableStore, Recovered};
pub use pins::{EpochGuard, EpochPins};
pub use record::{encode_record, FaultWriter, RecordScanner};

use sereth_crypto::hash::H256;

/// Errors from the durable store.
///
/// I/O errors are carried as strings so the type stays `Clone + PartialEq`
/// (import outcomes holding one remain comparable in tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io(String),
    /// On-disk data failed a checksum, decode, or integrity check.
    Corrupt(String),
    /// The directory belongs to a chain with a different genesis block.
    GenesisMismatch {
        /// Genesis hash recorded on disk.
        on_disk: H256,
        /// Genesis hash of the chain being opened.
        expected: H256,
    },
}

impl StoreError {
    /// A [`StoreError::Corrupt`] with the given context.
    pub fn corrupt(message: impl Into<String>) -> Self {
        Self::Corrupt(message.into())
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err.to_string())
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io(message) => write!(f, "store i/o error: {message}"),
            Self::Corrupt(message) => write!(f, "store corrupt: {message}"),
            Self::GenesisMismatch { on_disk, expected } => {
                write!(
                    f,
                    "store belongs to a different chain: on-disk genesis {on_disk}, expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Creates a unique empty scratch directory under the system temp dir —
/// the tests' and benches' substitute for a `tempfile` dependency. The
/// caller removes it (leaks are confined to the temp dir).
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |elapsed| elapsed.subsec_nanos() as u128 + elapsed.as_secs() as u128 * 1_000_000_000);
    let path = std::env::temp_dir().join(format!(
        "sereth-{tag}-{}-{}-{nanos}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    if path.exists() {
        let _ = std::fs::remove_dir_all(&path);
    }
    std::fs::create_dir_all(&path).expect("scratch dir is creatable");
    path
}
