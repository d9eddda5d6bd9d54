//! Epoch pinning: the MVCC read-side contract between state views and GC.
//!
//! Every epoch (canonical block height) a reader holds a view of is
//! registered here with a refcount. Garbage collection — on-disk segment
//! and snapshot deletion as well as in-memory version pruning — computes
//! its floor as `min(pinned epochs, head - history)`, so **a pinned epoch
//! is never reclaimed**: the view stays byte-frozen (copy-on-write already
//! guarantees that) *and* the store keeps being able to serve that epoch.
//!
//! This is the redb read-transaction idiom (SNIPPETS.md §3): pinning takes
//! one short mutex, which also sweeps released epochs out of the table, and
//! cloning a guard is one atomic op; but a pin held forever blocks
//! compaction forever — keep read handles short-lived or accept the
//! retained history.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// The pin table. A `ChainStore` owns one: every view it hands out pins
/// here, and it passes [`min_pinned`](Self::min_pinned) to its durable
/// engine's GC. Cloning shares the table (both clones see and affect the
/// same pins).
#[derive(Debug, Clone, Default)]
pub struct EpochPins {
    epochs: Arc<Mutex<BTreeMap<u64, Arc<AtomicU64>>>>,
}

impl EpochPins {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins `epoch`, returning the guard that holds the pin. Cloning the
    /// guard re-pins (one atomic increment); dropping every clone unpins.
    ///
    /// Released entries are swept here too, so a table that only ever
    /// pins (an in-memory store, which never garbage-collects) holds its
    /// live pins and nothing more. The new pin counts before the lock is
    /// released, so no sweep can take its entry.
    pub fn pin(&self, epoch: u64) -> EpochGuard {
        let mut epochs = self.epochs.lock();
        epochs.retain(|_, cell| cell.load(Ordering::Relaxed) > 0);
        let cell = Arc::clone(epochs.entry(epoch).or_default());
        cell.fetch_add(1, Ordering::Relaxed);
        EpochGuard { epoch, cell }
    }

    /// The lowest currently-pinned epoch, sweeping out released entries.
    pub fn min_pinned(&self) -> Option<u64> {
        let mut epochs = self.epochs.lock();
        epochs.retain(|_, cell| cell.load(Ordering::Relaxed) > 0);
        epochs.keys().next().copied()
    }

    /// `true` while any guard pins `epoch`.
    pub fn is_pinned(&self, epoch: u64) -> bool {
        self.epochs.lock().get(&epoch).is_some_and(|cell| cell.load(Ordering::Relaxed) > 0)
    }

    /// Number of distinct epochs currently pinned.
    pub fn pinned_epochs(&self) -> usize {
        let mut epochs = self.epochs.lock();
        epochs.retain(|_, cell| cell.load(Ordering::Relaxed) > 0);
        epochs.len()
    }
}

/// A refcounted hold on one epoch. The epoch cannot be garbage-collected
/// while any clone of this guard is alive.
#[derive(Debug)]
pub struct EpochGuard {
    epoch: u64,
    cell: Arc<AtomicU64>,
}

impl EpochGuard {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Clone for EpochGuard {
    fn clone(&self) -> Self {
        self.cell.fetch_add(1, Ordering::Relaxed);
        Self { epoch: self.epoch, cell: Arc::clone(&self.cell) }
    }
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        self.cell.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_clone_drop_refcounts() {
        let pins = EpochPins::new();
        assert_eq!(pins.min_pinned(), None);
        let a = pins.pin(5);
        let b = a.clone();
        let c = pins.pin(3);
        assert_eq!(pins.min_pinned(), Some(3));
        assert!(pins.is_pinned(5));
        drop(c);
        assert_eq!(pins.min_pinned(), Some(5));
        drop(a);
        assert!(pins.is_pinned(5), "clone still holds the pin");
        assert_eq!(b.epoch(), 5);
        drop(b);
        assert_eq!(pins.min_pinned(), None);
        assert_eq!(pins.pinned_epochs(), 0);
    }

    #[test]
    fn pinning_sweeps_released_epochs() {
        let pins = EpochPins::new();
        let held = pins.pin(0);
        for epoch in 1..=10_000 {
            drop(pins.pin(epoch));
        }
        let last = pins.pin(10_001);
        let table: Vec<u64> = pins.epochs.lock().keys().copied().collect();
        assert_eq!(table, vec![0, 10_001], "only the live pins stay in the table");
        drop((held, last));
        assert_eq!(pins.pinned_epochs(), 0);
    }

    #[test]
    fn clones_of_the_table_share_pins() {
        let pins = EpochPins::new();
        let shared = pins.clone();
        let guard = pins.pin(7);
        assert!(shared.is_pinned(7));
        drop(guard);
        assert!(!shared.is_pinned(7));
    }

    #[test]
    fn pins_survive_threads() {
        let pins = EpochPins::new();
        let guard = pins.pin(2);
        let handle = {
            let pins = pins.clone();
            std::thread::spawn(move || {
                let inner = pins.pin(1);
                assert_eq!(pins.min_pinned(), Some(1));
                drop(inner);
            })
        };
        handle.join().unwrap();
        assert_eq!(pins.min_pinned(), Some(2));
        drop(guard);
    }
}
