//! The durable engine: a directory of snapshot files and segment-rotated
//! append-only journal files.
//!
//! ```text
//! <dir>/snapshot-0000000000000000.snap   full state at epoch 0 (genesis)
//! <dir>/snapshot-0000000000000512.snap   full state at epoch 512
//! <dir>/journal-00000003.seg             block records, append-only
//! <dir>/journal-00000004.seg             … rotated past `segment_bytes`
//! ```
//!
//! Snapshots are written atomically (temp file + rename); journal appends
//! are a single framed [`write_record`] call, so a crash leaves at most one
//! torn record at the tail of the newest segment. Recovery picks the
//! newest decodable snapshot, replays every intact journal record after
//! it, truncates the torn tail, and discards anything beyond the tear.
//!
//! GC runs when a snapshot lands. The caller passes in the lowest epoch
//! its readers pin; with floor `F = min(that epoch, head − history)`, the
//! newest snapshot at or below `F` is chosen as the retention base; older
//! snapshots and sealed segments whose records all precede the base are
//! deleted. A pinned epoch therefore always stays recoverable.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{BlockRecord, SnapshotRecord};
use crate::record::{write_record, RecordScanner};
use crate::StoreError;

/// Tuning for a [`DurableStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableOptions {
    /// Rotate the journal to a fresh segment once the active one reaches
    /// this many bytes.
    pub segment_bytes: u64,
    /// Write a snapshot (and run GC) every this many canonical blocks.
    pub snapshot_every: u64,
    /// GC keeps at least this many epochs of history behind the head —
    /// the store's reorg-depth bound, and the window `state_view_at`
    /// keeps serving in O(1).
    pub history: u64,
    /// `fsync` every journal append and snapshot. Off by default: the
    /// crash model this store defends against is process death (the OS
    /// page cache survives); power-loss durability is one flag away.
    pub fsync: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self { segment_bytes: 1 << 20, snapshot_every: 256, history: 1024, fsync: false }
    }
}

/// What [`DurableStore::open`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// The newest decodable snapshot, if the directory was not fresh.
    pub snapshot: Option<SnapshotRecord>,
    /// Every intact journal record, in append order.
    pub blocks: Vec<BlockRecord>,
}

#[derive(Debug)]
struct SegmentInfo {
    seq: u64,
    path: PathBuf,
    /// Highest epoch of any record in the segment; a segment is deletable
    /// once the retention base passes this.
    max_epoch: u64,
}

/// The snapshot + journal persistence engine. One instance owns one
/// directory. A durable `ChainStore` drives it after every import:
/// [`record_block`](Self::record_block) for each newly stored block, then,
/// when [`wants_snapshot`](Self::wants_snapshot) says the cadence is due,
/// [`apply_snapshot`](Self::apply_snapshot) with a fresh checkpoint and the
/// lowest epoch its readers pin.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    options: DurableOptions,
    active: File,
    active_seq: u64,
    active_len: u64,
    active_max_epoch: u64,
    sealed: Vec<SegmentInfo>,
    /// Epochs of on-disk snapshots, ascending.
    snapshots: Vec<u64>,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("journal-{seq:08}.seg"))
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch:016}.snap"))
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

impl DurableStore {
    /// Opens (or initialises) the store in `dir`, returning the engine and
    /// whatever intact state it recovered. A fresh directory recovers
    /// nothing; the caller seeds it with a genesis snapshot.
    ///
    /// Torn tails are truncated in place and segments beyond the tear are
    /// deleted, so a recovered directory is clean for appending.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures; [`StoreError::Corrupt`]
    /// when journal data exists but no snapshot is decodable (nothing to
    /// replay onto).
    pub fn open(dir: impl Into<PathBuf>, options: DurableOptions) -> Result<(Self, Recovered), StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        let mut segment_files: Vec<(u64, PathBuf)> = Vec::new();
        let mut snapshot_files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if let Some(seq) = parse_numbered(name, "journal-", ".seg") {
                segment_files.push((seq, path));
            } else if let Some(epoch) = parse_numbered(name, "snapshot-", ".snap") {
                snapshot_files.push((epoch, path));
            } else if name.ends_with(".tmp") {
                // A snapshot the crash interrupted before its rename.
                let _ = fs::remove_file(&path);
            }
        }
        segment_files.sort();
        snapshot_files.sort();

        // Newest decodable snapshot wins; corrupt ones are deleted.
        let mut snapshot = None;
        let mut snapshots = Vec::new();
        for (epoch, path) in snapshot_files.into_iter().rev() {
            if snapshot.is_some() {
                snapshots.push(epoch);
                continue;
            }
            let usable = fs::read(&path).ok().and_then(|bytes| {
                let mut scanner = RecordScanner::new(&bytes);
                let payload = scanner.next()?;
                SnapshotRecord::decode(payload).ok().filter(|snap| snap.epoch == epoch)
            });
            match usable {
                Some(snap) => {
                    snapshot = Some(snap);
                    snapshots.push(epoch);
                }
                None => {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        snapshots.sort_unstable();

        // Replay segments in order; the first tear ends the durable prefix.
        let mut blocks = Vec::new();
        let mut sealed = Vec::new();
        let mut torn_at: Option<usize> = None;
        for (index, (seq, path)) in segment_files.iter().enumerate() {
            if torn_at.is_some() {
                let _ = fs::remove_file(path);
                continue;
            }
            let bytes = fs::read(path)?;
            let mut scanner = RecordScanner::new(&bytes);
            let mut max_epoch = 0u64;
            let mut clean = 0usize;
            while let Some(payload) = scanner.next() {
                match BlockRecord::decode(payload) {
                    Ok(record) => {
                        max_epoch = max_epoch.max(record.epoch());
                        blocks.push(record);
                        clean = scanner.clean_len();
                    }
                    // A checksum-valid but undecodable record: corruption
                    // past the crash model. Treat like a tear at its start.
                    Err(_) => break,
                }
            }
            if clean < bytes.len() {
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(clean as u64)?;
                torn_at = Some(index);
            }
            sealed.push(SegmentInfo { seq: *seq, path: path.clone(), max_epoch });
        }

        if snapshot.is_none() && !blocks.is_empty() {
            return Err(StoreError::corrupt("journal records exist but no snapshot is decodable"));
        }

        // The last surviving segment resumes as the active one (the tear,
        // if any, was truncated away); a fresh directory starts at seq 0.
        let (active_seq, active_len, active_max_epoch) = match sealed.pop() {
            Some(last) => {
                let len = fs::metadata(&last.path)?.len();
                (last.seq, len, last.max_epoch)
            }
            None => (0, 0, 0),
        };
        let active = OpenOptions::new().create(true).append(true).open(segment_path(&dir, active_seq))?;

        let store =
            Self { dir, options, active, active_seq, active_len, active_max_epoch, sealed, snapshots };
        Ok((store, Recovered { snapshot, blocks }))
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        if self.active_len == 0 {
            return Ok(());
        }
        self.active.flush()?;
        self.sealed.push(SegmentInfo {
            seq: self.active_seq,
            path: segment_path(&self.dir, self.active_seq),
            max_epoch: self.active_max_epoch,
        });
        self.active_seq += 1;
        self.active = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.dir, self.active_seq))?;
        self.active_len = 0;
        self.active_max_epoch = 0;
        Ok(())
    }

    /// Journals one imported block and its account write-set.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the journal append fails.
    pub fn record_block(&mut self, record: &BlockRecord) -> Result<(), StoreError> {
        if self.active_len >= self.options.segment_bytes {
            self.rotate()?;
        }
        let payload = record.encode();
        write_record(&mut self.active, &payload)?;
        if self.options.fsync {
            self.active.sync_data()?;
        }
        self.active_len += (crate::record::RECORD_HEADER_BYTES + payload.len()) as u64;
        self.active_max_epoch = self.active_max_epoch.max(record.epoch());
        Ok(())
    }

    /// `true` when a snapshot is due at `head_epoch`: `snapshot_every`
    /// epochs past the newest one, or none written yet.
    pub fn wants_snapshot(&self, head_epoch: u64) -> bool {
        match self.snapshots.last() {
            None => true,
            Some(&last) => head_epoch >= last + self.options.snapshot_every,
        }
    }

    /// Checkpoints `snapshot` and garbage-collects down to the floor
    /// `min(min_pinned, epoch - history)`, where `min_pinned` is the
    /// lowest epoch the caller's readers hold. Returns the retention base
    /// kept, the newest snapshot at or below that floor: the caller may
    /// prune its in-memory versions below it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when writing the snapshot fails.
    pub fn apply_snapshot(
        &mut self,
        snapshot: SnapshotRecord,
        min_pinned: Option<u64>,
    ) -> Result<u64, StoreError> {
        let floor = snapshot.epoch.saturating_sub(self.options.history).min(min_pinned.unwrap_or(u64::MAX));
        self.write_snapshot(&snapshot)?;
        // Seal the active segment so everything journaled before this
        // snapshot lives in deletable (sealed) segments.
        self.rotate()?;
        Ok(self.compact(floor))
    }

    /// Writes `snapshot` to a temp file and renames it into place. The
    /// rename alone is atomic against process death; the flush to disk is
    /// for power loss and, like a journal append's, runs only under
    /// `fsync`. Without the flag no import waits for the disk: a snapshot
    /// lands inside the import of every `snapshot_every`-th block, and a
    /// flush there takes as long as the other writers of the disk make it.
    fn write_snapshot(&mut self, snapshot: &SnapshotRecord) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!("snapshot-{:016}.tmp", snapshot.epoch));
        let mut file = File::create(&tmp)?;
        write_record(&mut file, &snapshot.encode())?;
        if self.options.fsync {
            file.sync_all()?;
        }
        drop(file);
        fs::rename(&tmp, snapshot_path(&self.dir, snapshot.epoch))?;
        if let Err(index) = self.snapshots.binary_search(&snapshot.epoch) {
            self.snapshots.insert(index, snapshot.epoch);
        }
        Ok(())
    }

    /// Deletes snapshots and sealed segments no longer needed to recover
    /// any epoch ≥ `keep_epoch`, returning the retention base actually
    /// chosen (the newest snapshot at or below `keep_epoch`).
    fn compact(&mut self, keep_epoch: u64) -> u64 {
        let base = self
            .snapshots
            .iter()
            .copied()
            .filter(|&epoch| epoch <= keep_epoch)
            .max()
            .or_else(|| self.snapshots.first().copied())
            .unwrap_or(0);
        self.snapshots.retain(|&epoch| {
            if epoch >= base {
                return true;
            }
            let _ = fs::remove_file(snapshot_path(&self.dir, epoch));
            false
        });
        self.sealed.retain(|segment| {
            if segment.max_epoch > base {
                return true;
            }
            let _ = fs::remove_file(&segment.path);
            false
        });
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests_support::{tiny_block_record, tiny_snapshot};
    use crate::scratch_dir;

    fn small_options() -> DurableOptions {
        DurableOptions { segment_bytes: 512, snapshot_every: 4, history: 2, fsync: false }
    }

    #[test]
    fn fresh_directory_recovers_nothing_and_accepts_appends() {
        let dir = scratch_dir("fresh");
        let (mut store, recovered) = DurableStore::open(&dir, small_options()).unwrap();
        assert!(recovered.snapshot.is_none());
        assert!(recovered.blocks.is_empty());
        store.apply_snapshot(tiny_snapshot(0), None).unwrap();
        for epoch in 1..=3 {
            store.record_block(&tiny_block_record(epoch)).unwrap();
        }
        drop(store);

        let (_store, recovered) = DurableStore::open(&dir, small_options()).unwrap();
        let snapshot = recovered.snapshot.expect("snapshot 0 persisted");
        assert_eq!(snapshot.epoch, 0);
        assert_eq!(recovered.blocks.len(), 3);
        assert_eq!(recovered.blocks[2].epoch(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn synced_snapshots_and_appends_recover_the_same() {
        let dir = scratch_dir("fsync");
        let options = DurableOptions { fsync: true, ..small_options() };
        let (mut store, _) = DurableStore::open(&dir, options.clone()).unwrap();
        store.apply_snapshot(tiny_snapshot(0), None).unwrap();
        for epoch in 1..=5 {
            store.record_block(&tiny_block_record(epoch)).unwrap();
        }
        store.apply_snapshot(tiny_snapshot(5), None).unwrap();
        store.record_block(&tiny_block_record(6)).unwrap();
        drop(store);

        let (_store, recovered) = DurableStore::open(&dir, options).unwrap();
        assert_eq!(recovered.snapshot.expect("snapshot 5 persisted").epoch, 5);
        let epochs: Vec<u64> = recovered.blocks.iter().map(BlockRecord::epoch).collect();
        assert_eq!(epochs.last(), Some(&6));
        assert!(!dir.join(format!("snapshot-{:016}.tmp", 5)).exists(), "the temp file was renamed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_compaction_deletes_stale_files() {
        let dir = scratch_dir("rotate");
        let mut options = small_options();
        options.segment_bytes = 1; // rotate on every append
        let (mut store, _) = DurableStore::open(&dir, options.clone()).unwrap();
        store.apply_snapshot(tiny_snapshot(0), None).unwrap();
        for epoch in 1..=6 {
            store.record_block(&tiny_block_record(epoch)).unwrap();
        }
        assert!(store.sealed.len() + 1 >= 6, "one record per segment");

        // Snapshot at 6, history 2 → floor 4, and the only snapshot at or
        // below 4 is genesis: nothing can be deleted yet.
        let base = store.apply_snapshot(tiny_snapshot(6), None).unwrap();
        assert_eq!(base, 0);
        assert_eq!(store.snapshots, &[0, 6]);
        assert!(segment_path(&dir, 0).exists(), "early segments retained while base is 0");

        // Snapshot at 12, history 2 → floor 10 → retention base moves to
        // the epoch-6 snapshot: snapshot 0 and every segment whose records
        // all precede epoch 6 go away.
        for epoch in 7..=12 {
            store.record_block(&tiny_block_record(epoch)).unwrap();
        }
        let base = store.apply_snapshot(tiny_snapshot(12), None).unwrap();
        assert_eq!(base, 6);
        assert_eq!(store.snapshots, &[6, 12]);
        assert!(!segment_path(&dir, 0).exists(), "stale segments deleted");
        assert!(!snapshot_path(&dir, 0).exists());

        // Reopen: recovery starts from the retained base.
        drop(store);
        let (_store, recovered) = DurableStore::open(&dir, options).unwrap();
        assert_eq!(recovered.snapshot.unwrap().epoch, 12);
        assert!(recovered.blocks.iter().all(|record| record.epoch() > 6));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_epoch_holds_back_compaction() {
        let dir = scratch_dir("pinned");
        let (mut store, _) = DurableStore::open(&dir, small_options()).unwrap();
        store.apply_snapshot(tiny_snapshot(0), None).unwrap();
        for epoch in 1..=5 {
            store.record_block(&tiny_block_record(epoch)).unwrap();
        }
        let base = store.apply_snapshot(tiny_snapshot(5), Some(0)).unwrap();
        assert_eq!(base, 0, "pin at 0 holds the retention base at snapshot 0");
        assert_eq!(store.snapshots, &[0, 5]);

        for epoch in 6..=9 {
            store.record_block(&tiny_block_record(epoch)).unwrap();
        }
        let base = store.apply_snapshot(tiny_snapshot(9), None).unwrap();
        assert_eq!(base, 5, "unpinned: floor 9-2=7 → newest snapshot ≤ 7 is 5");
        assert_eq!(store.snapshots, &[5, 9]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_later_segments_discarded() {
        let dir = scratch_dir("torn");
        // One big segment so all four records share journal-00000000.seg.
        let options = DurableOptions { segment_bytes: 1 << 20, ..small_options() };
        let small_options = move || options.clone();
        let (mut store, _) = DurableStore::open(&dir, small_options()).unwrap();
        store.apply_snapshot(tiny_snapshot(0), None).unwrap();
        for epoch in 1..=4 {
            store.record_block(&tiny_block_record(epoch)).unwrap();
        }
        drop(store);

        // Tear the tail: chop the last 3 bytes off the active segment.
        let seg = segment_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (mut store, recovered) = DurableStore::open(&dir, small_options()).unwrap();
        assert_eq!(recovered.blocks.len(), 3, "record 4 was torn");
        // The truncated file accepts appends cleanly.
        store.record_block(&tiny_block_record(4)).unwrap();
        drop(store);
        let (_store, recovered) = DurableStore::open(&dir, small_options()).unwrap();
        assert_eq!(recovered.blocks.len(), 4);
        assert_eq!(recovered.blocks[3].epoch(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_without_snapshot_is_corrupt() {
        let dir = scratch_dir("no-snap");
        let (mut store, _) = DurableStore::open(&dir, small_options()).unwrap();
        store.apply_snapshot(tiny_snapshot(0), None).unwrap();
        store.record_block(&tiny_block_record(1)).unwrap();
        drop(store);
        for epoch in fs::read_dir(&dir).unwrap() {
            let path = epoch.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "snap") {
                fs::remove_file(path).unwrap();
            }
        }
        assert!(matches!(DurableStore::open(&dir, small_options()), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
