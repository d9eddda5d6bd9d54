//! The audit: [`check`] runs every consistency pass over a committed
//! history and returns one [`Report`] of [`Anomaly`] values, each of which
//! knows the *weakest* [`IsolationLevel`] that forbids it.
//!
//! # The anomaly taxonomy (Adya/ANSI, specialized to the market)
//!
//! * **G0 dirty-write cycle** — an effective `set` chains onto a mark
//!   that a *later*-committed `set` produced: the write-write dependency
//!   order contradicts the commit order. Forbidden at **every** rung
//!   (even READ UNCOMMITTED proscribes dirty writes).
//! * **G1a dirty/aborted read** — an observation (a logged client read,
//!   or the offer a committed `buy` carries) of a mark that was not part
//!   of the committed chain when it was read: either it committed only
//!   later (dirty read) or never at all (read of an aborted /
//!   never-sealed write). Forbidden from **READ COMMITTED** up — at READ
//!   UNCOMMITTED this is precisely the speculation the paper sells.
//! * **Lost update** — two effective `set`s chain onto the *same* mark:
//!   the second overwrote the interval the first created without ever
//!   reading it. Allowed through READ COMMITTED (classically: P4 is not
//!   proscribed below repeatable read), forbidden at **SEQUENTIAL**.
//! * **Program-order / serialization breaks** — the seqcon (§IV) and SSS
//!   (§VI) conditions; both are facets of the single-serialization-point
//!   guarantee, so they are forbidden at **SEQUENTIAL**.

use std::collections::HashMap;

use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_types::IsolationLevel;

use crate::record::{History, MarketOp, MarketSpec};
use crate::seqcon::{self, SeqConViolation};
use crate::sss::{self, SssViolation};

/// One detected anomaly, in market terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anomaly {
    /// G0: an effective set chained onto a mark a later-committed set
    /// produced — the dirty-write cycle.
    DirtyWrite {
        /// The set that committed first yet depends on the later write.
        tx: H256,
        /// The later-committed set whose mark it chained onto.
        depends_on: H256,
    },
    /// G1a (committed witness): a buy's offer carries a mark that was
    /// not committed when the offer must have been built.
    DirtyReadCommitted {
        /// The buy carrying the dirty offer.
        tx: H256,
        /// The offer's mark.
        offer_mark: H256,
        /// `true` if that mark committed later; `false` if it never
        /// committed at all (a read of a never-sealed write).
        committed_later: bool,
    },
    /// G1a (logged witness): a client read observed a mark that was not
    /// in the committed chain at the height the read was served at.
    DirtyReadObserved {
        /// The reading client.
        reader: Address,
        /// Head height of the serving node at read time.
        at_height: u64,
        /// The speculative mark it observed.
        observed_mark: H256,
        /// `true` if the mark committed in a later block; `false` if it
        /// never committed.
        committed_later: bool,
    },
    /// Two effective sets chained onto the same mark; the second never
    /// read the first's update.
    LostUpdate {
        /// The overwriting (second) set.
        tx: H256,
        /// The set whose update it lost.
        first_writer: H256,
        /// The mark both chained onto.
        prev_mark: H256,
    },
    /// A sender's program (nonce) order broke — from the seqcon pass.
    ProgramOrder(SeqConViolation),
    /// The strict serialization of sets / marking of buys broke — from
    /// the SSS pass.
    Serialization(SssViolation),
}

impl Anomaly {
    /// The weakest isolation level that forbids this anomaly; every
    /// stronger level forbids it too.
    pub fn forbidden_at(&self) -> IsolationLevel {
        match self {
            Self::DirtyWrite { .. } => IsolationLevel::ReadUncommitted,
            Self::DirtyReadCommitted { .. } | Self::DirtyReadObserved { .. } => IsolationLevel::ReadCommitted,
            Self::LostUpdate { .. } | Self::ProgramOrder(_) | Self::Serialization(_) => {
                IsolationLevel::Sequential
            }
        }
    }

    /// Stable kebab-case class name (tables, counters, artifacts).
    pub fn class(&self) -> &'static str {
        match self {
            Self::DirtyWrite { .. } => "dirty-write",
            Self::DirtyReadCommitted { .. } | Self::DirtyReadObserved { .. } => "dirty-read",
            Self::LostUpdate { .. } => "lost-update",
            Self::ProgramOrder(_) => "program-order",
            Self::Serialization(_) => "serialization",
        }
    }
}

impl core::fmt::Display for Anomaly {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::DirtyWrite { tx, depends_on } => {
                write!(f, "set {tx:?} chained onto the later-committed write {depends_on:?}")
            }
            Self::DirtyReadCommitted { tx, committed_later: true, .. } => {
                write!(f, "buy {tx:?} offered a mark that was uncommitted when read")
            }
            Self::DirtyReadCommitted { tx, committed_later: false, .. } => {
                write!(f, "buy {tx:?} offered a mark that never committed")
            }
            Self::DirtyReadObserved { reader, at_height, committed_later, .. } => write!(
                f,
                "client {reader:?} observed {} state at height {at_height}",
                if *committed_later { "then-uncommitted" } else { "never-committed" }
            ),
            Self::LostUpdate { tx, first_writer, .. } => {
                write!(f, "set {tx:?} overwrote {first_writer:?} without reading it")
            }
            Self::ProgramOrder(violation) => violation.fmt(f),
            Self::Serialization(violation) => violation.fmt(f),
        }
    }
}

/// Counts a report carries alongside its violations — the denominators
/// that make the violation counts interpretable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Committed market transactions examined.
    pub records: usize,
    /// Logged read observations examined.
    pub reads: usize,
    /// Effective sets.
    pub sets_ok: usize,
    /// No-op sets.
    pub sets_noop: usize,
    /// Effective buys.
    pub buys_ok: usize,
    /// No-op buys.
    pub buys_noop: usize,
    /// Effective buys by the interval they landed in (index 0 is the
    /// genesis interval, before any committed set; each later slot was
    /// opened by an effective set that chained onto the tail).
    pub buys_per_interval: Vec<usize>,
    /// Dirty-write (G0) violations.
    pub dirty_writes: usize,
    /// Dirty-read (G1a) violations, committed and logged witnesses.
    pub dirty_reads: usize,
    /// Lost-update violations.
    pub lost_updates: usize,
    /// Program-order (seqcon) violations.
    pub program_order: usize,
    /// Serialization (SSS) violations.
    pub serialization: usize,
}

impl Tallies {
    /// Intervals the serialization opened (effective sets that chained
    /// onto the tail): every slot of `buys_per_interval` but the genesis
    /// one.
    pub fn intervals(&self) -> usize {
        self.buys_per_interval.len().saturating_sub(1)
    }
}

/// What [`check`] found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every violation found, in pass order (program order, then
    /// serialization, then the anomaly passes);
    /// [`Anomaly::forbidden_at`] gives each one's minimal forbidding level.
    pub violations: Vec<Anomaly>,
    /// The denominators and the per-class counts.
    pub tallies: Tallies,
}

impl Report {
    /// `true` when the history satisfies `level`: no violation's minimal
    /// forbidding level is at or below it.
    pub fn holds_at(&self, level: IsolationLevel) -> bool {
        self.violations_at(level) == 0
    }

    /// How many violations `level` forbids. Non-decreasing up the ladder:
    /// a stronger rung forbids everything a weaker one does.
    pub fn violations_at(&self, level: IsolationLevel) -> usize {
        self.violations.iter().filter(|anomaly| anomaly.forbidden_at() <= level).count()
    }
}

/// Audits a committed history: the program-order pass (§IV), the
/// Selective Strict Serialization pass (§VI), then the anomaly passes
/// (G0 dirty writes, G1a dirty reads from committed offers and from the
/// logged reads, lost updates). `report.holds_at(level)` answers "does
/// this history satisfy that rung of the ladder?".
pub fn check(spec: &MarketSpec, history: &History) -> Report {
    let mut tallies = Tallies { records: history.len(), reads: history.reads().len(), ..Tallies::default() };
    for record in history.records() {
        match (&record.op, record.effective) {
            (MarketOp::Set(_), true) => tallies.sets_ok += 1,
            (MarketOp::Set(_), false) => tallies.sets_noop += 1,
            (MarketOp::Buy(_), true) => tallies.buys_ok += 1,
            (MarketOp::Buy(_), false) => tallies.buys_noop += 1,
        }
    }

    let mut violations: Vec<Anomaly> =
        seqcon::check(history).into_iter().map(Anomaly::ProgramOrder).collect();
    violations.extend(sss::check(spec, history, &mut tallies).into_iter().map(Anomaly::Serialization));
    violations.extend(anomalies(history));

    for anomaly in &violations {
        match anomaly {
            Anomaly::DirtyWrite { .. } => tallies.dirty_writes += 1,
            Anomaly::DirtyReadCommitted { .. } | Anomaly::DirtyReadObserved { .. } => {
                tallies.dirty_reads += 1
            }
            Anomaly::LostUpdate { .. } => tallies.lost_updates += 1,
            Anomaly::ProgramOrder(_) => tallies.program_order += 1,
            Anomaly::Serialization(_) => tallies.serialization += 1,
        }
    }
    Report { violations, tallies }
}

/// The anomaly passes: G0 dirty-write cycles, G1a dirty/aborted reads
/// (from committed buy offers *and* from the logged read observations),
/// and lost updates.
fn anomalies(history: &History) -> Vec<Anomaly> {
    let mut found = Vec::new();
    // Marks the committed history produced: mark → (commit position,
    // block number, producing tx). First producer wins — a duplicate
    // producer is itself a violation the passes below surface.
    let mut produced: HashMap<H256, (usize, u64, H256)> = HashMap::new();
    for (position, record) in history.records().iter().enumerate() {
        if let MarketOp::Set(fpv) = &record.op {
            if record.effective {
                let mark = compute_mark(&fpv.prev_mark, &fpv.value);
                produced.entry(mark).or_insert((position, record.block_number, record.tx_hash));
            }
        }
    }

    // Pass 1 — writes: G0 cycles and lost updates among effective sets.
    let mut first_writer_on: HashMap<H256, H256> = HashMap::new();
    for (position, record) in history.records().iter().enumerate() {
        let MarketOp::Set(fpv) = &record.op else { continue };
        if !record.effective {
            continue;
        }
        if let Some(&(producer_position, _, producer_tx)) = produced.get(&fpv.prev_mark) {
            if producer_position > position {
                found.push(Anomaly::DirtyWrite { tx: record.tx_hash, depends_on: producer_tx });
            }
        }
        if let Some(&first_writer) = first_writer_on.get(&fpv.prev_mark) {
            found.push(Anomaly::LostUpdate { tx: record.tx_hash, first_writer, prev_mark: fpv.prev_mark });
        } else {
            first_writer_on.insert(fpv.prev_mark, record.tx_hash);
        }
    }

    // Pass 2 — committed read witnesses: a buy's offer was built from
    // *some* read; if the offered mark only committed after the buy
    // itself (or never), that read saw uncommitted state.
    let genesis = genesis_mark();
    for (position, record) in history.records().iter().enumerate() {
        let MarketOp::Buy(offer) = &record.op else { continue };
        if offer.prev_mark == genesis {
            continue;
        }
        let committed_later = match produced.get(&offer.prev_mark) {
            Some(&(producer_position, _, _)) if producer_position > position => true,
            Some(_) => continue,
            None => false,
        };
        found.push(Anomaly::DirtyReadCommitted {
            tx: record.tx_hash,
            offer_mark: offer.prev_mark,
            committed_later,
        });
    }

    // Pass 3 — logged read witnesses: each observation judged against
    // the chain as of the height it was served at.
    for read in history.reads() {
        if read.observed_mark == genesis {
            continue;
        }
        let committed_later = match produced.get(&read.observed_mark) {
            Some(&(_, block_number, _)) if block_number <= read.at_height => continue,
            Some(_) => true,
            None => false,
        };
        found.push(Anomaly::DirtyReadObserved {
            reader: read.reader,
            at_height: read.at_height,
            observed_mark: read.observed_mark,
            committed_later,
        });
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ReadRecord, TxRecord};
    use sereth_core::fpv::{Flag, Fpv};

    fn spec() -> MarketSpec {
        MarketSpec::example()
    }

    fn record(n: u64, op: MarketOp, effective: bool) -> TxRecord {
        TxRecord {
            tx_hash: H256::from_low_u64(n + 1),
            sender: Address::from_low_u64(1 + n % 3),
            nonce: n / 3,
            block_number: 1 + n / 4,
            index_in_block: (n % 4) as u32,
            op,
            effective,
        }
    }

    fn set(prev: H256, value: u64) -> MarketOp {
        MarketOp::Set(Fpv::new(Flag::Success, prev, H256::from_low_u64(value)))
    }

    fn buy(prev: H256, value: u64) -> MarketOp {
        MarketOp::Buy(Fpv::new(Flag::Success, prev, H256::from_low_u64(value)))
    }

    fn clean_history() -> History {
        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        History::from_records(vec![
            record(0, buy(m0, 50), true),
            record(1, set(m0, 60), true),
            record(2, buy(m1, 60), true),
        ])
    }

    #[test]
    fn clean_history_holds_at_every_rung() {
        let report = check(&spec(), &clean_history());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        for level in IsolationLevel::ALL {
            assert!(report.holds_at(level), "{level}");
            assert_eq!(report.violations_at(level), 0);
        }
        assert_eq!(report.tallies.records, 3);
        assert_eq!(report.tallies.intervals(), 1);
        assert_eq!(report.tallies.buys_per_interval, vec![1, 1]);
    }

    #[test]
    fn dirty_write_cycle_is_forbidden_even_at_read_uncommitted() {
        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        // The set chaining onto m1 commits BEFORE the set that produces m1.
        let history = History::from_records(vec![record(0, set(m1, 70), true), record(1, set(m0, 60), true)]);
        let report = check(&spec(), &history);
        assert_eq!(report.tallies.dirty_writes, 1);
        let g0 =
            report.violations.iter().find(|v| matches!(v, Anomaly::DirtyWrite { .. })).expect("G0 detected");
        assert_eq!(g0.forbidden_at(), IsolationLevel::ReadUncommitted);
        assert!(!report.holds_at(IsolationLevel::ReadUncommitted));
    }

    #[test]
    fn never_committed_offer_is_a_dirty_read_at_read_committed() {
        let phantom = H256::keccak(b"a mark nobody committed");
        let history = History::from_records(vec![record(0, buy(phantom, 60), false)]);
        let report = check(&spec(), &history);
        assert_eq!(report.tallies.dirty_reads, 1);
        let g1a = &report.violations[0];
        assert!(matches!(g1a, Anomaly::DirtyReadCommitted { committed_later: false, .. }));
        assert_eq!(g1a.forbidden_at(), IsolationLevel::ReadCommitted);
        // READ UNCOMMITTED explicitly allows it.
        assert!(report.holds_at(IsolationLevel::ReadUncommitted));
        assert!(!report.holds_at(IsolationLevel::ReadCommitted));
        assert!(!report.holds_at(IsolationLevel::Sequential));
    }

    #[test]
    fn speculative_logged_read_is_dirty_until_its_write_commits() {
        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        // The set committing in block 1 produces m1; a read served at
        // height 0 already observed m1 — a dirty read. The same read at
        // height 1 is committed state.
        let history = History::from_records(vec![record(0, set(m0, 60), true)]);
        let dirty = ReadRecord {
            reader: Address::from_low_u64(9),
            at_height: 0,
            observed_mark: m1,
            observed_value: H256::from_low_u64(60),
        };
        let clean = ReadRecord { at_height: 1, ..dirty.clone() };
        let report = check(&spec(), &history.clone().with_reads(vec![dirty]));
        assert_eq!(report.tallies.dirty_reads, 1);
        assert!(matches!(report.violations[0], Anomaly::DirtyReadObserved { committed_later: true, .. }));
        assert!(check(&spec(), &history.with_reads(vec![clean])).violations.is_empty());
    }

    #[test]
    fn lost_update_is_forbidden_only_at_sequential() {
        let m0 = genesis_mark();
        let history = History::from_records(vec![
            record(0, set(m0, 60), true),
            record(3, set(m0, 70), true), // same prev_mark: the first update is lost
        ]);
        let report = check(&spec(), &history);
        assert_eq!(report.tallies.lost_updates, 1);
        let lost = report
            .violations
            .iter()
            .find(|v| matches!(v, Anomaly::LostUpdate { .. }))
            .expect("lost update detected");
        assert_eq!(lost.forbidden_at(), IsolationLevel::Sequential);
        assert!(report.holds_at(IsolationLevel::ReadUncommitted));
        assert!(report.holds_at(IsolationLevel::ReadCommitted));
        assert!(!report.holds_at(IsolationLevel::Sequential));
    }

    #[test]
    fn ladder_counts_are_exact_for_one_of_each_anomaly() {
        let m0 = genesis_mark();
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        // `record(n)` is sender 1 + n % 3 with nonce n / 3. The SSS tail
        // starts at m0 and only B moves it (to m1, price 60).
        let history = History::from_records(vec![
            // A (sender 1, nonce 1): chains onto m1, which B commits later.
            // G0 dirty write; also off the m0 tail, so a broken chain.
            record(3, set(m1, 70), true),
            // B (sender 2, nonce 0): chains onto the tail; produces m1.
            record(1, set(m0, 60), true),
            // C (sender 3, nonce 0): offers a mark nothing ever produced.
            // G1a dirty read; a no-op with a mismatched offer is SSS-legal.
            record(2, buy(H256::keccak(b"phantom"), 5), false),
            // D (sender 2, nonce 1): chains onto m0 again after B did.
            // Lost update; also off the m1 tail, so a broken chain.
            record(4, set(m0, 80), true),
            // E (sender 3, nonce 1): chains onto a mark nothing produced.
            // A broken chain and nothing else.
            record(5, set(H256::keccak(b"off-chain"), 90), true),
            // F (sender 1, nonce 0): commits after A's nonce 1. A program
            // order inversion; a stale genesis offer, SSS-legal and not a
            // dirty read.
            record(0, buy(m0, 50), false),
        ]);
        let report = check(&spec(), &history);
        let tallies = &report.tallies;
        assert_eq!(tallies.dirty_writes, 1, "A");
        assert_eq!(tallies.dirty_reads, 1, "C");
        assert_eq!(tallies.lost_updates, 1, "D");
        assert_eq!(tallies.serialization, 3, "A, D and E");
        assert_eq!(tallies.program_order, 1, "F after A");
        // Pass order: program order, serialization, then the anomaly
        // passes (writes before committed offers).
        let classes: Vec<&str> = report.violations.iter().map(Anomaly::class).collect();
        assert_eq!(
            classes,
            [
                "program-order",
                "serialization",
                "serialization",
                "serialization",
                "dirty-write",
                "lost-update",
                "dirty-read"
            ]
        );
        // Read uncommitted forbids the G0 cycle alone; read committed adds
        // the dirty read; sequential forbids all seven.
        assert_eq!(report.violations_at(IsolationLevel::ReadUncommitted), 1);
        assert_eq!(report.violations_at(IsolationLevel::ReadCommitted), 2);
        assert_eq!(report.violations_at(IsolationLevel::Sequential), 7);
        for level in IsolationLevel::ALL {
            assert!(!report.holds_at(level), "{level}");
        }
        // Four effective sets, two no-op buys; only B opened an interval,
        // and no buy took effect in either.
        assert_eq!((tallies.records, tallies.reads), (6, 0));
        assert_eq!((tallies.sets_ok, tallies.sets_noop, tallies.buys_ok, tallies.buys_noop), (4, 0, 0, 2));
        assert_eq!(tallies.intervals(), 1);
        assert_eq!(tallies.buys_per_interval, vec![0, 0]);
    }
}
