//! The unified checker surface: every consistency pass behind one
//! [`Checker`] trait, every violation tagged with the *weakest*
//! [`IsolationLevel`] that forbids it.
//!
//! The module-level passes ([`crate::seqcon::check`],
//! [`crate::sss::check`]) keep their original signatures and remain the
//! underlying engines; this module folds them — together with the new
//! anomaly passes below — into a common [`Report`] so callers can ask
//! one question: *which rungs of the ladder does this history satisfy?*
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
//! * **Program-order / serialization breaks** — the existing seqcon and
//!   SSS conditions; both are facets of the single-serialization-point
//!   guarantee, so they are forbidden at **SEQUENTIAL**.

use std::collections::HashMap;

use sereth_core::mark::compute_mark;
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

/// An [`Anomaly`] together with its minimal forbidding level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The weakest ladder rung that forbids this anomaly.
    pub forbidden_at: IsolationLevel,
    /// What happened.
    pub anomaly: Anomaly,
}

impl Violation {
    /// Wraps an anomaly, deriving its minimal forbidding level.
    pub fn of(anomaly: Anomaly) -> Self {
        Self { forbidden_at: anomaly.forbidden_at(), anomaly }
    }
}

/// Verdict for one rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelVerdict {
    /// The rung.
    pub level: IsolationLevel,
    /// `true` when no violation is forbidden at this rung.
    pub holds: bool,
    /// How many violations this rung forbids (monotone non-decreasing
    /// up the ladder: a stronger rung forbids everything below it does).
    pub violations: usize,
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
    /// Intervals the serialization opened (from the SSS pass).
    pub intervals: usize,
    /// Effective buys per interval (from the SSS pass; index 0 is the
    /// genesis interval).
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

/// The common result shape every [`Checker`] returns.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every violation found, each tagged with its minimal forbidding
    /// level.
    pub violations: Vec<Violation>,
    /// Per-rung verdicts, weakest first.
    pub level_verdicts: Vec<LevelVerdict>,
    /// The denominators.
    pub tallies: Tallies,
}

impl Report {
    /// `true` when the history satisfies `level`: no violation's minimal
    /// forbidding level is at or below it.
    pub fn holds_at(&self, level: IsolationLevel) -> bool {
        self.violations.iter().all(|violation| violation.forbidden_at > level)
    }

    /// Violations `level` forbids.
    fn violations_at(&self, level: IsolationLevel) -> usize {
        self.violations.iter().filter(|violation| violation.forbidden_at <= level).count()
    }

    /// Recomputes the per-level verdicts and per-class counts from the
    /// violation list. Every constructor path ends here.
    fn finalize(mut self) -> Self {
        self.level_verdicts = IsolationLevel::ALL
            .into_iter()
            .map(|level| LevelVerdict {
                level,
                holds: self.holds_at(level),
                violations: self.violations_at(level),
            })
            .collect();
        self.tallies.dirty_writes = 0;
        self.tallies.dirty_reads = 0;
        self.tallies.lost_updates = 0;
        self.tallies.program_order = 0;
        self.tallies.serialization = 0;
        for violation in &self.violations {
            match &violation.anomaly {
                Anomaly::DirtyWrite { .. } => self.tallies.dirty_writes += 1,
                Anomaly::DirtyReadCommitted { .. } | Anomaly::DirtyReadObserved { .. } => {
                    self.tallies.dirty_reads += 1
                }
                Anomaly::LostUpdate { .. } => self.tallies.lost_updates += 1,
                Anomaly::ProgramOrder(_) => self.tallies.program_order += 1,
                Anomaly::Serialization(_) => self.tallies.serialization += 1,
            }
        }
        self
    }

    /// Folds another pass's report over the same history into this one:
    /// violations concatenate; overlapping denominators (computed
    /// identically by each pass) merge field-wise.
    fn merged(mut self, other: Report) -> Report {
        self.violations.extend(other.violations);
        let t = &mut self.tallies;
        let o = other.tallies;
        t.records = t.records.max(o.records);
        t.reads = t.reads.max(o.reads);
        t.sets_ok = t.sets_ok.max(o.sets_ok);
        t.sets_noop = t.sets_noop.max(o.sets_noop);
        t.buys_ok = t.buys_ok.max(o.buys_ok);
        t.buys_noop = t.buys_noop.max(o.buys_noop);
        t.intervals = t.intervals.max(o.intervals);
        if o.buys_per_interval.len() > t.buys_per_interval.len() {
            t.buys_per_interval = o.buys_per_interval;
        }
        self.finalize()
    }
}

fn base_tallies(history: &History) -> Tallies {
    let (sets_ok, sets_noop, buys_ok, buys_noop) = history.tallies();
    Tallies {
        records: history.len(),
        reads: history.reads().len(),
        sets_ok,
        sets_noop,
        buys_ok,
        buys_noop,
        ..Tallies::default()
    }
}

/// One consistency pass (or a composition of passes) over a committed
/// history, reporting in the common [`Report`] shape.
pub trait Checker {
    /// Short stable name for verdict tables.
    fn name(&self) -> &'static str;
    /// Runs the pass.
    fn check(&self, history: &History) -> Report;
}

/// The sequential-consistency pass behind the unified surface (engine:
/// [`crate::seqcon::check`], unchanged).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqConChecker;

impl Checker for SeqConChecker {
    fn name(&self) -> &'static str {
        "seqcon"
    }

    fn check(&self, history: &History) -> Report {
        let violations = seqcon::check(history)
            .into_iter()
            .map(|violation| Violation::of(Anomaly::ProgramOrder(violation)))
            .collect();
        Report { violations, level_verdicts: Vec::new(), tallies: base_tallies(history) }.finalize()
    }
}

/// The Selective-Strict-Serialization pass behind the unified surface
/// (engine: [`crate::sss::check`], unchanged).
#[derive(Debug, Clone)]
pub struct SssChecker {
    /// The market to replay against.
    pub spec: MarketSpec,
}

impl Checker for SssChecker {
    fn name(&self) -> &'static str {
        "sss"
    }

    fn check(&self, history: &History) -> Report {
        let sss_report = sss::check(&self.spec, history);
        let mut tallies = base_tallies(history);
        tallies.intervals = sss_report.intervals;
        tallies.buys_per_interval = sss_report.buys_per_interval;
        let violations = sss_report
            .violations
            .into_iter()
            .map(|violation| Violation::of(Anomaly::Serialization(violation)))
            .collect();
        Report { violations, level_verdicts: Vec::new(), tallies }.finalize()
    }
}

/// The new anomaly passes: G0 dirty-write cycles, G1a dirty/aborted
/// reads (from committed buy offers *and* from the logged read
/// observations), and lost updates.
#[derive(Debug, Clone)]
pub struct AnomalyChecker {
    /// The market to replay against (genesis mark anchors the chain).
    pub spec: MarketSpec,
}

impl Checker for AnomalyChecker {
    fn name(&self) -> &'static str {
        "anomaly"
    }

    fn check(&self, history: &History) -> Report {
        let mut violations = Vec::new();
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
                    violations.push(Violation::of(Anomaly::DirtyWrite {
                        tx: record.tx_hash,
                        depends_on: producer_tx,
                    }));
                }
            }
            if let Some(&first_writer) = first_writer_on.get(&fpv.prev_mark) {
                violations.push(Violation::of(Anomaly::LostUpdate {
                    tx: record.tx_hash,
                    first_writer,
                    prev_mark: fpv.prev_mark,
                }));
            } else {
                first_writer_on.insert(fpv.prev_mark, record.tx_hash);
            }
        }

        // Pass 2 — committed read witnesses: a buy's offer was built from
        // *some* read; if the offered mark only committed after the buy
        // itself (or never), that read saw uncommitted state.
        for (position, record) in history.records().iter().enumerate() {
            let MarketOp::Buy(offer) = &record.op else { continue };
            if offer.prev_mark == self.spec.genesis_mark {
                continue;
            }
            match produced.get(&offer.prev_mark) {
                Some(&(producer_position, _, _)) if producer_position > position => {
                    violations.push(Violation::of(Anomaly::DirtyReadCommitted {
                        tx: record.tx_hash,
                        offer_mark: offer.prev_mark,
                        committed_later: true,
                    }));
                }
                Some(_) => {}
                None => violations.push(Violation::of(Anomaly::DirtyReadCommitted {
                    tx: record.tx_hash,
                    offer_mark: offer.prev_mark,
                    committed_later: false,
                })),
            }
        }

        // Pass 3 — logged read witnesses: each observation judged against
        // the chain as of the height it was served at.
        for read in history.reads() {
            if read.observed_mark == self.spec.genesis_mark {
                continue;
            }
            match produced.get(&read.observed_mark) {
                Some(&(_, block_number, _)) if block_number <= read.at_height => {}
                Some(_) => violations.push(Violation::of(Anomaly::DirtyReadObserved {
                    reader: read.reader,
                    at_height: read.at_height,
                    observed_mark: read.observed_mark,
                    committed_later: true,
                })),
                None => violations.push(Violation::of(Anomaly::DirtyReadObserved {
                    reader: read.reader,
                    at_height: read.at_height,
                    observed_mark: read.observed_mark,
                    committed_later: false,
                })),
            }
        }

        Report { violations, level_verdicts: Vec::new(), tallies: base_tallies(history) }.finalize()
    }
}

/// All passes at once — the checker the audit example, the sim, and the
/// ISO-FRONTIER bench run.
#[derive(Debug, Clone)]
pub struct FullChecker {
    /// The market to replay against.
    pub spec: MarketSpec,
}

impl Checker for FullChecker {
    fn name(&self) -> &'static str {
        "full"
    }

    fn check(&self, history: &History) -> Report {
        SeqConChecker
            .check(history)
            .merged(SssChecker { spec: self.spec.clone() }.check(history))
            .merged(AnomalyChecker { spec: self.spec.clone() }.check(history))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TxRecord;
    use sereth_core::fpv::{Flag, Fpv};
    use sereth_crypto::address::Address;

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

    fn clean_history(spec: &MarketSpec) -> History {
        let m0 = spec.genesis_mark;
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        History::from_records(vec![
            record(0, buy(m0, 50), true),
            record(1, set(m0, 60), true),
            record(2, buy(m1, 60), true),
        ])
    }

    #[test]
    fn clean_history_holds_at_every_rung() {
        let spec = spec();
        let report = FullChecker { spec: spec.clone() }.check(&clean_history(&spec));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        for verdict in &report.level_verdicts {
            assert!(verdict.holds, "{verdict:?}");
            assert_eq!(verdict.violations, 0);
        }
        assert_eq!(report.tallies.records, 3);
        assert_eq!(report.tallies.intervals, 1);
        assert_eq!(report.tallies.buys_per_interval, vec![1, 1]);
    }

    #[test]
    fn dirty_write_cycle_is_forbidden_even_at_read_uncommitted() {
        let spec = spec();
        let m0 = spec.genesis_mark;
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        // The set chaining onto m1 commits BEFORE the set that produces m1.
        let history = History::from_records(vec![record(0, set(m1, 70), true), record(1, set(m0, 60), true)]);
        let report = FullChecker { spec }.check(&history);
        assert_eq!(report.tallies.dirty_writes, 1);
        let g0 = report
            .violations
            .iter()
            .find(|v| matches!(v.anomaly, Anomaly::DirtyWrite { .. }))
            .expect("G0 detected");
        assert_eq!(g0.forbidden_at, IsolationLevel::ReadUncommitted);
        assert!(!report.holds_at(IsolationLevel::ReadUncommitted));
    }

    #[test]
    fn never_committed_offer_is_a_dirty_read_at_read_committed() {
        let spec = spec();
        let phantom = H256::keccak(b"a mark nobody committed");
        let history = History::from_records(vec![record(0, buy(phantom, 60), false)]);
        let report = FullChecker { spec }.check(&history);
        assert_eq!(report.tallies.dirty_reads, 1);
        let g1a = &report.violations[0];
        assert!(matches!(g1a.anomaly, Anomaly::DirtyReadCommitted { committed_later: false, .. }));
        assert_eq!(g1a.forbidden_at, IsolationLevel::ReadCommitted);
        // READ UNCOMMITTED explicitly allows it.
        assert!(report.holds_at(IsolationLevel::ReadUncommitted));
        assert!(!report.holds_at(IsolationLevel::ReadCommitted));
        assert!(!report.holds_at(IsolationLevel::Sequential));
    }

    #[test]
    fn speculative_logged_read_is_dirty_until_its_write_commits() {
        let spec = spec();
        let m0 = spec.genesis_mark;
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        // The set committing in block 1 produces m1; a read served at
        // height 0 already observed m1 — a dirty read. The same read at
        // height 1 is committed state.
        let history = History::from_records(vec![record(0, set(m0, 60), true)]);
        let dirty = crate::record::ReadRecord {
            reader: Address::from_low_u64(9),
            at_height: 0,
            observed_mark: m1,
            observed_value: H256::from_low_u64(60),
        };
        let clean = crate::record::ReadRecord { at_height: 1, ..dirty.clone() };
        let checker = AnomalyChecker { spec };
        let report = checker.check(&history.clone().with_reads(vec![dirty]));
        assert_eq!(report.tallies.dirty_reads, 1);
        assert!(matches!(
            report.violations[0].anomaly,
            Anomaly::DirtyReadObserved { committed_later: true, .. }
        ));
        assert!(checker.check(&history.with_reads(vec![clean])).violations.is_empty());
    }

    #[test]
    fn lost_update_is_forbidden_only_at_sequential() {
        let spec = spec();
        let m0 = spec.genesis_mark;
        let history = History::from_records(vec![
            record(0, set(m0, 60), true),
            record(3, set(m0, 70), true), // same prev_mark: the first update is lost
        ]);
        let report = AnomalyChecker { spec }.check(&history);
        assert_eq!(report.tallies.lost_updates, 1);
        let lost = report
            .violations
            .iter()
            .find(|v| matches!(v.anomaly, Anomaly::LostUpdate { .. }))
            .expect("lost update detected");
        assert_eq!(lost.forbidden_at, IsolationLevel::Sequential);
        assert!(report.holds_at(IsolationLevel::ReadUncommitted));
        assert!(report.holds_at(IsolationLevel::ReadCommitted));
        assert!(!report.holds_at(IsolationLevel::Sequential));
    }

    #[test]
    fn unified_passes_agree_with_the_module_fns() {
        let spec = spec();
        let m0 = spec.genesis_mark;
        let history = History::from_records(vec![
            record(0, set(H256::keccak(b"off-chain"), 60), true), // SSS break
            record(1, set(m0, 60), false),                        // SSS wrongly-failed
            record(3, buy(m0, 50), true),
            record(2, buy(m0, 50), true), // same sender, replayed position below
        ]);
        let unified = FullChecker { spec: spec.clone() }.check(&history);
        assert_eq!(
            unified.violations.iter().filter(|v| matches!(v.anomaly, Anomaly::Serialization(_))).count(),
            sss::check(&spec, &history).violations.len()
        );
        assert_eq!(
            unified.violations.iter().filter(|v| matches!(v.anomaly, Anomaly::ProgramOrder(_))).count(),
            seqcon::check(&history).len()
        );
    }

    #[test]
    fn verdict_counts_are_monotone_up_the_ladder() {
        let spec = spec();
        let m0 = spec.genesis_mark;
        let m1 = compute_mark(&m0, &H256::from_low_u64(60));
        let history = History::from_records(vec![
            record(0, set(m1, 70), true), // G0
            record(1, set(m0, 60), true),
            record(2, buy(H256::keccak(b"phantom"), 5), false), // G1a
            record(3, set(m0, 80), true),                       // lost update
        ]);
        let report = FullChecker { spec }.check(&history);
        let counts: Vec<usize> = report.level_verdicts.iter().map(|v| v.violations).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "monotone: {counts:?}");
        assert!(counts[0] >= 1, "G0 counted at the weakest rung: {counts:?}");
        assert_eq!(counts[2], report.violations.len(), "the top rung forbids everything");
    }
}
