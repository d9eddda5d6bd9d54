//! The block-lifecycle span API: named phases, a timing helper, and a
//! bounded ring of per-block phase timelines.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

use crate::registry::{Counter, Gauge, Histogram, Registry};
use crate::snapshot::TelemetrySnapshot;

/// How many recent [`BlockTrace`]s a [`Telemetry`] retains.
pub const BLOCK_TRACE_CAP: usize = 64;

/// The telemetry switch. On by default — the whole layer is designed
/// to be cheap enough to leave running; flipping `enabled` off reduces
/// every record to a cached-branch no-op (and the stats views backed
/// by the registry then read as zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record metrics, spans, and block traces.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { enabled: true }
    }
}

/// One stage of the block lifecycle, in pipeline order. Each phase owns
/// a latency histogram named `phase.<name>` in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A transaction arriving at the node: dedup, signature/nonce
    /// verification, pool hand-off.
    ReceiveTx,
    /// The pool admitting (or refusing) one transaction.
    Admission,
    /// The miner ordering candidates out of the pool.
    OrderCandidates,
    /// Assembling and sealing the block (roots, header).
    Seal,
    /// Importing a block into the store (fork choice, bookkeeping).
    Import,
    /// Replay-validating an imported block's execution.
    Validate,
}

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; 6] = [
        Phase::ReceiveTx,
        Phase::Admission,
        Phase::OrderCandidates,
        Phase::Seal,
        Phase::Import,
        Phase::Validate,
    ];

    /// The phase's registry/export name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::ReceiveTx => "receive_tx",
            Phase::Admission => "admission",
            Phase::OrderCandidates => "order_candidates",
            Phase::Seal => "seal",
            Phase::Import => "import",
            Phase::Validate => "validate",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One block's lifecycle timeline: which phases ran and how long each
/// took, as measured where the block was built, imported, or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTrace {
    /// Block number.
    pub number: u64,
    /// What this node was doing with the block: `"build"` on the miner
    /// path, `"import"` on the store path.
    pub role: &'static str,
    /// `(phase, nanoseconds)` in the order the phases ran.
    pub phase_ns: Vec<(Phase, u64)>,
}

/// The per-node telemetry hub: a [`Registry`] plus the phase
/// histograms and the block-trace ring. Shared by `Arc` across every
/// subsystem of one node.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    registry: Registry,
    phases: [Histogram; Phase::ALL.len()],
    blocks: Mutex<VecDeque<BlockTrace>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// A telemetry hub with the given switch.
    pub fn new(config: TelemetryConfig) -> Self {
        let registry = Registry::new(config.enabled);
        let phases = std::array::from_fn(|i| registry.histogram(&format!("phase.{}", Phase::ALL[i].name())));
        Self { enabled: config.enabled, registry, phases, blocks: Mutex::new(VecDeque::new()) }
    }

    /// An enabled hub.
    pub fn enabled() -> Self {
        Self::new(TelemetryConfig { enabled: true })
    }

    /// A disabled hub.
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig { enabled: false })
    }

    /// The shared process-wide disabled hub — the default for call
    /// sites that run without a node (standalone builders, validators,
    /// oracle paths) so they pay only the cached branch.
    pub fn off() -> &'static Telemetry {
        static OFF: OnceLock<Telemetry> = OnceLock::new();
        OFF.get_or_init(Telemetry::disabled)
    }

    /// `true` when this hub records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The counter registered under `name` (see [`Registry::counter`]).
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// The gauge registered under `name` (see [`Registry::gauge`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// The histogram registered under `name` (see
    /// [`Registry::histogram`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    /// The latency histogram of `phase`.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// Runs `f`, recording its wall time into `phase`'s histogram.
    /// Disabled: calls `f` behind one branch — no clock reads.
    #[inline]
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        self.time_ns(phase, f).0
    }

    /// [`Telemetry::time`] that also returns the measured nanoseconds
    /// (0 when disabled) — what block-trace assembly uses.
    #[inline]
    pub fn time_ns<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> (T, u64) {
        if !self.enabled {
            return (f(), 0);
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.phases[phase.index()].record_ns(ns);
        (out, ns)
    }

    /// Appends one block's phase timeline to the bounded ring (oldest
    /// evicted past [`BLOCK_TRACE_CAP`]). No-op when disabled.
    pub fn trace_block(&self, trace: BlockTrace) {
        if !self.enabled {
            return;
        }
        let mut blocks = self.blocks.lock();
        if blocks.len() == BLOCK_TRACE_CAP {
            blocks.pop_front();
        }
        blocks.push_back(trace);
    }

    /// The retained block traces, oldest first.
    fn block_traces(&self) -> Vec<BlockTrace> {
        self.blocks.lock().iter().cloned().collect()
    }

    /// An owned snapshot: every registered metric plus the block-trace
    /// ring. Reads only atomics and the short trace lock — never a
    /// node or subsystem lock.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snapshot = self.registry.snapshot();
        snapshot.blocks = self.block_traces();
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_enumerate_in_lifecycle_order_with_unique_names() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names[0], "receive_tx");
        assert_eq!(names[5], "validate");
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }

    #[test]
    fn time_records_into_the_phase_histogram() {
        let telemetry = Telemetry::enabled();
        let (value, ns) = telemetry.time_ns(Phase::Seal, || 41 + 1);
        assert_eq!(value, 42);
        let snapshot = telemetry.phase(Phase::Seal).snapshot();
        assert_eq!(snapshot.count(), 1);
        assert!(snapshot.sum_ns >= ns.min(1));
    }

    #[test]
    fn disabled_hub_times_nothing_and_snapshots_empty() {
        let telemetry = Telemetry::disabled();
        let (value, ns) = telemetry.time_ns(Phase::Import, || 7);
        assert_eq!((value, ns), (7, 0));
        telemetry.counter("c").inc();
        telemetry.trace_block(BlockTrace { number: 1, role: "build", phase_ns: vec![] });
        let snapshot = telemetry.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.histograms.is_empty());
        assert!(snapshot.blocks.is_empty());
        assert!(!telemetry.is_enabled());
        assert!(!Telemetry::off().is_enabled());
    }

    #[test]
    fn block_trace_ring_is_bounded() {
        let telemetry = Telemetry::enabled();
        for number in 0..(BLOCK_TRACE_CAP as u64 + 10) {
            telemetry.trace_block(BlockTrace { number, role: "build", phase_ns: vec![] });
        }
        let traces = telemetry.block_traces();
        assert_eq!(traces.len(), BLOCK_TRACE_CAP);
        assert_eq!(traces.first().unwrap().number, 10);
        assert_eq!(traces.last().unwrap().number, BLOCK_TRACE_CAP as u64 + 9);
    }

    #[test]
    fn snapshot_carries_phase_histograms_and_traces() {
        let telemetry = Telemetry::enabled();
        telemetry.time(Phase::OrderCandidates, || std::hint::black_box(0));
        telemetry.trace_block(BlockTrace {
            number: 3,
            role: "import",
            phase_ns: vec![(Phase::Validate, 1_000)],
        });
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.histograms["phase.order_candidates"].count(), 1);
        assert_eq!(snapshot.blocks.len(), 1);
        assert_eq!(snapshot.blocks[0].role, "import");
    }
}
