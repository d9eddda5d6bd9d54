//! Unified telemetry: a lock-free metrics registry, block-lifecycle
//! phase tracing, and exportable snapshots.
//!
//! Every subsystem of the stack (pool and its RAA views, store, node) records
//! into one [`Registry`] of atomic counters, gauges, and fixed-bucket
//! latency histograms. A lightweight span API ([`Telemetry::time`])
//! stamps the block lifecycle as structured phase timings (`receive_tx →
//! admission → order_candidates → seal → import → validate`), cheap
//! enough to stay on by default and near-zero cost when disabled through
//! [`TelemetryConfig`].
//!
//! # Reading it back
//!
//! [`Telemetry::snapshot`] produces a [`TelemetrySnapshot`] — a plain
//! owned value that merges across nodes
//! ([`TelemetrySnapshot::merge`]), renders as Prometheus exposition
//! text ([`TelemetrySnapshot::to_prometheus`]), renders as JSON
//! ([`TelemetrySnapshot::to_json`]), and writes `TELEMETRY_<key>.json`
//! artifacts next to the `BENCH_*.json` files
//! ([`TelemetrySnapshot::write_artifact`]).
//!
//! # Cost model
//!
//! * Recording: one relaxed `fetch_add` per counter bump; two
//!   `Instant::now` calls plus two relaxed `fetch_add`s per timed span.
//! * Disabled: every handle caches the off switch, so a record is a
//!   single predictable branch — no atomics, no clock reads, and the
//!   registry maps stay empty.
//! * Snapshots: never block recorders (handles are plain atomics; the
//!   registry's name maps are only locked to *create* handles, which
//!   hot paths do once at construction).
//!
//! Snapshot consistency is *per-cell*: counters are monotone and a
//! histogram's derived count always equals the sum of its bucket
//! counts (the count is not stored separately, so it cannot tear).
//!
//! # Examples
//!
//! ```
//! use sereth_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! let imported = telemetry.counter("node.blocks_imported");
//! imported.inc();
//! imported.add(2);
//!
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counters.get("node.blocks_imported"), Some(&3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod registry;
mod snapshot;
mod span;

pub use registry::{Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKET_BOUNDS};
pub use snapshot::{HistogramSnapshot, TelemetrySnapshot};
pub use span::{BlockTrace, Phase, Telemetry, TelemetryConfig, BLOCK_TRACE_CAP};
