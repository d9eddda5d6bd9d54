//! The experiment harness reproducing the paper's evaluation (§V).
//!
//! * [`workload`] — the §II-F market workload: buys at 1-second intervals,
//!   sets evenly spaced across them;
//! * [`scenario`] — the three Figure 2 scenarios (`geth_unmodified`,
//!   `sereth_client`, `semantic_mining`), the sequential-history
//!   validation, and the multi-node cluster presets, all on one runner:
//!   N full nodes behind `NetNode` on a real topology with loss,
//!   duplication, and partitions, with a post-quiescence convergence
//!   check (all heads agree, byte-equal state roots);
//! * [`metrics`] — state throughput and transaction efficiency η (§III-A);
//! * [`audit`] — post-hoc isolation-ladder auditing of a run's committed
//!   chain + read log through `sereth_consistency::check`;
//! * [`experiment`] — seed-replicated parameter sweeps (Figure 2's data);
//! * [`stats`] — means, 90 % confidence intervals, smoothing;
//! * [`report`] — tables, CSV, and a terminal Figure 2.
//!
//! # Examples
//!
//! A single small Figure 2 data point:
//!
//! ```
//! use sereth_sim::scenario::{run_scenario, ScenarioConfig};
//!
//! let mut config = ScenarioConfig::semantic_mining(10, 5);
//! config.drain_ms = 60_000;
//! let out = run_scenario(&config, 42);
//! assert_eq!(out.metrics.sets_succeeded, out.metrics.sets_submitted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod experiment;
pub mod metrics;
pub mod report;
pub mod retry;
pub mod scenario;
pub mod stats;
pub mod workload;

pub use audit::{audit_run, market_spec, run_history};
pub use experiment::{paper_scenarios, run_point, sweep, SweepPoint, PAPER_SET_COUNTS};
pub use metrics::{collect_metrics, RunMetrics, Submission, SubmissionLog};
pub use retry::{RetryDriver, RetryStats};
pub use scenario::{
    run_retry_scenario, run_scenario, run_sequential_history, Injection, RunOutput, ScenarioConfig,
    ScenarioKind,
};
pub use stats::{ci90_half_width, mean, moving_average, percentile, std_dev, summarize, Summary};
pub use workload::{market_plan, sequential_plan, MarketDriver, TimedStep, WorkloadStep};
