//! End-to-end correctness audit: every committed chain produced by the
//! paper's three scenarios must satisfy the two correctness conditions
//! the paper invokes — sequential consistency (§IV) and Selective Strict
//! Serialization (§VI, executed here as a checker rather than left as
//! future work).
//!
//! The audit is an *independent oracle*: it re-derives the market's state
//! machine from committed calldata alone and compares against the effects
//! the receipts record. Any divergence — in the contract, the executor,
//! the pool, the miner (standard *or* semantic), or the gossip layer —
//! surfaces as a violation.

use sereth::sim::audit_run;
use sereth::sim::scenario::{run_scenario, RunOutput, ScenarioConfig};

/// Audits a run's committed chain for program order and SSS. These runs
/// sit at read uncommitted, which allows the dirty reads the audit also
/// counts, so those are not checked here.
fn audit(output: &RunOutput, initial_price: u64) {
    let report = audit_run(output, initial_price);
    let tallies = &report.tallies;
    assert!(
        tallies.records > 0,
        "{} seed {}: no market transactions committed — audit vacuous",
        output.scenario,
        output.seed
    );
    assert!(
        tallies.program_order == 0 && tallies.serialization == 0,
        "{} seed {}: sequential consistency or SSS broken: {:?}",
        output.scenario,
        output.seed,
        report.violations
    );

    // Cross-check the audit against the run's own metrics: the checker's
    // tally of effective operations must equal what the metrics counted.
    assert_eq!(tallies.sets_ok as u64, output.metrics.sets_succeeded, "{}", output.scenario);
    assert_eq!(tallies.buys_ok as u64, output.metrics.buys_succeeded, "{}", output.scenario);
    assert_eq!(tallies.intervals, tallies.sets_ok, "every effective set opens exactly one interval");
}

fn small(mut config: ScenarioConfig) -> ScenarioConfig {
    config.num_buyers = 4;
    config.drain_ms = 6 * 15_000;
    config
}

#[test]
fn geth_unmodified_histories_satisfy_sss_and_seqcon() {
    for seed in [1, 7] {
        let output = run_scenario(&small(ScenarioConfig::geth_unmodified(24, 12)), seed);
        audit(&output, 50);
    }
}

#[test]
fn sereth_client_histories_satisfy_sss_and_seqcon() {
    for seed in [1, 7] {
        let output = run_scenario(&small(ScenarioConfig::sereth_client(24, 12)), seed);
        audit(&output, 50);
    }
}

#[test]
fn semantic_mining_histories_satisfy_sss_and_seqcon() {
    // The semantic miner *reorders* transactions (buys spliced into their
    // marked intervals); SSS is exactly the condition that says this
    // reordering is legal — buys move freely within an interval, never
    // across one.
    for seed in [1, 7] {
        let output = run_scenario(&small(ScenarioConfig::semantic_mining(24, 12)), seed);
        audit(&output, 50);
    }
}

#[test]
fn pwv_scheduler_histories_satisfy_sss_and_seqcon() {
    // The PWV miner reorders by data dependencies rather than HMS marks;
    // the audit shows the schedule it produces is still SSS-legal.
    for seed in [1, 7] {
        let output = run_scenario(&small(ScenarioConfig::pwv_scheduler(24, 12)), seed);
        audit(&output, 50);
    }
}

#[test]
fn semantic_mining_actually_exercises_interval_freedom() {
    // A run where multiple buys land per interval, so the "selective" part
    // of SSS is not vacuous.
    let output = run_scenario(&small(ScenarioConfig::semantic_mining(30, 5)), 11);
    let report = audit_run(&output, 50);
    assert_eq!(report.tallies.serialization, 0, "{:?}", report.violations);
    assert!(
        report.tallies.buys_per_interval.iter().any(|&count| count >= 2),
        "expected at least one interval with 2+ buys, got {:?}",
        report.tallies.buys_per_interval
    );
}
