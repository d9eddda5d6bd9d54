//! Offline consistency auditing of simulation runs.
//!
//! A [`RunOutput`] carries everything [`sereth_consistency::check`]
//! consumes: the miner's canonical chain (blocks + replay receipts) and
//! the read observations the workload's buyers made along the way
//! ([`crate::metrics::RunMetrics::reads`]). This module joins the two
//! into a [`History`] and audits it, so every experiment can answer
//! "which rung of the isolation ladder did this run actually satisfy?"
//! without re-running anything.

use sereth_consistency::{check, History, MarketSpec, Report};
use sereth_crypto::hash::H256;
use sereth_node::contract::default_contract_address;

use crate::scenario::RunOutput;

/// The [`MarketSpec`] matching the scenario harness's genesis: the
/// default contract, with `initial_price` as the opening value.
pub fn market_spec(initial_price: u64) -> MarketSpec {
    MarketSpec { contract: default_contract_address(), initial_value: H256::from_low_u64(initial_price) }
}

/// Extracts the committed market history of a run, read log attached.
pub fn run_history(output: &RunOutput, initial_price: u64) -> History {
    let spec = market_spec(initial_price);
    History::from_blocks(&spec, output.chain.iter().map(|(block, receipts)| (block, receipts.as_slice())))
        .with_reads(output.metrics.reads.clone())
}

/// Audits one run end to end: program order, strict serialization of the
/// sets, and the Adya anomaly passes (dirty writes, dirty reads, lost
/// updates), each violation tagged with the weakest isolation level that
/// forbids it. `report.holds_at(level)` answers the ladder question.
pub fn audit_run(output: &RunOutput, initial_price: u64) -> Report {
    check(&market_spec(initial_price), &run_history(output, initial_price))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_scenario, ScenarioConfig};
    use sereth_types::IsolationLevel;

    fn small(kind: fn(u64, u64) -> ScenarioConfig) -> ScenarioConfig {
        let mut config = kind(8, 4);
        config.drain_ms = 60_000;
        config
    }

    #[test]
    fn sequential_run_is_clean_at_every_rung() {
        let config = small(ScenarioConfig::geth_unmodified).with_isolation(IsolationLevel::Sequential);
        let output = run_scenario(&config, 7);
        let report = audit_run(&output, config.initial_price);
        for level in IsolationLevel::ALL {
            assert!(report.holds_at(level), "sequential run violated {level}: {:?}", report.violations);
        }
        assert!(report.tallies.records > 0, "the run committed market traffic");
        assert!(report.tallies.reads > 0, "buyer observations were logged");
    }

    #[test]
    fn read_uncommitted_sereth_run_stays_g0_clean() {
        // Speculative reads may produce dirty reads (that is the paper's
        // trade), but the committed chain itself must stay free of
        // dirty-write cycles at every level — set is a CAS, so G0 is
        // impossible on a real chain.
        let config = small(ScenarioConfig::sereth_client);
        let output = run_scenario(&config, 7);
        let report = audit_run(&output, config.initial_price);
        assert!(report.holds_at(IsolationLevel::ReadUncommitted), "{:?}", report.violations);
    }
}
