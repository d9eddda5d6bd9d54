//! The three experimental scenarios of paper §V — `geth_unmodified`,
//! `sereth_client`, `semantic_mining` — the multi-node clusters, and the
//! one runner under all of them.
//!
//! Every run puts its nodes behind [`sereth_node::netnode::NetNode`] on
//! the simulator's topology (complete, ring, star, random) with the
//! configured latency, loss, duplication, and partitions from
//! [`FaultModel`]. The workload driver feeds the clients'
//! transactions in; nodes flood them and their blocks to their
//! neighbours and run anti-entropy every [`SYNC_EVERY_MS`]. Mining stops
//! at a horizon after the last submission (the pool drain window); then
//! the network **quiesces**: anti-entropy keeps running, and the runner
//! steps simulated time until every node agrees on the head (or
//! [`MAX_SIM_MS`] passes).
//!
//! The output carries per-node heads and state roots (the convergence
//! check is byte-equality of state), the usual
//! [`crate::metrics::RunMetrics`], and node 0's canonical chain with the
//! read log, so [`crate::audit::audit_run`] gives every run an
//! isolation-ladder verdict.
//!
//! Everything is a pure function of `(config, seed)`: actors take
//! randomness only from the simulator's seeded RNG, so identical seeds
//! reproduce identical per-node heads, byte-identical state, and
//! identical message counts — the property the NET-SCALE bench and the
//! seed-sweep tests pin.

use std::sync::Arc;

use parking_lot::Mutex;
use sereth_chain::builder::BlockLimits;
use sereth_chain::genesis::GenesisBuilder;
use sereth_core::hms::HmsConfig;
use sereth_core::mark::genesis_mark;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_net::latency::{FaultModel, LatencyModel, Partition};
use sereth_net::sim::{Actor, NetworkConfig, Simulation};
use sereth_net::topology::TopologyKind;
use sereth_node::client::{Buyer, Owner};
use sereth_node::contract::{default_contract_address, sereth_code, sereth_genesis_slots, ContractForm};
use sereth_node::messages::Msg;
use sereth_node::miner::MinerPolicy;
use sereth_node::netnode::NetNode;
use sereth_node::node::{BlockSchedule, ClientKind, NodeConfig, NodeHandle};
use sereth_types::u256::U256;
use sereth_types::{IsolationLevel, SimTime};

use crate::metrics::{collect_metrics, RunMetrics, SubmissionLog};
use crate::retry::{RetryDriver, RetryStats};
use crate::workload::{market_plan, sequential_plan, MarketDriver, TimedStep};

/// Anti-entropy period of every node (ms).
pub const SYNC_EVERY_MS: SimTime = 3_000;

/// Convergence-poll granularity after mining stops (ms).
const QUIESCE_STEP_MS: SimTime = 1_000;

/// Hard horizon: a run whose nodes have not converged by this simulated
/// time reports `converged_at: None`.
pub const MAX_SIM_MS: SimTime = 600_000;

/// Which of the paper's scenarios a configuration models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// §V-A: unmodified clients, fee-priority miner (READ-COMMITTED).
    GethUnmodified,
    /// §V-B: Sereth clients (HMS via RAA), fee-priority miner.
    SerethClient,
    /// §V-C: Sereth clients *and* an HMS-aware miner.
    SemanticMining,
    /// §VI comparator: unmodified clients, PWV dependency-scheduling
    /// miner (early write visibility confined to block assembly).
    PwvScheduler,
}

impl ScenarioKind {
    /// The label used in Figure 2 (and in the EXT-PWV extension).
    pub fn label(&self) -> &'static str {
        match self {
            Self::GethUnmodified => "geth_unmodified",
            Self::SerethClient => "sereth_client",
            Self::SemanticMining => "semantic_mining",
            Self::PwvScheduler => "pwv_scheduler",
        }
    }
}

/// Where the workload's buyers submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Every client attaches to node 0 (the first miner). With this
    /// wiring the network is pure overhead for the committed history —
    /// the lever the no-network ≡ in-process equivalence property pulls.
    MinerOnly,
    /// Buyers attach round-robin over all nodes, so most submissions
    /// enter at non-mining edge nodes and must gossip to the miners.
    RoundRobin,
}

/// A full experiment configuration.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scenario label (used in reports).
    pub name: String,
    /// Number of network nodes.
    pub num_nodes: usize,
    /// Nodes `0..num_miners` mine. Miner `i` runs
    /// [`ScenarioConfig::block_schedule`] stretched by `i + 1` —
    /// secondary miners are deliberately slower, so after a partition the
    /// mainland branch (holding miner 0) is strictly longer and the
    /// minority reorgs onto it.
    pub num_miners: usize,
    /// Client kind per node (length `num_nodes`).
    pub node_kinds: Vec<ClientKind>,
    /// The mining policy of every miner.
    pub miner_policy: MinerPolicy,
    /// Miner 0's block production schedule; see
    /// [`ScenarioConfig::num_miners`].
    pub block_schedule: BlockSchedule,
    /// Per-block transaction cap (None = gas-limit bound only). The paper's
    /// small private blocks are what create pool backlog (§V-A).
    pub max_txs_per_block: Option<usize>,
    /// Buys submitted (the paper uses 100 per data point).
    pub num_buys: u64,
    /// Sets submitted (100 … 5 ⇒ ratios 1:1 … 20:1).
    pub num_sets: u64,
    /// Submission interval (the paper uses 1 s).
    pub tx_interval_ms: SimTime,
    /// Distinct buyer addresses.
    pub num_buyers: usize,
    /// Opening price.
    pub initial_price: u64,
    /// Link latency model.
    pub latency: LatencyModel,
    /// Loss, duplication, partitions.
    pub faults: FaultModel,
    /// Peer wiring. The workload driver is actor `num_nodes` inside this
    /// topology; it never relays, so the effective node topology is this
    /// graph with one silent tap attached.
    pub topology: TopologyKind,
    /// HMS extensions.
    pub hms: HmsConfig,
    /// Extra mining time after the last submission (the pool drain
    /// window); mining quiesces at `last_submission + drain_ms`.
    pub drain_ms: SimTime,
    /// The isolation rung every node serves reads (and the miner orders)
    /// at. READ-UNCOMMITTED — the paper's mode — by default; the
    /// ISO-FRONTIER experiment sweeps the whole ladder.
    pub isolation: IsolationLevel,
    /// Buyer attachment policy; the owner always talks to node 0.
    pub injection: Injection,
}

impl ScenarioConfig {
    fn base(kind: ScenarioKind, num_buys: u64, num_sets: u64) -> Self {
        let (node_kinds, miner_policy) = match kind {
            ScenarioKind::GethUnmodified => (vec![ClientKind::Geth; 4], MinerPolicy::Standard),
            ScenarioKind::SerethClient => (vec![ClientKind::Sereth; 4], MinerPolicy::Standard),
            ScenarioKind::SemanticMining => {
                (vec![ClientKind::Sereth; 4], MinerPolicy::Semantic(HmsConfig::default()))
            }
            // PWV helps only inside the system: clients stay unmodified.
            ScenarioKind::PwvScheduler => (vec![ClientKind::Geth; 4], MinerPolicy::Pwv),
        };
        Self {
            name: kind.label().to_string(),
            num_nodes: 4,
            num_miners: 1,
            node_kinds,
            miner_policy,
            block_schedule: BlockSchedule::Exponential { mean: 15_000 },
            max_txs_per_block: Some(20),
            num_buys,
            num_sets,
            tx_interval_ms: 1_000,
            num_buyers: 10,
            initial_price: 50,
            latency: LatencyModel::Uniform { min: 20, max: 120 },
            faults: FaultModel::none(),
            topology: TopologyKind::Complete,
            hms: HmsConfig::default(),
            drain_ms: 8 * 15_000,
            isolation: IsolationLevel::ReadUncommitted,
            injection: Injection::RoundRobin,
        }
    }

    /// The §V-A baseline.
    pub fn geth_unmodified(num_buys: u64, num_sets: u64) -> Self {
        Self::base(ScenarioKind::GethUnmodified, num_buys, num_sets)
    }

    /// The §V-B Sereth-client scenario.
    pub fn sereth_client(num_buys: u64, num_sets: u64) -> Self {
        Self::base(ScenarioKind::SerethClient, num_buys, num_sets)
    }

    /// The §V-C semantic-mining scenario.
    pub fn semantic_mining(num_buys: u64, num_sets: u64) -> Self {
        Self::base(ScenarioKind::SemanticMining, num_buys, num_sets)
    }

    /// The §VI PWV comparator (EXT-PWV): a piece-wise-visibility
    /// dependency scheduler in the miner, unmodified clients everywhere.
    pub fn pwv_scheduler(num_buys: u64, num_sets: u64) -> Self {
        Self::base(ScenarioKind::PwvScheduler, num_buys, num_sets)
    }

    /// A baseline cluster: Geth nodes, one standard miner on a fixed 5 s
    /// cadence, ring topology, default latency, no faults, round-robin
    /// edge injection.
    pub fn cluster(num_nodes: usize, num_buys: u64, num_sets: u64) -> Self {
        Self {
            name: format!("cluster_{num_nodes}"),
            num_nodes,
            node_kinds: vec![ClientKind::Geth; num_nodes],
            block_schedule: BlockSchedule::Fixed(5_000),
            num_buyers: 10.min(num_buys.max(1) as usize),
            topology: TopologyKind::Ring,
            drain_ms: 30_000,
            ..Self::base(ScenarioKind::GethUnmodified, num_buys, num_sets)
        }
    }

    /// Moves every node (and the miner's ordering) to `level` — the
    /// ISO-FRONTIER sweep's knob.
    pub fn with_isolation(mut self, level: IsolationLevel) -> Self {
        self.isolation = level;
        self
    }

    /// Adds loss and duplication to every link.
    pub fn lossy(mut self, drop_probability: f64, duplicate_probability: f64) -> Self {
        self.faults.drop_probability = drop_probability;
        self.faults.duplicate_probability = duplicate_probability;
        self
    }

    /// Schedules a partition episode cutting `island` off from the rest.
    pub fn partitioned(mut self, island: Vec<usize>, from_ms: SimTime, until_ms: SimTime) -> Self {
        self.faults.partitions.push(Partition { island, from_ms, until_ms });
        self
    }

    /// The buy:set ratio of this configuration.
    pub fn ratio(&self) -> f64 {
        self.num_buys as f64 / self.num_sets.max(1) as f64
    }
}

/// Result of one seeded run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Scenario label.
    pub scenario: String,
    /// The seed.
    pub seed: u64,
    /// Measured metrics, viewed from node 0.
    pub metrics: RunMetrics,
    /// Node 0's canonical chain at the end of the run (blocks with their
    /// replay receipts, genesis included) — the raw material for
    /// post-hoc auditing, e.g. the `sereth-consistency` checkers.
    pub chain: Vec<(sereth_types::Block, Vec<sereth_types::Receipt>)>,
    /// Every node's `(height, head hash)` at the end of the run.
    pub per_node_heads: Vec<(u64, H256)>,
    /// Every node's head state root (convergence is byte-equality here).
    pub per_node_state_roots: Vec<H256>,
    /// Every node's total stored blocks, side chains included. A node
    /// whose count exceeds the canonical length held — and abandoned — a
    /// competing branch: the observable trace of a reorg.
    pub per_node_stored_blocks: Vec<usize>,
    /// Simulated time at which every node first agreed on the head
    /// (polled every second after mining stopped), or `None` if the nodes
    /// never converged before [`MAX_SIM_MS`].
    pub converged_at: Option<SimTime>,
    /// Total simulator events delivered — message deliveries plus timers,
    /// the NET-SCALE traffic measure.
    pub events: u64,
    /// Sum of every node's `net.msgs_sent` counter (gossip fan-out
    /// actually offered to the network, before loss).
    pub messages_sent: u64,
}

impl RunOutput {
    /// `true` when every node ended on the same head **and** the same
    /// state root.
    pub fn is_converged(&self) -> bool {
        self.converged_at.is_some()
            && self.per_node_heads.windows(2).all(|w| w[0] == w[1])
            && self.per_node_state_roots.windows(2).all(|w| w[0] == w[1])
    }
}

/// What drives the clients of one run.
enum Workload {
    /// A timed plan — the market workload or the sequential history —
    /// executed by a [`MarketDriver`].
    Plan(Vec<TimedStep>),
    /// The abort-rate retry loop ([`RetryDriver`]), publishing per-buyer
    /// attempts into the shared stats.
    Retry(Arc<Mutex<RetryStats>>),
}

/// Runs the paper's market workload; identical `(config, seed)` pairs
/// produce identical outputs, including per-node heads and state roots.
pub fn run_scenario(config: &ScenarioConfig, seed: u64) -> RunOutput {
    let plan = market_plan(
        config.num_buys,
        config.num_sets,
        config.tx_interval_ms,
        config.num_buyers,
        config.initial_price,
    );
    run(config, seed, Workload::Plan(plan))
}

/// Runs the §V sequential-history validation: every transaction from one
/// address, alternating set/buy. Expected: zero failures, η = 1.0.
pub fn run_sequential_history(config: &ScenarioConfig, pairs: u64, seed: u64) -> RunOutput {
    run(config, seed, Workload::Plan(sequential_plan(pairs, config.tx_interval_ms, config.initial_price)))
}

/// Runs the abort-rate extension workload (see [`crate::retry`]): every
/// buyer retries one purchase until it lands while the owner reprices
/// `num_sets` times at `config.tx_interval_ms` intervals. Returns per-buyer
/// attempt counts alongside the usual submission metrics.
pub fn run_retry_scenario(config: &ScenarioConfig, seed: u64) -> (RunOutput, RetryStats) {
    let stats = Arc::new(Mutex::new(RetryStats::default()));
    let output = run(config, seed, Workload::Retry(stats.clone()));
    let stats = stats.lock().clone();
    (output, stats)
}

/// `schedule` with every interval multiplied by `factor`.
fn stretched(schedule: &BlockSchedule, factor: u64) -> BlockSchedule {
    match schedule {
        BlockSchedule::Fixed(interval) => BlockSchedule::Fixed(interval * factor),
        BlockSchedule::Exponential { mean } => BlockSchedule::Exponential { mean: mean * factor },
    }
}

/// Node `i`'s configuration: nodes `0..num_miners` mine (distinct
/// coinbases, miner `i` on the schedule stretched by `i + 1`), every node
/// serves reads at the scenario's isolation rung.
fn node_config(config: &ScenarioConfig, i: usize, contract: Address) -> NodeConfig {
    let mut builder = NodeConfig::builder()
        .kind(config.node_kinds[i])
        .contract(contract)
        .isolation(config.isolation)
        .limits(BlockLimits { gas_limit: 8_000_000, max_txs: config.max_txs_per_block })
        .hms(config.hms.clone());
    if i < config.num_miners {
        builder = builder
            .mining(config.miner_policy.clone())
            .schedule(stretched(&config.block_schedule, i as u64 + 1))
            .coinbase(Address::from_low_u64(0xc0b0 + i as u64));
    }
    builder.build()
}

/// Snapshots the canonical chain of `node` for [`RunOutput::chain`].
fn snapshot_chain(node: &NodeHandle) -> Vec<(sereth_types::Block, Vec<sereth_types::Receipt>)> {
    node.with_inner(|inner| {
        inner.chain.canonical_chain().map(|stored| (stored.block.clone(), stored.receipts.clone())).collect()
    })
}

/// The one runner: builds genesis, nodes and clients, hands the clients
/// to the workload's driver, and runs the network through mining and
/// quiescence.
fn run(config: &ScenarioConfig, seed: u64, workload: Workload) -> RunOutput {
    assert_eq!(config.node_kinds.len(), config.num_nodes, "one client kind per node");
    assert!(config.num_miners >= 1 && config.num_miners <= config.num_nodes, "miners must be nodes");
    let contract = default_contract_address();
    let owner_key = SecretKey::from_label(1);
    let buyer_keys: Vec<SecretKey> =
        (0..config.num_buyers).map(|i| SecretKey::from_label(1_000 + i as u64)).collect();

    // Genesis: fund everyone, install the contract (native form for speed;
    // the bytecode form is equivalence-tested in sereth-node).
    let mut genesis_builder = GenesisBuilder::new().fund(owner_key.address(), U256::from(u64::MAX / 2));
    for key in &buyer_keys {
        genesis_builder = genesis_builder.fund(key.address(), U256::from(u64::MAX / 2));
    }
    let genesis = genesis_builder
        .contract_with_storage(
            contract,
            sereth_code(ContractForm::Native),
            sereth_genesis_slots(&owner_key.address(), H256::from_low_u64(config.initial_price)),
        )
        .build();

    let nodes: Vec<NodeHandle> = (0..config.num_nodes)
        .map(|i| NodeHandle::new(genesis.clone(), node_config(config, i, contract)))
        .collect();

    // Buyers attach per the injection policy; each inherits its node's
    // client kind.
    let mut buyers = Vec::new();
    let mut buyer_nodes = Vec::new();
    let mut buyer_node_ids = Vec::new();
    for (i, key) in buyer_keys.iter().enumerate() {
        let node_index = match config.injection {
            Injection::MinerOnly => 0,
            Injection::RoundRobin => i % config.num_nodes,
        };
        buyers.push(Buyer::new(key.clone(), contract, nodes[node_index].kind(), 1));
        buyer_nodes.push(nodes[node_index].clone());
        buyer_node_ids.push(node_index);
    }
    let owner =
        Owner::with_value(owner_key, contract, genesis_mark(), H256::from_low_u64(config.initial_price), 1);

    let log = Arc::new(Mutex::new(SubmissionLog::new()));
    let interval = config.tx_interval_ms;
    let (driver, first_tick, last_submission): (Box<dyn Actor<Msg>>, Option<SimTime>, SimTime) =
        match workload {
            Workload::Plan(plan) => {
                let last_step = plan.last().map_or(0, |timed| timed.at);
                let driver = MarketDriver::new(
                    plan,
                    owner,
                    buyers,
                    buyer_nodes,
                    buyer_node_ids,
                    nodes[0].clone(),
                    0,
                    log.clone(),
                );
                let first_tick = driver.first_tick_at();
                (Box::new(driver), first_tick, (config.num_buys.max(1) * interval + interval).max(last_step))
            }
            Workload::Retry(stats) => {
                let last_submission = config.num_sets.max(1) * interval;
                let driver = RetryDriver::new(
                    owner,
                    nodes[0].clone(),
                    0,
                    buyers,
                    buyer_nodes,
                    buyer_node_ids,
                    config.num_sets,
                    interval,
                    interval / 2,
                    config.initial_price,
                    last_submission + config.drain_ms,
                    log.clone(),
                    stats,
                );
                (Box::new(driver), Some(interval), last_submission)
            }
        };
    let driver_id = config.num_nodes;

    let mine_until = last_submission + config.drain_ms;
    let mut actors: Vec<Box<dyn Actor<Msg>>> = Vec::with_capacity(config.num_nodes + 1);
    for node in &nodes {
        actors.push(Box::new(NetNode::new(node.clone(), mine_until, SYNC_EVERY_MS, MAX_SIM_MS)));
    }
    actors.push(driver);

    let net = NetworkConfig {
        topology: config.topology.clone(),
        latency: config.latency.clone(),
        faults: config.faults.clone(),
    };
    // The simulator seeds its own RNG (topology + link sampling + mining
    // schedules) from `seed`; nothing else in a run draws randomness.
    let mut sim = Simulation::new(actors, &net, seed);

    // Bootstrap: miners on their cadences (offset by 73 ms per extra
    // miner so fixed schedules never collide on the same instant), one
    // staggered sync tick per node, the workload driver.
    let period = match &config.block_schedule {
        BlockSchedule::Fixed(interval) => *interval,
        BlockSchedule::Exponential { mean } => *mean,
    };
    for i in 0..config.num_miners {
        sim.schedule(period * (i as u64 + 1) + 73 * i as u64, i, Msg::MineTick);
    }
    for i in 0..config.num_nodes {
        sim.schedule(SYNC_EVERY_MS + i as u64, i, Msg::SyncTick);
    }
    if let Some(at) = first_tick {
        sim.schedule(at, driver_id, Msg::WorkloadTick(0));
    }

    // Phase 1: workload + mining, through the drain window.
    sim.run_until(mine_until);

    // Phase 2: quiescence. Mining has stopped; anti-entropy keeps
    // running. Poll until every node reports the same head.
    let mut converged_at = None;
    let mut horizon = sim.now();
    while horizon < MAX_SIM_MS {
        if nodes.windows(2).all(|pair| pair[0].head_id() == pair[1].head_id()) {
            converged_at = Some(horizon);
            break;
        }
        horizon += QUIESCE_STEP_MS;
        sim.run_until(horizon);
    }

    let mut metrics = collect_metrics(&nodes[0], &log.lock());
    metrics.node_telemetry = nodes.iter().map(|node| node.telemetry_snapshot()).collect();
    let messages_sent = metrics
        .node_telemetry
        .iter()
        .map(|snapshot| snapshot.counters.get("net.msgs_sent").copied().unwrap_or(0))
        .sum();
    RunOutput {
        scenario: config.name.clone(),
        seed,
        chain: snapshot_chain(&nodes[0]),
        metrics,
        per_node_heads: nodes.iter().map(|node| node.head_id()).collect(),
        per_node_state_roots: nodes.iter().map(|node| node.head_state_root()).collect(),
        per_node_stored_blocks: nodes.iter().map(|node| node.stored_blocks()).collect(),
        converged_at,
        events: sim.events_processed(),
        messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: ScenarioKind) -> ScenarioConfig {
        let mut config = ScenarioConfig::base(kind, 20, 10);
        config.num_buyers = 4;
        config.drain_ms = 6 * 15_000;
        config
    }

    #[test]
    fn scenario_constructors_label_correctly() {
        assert_eq!(ScenarioConfig::geth_unmodified(100, 5).name, "geth_unmodified");
        assert_eq!(ScenarioConfig::sereth_client(100, 5).name, "sereth_client");
        assert_eq!(ScenarioConfig::semantic_mining(100, 5).name, "semantic_mining");
        assert!((ScenarioConfig::geth_unmodified(100, 5).ratio() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let config = small(ScenarioKind::SerethClient);
        let a = run_scenario(&config, 7);
        let b = run_scenario(&config, 7);
        assert_eq!(a.metrics.buys_succeeded, b.metrics.buys_succeeded);
        assert_eq!(a.metrics.blocks, b.metrics.blocks);
        assert_eq!(a.metrics.sets_succeeded, b.metrics.sets_succeeded);
        assert_eq!(a.per_node_state_roots, b.per_node_state_roots);
        assert_eq!(a.events, b.events);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    #[test]
    fn all_sets_succeed_in_every_scenario() {
        for kind in [ScenarioKind::GethUnmodified, ScenarioKind::SerethClient, ScenarioKind::SemanticMining] {
            let out = run_scenario(&small(kind), 3);
            assert_eq!(
                out.metrics.sets_succeeded, out.metrics.sets_submitted,
                "{}: sets are the owner's own chain and must all succeed",
                out.scenario
            );
            assert!(out.is_converged(), "{}: the four nodes agree: {:?}", out.scenario, out.per_node_heads);
        }
    }

    #[test]
    fn pwv_dominates_the_baseline_but_pays_in_writer_latency() {
        // EXT-PWV: in-system early write visibility rescues committed-view
        // buys, so η(pwv) ≥ η(geth) robustly. What η does NOT show is the
        // cost: the scheduler keeps intervals open by postponing sets, so
        // the writer's commit latency can only grow relative to the
        // baseline, which commits sets by fee order immediately.
        let seeds = [1u64, 2, 3];
        let mut geth = 0.0;
        let mut pwv = 0.0;
        let mut geth_set_latency = 0.0;
        let mut pwv_set_latency = 0.0;
        for &seed in &seeds {
            let g = run_scenario(&small(ScenarioKind::GethUnmodified), seed).metrics;
            let p = run_scenario(&small(ScenarioKind::PwvScheduler), seed).metrics;
            geth += g.eta_buys();
            pwv += p.eta_buys();
            geth_set_latency += crate::stats::mean(&g.set_latency_ms);
            pwv_set_latency += crate::stats::mean(&p.set_latency_ms);
        }
        assert!(pwv >= geth, "PWV ({pwv:.2}) must not lose to the baseline ({geth:.2})");
        assert!(
            pwv_set_latency >= geth_set_latency,
            "the scheduler's gain must come out of writer latency \
             (pwv {pwv_set_latency:.0}ms vs geth {geth_set_latency:.0}ms)"
        );
    }

    #[test]
    fn scenario_ordering_matches_the_paper() {
        // η(semantic) ≥ η(sereth) ≥ η(geth) on matched seeds — the core
        // qualitative claim of Figure 2.
        let seeds = [1u64, 2, 3];
        let mut geth = 0.0;
        let mut sereth = 0.0;
        let mut semantic = 0.0;
        for &seed in &seeds {
            geth += run_scenario(&small(ScenarioKind::GethUnmodified), seed).metrics.eta_buys();
            sereth += run_scenario(&small(ScenarioKind::SerethClient), seed).metrics.eta_buys();
            semantic += run_scenario(&small(ScenarioKind::SemanticMining), seed).metrics.eta_buys();
        }
        assert!(
            semantic >= sereth && sereth >= geth,
            "expected semantic ({semantic:.2}) ≥ sereth ({sereth:.2}) ≥ geth ({geth:.2})"
        );
        assert!(semantic > geth, "the improvement must be strict in aggregate");
    }

    #[test]
    fn sequential_history_has_unit_efficiency() {
        let config = small(ScenarioKind::GethUnmodified);
        let out = run_sequential_history(&config, 10, 5);
        assert_eq!(out.metrics.buys_submitted, 10);
        assert_eq!(out.metrics.buys_succeeded, 10, "single-sender history never fails (paper §V)");
        assert_eq!(out.metrics.sets_succeeded, 10);
        assert!((out.metrics.eta_buys() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_history_covers_the_whole_plan() {
        // 60 pairs end at 120 s, far past the market horizon of 5 buys;
        // the run must still submit, and commit, every step of the plan.
        let mut config = ScenarioConfig::geth_unmodified(5, 5);
        config.drain_ms = 90_000;
        for seed in 1..=3 {
            let out = run_sequential_history(&config, 60, seed);
            assert_eq!(out.metrics.buys_submitted, 60, "seed {seed}: every buy submitted");
            assert_eq!(out.metrics.sets_submitted, 60, "seed {seed}: every set submitted");
            assert_eq!(out.metrics.buys_succeeded, 60, "seed {seed}");
            assert_eq!(out.metrics.sets_succeeded, 60, "seed {seed}");
            assert!((out.metrics.eta_buys() - 1.0).abs() < 1e-12, "seed {seed}: η = 1.0");
        }
    }
}

/// The multi-node cluster regressions: convergence, byte-equivalence,
/// reorgs and audits on the cluster presets.
#[cfg(test)]
mod cluster {
    use super::*;
    use crate::audit::audit_run;

    fn small(num_nodes: usize) -> ScenarioConfig {
        let mut config = ScenarioConfig::cluster(num_nodes, 24, 6);
        config.num_buyers = 6;
        config.drain_ms = 25_000;
        config
    }

    #[test]
    fn zero_latency_cluster_is_byte_equivalent_to_single_node() {
        // No-network ≡ in-process: with every client attached to node 0,
        // zero link latency, and no faults, the other five nodes are pure
        // observers — the committed history must be byte-identical to the
        // single-node run. Nothing here draws RNG (fixed schedule,
        // constant latency, no loss), so this is exact, not statistical.
        let mut lone = small(1);
        lone.injection = Injection::MinerOnly;
        lone.latency = LatencyModel::Constant(0);
        let mut wide = small(6);
        wide.injection = Injection::MinerOnly;
        wide.latency = LatencyModel::Constant(0);

        let a = run_scenario(&lone, 42);
        let b = run_scenario(&wide, 42);
        assert!(a.is_converged() && b.is_converged());
        let hashes =
            |out: &RunOutput| -> Vec<H256> { out.chain.iter().map(|(block, _)| block.hash()).collect() };
        assert_eq!(hashes(&a), hashes(&b), "identical canonical chains, block for block");
        assert_eq!(a.per_node_state_roots[0], b.per_node_state_roots[0], "byte-equal state");
        assert_eq!(a.metrics.buys_succeeded, b.metrics.buys_succeeded);
        assert_eq!(a.metrics.sets_succeeded, b.metrics.sets_succeeded);
    }

    #[test]
    fn seed_swept_lossy_partitioned_cluster_converges_deterministically() {
        // The acceptance-criteria run: 8 nodes, loss + duplication, a
        // partition that opens and heals mid-run, edge injection. Every
        // seed must converge; identical seeds must agree byte-for-byte.
        for seed in [3u64, 11, 29] {
            let config = small(8).lossy(0.05, 0.05).partitioned(vec![2, 5], 8_000, 20_000);
            let a = run_scenario(&config, seed);
            let b = run_scenario(&config, seed);
            assert!(a.is_converged(), "seed {seed} converged: {:?}", a.per_node_heads);
            assert_eq!(a.per_node_heads, b.per_node_heads, "seed {seed} heads reproduce");
            assert_eq!(a.per_node_state_roots, b.per_node_state_roots, "seed {seed} state reproduces");
            assert_eq!(a.converged_at, b.converged_at, "seed {seed} convergence time reproduces");
            assert_eq!(a.events, b.events, "seed {seed} event count reproduces");
            assert_eq!(a.messages_sent, b.messages_sent, "seed {seed} message count reproduces");
            // The committed chain stays G0-clean at the paper's rung even
            // under loss and partitions (set is a CAS).
            let report = audit_run(&a, config.initial_price);
            assert!(report.holds_at(IsolationLevel::ReadUncommitted), "seed {seed}: {:?}", report.violations);
        }
    }

    #[test]
    fn minority_branch_reorgs_onto_majority_after_heal() {
        // Two miners. The slower one (node 1) is cut off with two other
        // nodes long enough to seal its own branch; the mainland keeps
        // the faster miner, so its branch is strictly longer at heal
        // time. The minority must abandon its branch — visible as stored
        // side-chain blocks — and every node must end on one head.
        let mut config = small(8).partitioned(vec![1, 4, 6], 6_000, 30_000);
        config.num_miners = 2;
        config.topology = TopologyKind::Complete;
        let out = run_scenario(&config, 17);
        assert!(out.is_converged(), "heal reconnects the branches: {:?}", out.per_node_heads);
        // More stored blocks than the canonical chain (genesis included)
        // proves the minority miner held — and abandoned — a competing
        // branch when the longer mainland chain arrived.
        let canonical_len = (out.per_node_heads[0].0 + 1) as usize;
        assert!(
            out.per_node_stored_blocks[1] > canonical_len,
            "node 1 kept its orphaned branch as a side chain \
             (stored {} vs canonical {canonical_len})",
            out.per_node_stored_blocks[1]
        );
    }

    #[test]
    fn fault_free_sequential_cluster_is_clean_at_every_rung() {
        // With no faults there are no reorgs, so a SEQUENTIAL cluster
        // must audit clean at every rung of the ladder, exactly like the
        // single-miner scenarios.
        let mut config = small(4).with_isolation(IsolationLevel::Sequential);
        config.injection = Injection::RoundRobin;
        let out = run_scenario(&config, 9);
        assert!(out.is_converged());
        let report = audit_run(&out, config.initial_price);
        for level in IsolationLevel::ALL {
            assert!(report.holds_at(level), "violated {level}: {:?}", report.violations);
        }
        assert!(report.tallies.reads > 0, "edge-node observations were logged");
    }

    #[test]
    fn star_and_random_topologies_converge() {
        for topology in [TopologyKind::Star, TopologyKind::Random { degree: 2 }] {
            let mut config = small(8).lossy(0.03, 0.03);
            config.topology = topology.clone();
            let out = run_scenario(&config, 5);
            assert!(out.is_converged(), "{topology:?} converged: {:?}", out.per_node_heads);
            assert!(out.metrics.blocks > 0, "{topology:?} committed blocks");
        }
    }
}
