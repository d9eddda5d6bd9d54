//! The two workloads, their seeded inputs, and the node pair they run on.
//!
//! They sit at opposite ends of the conflict axis on purpose: in
//! `market-ru` every transaction touches one contract and the RAA/HMS read
//! path does the work; in `transfer-bigstate` no two transactions conflict,
//! RAA/HMS is never touched, and the state root, self-replay and
//! persistence dominate the block path. An optimisation of one side must
//! show on its workload and leave the other unmoved.

use std::path::Path;
use std::time::{Duration, Instant};

use sereth_chain::genesis::{Genesis, GenesisBuilder};
use sereth_chain::StoreError;
use sereth_core::hms::HmsConfig;
use sereth_core::mark::genesis_mark;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::client::{transfer, Buyer, Owner};
use sereth_node::contract::{default_contract_address, sereth_code, sereth_genesis_slots, ContractForm};
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{ClientKind, NodeConfig, NodeHandle};
use sereth_types::transaction::Transaction;
use sereth_types::u256::U256;
use sereth_types::IsolationLevel;

use crate::speed::Probes;
use crate::stats::Rng;

/// Which traffic a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Market,
    Transfer,
}

/// Everything that defines one workload. Also printed at the head of
/// every run, so a result always travels with the settings behind it.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
    pub mix: &'static str,
    /// Funded externally owned accounts (buyers, or transfer accounts).
    pub accounts: usize,
    /// Open-loop rate of the steady phase: well below the drain rate on a
    /// 2-CPU host, so a slow spell of a shared host does not tip the
    /// miner into saturation (README.md).
    pub offered_tps: f64,
    /// Backlog transactions per second of `--seconds`: fixed work rather
    /// than a fixed time, so memory stays comparable across commits.
    pub drain_per_second: usize,
    /// Backlog submitted per drain round; below the default pool
    /// capacity (4096) so a round never meets `PoolFull`.
    pub drain_round: usize,
}

pub const MARKET_RU: Spec = Spec {
    name: "market-ru",
    kind: Kind::Market,
    why: "the paper's traffic: every tx conflicts on one contract and RU reads go through RAA/HMS; \
          small state keeps the root cheap",
    mix: "90% buys (RU query_observed, then a buy signed at the observed (mark, value)), \
          10% owner sets, Semantic miner",
    accounts: 400,
    offered_tps: 2_000.0,
    drain_per_second: 5_000,
    drain_round: 3_800,
};

pub const TRANSFER_BIGSTATE: Spec = Spec {
    name: "transfer-bigstate",
    kind: Kind::Transfer,
    why: "conflict-free transfers over 16k accounts never touch RAA/HMS; state root, self-replay \
          and persistence dominate the block path",
    mix: "100% signed transfers (8k senders to 8k distinct receivers), one RC read \
          (state_reader or account_nonce) per transfer, Standard miner",
    accounts: 16_384,
    offered_tps: 1_000.0,
    drain_per_second: 1_100,
    drain_round: 1_900,
};

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        [&MARKET_RU, &TRANSFER_BIGSTATE].into_iter().find(|spec| spec.name == name)
    }

    fn policy(&self) -> MinerPolicy {
        match self.kind {
            Kind::Market => MinerPolicy::Semantic(HmsConfig::default()),
            Kind::Transfer => MinerPolicy::Standard,
        }
    }

    fn isolation(&self) -> IsolationLevel {
        match self.kind {
            Kind::Market => IsolationLevel::ReadUncommitted,
            Kind::Transfer => IsolationLevel::ReadCommitted,
        }
    }
}

/// How a run of `--seconds` is cut into passes: each pass opens a fresh
/// node pair, runs a steady phase of `steady_ops` and drains
/// `drain_txs`. Several passes pool more work into a run than one pair
/// could hold in memory (the in-memory follower keeps every block).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub passes: usize,
    pub steady_ops: usize,
    pub drain_txs: usize,
}

/// Passes per run.
pub const PASSES: usize = 5;
/// Share of a pass spent in the steady phase at the offered rate; the
/// drain backlog is sized to take about the rest on a 2-CPU host.
const STEADY_SHARE: f64 = 0.6;

impl Plan {
    pub fn new(spec: &Spec, seconds: u64) -> Self {
        let pass_seconds = seconds as f64 / PASSES as f64;
        let drain = spec.drain_per_second as f64 * pass_seconds;
        let drain_rounds = (drain / spec.drain_round as f64).ceil().max(1.0) as usize;
        Self {
            passes: PASSES,
            steady_ops: (spec.offered_tps * pass_seconds * STEADY_SHARE) as usize,
            drain_txs: drain_rounds * spec.drain_round,
        }
    }
}

/// Set-up repetitions stop once they add up to this much time...
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// ... or reach this count.
const MAX_SETUP_REPS: usize = 25;

/// Price the contract starts at.
const INITIAL_PRICE: u64 = 50;
const BALANCE: u64 = 1_000_000_000_000;

fn key(seed: u64, role: &str, index: usize) -> SecretKey {
    SecretKey::from_seed(H256::keccak(format!("nodebench/{seed}/{role}/{index}").as_bytes()))
}

/// Keys and genesis of one seed: everything set-up needs besides disk.
pub struct Keys {
    pub owner: SecretKey,
    pub accounts: Vec<SecretKey>,
}

impl Keys {
    pub fn derive(spec: &Spec, seed: u64) -> Self {
        Self {
            owner: key(seed, "owner", 0),
            accounts: (0..spec.accounts).map(|i| key(seed, "account", i)).collect(),
        }
    }

    pub fn genesis(&self, spec: &Spec) -> Genesis {
        let mut builder = GenesisBuilder::new();
        for account in &self.accounts {
            builder = builder.fund(account.address(), U256::from(BALANCE));
        }
        if spec.kind == Kind::Market {
            builder = builder.fund(self.owner.address(), U256::from(BALANCE)).contract_with_storage(
                default_contract_address(),
                sereth_code(ContractForm::Native),
                sereth_genesis_slots(&self.owner.address(), H256::from_low_u64(INITIAL_PRICE)),
            );
        }
        builder.build()
    }
}

/// A durable miner and an in-memory follower on one genesis, both from
/// the presets: only policy, isolation, genesis and directory are set, so
/// executor, validation, pool and telemetry run at their defaults.
pub struct Nodes {
    pub miner: NodeHandle,
    pub follower: NodeHandle,
    pub genesis: Genesis,
}

impl Nodes {
    pub fn open(spec: &Spec, keys: &Keys, dir: &Path) -> Result<Self, StoreError> {
        let genesis = keys.genesis(spec);
        let contract = default_contract_address();
        let miner = NodeHandle::open(
            genesis.clone(),
            NodeConfig::miner(contract, spec.policy()).isolation(spec.isolation()).durable_store(dir).build(),
        )?;
        let follower = match spec.kind {
            Kind::Market => NodeConfig::sereth(contract),
            Kind::Transfer => NodeConfig::geth(contract),
        };
        let follower = NodeHandle::open(genesis.clone(), follower.isolation(spec.isolation()).build())?;
        Ok(Self { miner, follower, genesis })
    }
}

/// Opens the node pair on a fresh directory under `root`, timing genesis
/// build plus both opens.
pub fn set_up(spec: &Spec, keys: &Keys, root: &Path) -> Result<(Nodes, Duration), String> {
    let start = Instant::now();
    let nodes = Nodes::open(spec, keys, &root.join("miner")).map_err(|e| format!("opening nodes: {e}"))?;
    Ok((nodes, start.elapsed()))
}

/// Repeats the set-up at least `min_reps` times and until the repetitions
/// add up to [`SETUP_BUDGET`] (a cheap set-up is repeated more, so its
/// median stays steady), dropping each pair at once. Called between
/// passes, so set-up time is sampled across the whole run; `probes`
/// samples the host's speed between set-ups. Returns when each set-up
/// started and how long it took.
pub fn time_setups(
    spec: &Spec,
    keys: &Keys,
    root: &Path,
    min_reps: usize,
    probes: &mut Probes,
) -> Result<Vec<(Instant, Duration)>, String> {
    let mut times: Vec<(Instant, Duration)> = Vec::new();
    while times.len() < min_reps
        || (times.len() < MAX_SETUP_REPS && times.iter().map(|t| t.1).sum::<Duration>() < SETUP_BUDGET)
    {
        probes.sample();
        let dir = root.join(format!("setup-{}", times.len()));
        times.push((Instant::now(), set_up(spec, keys, &dir)?.1));
        remove_dir(&dir);
    }
    Ok(times)
}

pub fn remove_dir(dir: &Path) {
    if let Err(error) = std::fs::remove_dir_all(dir) {
        if error.kind() != std::io::ErrorKind::NotFound {
            eprintln!("warning: could not remove {}: {error}", dir.display());
        }
    }
}

/// One scheduled client operation.
pub enum Op {
    /// The owner reprices to `value`.
    Set { value: u64 },
    /// Buyer `buyer` observes at READ UNCOMMITTED and buys what it saw.
    Buy { buyer: usize },
    /// A pre-signed transfer, followed by a committed read of `read`.
    Transfer { tx: Box<Transaction>, read: usize },
}

/// The input stream of one pass: steady ops (with their offsets from the
/// phase start) followed by the drain backlog, all drawn from the seed.
pub struct Inputs {
    pub steady: Vec<(Duration, Op)>,
    pub drain: Vec<Op>,
}

impl Inputs {
    /// Draws pass `pass`'s inputs from `seed` alone. Transfers are signed
    /// here, outside any timed region; buys depend on what the buyer
    /// observes and are signed at send time.
    pub fn generate(spec: &Spec, keys: &Keys, plan: Plan, seed: u64, pass: usize) -> Self {
        let mut jitter = Rng::new(seed, 2 * pass as u64 + 1);
        let mut choice = Rng::new(seed, 2 * pass as u64 + 2);
        let total = plan.steady_ops + plan.drain_txs;
        let mut ops: Vec<Op> = match spec.kind {
            Kind::Market => (0..total)
                .map(|_| {
                    if choice.unit() < 0.1 {
                        Op::Set { value: 100 + choice.below(900) }
                    } else {
                        Op::Buy { buyer: choice.below(spec.accounts as u64) as usize }
                    }
                })
                .collect(),
            Kind::Transfer => transfers(keys, total, &mut choice),
        };
        let drain = ops.split_off(plan.steady_ops);
        let interval = 1.0 / spec.offered_tps;
        let steady = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| (Duration::from_secs_f64((i as f64 + jitter.unit()) * interval), op))
            .collect();
        Self { steady, drain }
    }
}

/// `total` conflict-free transfers: the first half of the accounts send,
/// each to its own receiver in the second half, in seeded sweeps over the
/// senders (one nonce per sender per sweep).
fn transfers(keys: &Keys, total: usize, rng: &mut Rng) -> Vec<Op> {
    let half = keys.accounts.len() / 2;
    let receivers = rng.permutation(half);
    let mut ops = Vec::with_capacity(total);
    let mut nonce = 0u64;
    while ops.len() < total {
        for sender in rng.permutation(half) {
            if ops.len() == total {
                break;
            }
            let to = keys.accounts[half + receivers[sender]].address();
            let tx = transfer(&keys.accounts[sender], nonce, to, U256::from(1u64), 1);
            ops.push(Op::Transfer { tx: Box::new(tx), read: rng.below(keys.accounts.len() as u64) as usize });
        }
        nonce += 1;
    }
    ops
}

/// The market's signing clients: the owner chaining its sets and one
/// `Buyer` per buyer key, each tracking its own nonce.
pub struct Clients {
    pub owner: Owner,
    pub buyers: Vec<Buyer>,
    pub read_targets: Vec<Address>,
}

impl Clients {
    pub fn new(keys: &Keys) -> Self {
        let contract = default_contract_address();
        Self {
            owner: Owner::with_value(
                keys.owner.clone(),
                contract,
                genesis_mark(),
                H256::from_low_u64(INITIAL_PRICE),
                1,
            ),
            buyers: keys
                .accounts
                .iter()
                .map(|key| Buyer::new(key.clone(), contract, ClientKind::Sereth, 1))
                .collect(),
            read_targets: keys.accounts.iter().map(SecretKey::address).collect(),
        }
    }
}
