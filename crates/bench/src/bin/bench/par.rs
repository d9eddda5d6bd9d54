//! EXEC-PAR and VAL-PAR: the wave executor against the sequential loop,
//! on the builder's side and on the replay side, across block sizes and
//! conflict ratios.
//!
//! The workload is `size` contract calls from distinct senders; a
//! `conflict_pct`% subset (spread evenly through the list) hits one shared
//! counter contract, the rest each hit their own — so 0 % is
//! embarrassingly parallel and 100 % is the adversarial case the adaptive
//! sequential degradation must absorb. Each point first asserts that both
//! modes produce the same result, then reports the mean wall-clock of
//! each. The parallel mode runs one worker per host CPU.
//!
//! The artifact records the conflict-free sweep. Gates: the parallel mode
//! must beat sequential by [`MIN_SPEEDUP`] on the largest conflict-free
//! block, and be at most [`MAX_SLOWDOWN`] slower at 100 % conflicts.

use std::fmt::Debug;
use std::time::Instant;

use bytes::Bytes;
use sereth_bench::{artifact, host_cpus, BenchPoint};
use sereth_chain::builder::{build_block, build_block_with_mode, BlockLimits};
use sereth_chain::genesis::GenesisBuilder;
use sereth_chain::parallel::ExecMode;
use sereth_chain::state::StateDb;
use sereth_chain::validation::validate_block_with_mode;
use sereth_crypto::address::Address;
use sereth_crypto::sig::SecretKey;
use sereth_types::block::BlockHeader;
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;
use sereth_vm::asm::assemble;
use sereth_vm::exec::ContractCode;

const SIZES: [u64; 3] = [64, 256, 512];
const CONFLICTS: [u64; 3] = [0, 50, 100];
/// Builds or replays per measurement.
const REPS: u32 = 5;
const MIN_SPEEDUP: f64 = 1.5;
const MAX_SLOWDOWN: f64 = 1.2;
const LIMITS: BlockLimits = BlockLimits { gas_limit: u64::MAX / 2, max_txs: None };

/// What distinguishes the two entries besides the work itself.
struct Side {
    bench: &'static str,
    key: &'static str,
    /// What is measured, for the table title and the gate messages.
    title: &'static str,
    /// Sender-key label and contract address bases, distinct per side so
    /// the two fixtures stay disjoint.
    labels: u64,
    contracts: u64,
}

/// EXEC-PAR: block building, `build_block_with_mode` sequential vs
/// `ExecMode::Parallel`; the two must seal the same block.
pub fn exec_scale(_smoke: bool) {
    let side = Side {
        bench: "exec_scale",
        key: "exec",
        title: "block execution",
        labels: 20_000,
        contracts: 0xE0_0000,
    };
    let miner = Address::from_low_u64(0xfee);
    sweep(&side, |parent, state, txs| {
        move |mode: &ExecMode| {
            let built = build_block_with_mode(&parent, &state, &txs, miner, 15_000, &LIMITS, mode);
            assert_eq!(built.block.transactions.len(), txs.len(), "every candidate must execute");
            built.block
        }
    });
}

/// VAL-PAR: block validation. The paper's cost model (§II-D) has every
/// peer redundantly replay every block, so network-wide compute is
/// dominated by validation, not building. Each point seals one block
/// sequentially (the block bytes are mode-independent), then replays it
/// with `validate_block_with_mode` in both modes; the two must accept it
/// with the same receipts and post-state root.
pub fn val_scale(_smoke: bool) {
    let side = Side {
        bench: "val_scale",
        key: "val",
        title: "block validation replay",
        labels: 30_000,
        contracts: 0xEA_0000,
    };
    let miner = Address::from_low_u64(0xfee);
    sweep(&side, |parent, state, txs| {
        let size = txs.len();
        let block = build_block(&parent, &state, txs, miner, 15_000, &LIMITS).block;
        assert_eq!(block.transactions.len(), size, "every candidate must replay");
        move |mode: &ExecMode| {
            let validated = validate_block_with_mode(&parent, &state, &block, mode).expect("replay accepts");
            (validated.receipts, validated.post_state.state_root())
        }
    });
}

/// Reads slot 0, does a little keccak work, increments the slot — enough
/// VM time per transaction that scheduling overhead does not dominate.
fn counter_code() -> Bytes {
    Bytes::from(
        assemble(
            "PUSH1 0x00\nSLOAD\nPUSH1 0x20\nPUSH1 0x00\nSHA3\nPOP\nPUSH1 0x20\nPUSH1 0x00\nSHA3\nPOP\nPUSH1 0x01\nADD\nPUSH1 0x00\nSSTORE\nSTOP",
        )
        .expect("the counter assembles"),
    )
}

/// Parent state: `size` funded senders (key labels from `label_base`)
/// plus `size + 1` counter contracts at `contract_base + i` (index 0 is
/// the shared hot one).
fn fixture(label_base: u64, contract_base: u64, size: u64) -> (BlockHeader, StateDb, Vec<SecretKey>) {
    let keys: Vec<SecretKey> = (0..size).map(|i| SecretKey::from_label(label_base + i)).collect();
    let mut builder = GenesisBuilder::new();
    for key in &keys {
        builder = builder.fund(key.address(), U256::from(100_000_000u64));
    }
    let genesis = builder.build();
    let mut state = genesis.state;
    let code = counter_code();
    for i in 0..=size {
        state.set_code(&Address::from_low_u64(contract_base + i), ContractCode::Bytecode(code.clone()));
    }
    state.clear_journal();
    (genesis.block.header, state, keys)
}

/// One call per sender; `conflict_pct`% of them (spread evenly by a
/// stride) target the shared contract 0, the rest their own.
fn candidates(keys: &[SecretKey], contract_base: u64, conflict_pct: u64) -> Vec<Transaction> {
    keys.iter()
        .enumerate()
        .map(|(i, key)| {
            let conflicting = (i as u64 * 997) % 100 < conflict_pct;
            let target = if conflicting { 0 } else { 1 + i as u64 };
            Transaction::sign(
                TxPayload {
                    nonce: 0,
                    gas_price: 1,
                    gas_limit: 120_000,
                    to: Some(Address::from_low_u64(contract_base + target)),
                    value: U256::ZERO,
                    input: Bytes::new(),
                },
                key,
            )
        })
        .collect()
}

/// Runs the sweep for one side: `prepare` turns a point's parent block,
/// state and candidates into the measured work, run once per mode.
fn sweep<W, R>(side: &Side, prepare: impl Fn(BlockHeader, StateDb, Vec<Transaction>) -> W)
where
    W: Fn(&ExecMode) -> R,
    R: PartialEq + Debug,
{
    let threads = host_cpus().max(1);
    let parallel = ExecMode::Parallel { threads };
    println!("Sequential vs parallel {} ({threads} threads), {REPS} reps per point", side.title);
    println!("| txs | conflict |  sequential |    parallel | speedup |");
    println!("|-----|----------|-------------|-------------|---------|");

    let mut clean_points: Vec<BenchPoint> = Vec::new();
    let mut worst_conflicted = f64::INFINITY;
    for size in SIZES {
        for conflict_pct in CONFLICTS {
            let (parent, state, keys) = fixture(side.labels, side.contracts, size);
            let work = prepare(parent, state, candidates(&keys, side.contracts, conflict_pct));
            assert_eq!(
                work(&parallel),
                work(&ExecMode::Sequential),
                "parallel/sequential divergence in the {} fixture",
                side.bench
            );
            let time = |mode: &ExecMode| {
                let start = Instant::now();
                for _ in 0..REPS {
                    std::hint::black_box(work(mode));
                }
                start.elapsed() / REPS
            };
            let point = BenchPoint::from_durations(size, time(&ExecMode::Sequential), time(&parallel));
            println!(
                "| {size:>3} | {conflict_pct:>7}% | {:>8.1} µs | {:>8.1} µs | {:>6.2}x |",
                point.base_us, point.fast_us, point.speedup,
            );
            if conflict_pct == 0 {
                clean_points.push(point);
            } else if conflict_pct == 100 {
                worst_conflicted = worst_conflicted.min(point.speedup);
            }
        }
    }

    artifact(
        side.key,
        side.bench,
        &[
            ("threads", threads.to_string()),
            ("reps", REPS.to_string()),
            ("conflict_pct", "0".to_string()),
            ("host_cpus", host_cpus().to_string()),
        ],
        &clean_points,
    );

    let largest_clean = clean_points.last().expect("SIZES is non-empty").speedup;
    assert!(
        largest_clean >= MIN_SPEEDUP,
        "parallel {} regressed: {largest_clean:.2}x < required {MIN_SPEEDUP:.2}x on the conflict-free block \
         at the largest size",
        side.title
    );
    assert!(
        worst_conflicted >= 1.0 / MAX_SLOWDOWN,
        "graceful degradation violated: parallel {} at {worst_conflicted:.2}x speedup at 100% conflicts \
         is more than {MAX_SLOWDOWN:.2}x slower than sequential",
        side.title
    );
}
