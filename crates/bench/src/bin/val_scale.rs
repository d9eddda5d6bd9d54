//! VAL-PAR: block *validation* latency, sequential replay vs the
//! conflict-aware wave executor, across block sizes and conflict ratios.
//!
//! The paper's cost model (§II-D): every peer redundantly replays every
//! block, so network-wide compute is dominated by validation, not
//! building. Each point seals one block (sequentially — the block bytes
//! are mode-independent), then replays it with `validate_block`
//! (sequential baseline) and `validate_block_with_mode` with
//! `ExecMode::Parallel`, asserts both verdicts are `Ok` with the
//! same artifacts, and reports mean replay wall-clock. The workload
//! mirrors EXEC-PAR: `size` contract calls from distinct senders, a
//! `conflict_pct`% subset hitting one shared counter contract.
//!
//! Prints a markdown table and writes the `BENCH_val.json` artifact
//! (conflict-free sweep) for CI upload. Knobs (env): `VAL_TXS` (comma
//! list of block sizes; default `64,256,512`), `VAL_CONFLICTS` (percent
//! list; default `0,50,100`), `VAL_THREADS` (4), `VAL_REPS` (replays per
//! measurement; default 3), `VAL_MIN_SPEEDUP` (if > 0, exit nonzero
//! unless parallel replay beats sequential by this factor at the largest
//! conflict-free size — the CI gate), `VAL_MAX_SLOWDOWN` (if > 0, exit
//! nonzero if the 100 % point is more than this factor slower than
//! sequential — the graceful-degradation gate).

use std::time::{Duration, Instant};

use sereth_bench::exec_fixture::{candidates, fixture};
use sereth_bench::{env_list_or, env_or, write_bench_artifact, BenchPoint};
use sereth_chain::builder::{build_block, BlockLimits};
use sereth_chain::parallel::ExecMode;
use sereth_chain::validation::{validate_block, validate_block_with_mode};
use sereth_crypto::address::Address;
use sereth_types::block::Block;

/// Sender-key label base and contract address base (distinct from
/// EXEC-PAR's, so the two benches' fixtures stay disjoint).
const LABELS: u64 = 30_000;
const CONTRACTS: u64 = 0xEA_0000;

struct Measured {
    sequential: Duration,
    parallel: Duration,
    speedup: f64,
}

fn measure(size: u64, conflict_pct: u64, threads: usize, reps: usize) -> Measured {
    let (parent, state, keys) = fixture(LABELS, CONTRACTS, size);
    let txs = candidates(&keys, CONTRACTS, conflict_pct);
    let limits = BlockLimits { gas_limit: u64::MAX / 2, max_txs: None };
    let built = build_block(&parent, &state, txs, Address::from_low_u64(0xfee), 15_000, &limits);
    let block: &Block = &built.block;
    assert_eq!(block.transactions.len() as u64, size, "every candidate must replay");
    let mode = ExecMode::Parallel { threads };

    // Sanity before timing: both replay modes accept with the same bytes.
    let (seq_receipts, seq_post) = validate_block(&parent, &state, block).expect("sequential replay");
    let validated = validate_block_with_mode(&parent, &state, block, &mode).expect("parallel replay accepts");
    assert_eq!(validated.receipts, seq_receipts, "replay receipts diverged in the bench fixture");
    assert_eq!(validated.post_state.state_root(), seq_post.state_root());

    let time = |mode: &ExecMode| {
        let start = Instant::now();
        for _ in 0..reps {
            let validated = validate_block_with_mode(&parent, &state, block, mode).expect("replay");
            std::hint::black_box(validated.post_state.state_root());
        }
        start.elapsed() / reps.max(1) as u32
    };
    let sequential = time(&ExecMode::Sequential);
    let parallel = time(&mode);
    let speedup = sequential.as_nanos() as f64 / parallel.as_nanos().max(1) as f64;
    Measured { sequential, parallel, speedup }
}

fn main() {
    let sizes = env_list_or("VAL_TXS", &[64, 256, 512]);
    let conflicts = env_list_or("VAL_CONFLICTS", &[0, 50, 100]);
    let threads = env_or("VAL_THREADS", 4usize);
    let reps = env_or("VAL_REPS", 3usize);
    let min_speedup = env_or("VAL_MIN_SPEEDUP", 0.0f64);
    let max_slowdown = env_or("VAL_MAX_SLOWDOWN", 0.0f64);

    println!("Block validation replay: sequential vs parallel ({threads} threads), {reps} replays per point");
    println!("| txs | conflict | sequential/replay | parallel/replay | speedup |");
    println!("|-----|----------|-------------------|-----------------|---------|");

    let mut clean_points: Vec<BenchPoint> = Vec::new();
    // Gate on the conflict-free point at the LARGEST size measured (the
    // size list is a free-form env knob, so track the max explicitly).
    let mut clean_gate: Option<(u64, f64)> = None;
    let mut worst_conflicted_speedup = f64::INFINITY;
    for &size in &sizes {
        for &conflict_pct in &conflicts {
            let m = measure(size, conflict_pct, threads, reps);
            println!(
                "| {size:>3} | {conflict_pct:>7}% | {:>14.1} µs | {:>12.1} µs | {:>6.2}x |",
                m.sequential.as_nanos() as f64 / 1e3,
                m.parallel.as_nanos() as f64 / 1e3,
                m.speedup,
            );
            if conflict_pct == 0 {
                clean_points.push(BenchPoint::from_durations(size, m.sequential, m.parallel));
                if clean_gate.is_none_or(|(gate_size, _)| size >= gate_size) {
                    clean_gate = Some((size, m.speedup));
                }
            } else if conflict_pct == 100 {
                worst_conflicted_speedup = worst_conflicted_speedup.min(m.speedup);
            }
        }
    }
    let gate_speedup_clean = clean_gate.map_or(f64::INFINITY, |(_, speedup)| speedup);

    match write_bench_artifact(
        "val",
        "val_scale",
        &[
            ("threads", threads.to_string()),
            ("reps", reps.to_string()),
            ("conflict_pct", "0".to_string()),
            ("host_cpus", std::thread::available_parallelism().map_or(0, |n| n.get()).to_string()),
        ],
        &clean_points,
    ) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(error) => eprintln!("\nfailed to write BENCH_val.json: {error}"),
    }

    // CI gates, mirroring EXEC_MIN_SPEEDUP: speedup on the conflict-free
    // block at the largest size, and bounded slowdown at 100 % conflicts.
    // A gate without its measurement is a config error, not a pass — a
    // VAL_CONFLICTS edit must not silently disable regression checking.
    if min_speedup > 0.0 {
        assert!(
            clean_gate.is_some(),
            "VAL_MIN_SPEEDUP is set but VAL_CONFLICTS={conflicts:?} has no 0% point to gate on"
        );
        assert!(
            gate_speedup_clean >= min_speedup,
            "parallel replay validation regressed: {gate_speedup_clean:.2}x < required {min_speedup:.2}x \
             on the conflict-free block at the largest size"
        );
    }
    if max_slowdown > 0.0 {
        assert!(
            worst_conflicted_speedup.is_finite(),
            "VAL_MAX_SLOWDOWN is set but VAL_CONFLICTS={conflicts:?} has no 100% point to gate on"
        );
        let floor = 1.0 / max_slowdown;
        assert!(
            worst_conflicted_speedup >= floor,
            "graceful degradation violated: {worst_conflicted_speedup:.2}x speedup at 100% conflicts \
             means more than {max_slowdown:.2}x slower than sequential replay"
        );
    }
}
