//! The paper's own experiments and the §VI comparators, all on the
//! simulated network: Figure 2 (FIG2), the sequential-history check
//! (SEQ), the ablations (ABL), piece-wise visibility (EXT-PWV), abort rate
//! (EXT-ABORT) and partial participation (EXT-PART). Every run is a pure
//! function of `(config, seed)`, so their stdout is byte-reproducible.

use sereth_core::hms::HmsConfig;
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{BlockSchedule, ClientKind};
use sereth_sim::experiment::{paper_scenarios, run_point, ScenarioFactory, SweepPoint, PAPER_SET_COUNTS};
use sereth_sim::report::{ascii_plot, csv, table};
use sereth_sim::scenario::{run_retry_scenario, run_sequential_history, ScenarioConfig};
use sereth_sim::{stats, RetryStats};

/// Buys per run in every sweep, as in the paper's Figure 2.
const BUYS: u64 = 100;

/// Figure 2's scenarios plus the PWV-scheduling miner: the §VI
/// comparison set.
const WITH_PWV: [(&str, ScenarioFactory); 4] = [
    ("geth_unmodified", ScenarioConfig::geth_unmodified),
    ("pwv_scheduler", ScenarioConfig::pwv_scheduler),
    ("sereth_client", ScenarioConfig::sereth_client),
    ("semantic_mining", ScenarioConfig::semantic_mining),
];

/// Runs every scenario at every paper ratio over seeds `1..=seed_count`,
/// prints the table and the plot, lets `report` print the entry's own
/// summary, writes the points to `csv_name` in the artifact directory, and
/// returns them.
fn sweep(
    title: &str,
    scenarios: &[(&str, ScenarioFactory)],
    seed_count: u64,
    csv_name: &str,
    report: impl FnOnce(&[SweepPoint]),
) -> Vec<SweepPoint> {
    let seeds: Vec<u64> = (1..=seed_count).collect();
    println!("== {title} ==");
    println!("buys per point: {BUYS}; set counts: {PAPER_SET_COUNTS:?}; seeds: {seed_count}\n");

    let mut all_points: Vec<SweepPoint> = Vec::new();
    let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for (name, make) in scenarios {
        let mut line = Vec::new();
        for num_sets in PAPER_SET_COUNTS {
            let point = run_point(&make(BUYS, num_sets), &seeds);
            eprintln!(
                "  {name:>18} sets={num_sets:>3} ratio={:>5.1}  eta={:.3} ±{:.3}  set_latency={:.0}ms",
                point.ratio, point.eta.mean, point.eta.ci90, point.set_latency_mean_ms
            );
            line.push((point.ratio, point.eta.mean));
            all_points.push(point);
        }
        series.push((name, line));
    }

    println!("\n{}", table(&all_points));
    println!("{}", ascii_plot(&series, 64, 16));
    report(&all_points);

    let path = sereth_bench::artifact_dir().join(csv_name);
    match std::fs::write(&path, csv(&all_points)) {
        Ok(()) => println!("\nwrote {csv_name} ({} rows)", all_points.len()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
    all_points
}

/// Mean η of `scenario` at `sets` sets per run (0 when the sweep has no
/// such point).
fn eta_of(points: &[SweepPoint], scenario: &str, sets: u64) -> f64 {
    points.iter().find(|p| p.scenario == scenario && p.num_sets == sets).map_or(0.0, |p| p.eta.mean)
}

/// FIG2: transaction efficiency η versus the READ-UNCOMMITTED/WRITE
/// (buy:set) ratio for `geth_unmodified`, `sereth_client` and
/// `semantic_mining`, plus the paper's in-text claims (TXT-5X, TXT-80).
/// Gate: at every ratio, η(semantic_mining) ≥ η(sereth_client) ≥
/// η(geth_unmodified) — the figure's shape.
pub fn fig2() {
    let points = sweep("Figure 2: eta vs buy:set ratio", &paper_scenarios(), 10, "fig2.csv", |points| {
        let eta_of = |scenario: &str, sets: u64| eta_of(points, scenario, sets);
        println!("-- in-text claims --");
        let improvements: Vec<f64> = PAPER_SET_COUNTS
            .iter()
            .filter(|&&sets| eta_of("geth_unmodified", sets) > 0.0)
            .map(|&sets| eta_of("sereth_client", sets) / eta_of("geth_unmodified", sets))
            .collect();
        if !improvements.is_empty() {
            let mean_x = improvements.iter().sum::<f64>() / improvements.len() as f64;
            println!(
                "sereth_client vs geth_unmodified: x{mean_x:.1} mean improvement across ratios (paper: ~x5)"
            );
        }
        let semantic_overall = PAPER_SET_COUNTS.iter().map(|&s| eta_of("semantic_mining", s)).sum::<f64>()
            / PAPER_SET_COUNTS.len() as f64;
        println!("semantic_mining mean eta: {semantic_overall:.2} (paper: ~0.80)");
        let geth_low = eta_of("geth_unmodified", PAPER_SET_COUNTS[0]);
        let semantic_low = eta_of("semantic_mining", PAPER_SET_COUNTS[0]);
        println!(
            "at 1:1 ratio: geth {geth_low:.3} -> semantic {semantic_low:.3} (paper: 'a few percent' -> 'almost 90 percent')"
        );
    });
    for sets in PAPER_SET_COUNTS {
        let [geth, sereth, semantic] = ["geth_unmodified", "sereth_client", "semantic_mining"]
            .map(|scenario| eta_of(&points, scenario, sets));
        assert!(
            semantic >= sereth && sereth >= geth,
            "Figure 2's order broke at {sets} sets: semantic_mining {semantic:.3}, sereth_client \
             {sereth:.3}, geth_unmodified {geth:.3}"
        );
    }
}

/// EXT-PWV, the piece-wise-visibility comparator of paper §VI.
///
/// Faleiro et al.'s PWV makes a transaction's writes visible to other
/// transactions *inside the system* as soon as the writing sub-transaction
/// commits. The paper argues this is structurally weaker than HMS: "the
/// PWV commit protocol only provides write visibility after a transaction
/// is submitted to the database system, which limits the potential
/// performance gains in comparison to HMS that provides write visibility
/// to smart contract clients … prior to transaction submission."
///
/// This entry quantifies that argument on the Figure 2 workload: the
/// `pwv_scheduler` scenario keeps clients unmodified (offers built on
/// committed state, as in the baseline) and gives the *miner* a PWV-style
/// deterministic dependency scheduler with early write visibility during
/// block assembly. Measured mean η: geth 0.181 < sereth_client 0.622 <
/// semantic_mining 0.868 < pwv 0.990. The scheduler buys its η by holding
/// sets back, so the owner waits longer: mean set latency 32,039 ms under
/// pwv against 20,257 ms under geth and sereth_client.
pub fn pwv() {
    sweep("EXT-PWV: early write visibility (Faleiro et al.) vs HMS", &WITH_PWV, 8, "pwv.csv", |points| {
        // The §VI comparison — but η alone is not the verdict. A miner-side
        // dependency scheduler holds inclusion freedom PWV's deterministic
        // database never had: it can postpone sets to keep intervals open,
        // which maximises buy-η while the writer's commit latency balloons.
        // The pairing of (η, set latency) exposes the trade.
        let mean_of = |scenario: &str, f: &dyn Fn(&SweepPoint) -> f64| {
            let values: Vec<f64> = points.iter().filter(|p| p.scenario == scenario).map(f).collect();
            values.iter().sum::<f64>() / values.len().max(1) as f64
        };
        println!("-- §VI comparison: eta alone vs eta + writer latency --");
        println!("{:>18} {:>10} {:>16} {:>16}", "scenario", "mean eta", "buy latency ms", "set latency ms");
        for (name, _) in WITH_PWV {
            println!(
                "{:>18} {:>10.3} {:>16.0} {:>16.0}",
                name,
                mean_of(name, &|p| p.eta.mean),
                mean_of(name, &|p| p.buy_latency_mean_ms),
                mean_of(name, &|p| p.set_latency_mean_ms),
            );
        }
    });
}

/// SEQ, the §V sequential-history validation: "sending a series of test
/// transactions from the address of a single peer so that there is only
/// one possible history … the transaction failure rate was zero and the
/// transaction efficiency η was 1.0." A run passes only if every planned
/// pair was submitted and every transaction succeeded.
pub fn sequential() {
    const PAIRS: u64 = 50;
    const SEEDS: u64 = 5;
    println!("== Sequential history: single sender, set/buy alternation ==");
    println!("pairs: {PAIRS}; seeds: {SEEDS}\n");
    println!("| {:<18} | {:>5} | {:>9} | {:>9} | {:>7} |", "scenario", "seed", "buys ok", "sets ok", "eta");
    println!("|{:-<20}|{:-<7}|{:-<11}|{:-<11}|{:-<9}|", "", "", "", "", "");

    let mut all_unit = true;
    for (_, make) in paper_scenarios() {
        let config = make(100, 5);
        for seed in 1..=SEEDS {
            let out = run_sequential_history(&config, PAIRS, seed);
            let metrics = &out.metrics;
            let eta = metrics.eta_buys();
            println!(
                "| {:<18} | {:>5} | {:>4}/{:<4} | {:>4}/{:<4} | {:>7.3} |",
                out.scenario,
                seed,
                metrics.buys_succeeded,
                metrics.buys_submitted,
                metrics.sets_succeeded,
                metrics.sets_submitted,
                eta
            );
            // A run cut short can keep η = 1.0 on what it did submit.
            let whole_plan = metrics.buys_submitted == PAIRS && metrics.sets_submitted == PAIRS;
            if (eta - 1.0).abs() > f64::EPSILON
                || metrics.sets_succeeded != metrics.sets_submitted
                || !whole_plan
            {
                all_unit = false;
            }
        }
    }
    println!();
    if all_unit {
        println!("PASS: every run had zero failures (eta = 1.0), matching the paper.");
    } else {
        println!(
            "MISMATCH: some run failed transactions or left pairs unsubmitted; the paper reports eta = 1.0."
        );
        std::process::exit(1);
    }
}

/// ABL, three ablations:
///
/// 1. **committed-head extension** (the paper's §V-C future work:
///    "transaction efficiency could approach 100 percent if HMS were
///    extended to include the final values from replaying each block") —
///    semantic mining with and without the extension;
/// 2. **block-interval sensitivity** (§II-D: the block interval *is* the
///    READ-COMMITTED latency) — η of the baseline and of HMS as the mean
///    interval grows;
/// 3. **tx-interval sensitivity at high buy ratios** (§V-A: "with few
///    state changes transaction efficiency becomes more sensitive to the
///    transaction interval").
pub fn ablations() {
    let seeds: Vec<u64> = (1..=8).collect();

    println!("== Ablation 1: committed-head extension (semantic mining, ratio 1:1 and 5:1) ==\n");
    println!("| {:>6} | {:>14} | {:>8} | {:>8} |", "sets", "committed_head", "eta_mean", "eta_ci90");
    println!("|{:-<8}|{:-<16}|{:-<10}|{:-<10}|", "", "", "", "");
    for &num_sets in &[100u64, 20] {
        for committed_head in [false, true] {
            let mut config = ScenarioConfig::semantic_mining(BUYS, num_sets);
            let hms = HmsConfig { committed_head };
            config.hms = hms.clone();
            config.miner_policy = MinerPolicy::Semantic(hms);
            config.name = format!("semantic_ch{committed_head}");
            let point = run_point(&config, &seeds);
            println!(
                "| {:>6} | {:>14} | {:>8.3} | {:>8.3} |",
                num_sets,
                if committed_head { "on" } else { "off" },
                point.eta.mean,
                point.eta.ci90
            );
        }
    }

    println!("\n== Ablation 2: block-interval sensitivity (ratio 5:1) ==\n");
    println!("| {:>12} | {:>18} | {:>8} | {:>8} |", "interval_ms", "scenario", "eta_mean", "eta_ci90");
    println!("|{:-<14}|{:-<20}|{:-<10}|{:-<10}|", "", "", "", "");
    for &interval in &[5_000u64, 10_000, 15_000, 30_000, 60_000] {
        for make in
            [ScenarioConfig::geth_unmodified as fn(u64, u64) -> ScenarioConfig, ScenarioConfig::sereth_client]
        {
            let mut config = make(BUYS, 20);
            config.block_schedule = BlockSchedule::Exponential { mean: interval };
            config.drain_ms = 8 * interval;
            // Keep per-block capacity proportional to the interval so total
            // capacity stays comparable.
            config.max_txs_per_block = Some(((interval / 750) as usize).max(4));
            let point = run_point(&config, &seeds);
            println!(
                "| {:>12} | {:>18} | {:>8.3} | {:>8.3} |",
                interval, point.scenario, point.eta.mean, point.eta.ci90
            );
        }
    }

    println!("\n== Ablation 3: tx-interval sensitivity at 20:1 (sereth_client) ==\n");
    println!("| {:>14} | {:>8} | {:>8} |", "tx_interval_ms", "eta_mean", "eta_ci90");
    println!("|{:-<16}|{:-<10}|{:-<10}|", "", "", "");
    for &tx_interval in &[250u64, 500, 1_000, 2_000, 4_000] {
        let mut config = ScenarioConfig::sereth_client(BUYS, 5);
        config.tx_interval_ms = tx_interval;
        let point = run_point(&config, &seeds);
        println!("| {:>14} | {:>8.3} | {:>8.3} |", tx_interval, point.eta.mean, point.eta.ci90);
    }
    println!();
}

/// EXT-ABORT, motivated by the paper's §VI discussion of work "reducing
/// abort rate, defined as how many times a transaction is retried before
/// success". Each buyer retries a single purchase until it lands while
/// the owner keeps repricing: READ-COMMITTED views force many dead
/// attempts, HMS's READ-UNCOMMITTED views collapse the retry count.
pub fn abort_rate() {
    let seeds: Vec<u64> = (1..=6).collect();
    let num_sets = 40u64;
    let num_buyers = 12usize;

    println!(
        "== Abort rate: {num_buyers} buyers each retrying one purchase through {num_sets} reprices ==\n"
    );
    println!("| {:<18} | {:>10} | {:>14} | {:>10} |", "scenario", "completed", "attempts/buy", "abort_rate");
    println!("|{:-<20}|{:-<12}|{:-<16}|{:-<12}|", "", "", "", "");

    let mut geth_aborts = 0.0;
    let mut sereth_aborts = 0.0;
    for (_, make) in WITH_PWV {
        let mut config = make(100, num_sets);
        config.num_buyers = num_buyers;
        config.drain_ms = 10 * 15_000;
        let runs: Vec<RetryStats> = seeds.iter().map(|&seed| run_retry_scenario(&config, seed).1).collect();
        let mean_of = |f: fn(&RetryStats) -> f64| stats::mean(&runs.iter().map(f).collect::<Vec<_>>());
        let abort_mean = mean_of(RetryStats::abort_rate);
        println!(
            "| {:<18} | {:>9.2} | {:>14.2} | {:>10.2} |",
            config.name,
            mean_of(RetryStats::completion_rate),
            mean_of(RetryStats::mean_attempts_per_success),
            abort_mean,
        );
        if config.name == "geth_unmodified" {
            geth_aborts = abort_mean;
        }
        if config.name == "sereth_client" {
            sereth_aborts = abort_mean;
        }
    }
    println!();
    if geth_aborts > sereth_aborts {
        let factor = geth_aborts / sereth_aborts.max(1e-9);
        println!(
            "PASS: HMS cuts the abort rate (geth {geth_aborts:.2} vs sereth {sereth_aborts:.2}, x{factor:.1} fewer retries)."
        );
    } else {
        println!("NOTE: abort rates unexpectedly close; inspect seeds.");
        std::process::exit(1);
    }
}

/// EXT-PART, the interoperability / partial-participation discussion
/// (TXT-INTEROP): the paper's §V-C notes that with "only a fraction of the
/// miners … assisting, or if communication of the TxPool were impeded …
/// there would still be benefits proportional to the participation." The
/// fraction of Sereth-enabled nodes sweeps from none to all at a mid-range
/// ratio.
pub fn participation() {
    let seeds: Vec<u64> = (1..=8).collect();
    let num_sets = 20u64;
    let num_nodes = 4usize;

    println!("== Participation sweep: Sereth nodes among {num_nodes}, ratio {BUYS}:{num_sets} ==\n");
    println!("| {:>12} | {:>14} | {:>8} | {:>8} |", "sereth_nodes", "semantic_miner", "eta_mean", "eta_ci90");
    println!("|{:-<14}|{:-<16}|{:-<10}|{:-<10}|", "", "", "", "");

    let mut last_eta = -1.0f64;
    let mut monotone = true;
    for sereth_nodes in 0..=num_nodes {
        for semantic in [false, true] {
            // Node 0 is the miner; it only mines semantically if it is a
            // Sereth node itself.
            if semantic && sereth_nodes == 0 {
                continue;
            }
            let mut config = if semantic {
                ScenarioConfig::semantic_mining(BUYS, num_sets)
            } else {
                ScenarioConfig::sereth_client(BUYS, num_sets)
            };
            config.node_kinds = (0..num_nodes)
                .map(|i| if i < sereth_nodes { ClientKind::Sereth } else { ClientKind::Geth })
                .collect();
            config.name = format!("sereth{sereth_nodes}_{}", if semantic { "semantic" } else { "standard" });
            let point = run_point(&config, &seeds);
            println!(
                "| {:>12} | {:>14} | {:>8.3} | {:>8.3} |",
                sereth_nodes,
                if semantic { "yes" } else { "no" },
                point.eta.mean,
                point.eta.ci90
            );
            if !semantic {
                if point.eta.mean + 0.15 < last_eta {
                    monotone = false; // allow noise, flag big inversions
                }
                last_eta = point.eta.mean;
            }
        }
    }
    println!();
    if monotone {
        println!("PASS: efficiency grows (within noise) with Sereth participation, as §V-C predicts.");
    } else {
        println!("NOTE: efficiency was not monotone in participation; inspect seeds/ratio.");
        std::process::exit(1);
    }
}
