//! An eight-node cluster riding out loss, duplication, and a partition:
//! full nodes behind `NetNode` gossip the market workload over a ring,
//! three nodes island off mid-run, and after the heal the anti-entropy
//! protocol (head announcements, parent pulls, pending re-offers) pulls
//! everyone back onto one head with byte-equal state roots.
//!
//! This is the multi-node face of the reproduction: the paper ran its
//! evaluation on a real testbed, and the CLUSTER scenario is the
//! deterministic stand-in — same run, same seed, same bytes, every time.
//!
//! ```text
//! cargo run --example cluster
//! ```

use sereth::sim::scenario::{run_scenario, ScenarioConfig};

fn main() {
    // 8 nodes on a ring, 120 buys / 12 sets injected round-robin at the
    // edges, 5 % loss + 5 % duplication on every link, and nodes 2 and 5
    // cut off from second 8 to second 30.
    let config = ScenarioConfig::cluster(8, 120, 12).lossy(0.05, 0.05).partitioned(vec![2, 5], 8_000, 30_000);

    let seed = 7;
    let out = run_scenario(&config, seed);

    let heights: Vec<u64> = out.per_node_heads.iter().map(|(number, _)| *number).collect();
    println!("per-node heights   : {heights:?}");
    println!(
        "converged at       : {} s simulated ({} events, {} gossip messages)",
        out.converged_at.expect("cluster converged") as f64 / 1e3,
        out.events,
        out.messages_sent,
    );
    println!(
        "committed workload : {} blocks, {} buys, {} sets",
        out.metrics.blocks, out.metrics.buys_succeeded, out.metrics.sets_succeeded,
    );
    assert!(out.is_converged(), "all nodes must agree on head and state root");

    // Every node holds the same state root — not just the same tip hash.
    let roots = &out.per_node_state_roots;
    assert!(roots.windows(2).all(|w| w[0] == w[1]));
    println!("state roots        : byte-equal across all {} nodes ✓", config.num_nodes);

    // Determinism: the same seed reproduces the run exactly.
    let again = run_scenario(&config, seed);
    assert_eq!(again.per_node_heads, out.per_node_heads);
    assert_eq!(again.events, out.events);
    assert_eq!(again.messages_sent, out.messages_sent);
    println!("replay at seed {seed}   : identical heads, events, traffic ✓");
}
