//! A deterministic discrete-event network simulator.
//!
//! Substitutes for the paper's AWS EC2 testbed (see `DESIGN.md` §7): actors
//! (nodes, clients, workload drivers) exchange messages over links with
//! sampled latency, optional loss/duplication, and configurable topology.
//! Every run is a pure function of its seed, so the experiment harness can
//! sweep seeds to reproduce Figure 2's confidence bands.
//!
//! * [`sim`] — the event queue, [`sim::Actor`] trait, and [`sim::Context`];
//! * [`latency`] — delay distributions and fault injection;
//! * [`topology`] — complete/ring/star/random peer wirings.
//!
//! # Determinism contract
//!
//! Replaying `(actors, topology, latency, faults, seed)` reproduces a
//! run event-for-event. Three rules make that hold:
//!
//! * events pop in `(time, sequence)` order — two deliveries at the
//!   same instant arrive in the order they were *sent* (FIFO ties);
//! * all randomness — latency jitter, drop/duplicate draws, anything
//!   actors draw through [`sim::Context::rng`] — comes from one RNG
//!   seeded at construction and advanced only by the event loop;
//! * faults are evaluated at **send** time, so a partition window
//!   applies to the moment a message enters the link, not the moment it
//!   would surface.
//!
//! The scenario runner (`sereth-sim::scenario`) and the NET-SCALE bench
//! lean on this: their convergence times are simulated time, hence
//! host-independent and comparable against committed baselines.
//!
//! # Fault vocabulary
//!
//! [`latency::FaultModel`] composes per-message drop probability,
//! duplication probability, and timed [`latency::Partition`] windows
//! (messages crossing a severed cut are silently lost).
//!
//! # Examples
//!
//! Two actors, a ping and its echo:
//!
//! ```
//! use sereth_net::latency::LatencyModel;
//! use sereth_net::sim::{Actor, Context, NetworkConfig, Simulation};
//! use sereth_net::topology::TopologyKind;
//!
//! struct Echo;
//! impl Actor<u64> for Echo {
//!     fn on_message(&mut self, msg: u64, ctx: &mut Context<'_, u64>) {
//!         if msg == 0 {
//!             ctx.broadcast(msg + 1); // ping every neighbor back
//!         }
//!     }
//! }
//!
//! let config = NetworkConfig {
//!     topology: TopologyKind::Complete,
//!     latency: LatencyModel::Constant(5),
//!     ..NetworkConfig::default()
//! };
//! let mut sim = Simulation::new(vec![Box::new(Echo), Box::new(Echo)], &config, 42);
//! sim.schedule(0, 0, 0); // external ping into actor 0 at t = 0
//! sim.run_until(1_000);
//! assert_eq!(sim.events_processed(), 2); // the ping and its echo
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod latency;
pub mod sim;
pub mod topology;

pub use latency::{FaultModel, LatencyModel};
pub use sim::{Actor, Context, NetworkConfig, Simulation};
pub use topology::{ActorId, Topology, TopologyKind};
