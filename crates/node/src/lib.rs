//! Full network nodes for the sereth simulation: the Sereth contract
//! (paper Listing 1), Geth/Sereth client kinds, standard and semantic
//! miners, and the gossip actor gluing them to the discrete-event network.
//!
//! * [`contract`] — Listing 1 in assembly **and** native Rust, proven
//!   equivalent by tests;
//! * [`node`] — [`node::NodeHandle`]: chain + pool + RAA registry;
//! * [`miner`] — fee-priority ordering vs. HMS *semantic mining* (§V-C);
//! * [`client`] — the owner/buyer transaction builders whose view of state
//!   (committed vs. HMS tail) is exactly what the three experimental
//!   scenarios vary;
//! * [`messages`] — the simulation's message vocabulary;
//! * [`netnode`] — [`netnode::NetNode`], the gossip actor: flood gossip
//!   over the simulator's topology plus anti-entropy (head announcements,
//!   parent pulls, pending re-offers), the substrate of every simulated
//!   network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod contract;
pub mod messages;
pub mod miner;
pub mod netnode;
pub mod node;

pub use client::{transfer, Buyer, Owner, SERETH_TX_GAS};
pub use contract::{
    buy_ok_topic, buy_selector, default_contract_address, get_selector, mark_selector, sereth_asm_source,
    sereth_bytecode, sereth_code, sereth_genesis_slots, set_ok_topic, set_selector, ContractForm,
    SerethNative, SLOT_ADDRESS, SLOT_MARK, SLOT_N_BUY, SLOT_N_SET, SLOT_VALUE,
};
pub use messages::Msg;
pub use miner::{committed_amv, enforce_nonce_order, order_candidates, pending_view, MinerPolicy};
pub use netnode::NetNode;
pub use node::{
    BlockReceipt, BlockSchedule, ClientKind, MinerSetup, NodeConfig, NodeHandle, NodeInner, StateReader,
    TxCommitStatus,
};
