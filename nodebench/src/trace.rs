//! The traced run's instruments: benchmark-side spans around every public
//! call the benchmark makes, and a replay of the committed chain through the
//! layers' public functions to time what no node span covers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use sereth_chain::store::{ChainStore, StoreConfig};
use sereth_crypto::hash::H256;

use crate::stats::quantile;
use crate::workload::Nodes;

/// The request a span belongs to.
#[derive(Debug, Clone, Copy)]
pub enum Req {
    None,
    Tx(H256),
    Block(u64),
}

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Req,
}

/// One thread's spans, kept in memory and written out when the run ends.
/// Disabled, every call returns at once and nothing is stored.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self { on, epoch, spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts a span whose end (and request id) [`Spans::close`] fills in.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req: Req::None });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>, end: Instant, req: Req) {
        if let Some(index) = span {
            let end_ns = self.ns(end);
            let span = &mut self.spans[index];
            span.end_ns = end_ns;
            span.req = req;
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Req,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { name, start_ns, end_ns, parent, req });
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Appends a later pass's spans, re-based onto this recorder's epoch.
    pub fn absorb(&mut self, other: Spans) {
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            start_ns: span.start_ns + shift,
            end_ns: span.end_ns + shift,
            parent: span.parent.map(|parent| parent + offset),
            ..span
        }));
    }

    /// Per span name: count, total time and self time (duration minus
    /// the part its child spans cover), in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        out
    }

    /// One JSON object per span; ids are `<thread>:<index>`.
    pub fn write_jsonl(&self, out: &mut impl Write, thread: &str) -> std::io::Result<()> {
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| format!("\"{thread}:{p}\""));
            let req = match span.req {
                Req::None => "null".to_string(),
                Req::Tx(hash) => format!("\"tx:{hash}\""),
                Req::Block(number) => format!("\"block:{number}\""),
            };
            writeln!(
                out,
                "{{\"id\": \"{thread}:{index}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {req}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-layer costs measured by replaying committed chains through the
/// layers' public functions: totals in ns, pooled over traced passes.
#[derive(Debug, Default)]
pub struct Replay {
    pub blocks: usize,
    pub txs: usize,
    /// `Transaction::verify_signature` over every transaction.
    verify_ns: f64,
    /// `StateView::state_root` of every post-state.
    state_root_ns: f64,
    /// `ChainStore::import` of every block into a fresh in-memory store.
    import_memory_ns: f64,
    /// Per block: its import into a fresh durable store minus its import
    /// into the in-memory one, which is persistence.
    persist_ns: Vec<f64>,
}

impl Replay {
    pub fn absorb(&mut self, other: Replay) {
        self.blocks += other.blocks;
        self.txs += other.txs;
        self.verify_ns += other.verify_ns;
        self.state_root_ns += other.state_root_ns;
        self.import_memory_ns += other.import_memory_ns;
        self.persist_ns.extend(other.persist_ns);
    }

    fn per_block(&self, ns: f64) -> f64 {
        ns / self.blocks.max(1) as f64
    }

    /// Mean signature check per transaction.
    pub fn verify_ns(&self) -> f64 {
        self.verify_ns / self.txs.max(1) as f64
    }

    /// Mean full state root per block.
    pub fn state_root_ns(&self) -> f64 {
        self.per_block(self.state_root_ns)
    }

    /// Mean in-memory import (validation replay + fork choice) per block.
    pub fn import_memory_ns(&self) -> f64 {
        self.per_block(self.import_memory_ns)
    }

    /// Persistence per block: the median durable-minus-memory difference.
    /// Where validation dwarfs persistence, a mean of differences would
    /// mostly measure host noise (and can read below zero).
    pub fn persist_ns(&self) -> f64 {
        quantile(&mut self.persist_ns.clone(), 0.5)
    }
}

/// Replays the follower's canonical chain. `dir` receives the durable
/// store and is left for the caller to remove.
pub fn replay(nodes: &Nodes, dir: &Path) -> Result<Replay, String> {
    let chain: Vec<_> = nodes.follower.with_inner(|inner| {
        inner
            .chain
            .canonical_chain()
            .skip(1)
            .map(|stored| (stored.block.clone(), stored.post_state.view()))
            .collect()
    });
    let mut replay = Replay { blocks: chain.len(), ..Replay::default() };
    if chain.is_empty() {
        return Ok(replay);
    }

    let start = Instant::now();
    for (block, _) in &chain {
        for tx in &block.transactions {
            if !std::hint::black_box(tx).verify_signature() {
                return Err(format!(
                    "replay: a committed tx in block {} fails its signature",
                    block.number()
                ));
            }
            replay.txs += 1;
        }
    }
    replay.verify_ns = start.elapsed().as_nanos() as f64;

    let mut root_ns = 0u128;
    for (block, view) in &chain {
        let start = Instant::now();
        let root = std::hint::black_box(view.state_root());
        root_ns += start.elapsed().as_nanos();
        if root != block.header.state_root {
            return Err(format!("replay: block {} post-state root differs from its header", block.number()));
        }
    }
    replay.state_root_ns = root_ns as f64;

    let open = |config: StoreConfig| ChainStore::open(config).map_err(|e| format!("replay store: {e}"));
    let mut memory = open(StoreConfig::in_memory(nodes.genesis.clone()))?;
    let mut durable = open(StoreConfig::durable(nodes.genesis.clone(), dir))?;
    // Interleaved block by block, first store alternating, so drift in
    // machine load hits both alike.
    for (index, (block, _)) in chain.iter().enumerate() {
        let timed = |store: &mut ChainStore| {
            let start = Instant::now();
            store.import(block.clone()).map(|_| start.elapsed().as_nanos() as f64)
        };
        let (memory_ns, durable_ns) = if index.is_multiple_of(2) {
            let memory_ns = timed(&mut memory);
            (memory_ns, timed(&mut durable))
        } else {
            let durable_ns = timed(&mut durable);
            (timed(&mut memory), durable_ns)
        };
        let memory_ns = memory_ns.map_err(|e| format!("replay import: {e}"))?;
        let durable_ns = durable_ns.map_err(|e| format!("replay durable import: {e}"))?;
        replay.import_memory_ns += memory_ns;
        replay.persist_ns.push(durable_ns - memory_ns);
    }
    Ok(replay)
}
