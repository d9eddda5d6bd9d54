//! One pass of a workload: a client thread and a miner thread over the
//! node pair.
//!
//! * The client thread runs an open loop: each steady op has a due time,
//!   and latency counts from that due time, so a stall also delays the
//!   ops queued behind it. It signs buys at send time (they depend on the
//!   observation) and issues the reads.
//! * The miner thread calls `mine(now)` back to back and hands each block
//!   straight to the follower, so the block interval is the block path's
//!   own time.
//!
//! After the steady phase, a fixed backlog is submitted unpaced in rounds
//! and mined until the follower has committed every round: that gives
//! throughput. Within a round the miner waits until the whole backlog is
//! pooled, so every block is full and the figure is the system's own cost
//! per transaction (the `receive_tx` calls plus the block path), not the
//! outcome of a race between submission and mining.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_node::node::{BlockReceipt, NodeHandle};

use crate::speed::{Probes, PROBE_ROOM};
use crate::trace::{Req, Spans};
use crate::workload::{Clients, Inputs, Nodes, Op};

/// How long the client waits for submitted transactions to commit before
/// it declares the rest uncommitted.
const COMMIT_TIMEOUT: Duration = Duration::from_secs(30);

/// What a submitted transaction was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    Set,
    Buy,
    Transfer,
}

/// One transaction the client tried to submit.
pub struct Sent {
    pub hash: H256,
    pub sender: Address,
    pub kind: TxKind,
    /// Due time (steady phase) or submission time (drain).
    pub due: Instant,
    pub steady: bool,
    pub accepted: bool,
}

/// One block as the miner thread saw it.
pub struct Mined {
    pub number: u64,
    pub txs: usize,
    pub mine_ns: u64,
    pub receive_ns: u64,
    pub imported_at: Instant,
    pub receipt: BlockReceipt,
}

/// One drain round, split by the thread that did the work.
pub struct Round {
    /// Transactions the follower committed.
    pub committed: u64,
    /// Time in the round's `receive_tx` calls (client thread), and when
    /// the first of them started.
    pub submit: Duration,
    pub submitted: Instant,
    /// Wall time from releasing the miner to the follower committing the
    /// last of the round (miner thread), and its middle.
    pub mining: Duration,
    pub mined: Instant,
}

/// Everything one pass recorded, for the report and the gate.
pub struct PassLog {
    pub client: ClientLog,
    pub blocks: Vec<Mined>,
    /// `mine` calls that sealed nothing (the self-import failed).
    pub mine_failures: u64,
    pub miner_spans: Spans,
    /// The miner thread's probes of the host's speed.
    pub probes: Probes,
    pub end: Instant,
}

/// What the client thread recorded.
pub struct ClientLog {
    pub sent: Vec<Sent>,
    /// Steady-phase reads: when each started, and its latency in ns.
    pub read_ns: Vec<(Instant, f64)>,
    pub reads: u64,
    pub read_failures: u64,
    /// Steady-phase `receive_tx` call durations, ns.
    pub receive_tx_ns: Vec<f64>,
    /// How late the generator called `receive_tx` against each due time,
    /// ns: buy signing and the read before it are charged here.
    pub lag_ns: Vec<f64>,
    pub rounds: Vec<Round>,
    /// Set once a wait for commits hit [`COMMIT_TIMEOUT`].
    pub timed_out: bool,
    pub spans: Spans,
    /// The client thread's probes of the host's speed.
    pub probes: Probes,
}

/// Runs the steady phase and then the drain rounds of `inputs`.
pub fn run_pass(
    nodes: &Nodes,
    clients: &mut Clients,
    inputs: Inputs,
    drain_round: usize,
    trace: bool,
) -> PassLog {
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let gate = Mutex::new(());
    let start = Instant::now();
    std::thread::scope(|scope| {
        let miner =
            scope.spawn(|| mine_loop(nodes, start, &stop, &gate, &committed, Spans::new(trace, start)));
        let mut client = Client {
            node: &nodes.miner,
            clients,
            committed: &committed,
            gate: &gate,
            start,
            accepted: 0,
            log: ClientLog {
                sent: Vec::new(),
                read_ns: Vec::new(),
                reads: 0,
                read_failures: 0,
                receive_tx_ns: Vec::new(),
                lag_ns: Vec::new(),
                rounds: Vec::new(),
                timed_out: false,
                spans: Spans::new(trace, start),
                probes: Probes::default(),
            },
        };
        {
            // Stops the miner even if the client panics, so the scope's
            // join cannot hang.
            let _stop = StopOnDrop(&stop);
            client.steady(inputs.steady);
            client.drain(inputs.drain, drain_round);
        }
        let (blocks, mine_failures, miner_spans, probes) = miner.join().expect("miner thread panicked");
        PassLog { client: client.log, blocks, mine_failures, miner_spans, probes, end: Instant::now() }
    })
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Mines back to back while the pool holds anything, forwarding every
/// block to the follower; `committed` counts transactions the follower
/// imported. Each block is mined holding `gate`, which the client holds
/// while it pools a drain round. Probes the host's speed between blocks.
fn mine_loop(
    nodes: &Nodes,
    start: Instant,
    stop: &AtomicBool,
    gate: &Mutex<()>,
    committed: &AtomicU64,
    mut spans: Spans,
) -> (Vec<Mined>, u64, Spans, Probes) {
    let mut blocks = Vec::new();
    let mut failures = 0;
    let mut probes = Probes::default();
    while !stop.load(Ordering::Acquire) {
        let _gate = gate.lock().expect("the client never panics holding the gate");
        if nodes.miner.pool_len() == 0 {
            drop(_gate);
            std::thread::sleep(Duration::from_micros(20));
            continue;
        }
        let mine_start = Instant::now();
        let Some(block) = nodes.miner.mine(start.elapsed().as_millis() as u64) else {
            failures += 1;
            continue;
        };
        let mined = Instant::now();
        let (number, txs) = (block.number(), block.transactions.len());
        let receipt = nodes.follower.receive_block(block);
        let imported_at = Instant::now();
        if receipt == BlockReceipt::Imported {
            committed.fetch_add(txs as u64, Ordering::Release);
        }
        let span = spans.open("block", mine_start, None);
        spans.record("mine", mine_start, mined, span, Req::Block(number));
        spans.record("receive_block", mined, imported_at, span, Req::Block(number));
        spans.close(span, imported_at, Req::Block(number));
        drop(_gate);
        probes.sample();
        blocks.push(Mined {
            number,
            txs,
            mine_ns: (mined - mine_start).as_nanos() as u64,
            receive_ns: (imported_at - mined).as_nanos() as u64,
            imported_at,
            receipt,
        });
    }
    (blocks, failures, spans, probes)
}

struct Client<'a> {
    node: &'a NodeHandle,
    clients: &'a mut Clients,
    committed: &'a AtomicU64,
    gate: &'a Mutex<()>,
    start: Instant,
    /// Transactions `receive_tx` accepted so far.
    accepted: u64,
    log: ClientLog,
}

impl Client<'_> {
    fn steady(&mut self, ops: Vec<(Duration, Op)>) {
        let phase_start = Instant::now();
        for (offset, op) in ops {
            let due = phase_start + offset;
            if due.saturating_duration_since(Instant::now()) > PROBE_ROOM {
                self.log.probes.sample();
            }
            wait_until(due);
            self.run_op(op, due, true);
        }
        self.wait_committed();
    }

    fn drain(&mut self, ops: Vec<Op>, round: usize) {
        let mut ops = ops.into_iter().peekable();
        while ops.peek().is_some() {
            let before = self.committed.load(Ordering::Acquire);
            let mut submit = Duration::ZERO;
            let submitted = Instant::now();
            let released = {
                let _gate = self.gate.lock().expect("the miner never panics holding the gate");
                for op in ops.by_ref().take(round) {
                    submit += self.run_op(op, Instant::now(), false);
                }
                Instant::now()
            };
            let done = self.wait_committed();
            let committed = self.committed.load(Ordering::Acquire) - before;
            let mining = done - released;
            self.log.rounds.push(Round {
                committed,
                submit,
                submitted,
                mining,
                mined: released + mining / 2,
            });
        }
    }

    /// Waits until the follower has committed every accepted transaction
    /// (or the timeout passes) and returns when that happened.
    fn wait_committed(&mut self) -> Instant {
        let since = Instant::now();
        loop {
            let now = Instant::now();
            if self.committed.load(Ordering::Acquire) >= self.accepted {
                return now;
            }
            if now - since > COMMIT_TIMEOUT {
                self.log.timed_out = true;
                return now;
            }
            self.log.probes.sample();
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// Runs one op: the owner's set, a buyer's RU read plus the buy it
    /// signs from what it saw, or a pre-signed transfer followed by a
    /// committed read. `steady` ops feed the latency metrics. Returns how
    /// long `receive_tx` took.
    fn run_op(&mut self, op: Op, due: Instant, steady: bool) -> Duration {
        let span = self.log.spans.open("op", Instant::now(), None);
        let (tx, kind, read) = match op {
            Op::Set { value } => {
                (self.clients.owner.next_set(self.node, H256::from_low_u64(value)), TxKind::Set, None)
            }
            Op::Buy { buyer } => {
                let address = self.clients.buyers[buyer].address();
                let read_start = Instant::now();
                let observed = self.node.query_observed(address);
                let read_end = Instant::now();
                self.log.spans.record("query_observed", read_start, read_end, span, Req::None);
                self.count_read(read_start, read_end, observed.is_some(), steady);
                let Some(observed) = observed else {
                    self.log.spans.close(span, read_end, Req::None);
                    return Duration::ZERO;
                };
                let tx = self.clients.buyers[buyer].next_buy_at(observed.mark, observed.value);
                self.log.spans.record("sign", read_end, Instant::now(), span, Req::Tx(tx.hash()));
                (tx, TxKind::Buy, None)
            }
            Op::Transfer { tx, read } => (*tx, TxKind::Transfer, Some(read)),
        };
        let (hash, sender) = (tx.hash(), tx.sender());
        let now_ms = self.start.elapsed().as_millis() as u64;
        let send = Instant::now();
        let accepted = self.node.receive_tx(tx, now_ms);
        let sent = Instant::now();
        self.log.spans.record("receive_tx", send, sent, span, Req::Tx(hash));
        self.accepted += u64::from(accepted);
        self.log.sent.push(Sent { hash, sender, kind, due, steady, accepted });
        if steady {
            self.log.receive_tx_ns.push((sent - send).as_nanos() as f64);
            self.log.lag_ns.push(send.saturating_duration_since(due).as_nanos() as f64);
        }
        let end = match read {
            Some(target) => self.committed_read(target, span, steady),
            None => sent,
        };
        self.log.spans.close(span, end, Req::Tx(hash));
        sent - send
    }

    /// A READ COMMITTED read of one funded account, alternating the two
    /// committed read paths (an epoch-pinned `state_reader` lookup and
    /// `account_nonce`). Returns when it finished.
    fn committed_read(&mut self, target: usize, span: Option<usize>, steady: bool) -> Instant {
        let address = self.clients.read_targets[target];
        let start = Instant::now();
        let (name, ok) = if self.log.reads.is_multiple_of(2) {
            ("state_reader", self.node.state_reader().view().account(&address).is_some())
        } else {
            std::hint::black_box(self.node.account_nonce(&address));
            ("account_nonce", true)
        };
        let end = Instant::now();
        self.log.spans.record(name, start, end, span, Req::None);
        self.count_read(start, end, ok, steady);
        end
    }

    fn count_read(&mut self, start: Instant, end: Instant, ok: bool, steady: bool) {
        self.log.reads += 1;
        self.log.read_failures += u64::from(!ok);
        if steady {
            self.log.read_ns.push((start, (end - start).as_nanos() as f64));
        }
    }
}

/// Sleeps until shortly before `due`, then spins, so the open loop keeps
/// its schedule at sub-100 µs intervals.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}
