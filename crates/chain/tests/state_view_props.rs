//! Equivalence properties for copy-on-write state views.
//!
//! The contract under test: a [`StateView`] taken at any point in an
//! arbitrary interleaving of mutations, snapshots, reverts, and seals is
//! byte-equal to an **eager copy** of the state taken at the same instant
//! — every account copied out of [`StateDb::iter`] into a `BTreeMap`,
//! sharing nothing with the live state — and stays that way while the
//! live state keeps mutating.
//!
//! The oracle's root is hashed from its copied accounts with
//! [`Account::account_hash`] and [`merkle_root`], never read from the
//! state, so a leaf hash memo that a write or a revert left stale fails
//! here, and so does a cached Merkle level: the newest state keeps the
//! levels of its root, a fork (a second child of a captured view)
//! rebuilds them, and a root of a captured view fills shared leaf memos
//! through a map that may hold none. Addresses spread over many of the
//! account map's 256 shards (keyed by the first address byte), several
//! to a shard.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;
use sereth_chain::state::{Account, Snapshot, StateDb, StateView};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::merkle::merkle_root;
use sereth_types::u256::U256;
use sereth_vm::exec::{ContractCode, Storage};

/// One step of the interleaved workload. Mutations mirror every journaled
/// entry kind; the control ops exercise the journal machinery around the
/// COW boundary.
#[derive(Debug, Clone)]
enum Op {
    Credit(u8, u64),
    Debit(u8, u64),
    SetNonce(u8, u64),
    SetCode(u8, u8),
    Store(u8, u8, u64),
    /// Push a journal snapshot.
    Snapshot,
    /// Revert to the most recent unconsumed snapshot (no-op if none).
    Revert,
    /// Seal: clear the journal, dropping all snapshots (block boundary).
    Seal,
    /// Capture a `StateView` plus its eager-copy oracle and the live
    /// state's root, which fills every leaf's hash memo.
    TakeView,
    /// Capture as `TakeView` does, without rooting the live state first:
    /// the leaves it wrote since its last root are shared with empty
    /// memos, which a later `RootView` fills through the view's map.
    ShareView,
    /// Continue the live state as `StateDb::from(&view)` of capture `i`
    /// (modulo the captures so far; no-op if none): a second child of a
    /// state that may already have one. The journal starts empty.
    Fork(u8),
    /// Root the newest captured view mid-run, checked against its oracle.
    RootView,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    ops_on(any::<u8>)
}

/// Every op, with the account numbers the mutations take drawn from
/// `account()`.
fn ops_on<A: Strategy<Value = u8> + 'static>(account: impl Fn() -> A) -> impl Strategy<Value = Op> {
    prop_oneof![
        (account(), any::<u64>()).prop_map(|(a, v)| Op::Credit(a, v % 1_000_000)),
        (account(), any::<u64>()).prop_map(|(a, v)| Op::Debit(a, v % 1_000_000)),
        (account(), any::<u64>()).prop_map(|(a, v)| Op::SetNonce(a, v % 100)),
        (account(), any::<u8>()).prop_map(|(a, b)| Op::SetCode(a, b)),
        (account(), any::<u8>(), any::<u64>()).prop_map(|(a, k, v)| Op::Store(a, k, v % 1_000)),
        Just(Op::Snapshot),
        Just(Op::Revert),
        Just(Op::Seal),
        Just(Op::TakeView),
        Just(Op::ShareView),
        any::<u8>().prop_map(Op::Fork),
        Just(Op::RootView),
    ]
}

/// One of 256 addresses: its first byte, and so its shard, is one of
/// 64 values spread over the whole byte range, four addresses to each.
fn addr(n: u8) -> Address {
    let mut bytes = *Address::from_low_u64(n as u64).as_bytes();
    bytes[0] = n & 0xfc;
    Address::new(bytes)
}

/// The oracle: every account copied out of the state, plus the root
/// hashed from those copies alone.
struct Eager {
    accounts: BTreeMap<Address, Account>,
    root: H256,
}

impl Eager {
    fn of(state: &StateDb) -> Self {
        let accounts: BTreeMap<Address, Account> =
            state.iter().map(|(address, account)| (*address, account.clone())).collect();
        let leaves: Vec<H256> =
            accounts.iter().map(|(address, account)| account.account_hash(address)).collect();
        Self { root: merkle_root(&leaves), accounts }
    }

    fn account(&self, address: &Address) -> Account {
        self.accounts.get(address).cloned().unwrap_or_default()
    }
}

/// A captured (view, oracle) pair with the live state's root at the same
/// instant (`None` for `ShareView`), tagged with the op index it was
/// taken at for failure messages.
struct Capture {
    at: usize,
    view: StateView,
    oracle: Eager,
    live_root: Option<H256>,
}

/// Applies one *mutation* op (the journaled kinds); the control ops are
/// the interpreter loop's job in [`run_ops`].
fn run_one(state: &mut StateDb, op: &Op) {
    match op {
        Op::Credit(a, v) => state.credit(&addr(*a), U256::from(*v)),
        Op::Debit(a, v) => {
            let _ = state.debit(&addr(*a), U256::from(*v));
        }
        Op::SetNonce(a, v) => state.set_nonce(&addr(*a), *v),
        Op::SetCode(a, b) => {
            let code =
                if *b == 0 { ContractCode::None } else { ContractCode::Bytecode(Bytes::from(vec![*b])) };
            state.set_code(&addr(*a), code);
        }
        Op::Store(a, k, v) => {
            state.storage_set(&addr(*a), H256::from_low_u64(*k as u64), H256::from_low_u64(*v));
        }
        Op::Snapshot | Op::Revert | Op::Seal | Op::TakeView | Op::ShareView | Op::Fork(_) | Op::RootView => {
            unreachable!("control op given to run_one")
        }
    }
}

/// What [`run_ops`] leaves: the live state, every capture, and for each
/// `RootView` the op index, the root it read and the oracle's.
struct Run {
    live: StateDb,
    captures: Vec<Capture>,
    view_roots: Vec<(usize, H256, H256)>,
}

fn run_ops(ops: &[Op]) -> Run {
    let mut state = StateDb::new();
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let mut captures: Vec<Capture> = Vec::new();
    let mut view_roots = Vec::new();
    for (at, op) in ops.iter().enumerate() {
        match op {
            Op::Snapshot => snapshots.push(state.snapshot()),
            Op::Revert => {
                if let Some(snapshot) = snapshots.pop() {
                    state.revert_to(snapshot);
                }
            }
            Op::Seal => {
                state.clear_journal();
                snapshots.clear();
            }
            Op::TakeView | Op::ShareView => {
                let live_root = matches!(op, Op::TakeView).then(|| state.state_root());
                captures.push(Capture { at, view: state.view(), oracle: Eager::of(&state), live_root });
            }
            Op::Fork(i) => {
                if !captures.is_empty() {
                    state = StateDb::from(&captures[usize::from(*i) % captures.len()].view);
                    snapshots.clear();
                }
            }
            Op::RootView => {
                if let Some(capture) = captures.last() {
                    view_roots.push((at, capture.view.state_root(), capture.oracle.root));
                }
            }
            mutation => run_one(&mut state, mutation),
        }
    }
    Run { live: state, captures, view_roots }
}

/// Full byte-level comparison: same addresses, same nonce/balance/code,
/// same storage maps — not just matching commitments.
fn assert_view_matches(view: &StateView, oracle: &Eager, at: usize) -> Result<(), TestCaseError> {
    let viewed: Vec<(Address, Account)> = view.iter().map(|(a, acct)| (*a, acct.clone())).collect();
    let expected: Vec<(Address, Account)> = oracle.accounts.clone().into_iter().collect();
    prop_assert_eq!(&viewed, &expected, "account content diverged for view taken at op {}", at);
    prop_assert_eq!(view.state_root(), oracle.root, "root diverged for view taken at op {}", at);
    prop_assert_eq!(view.len(), oracle.accounts.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The headline property: every view captured during an arbitrary
    /// interleaving — including reverts that cross the COW boundary and
    /// seals that drop the journal — equals its eager-copy oracle once the
    /// whole sequence has run.
    #[test]
    fn views_equal_eager_deep_clones_at_every_capture_point(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        check_run(&ops)?;
    }

    /// The same over 24 accounts in 6 shards, so most writes land on an
    /// account that already exists: a root then takes the cached levels'
    /// update path instead of the rebuild an insert forces.
    #[test]
    fn cached_roots_equal_eager_roots_on_few_accounts(
        ops in proptest::collection::vec(ops_on(|| 0u8..24), 0..60),
    ) {
        check_run(&ops)?;
    }
}

/// Runs `ops` and checks every capture, every `RootView` and the final
/// state against their oracles.
fn check_run(ops: &[Op]) -> Result<(), TestCaseError> {
    let Run { live, captures, view_roots } = run_ops(ops);
    for capture in &captures {
        if let Some(live_root) = capture.live_root {
            prop_assert_eq!(live_root, capture.oracle.root, "live root diverged at op {}", capture.at);
        }
        assert_view_matches(&capture.view, &capture.oracle, capture.at)?;
    }
    for (at, root, expected) in view_roots {
        prop_assert_eq!(root, expected, "view root diverged at op {}", at);
    }
    // And a view of the final state equals an eager copy of it.
    assert_view_matches(&live.view(), &Eager::of(&live), ops.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Focused variant: force the revert-across-COW-boundary shape — a
    /// snapshot, mutations, a view *inside* the journaled region, then a
    /// revert. The view must keep the pre-revert bytes; the live state
    /// must equal a state that never had the suffix applied.
    #[test]
    fn revert_after_view_capture_unshares_instead_of_rewriting(
        prefix in proptest::collection::vec(op_strategy(), 0..20),
        suffix in proptest::collection::vec(op_strategy(), 1..20),
    ) {
        // Strip control ops from the suffix so the revert window is pure
        // mutation (snapshots inside it would be consumed by our revert).
        let suffix: Vec<Op> = suffix
            .into_iter()
            .filter(|op| {
                !matches!(
                    op,
                    Op::Snapshot
                        | Op::Revert
                        | Op::Seal
                        | Op::TakeView
                        | Op::ShareView
                        | Op::Fork(_)
                        | Op::RootView
                )
            })
            .collect();

        let mut state = run_ops(&prefix).live;
        let before = Eager::of(&state);
        prop_assert_eq!(state.state_root(), before.root);
        let snapshot = state.snapshot();
        for op in &suffix {
            run_one(&mut state, op);
        }
        let view = state.view();
        let oracle = Eager::of(&state);
        prop_assert_eq!(state.state_root(), oracle.root, "written leaves were rehashed");

        state.revert_to(snapshot);
        prop_assert_eq!(state.state_root(), before.root, "revert restored the live state");
        // The held view is untouched by the revert.
        assert_view_matches(&view, &oracle, prefix.len() + suffix.len())?;
    }

    /// Views are first-class for the executor's read path: storage reads
    /// through the view agree with the oracle for every (account, slot)
    /// the workload ever touched.
    #[test]
    fn view_reads_agree_with_oracle_reads(
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let state = run_ops(&ops).live;
        let view = state.view();
        let oracle = Eager::of(&state);
        for a in 0u8..=255 {
            let address = addr(a);
            let expected = oracle.account(&address);
            prop_assert_eq!(view.nonce_of(&address), expected.nonce);
            prop_assert_eq!(view.balance_of(&address), expected.balance);
            prop_assert_eq!(view.code_of(&address), expected.code.clone());
            for k in 0u8..4 {
                let key = H256::from_low_u64(k as u64);
                let slot = expected.storage.get(&key).copied().unwrap_or(H256::ZERO);
                prop_assert_eq!(view.storage_get(&address, &key), slot);
            }
        }
    }
}
