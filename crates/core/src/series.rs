//! Algorithm 3 — `SERIES` and `DEEPESTBRANCH`: build the DAG over filtered
//! transactions and extract the longest branch.
//!
//! "`Series()` iterates through each transaction in the list of Sereth
//! transactions and forms graph relations between all transactions with
//! corresponding mark/value hashes. Due to the uncertain nature of
//! concurrency, it is possible for a transaction to have multiple potential
//! successors, but only one predecessor. … From multiple potential head
//! nodes [we locate] the one that produces the deepest graph. From that
//! graph, the deepest branch is our series. This logic mirrors that of the
//! blockchain, in which branches are resolved by taking the longest
//! branch." (paper §III-C)
//!
//! [`SeriesGraph::longest_series`] extracts it with an `O(V + E)` dynamic
//! program over the DAG. The paper's verbatim recursion is exponential on
//! adversarial diamond graphs; it lives in `tests/lemmas.rs` as the
//! oracle the dynamic program must equal, series for series.

use std::collections::HashMap;

use sereth_crypto::hash::H256;

use crate::fpv::Flag;
use crate::process::TxnNode;

/// The transaction DAG of one Hash-Mark-Set snapshot.
#[derive(Debug, Clone)]
pub struct SeriesGraph {
    nodes: Vec<TxnNode>,
    /// `successors[i]` — indices of nodes whose `prev_mark` equals node
    /// `i`'s mark, in arrival order.
    successors: Vec<Vec<usize>>,
    /// Head candidates (Algorithm 3 line 9), in arrival order.
    heads: Vec<usize>,
}

impl SeriesGraph {
    /// Builds the adjacency over `nodes` (Algorithm 3 lines 2–6).
    ///
    /// `committed_mark` enables the *committed-head extension* (the paper's
    /// future-work item in §V-C): transactions chained directly onto the
    /// last published mark are treated as head candidates even when they
    /// carry [`Flag::Success`], so the series survives block publication.
    /// Pass `None` for the paper's baseline behaviour.
    pub fn build(nodes: Vec<TxnNode>, committed_mark: Option<H256>) -> Self {
        // The paper's nested loop is O(n²); an index by mark gives the same
        // edges in O(n). Successor lists come out in arrival order because
        // we scan nodes in arrival order.
        let mut by_prev_mark: HashMap<H256, Vec<usize>> = HashMap::new();
        for (index, node) in nodes.iter().enumerate() {
            by_prev_mark.entry(node.fpv.prev_mark).or_default().push(index);
        }
        let mut successors = vec![Vec::new(); nodes.len()];
        for (index, node) in nodes.iter().enumerate() {
            if let Some(succs) = by_prev_mark.get(&node.mark) {
                // A node cannot succeed itself: that would need
                // mark == prev_mark, i.e. a keccak fixed point.
                successors[index] = succs.iter().copied().filter(|&s| s != index).collect();
            }
        }
        let heads = nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| {
                node.flag() == Flag::Head || committed_mark.is_some_and(|mark| node.fpv.prev_mark == mark)
            })
            .map(|(index, _)| index)
            .collect();
        Self { nodes, successors, heads }
    }

    /// The underlying nodes.
    pub fn nodes(&self) -> &[TxnNode] {
        &self.nodes
    }

    /// Head-candidate indices.
    pub fn heads(&self) -> &[usize] {
        &self.heads
    }

    /// Successor indices of `index`.
    pub fn successors_of(&self, index: usize) -> &[usize] {
        &self.successors[index]
    }

    /// The longest series, as node indices, via an `O(V + E)` longest-path
    /// dynamic program. Ties resolve exactly as the paper's depth-first
    /// search does: strictly-deeper wins, so the first head (in arrival
    /// order) and the first successor achieving the maximum depth are kept.
    pub fn longest_series(&self) -> Vec<usize> {
        if self.nodes.is_empty() || self.heads.is_empty() {
            return Vec::new();
        }
        // depth[i] = length of the longest path starting at i.
        // The mark chain makes cycles unconstructible (a cycle would be a
        // Keccak-256 cycle), so plain memoised recursion terminates; an
        // explicit stack keeps deep chains from overflowing the call stack.
        let mut depth: Vec<Option<u32>> = vec![None; self.nodes.len()];
        for start in 0..self.nodes.len() {
            if depth[start].is_some() {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            while let Some(&(node, cursor)) = stack.last() {
                if depth[node].is_some() {
                    stack.pop();
                    continue;
                }
                if cursor < self.successors[node].len() {
                    stack.last_mut().expect("non-empty").1 += 1;
                    let succ = self.successors[node][cursor];
                    if depth[succ].is_none() {
                        stack.push((succ, 0));
                    }
                } else {
                    let best =
                        self.successors[node].iter().map(|&s| depth[s].expect("children resolved")).max();
                    depth[node] = Some(1 + best.unwrap_or(0));
                    stack.pop();
                }
            }
        }

        // Pick the first head with maximal depth (paper line 15 uses
        // strict `>`), then greedily follow the first deepest successor.
        let &best_head = self
            .heads
            .iter()
            .max_by_key(|&&h| (depth[h].expect("computed"), std::cmp::Reverse(h)))
            .expect("heads non-empty");
        let mut series = vec![best_head];
        let mut current = best_head;
        loop {
            let next = self.successors[current]
                .iter()
                .copied()
                .find(|&s| depth[s] == Some(depth[current].expect("computed") - 1));
            match next {
                Some(succ) if depth[current] > Some(1) => {
                    series.push(succ);
                    current = succ;
                }
                _ => break,
            }
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpv::{Flag, Fpv};
    use crate::mark::{compute_mark, genesis_mark};
    use crate::process::{PendingTx, TxnNode};
    use bytes::Bytes;
    use sereth_crypto::address::Address;

    /// Builds a TxnNode chaining onto `prev` with `value`.
    fn node(seq: u64, flag: Flag, prev: H256, value: u64) -> TxnNode {
        let fpv = Fpv::new(flag, prev, H256::from_low_u64(value));
        TxnNode {
            pending: PendingTx {
                hash: H256::keccak(&seq.to_be_bytes()),
                sender: Address::from_low_u64(seq),
                to: Some(Address::from_low_u64(0x5e7e)),
                input: Bytes::new(),
                arrival_seq: seq,
            },
            mark: compute_mark(&prev, &H256::from_low_u64(value)),
            fpv,
        }
    }

    /// A straight chain of `len` sets rooted at the genesis mark.
    fn chain(len: usize) -> Vec<TxnNode> {
        let mut nodes = Vec::new();
        let mut prev = genesis_mark();
        for i in 0..len {
            let flag = if i == 0 { Flag::Head } else { Flag::Success };
            let n = node(i as u64, flag, prev, 100 + i as u64);
            prev = n.mark;
            nodes.push(n);
        }
        nodes
    }

    #[test]
    fn straight_chain_is_the_series() {
        let graph = SeriesGraph::build(chain(6), None);
        let series = graph.longest_series();
        assert_eq!(series, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_graph_gives_empty_series() {
        let graph = SeriesGraph::build(vec![], None);
        assert!(graph.longest_series().is_empty());
    }

    #[test]
    fn no_heads_gives_empty_series() {
        // A successor with no head candidate anywhere.
        let orphan = node(0, Flag::Success, H256::keccak(b"unknown"), 5);
        let graph = SeriesGraph::build(vec![orphan], None);
        assert!(graph.longest_series().is_empty());
    }

    #[test]
    fn longer_branch_wins() {
        // head ── a(5) ── b(6)
        //    └─── c(7)
        let head = node(0, Flag::Head, genesis_mark(), 1);
        let a = node(1, Flag::Success, head.mark, 5);
        let b = node(2, Flag::Success, a.mark, 6);
        let c = node(3, Flag::Success, head.mark, 7);
        let graph = SeriesGraph::build(vec![head, a, b, c], None);
        let series = graph.longest_series();
        assert_eq!(series, vec![0, 1, 2]);
    }

    #[test]
    fn deepest_head_wins_among_competing_heads() {
        // Two head candidates (a race at block start); the one with the
        // longer tail forms the series.
        let head_a = node(0, Flag::Head, genesis_mark(), 1);
        let head_b = node(1, Flag::Head, H256::keccak(b"other-root"), 2);
        let b1 = node(2, Flag::Success, head_b.mark, 3);
        let b2 = node(3, Flag::Success, b1.mark, 4);
        let graph = SeriesGraph::build(vec![head_a, head_b, b1, b2], None);
        let series = graph.longest_series();
        assert_eq!(series, vec![1, 2, 3]);
    }

    #[test]
    fn equal_depth_keeps_first_head() {
        let head_a = node(0, Flag::Head, genesis_mark(), 1);
        let head_b = node(1, Flag::Head, H256::keccak(b"other-root"), 2);
        let graph = SeriesGraph::build(vec![head_a, head_b], None);
        assert_eq!(graph.longest_series(), vec![0]);
    }

    #[test]
    fn committed_head_extension_roots_success_flagged_chains() {
        // A chain whose head carries SUCCESS_FLAG (its sender believed it
        // chained onto a pooled tx that has since been committed).
        let committed = H256::keccak(b"last-block-mark");
        let a = node(0, Flag::Success, committed, 5);
        let b = node(1, Flag::Success, a.mark, 6);
        let baseline = SeriesGraph::build(vec![a.clone(), b.clone()], None);
        assert!(baseline.longest_series().is_empty(), "paper baseline: no head, no series");
        let extended = SeriesGraph::build(vec![a, b], Some(committed));
        assert_eq!(extended.longest_series(), vec![0, 1]);
    }

    #[test]
    fn forged_prev_marks_cannot_create_cycles() {
        // Adversary forges two transactions claiming each other as
        // predecessors. Edges require computed-mark == claimed-prev_mark,
        // which keccak makes unsatisfiable both ways; at most one direction
        // can hold by construction here, so traversal terminates.
        let a = node(0, Flag::Head, H256::keccak(b"x"), 1);
        // b claims a's mark; a claims keccak("x") which is nobody's mark.
        let b = node(1, Flag::Success, a.mark, 2);
        let graph = SeriesGraph::build(vec![a, b], None);
        assert_eq!(graph.longest_series(), vec![0, 1]);
    }

    #[test]
    fn duplicate_marks_share_successors() {
        // Two identical (prev, value) sets produce the same mark; a
        // successor chains onto that mark and both become its potential
        // predecessor — "due to the uncertain nature of concurrency"
        // (paper §III-C). Both paths have equal depth; the series keeps
        // the first.
        let dup1 = node(0, Flag::Head, genesis_mark(), 5);
        let dup2 = node(1, Flag::Head, genesis_mark(), 5);
        let succ = node(2, Flag::Success, dup1.mark, 6);
        let graph = SeriesGraph::build(vec![dup1, dup2, succ], None);
        let series = graph.longest_series();
        assert_eq!(series, vec![0, 2]);
    }

    #[test]
    fn self_referencing_node_is_ignored() {
        // prev_mark == own mark is impossible (keccak fixed point), but a
        // node may *claim* its own mark as prev only if mark(prev,value)
        // == prev — construct the claim directly and ensure no self-edge.
        let fake_prev = H256::keccak(b"self");
        let mut n = node(0, Flag::Head, fake_prev, 1);
        n.mark = fake_prev; // force the pathological equality
        let graph = SeriesGraph::build(vec![n], None);
        assert_eq!(graph.successors_of(0), &[] as &[usize]);
        assert_eq!(graph.longest_series(), vec![0]);
    }
}
