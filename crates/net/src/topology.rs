//! Peer topologies: who gossips with whom.

use rand::seq::SliceRandom;
use rand::Rng;

/// Identifies an actor in the simulation.
pub type ActorId = usize;

/// How peers are wired together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyKind {
    /// Every peer links to every other (the paper's small private nets).
    Complete,
    /// A ring; gossip takes O(n) hops.
    Ring,
    /// Everyone links to peer 0.
    Star,
    /// Each peer links to `degree` random distinct others (undirected).
    Random {
        /// Target degree per peer.
        degree: usize,
    },
}

/// An undirected adjacency over `n` actors.
#[derive(Debug, Clone)]
pub struct Topology {
    neighbors: Vec<Vec<ActorId>>,
}

impl Topology {
    /// Builds a topology over `n` peers. `rng` is only consulted for
    /// [`TopologyKind::Random`].
    pub fn build<R: Rng + ?Sized>(kind: &TopologyKind, n: usize, rng: &mut R) -> Self {
        let mut neighbors: Vec<Vec<ActorId>> = vec![Vec::new(); n];
        match kind {
            TopologyKind::Complete => {
                for (a, peers) in neighbors.iter_mut().enumerate() {
                    for b in 0..n {
                        if a != b {
                            peers.push(b);
                        }
                    }
                }
            }
            TopologyKind::Ring => {
                if n > 1 {
                    for a in 0..n {
                        let next = (a + 1) % n;
                        neighbors[a].push(next);
                        neighbors[next].push(a);
                    }
                }
            }
            TopologyKind::Star => {
                for a in 1..n {
                    neighbors[0].push(a);
                    neighbors[a].push(0);
                }
            }
            TopologyKind::Random { degree } => {
                let degree = (*degree).min(n.saturating_sub(1));
                for a in 0..n {
                    let mut candidates: Vec<ActorId> = (0..n).filter(|&b| b != a).collect();
                    candidates.shuffle(rng);
                    for &b in candidates.iter().take(degree) {
                        if !neighbors[a].contains(&b) {
                            neighbors[a].push(b);
                            neighbors[b].push(a);
                        }
                    }
                }
                // Guarantee connectivity with a backbone ring.
                if n > 1 {
                    for a in 0..n {
                        let next = (a + 1) % n;
                        if !neighbors[a].contains(&next) {
                            neighbors[a].push(next);
                            neighbors[next].push(a);
                        }
                    }
                }
            }
        }
        for list in &mut neighbors {
            list.sort_unstable();
            list.dedup();
        }
        Self { neighbors }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// `true` when the topology is empty.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The neighbors of `actor`.
    pub fn neighbors_of(&self, actor: ActorId) -> &[ActorId] {
        &self.neighbors[actor]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    impl Topology {
        /// `true` if every peer can reach every other (BFS from 0).
        fn is_connected(&self) -> bool {
            let n = self.len();
            if n == 0 {
                return true;
            }
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            let mut count = 1;
            while let Some(a) = stack.pop() {
                for &b in &self.neighbors[a] {
                    if !seen[b] {
                        seen[b] = true;
                        count += 1;
                        stack.push(b);
                    }
                }
            }
            count == n
        }
    }

    #[test]
    fn complete_topology_links_everyone() {
        let mut rng = SmallRng::seed_from_u64(1);
        let topo = Topology::build(&TopologyKind::Complete, 5, &mut rng);
        for a in 0..5 {
            assert_eq!(topo.neighbors_of(a).len(), 4);
        }
        assert!(topo.is_connected());
    }

    #[test]
    fn ring_topology_has_degree_two() {
        let mut rng = SmallRng::seed_from_u64(1);
        let topo = Topology::build(&TopologyKind::Ring, 6, &mut rng);
        for a in 0..6 {
            assert_eq!(topo.neighbors_of(a).len(), 2);
        }
        assert!(topo.is_connected());
    }

    #[test]
    fn star_topology_centres_on_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        let topo = Topology::build(&TopologyKind::Star, 5, &mut rng);
        assert_eq!(topo.neighbors_of(0).len(), 4);
        for a in 1..5 {
            assert_eq!(topo.neighbors_of(a), &[0]);
        }
        assert!(topo.is_connected());
    }

    #[test]
    fn random_topology_is_connected_and_deterministic() {
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let a = Topology::build(&TopologyKind::Random { degree: 3 }, 12, &mut rng_a);
        let b = Topology::build(&TopologyKind::Random { degree: 3 }, 12, &mut rng_b);
        assert!(a.is_connected());
        for i in 0..12 {
            assert_eq!(a.neighbors_of(i), b.neighbors_of(i), "peer {i}");
        }
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = SmallRng::seed_from_u64(1);
        for kind in [TopologyKind::Complete, TopologyKind::Ring, TopologyKind::Star] {
            let one = Topology::build(&kind, 1, &mut rng);
            assert!(one.neighbors_of(0).is_empty());
            assert!(one.is_connected());
            let zero = Topology::build(&kind, 0, &mut rng);
            assert!(zero.is_connected());
            assert!(zero.is_empty());
        }
    }
}
