//! Link latency models and failure injection.
//!
//! The paper's testbed was EC2 instances gossiping over TCP; what matters
//! for the reproduced phenomena is the *relative* timing of transaction
//! submission, gossip, and block publication (see `DESIGN.md` §7), so links
//! are modelled by sampled delays plus optional loss and duplication.

use rand::Rng;
use sereth_types::SimTime;

use crate::topology::ActorId;

/// A per-message delay distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many milliseconds.
    Constant(SimTime),
    /// Uniformly distributed in `[min, max]` milliseconds.
    Uniform {
        /// Minimum delay.
        min: SimTime,
        /// Maximum delay (inclusive).
        max: SimTime,
    },
    /// `base` plus an exponentially-distributed tail with the given mean —
    /// a decent stand-in for internet paths.
    LongTail {
        /// Fixed propagation floor.
        base: SimTime,
        /// Mean of the exponential tail.
        tail_mean: SimTime,
    },
}

impl LatencyModel {
    /// Samples one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        match self {
            Self::Constant(ms) => *ms,
            Self::Uniform { min, max } => rng.gen_range(*min..=*max),
            Self::LongTail { base, tail_mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let tail = -(u.ln()) * *tail_mean as f64;
                base + tail.min(60_000.0) as SimTime
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::Uniform { min: 20, max: 120 }
    }
}

/// One scheduled partition episode: while `from_ms <= now < until_ms`,
/// every message between the `island` and the rest of the network is
/// dropped, in both directions. Traffic within the island and within the
/// mainland flows normally, as do an actor's local timers.
///
/// The cut is evaluated at *send* time: a message sent just before the
/// partition opens still arrives (it is already "on the wire"), matching
/// how a real link failure behaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Actors on one side of the cut.
    pub island: Vec<ActorId>,
    /// When the cut opens (inclusive, ms).
    pub from_ms: SimTime,
    /// When it heals (exclusive, ms).
    pub until_ms: SimTime,
}

impl Partition {
    /// `true` if a message from `from` to `to` at time `now` crosses the
    /// cut while it is open.
    pub fn severs(&self, now: SimTime, from: ActorId, to: ActorId) -> bool {
        if now < self.from_ms || now >= self.until_ms {
            return false;
        }
        self.island.contains(&from) != self.island.contains(&to)
    }
}

/// Link-level fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Probability a message is silently dropped.
    pub drop_probability: f64,
    /// Probability a delivered message is delivered twice (with a fresh
    /// latency sample for the duplicate).
    pub duplicate_probability: f64,
    /// Scheduled partition episodes (may overlap).
    pub partitions: Vec<Partition>,
}

impl FaultModel {
    /// No faults.
    pub const fn none() -> Self {
        Self { drop_probability: 0.0, duplicate_probability: 0.0, partitions: Vec::new() }
    }

    /// Samples whether to drop a message.
    pub fn should_drop<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.drop_probability > 0.0 && rng.gen_bool(self.drop_probability.clamp(0.0, 1.0))
    }

    /// Samples whether to duplicate a message.
    pub fn should_duplicate<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.duplicate_probability > 0.0 && rng.gen_bool(self.duplicate_probability.clamp(0.0, 1.0))
    }

    /// `true` if any scheduled partition severs `from → to` at `now`.
    pub fn severs(&self, now: SimTime, from: ActorId, to: ActorId) -> bool {
        self.partitions.iter().any(|p| p.severs(now, from, to))
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = SmallRng::seed_from_u64(1);
        let model = LatencyModel::Constant(42);
        for _ in 0..10 {
            assert_eq!(model.sample(&mut rng), 42);
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(2);
        let model = LatencyModel::Uniform { min: 10, max: 20 };
        for _ in 0..1000 {
            let sample = model.sample(&mut rng);
            assert!((10..=20).contains(&sample));
        }
    }

    #[test]
    fn long_tail_is_at_least_base() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = LatencyModel::LongTail { base: 30, tail_mean: 50 };
        let mut above_base = 0;
        for _ in 0..1000 {
            let sample = model.sample(&mut rng);
            assert!(sample >= 30);
            if sample > 30 {
                above_base += 1;
            }
        }
        assert!(above_base > 500, "the tail should usually add something");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = LatencyModel::Uniform { min: 0, max: 1000 };
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let seq_a: Vec<SimTime> = (0..50).map(|_| model.sample(&mut a)).collect();
        let seq_b: Vec<SimTime> = (0..50).map(|_| model.sample(&mut b)).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn fault_probabilities_behave() {
        let mut rng = SmallRng::seed_from_u64(4);
        let never = FaultModel::none();
        assert!(!never.should_drop(&mut rng));
        assert!(!never.should_duplicate(&mut rng));
        let always = FaultModel { drop_probability: 1.0, duplicate_probability: 1.0, ..FaultModel::none() };
        assert!(always.should_drop(&mut rng));
        assert!(always.should_duplicate(&mut rng));
    }

    #[test]
    fn partition_severs_only_across_the_cut_and_only_while_open() {
        let partition = Partition { island: vec![0, 1], from_ms: 100, until_ms: 200 };
        // Across the cut, while open: severed, in both directions.
        assert!(partition.severs(100, 0, 2));
        assert!(partition.severs(150, 2, 1));
        // Within the island or within the mainland: never.
        assert!(!partition.severs(150, 0, 1));
        assert!(!partition.severs(150, 2, 3));
        // Before it opens / after it heals: never.
        assert!(!partition.severs(99, 0, 2));
        assert!(!partition.severs(200, 0, 2), "heal boundary is exclusive");
    }

    #[test]
    fn fault_model_combines_partitions() {
        let faults = FaultModel {
            partitions: vec![
                Partition { island: vec![0], from_ms: 0, until_ms: 50 },
                Partition { island: vec![1], from_ms: 100, until_ms: 150 },
            ],
            ..FaultModel::none()
        };
        assert!(faults.severs(10, 0, 1), "first episode");
        assert!(!faults.severs(75, 0, 1), "between episodes");
        assert!(faults.severs(120, 2, 1), "second episode");
        assert!(!FaultModel::none().severs(10, 0, 1));
    }
}
