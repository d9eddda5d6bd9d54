//! Owned snapshots of a registry — mergeable across nodes, queryable
//! for quantiles, and the input to both exporters.

use std::collections::BTreeMap;

use crate::registry::HISTOGRAM_BUCKET_BOUNDS;
use crate::span::BlockTrace;

/// An owned view of one histogram: per-bucket counts (the last slot is
/// the overflow bucket above [`HISTOGRAM_BUCKET_BOUNDS`]) plus the sum
/// of all samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// One count per bucket; `bucket_counts[i]` holds samples `<=
    /// HISTOGRAM_BUCKET_BOUNDS[i]`, the final slot everything above.
    pub bucket_counts: Vec<u64>,
    /// Sum of all recorded samples, nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Total samples — derived from the buckets, so it always equals
    /// their sum even against concurrent recording.
    pub fn count(&self) -> u64 {
        self.bucket_counts.iter().sum()
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / count as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in nanoseconds, linearly
    /// interpolated inside the containing bucket; overflow-bucket hits
    /// report the last finite bound. Returns 0 when empty.
    fn quantile_ns(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.bucket_counts.iter().enumerate() {
            cumulative += bucket;
            if (cumulative as f64) >= rank {
                let Some(&upper) = HISTOGRAM_BUCKET_BOUNDS.get(i) else {
                    return *HISTOGRAM_BUCKET_BOUNDS.last().expect("bounds nonempty") as f64;
                };
                let lower = if i == 0 { 0 } else { HISTOGRAM_BUCKET_BOUNDS[i - 1] };
                let into = rank - (cumulative - bucket) as f64;
                let fraction = if bucket == 0 { 1.0 } else { into / bucket as f64 };
                return lower as f64 + fraction * (upper - lower) as f64;
            }
        }
        *HISTOGRAM_BUCKET_BOUNDS.last().expect("bounds nonempty") as f64
    }

    /// Median, nanoseconds.
    pub fn p50_ns(&self) -> f64 {
        self.quantile_ns(0.50)
    }

    /// 95th percentile, nanoseconds.
    pub fn p95_ns(&self) -> f64 {
        self.quantile_ns(0.95)
    }

    /// 99th percentile, nanoseconds.
    pub fn p99_ns(&self) -> f64 {
        self.quantile_ns(0.99)
    }

    /// Adds `other`'s samples into `self` (bucket-wise).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.bucket_counts.len() < other.bucket_counts.len() {
            self.bucket_counts.resize(other.bucket_counts.len(), 0);
        }
        for (mine, theirs) in self.bucket_counts.iter_mut().zip(&other.bucket_counts) {
            *mine += theirs;
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }
}

/// Everything a [`crate::Telemetry`] knows, as one owned value: counter
/// and gauge readings, histogram distributions, and the recent
/// block-lifecycle traces.
///
/// This is the single accumulation primitive the stack shares — node
/// exec stats, RAA shard sums, and sim per-node metrics all reduce to
/// snapshotting a registry and [`TelemetrySnapshot::merge`]-ing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Recent per-block phase timelines (bounded ring; newest last).
    pub blocks: Vec<BlockTrace>,
}

impl TelemetrySnapshot {
    /// Folds `other` into `self`: counters add, gauges keep the
    /// maximum (a merged gauge has no single "latest" writer),
    /// histograms merge bucket-wise, block traces append.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (name, histogram) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(histogram);
        }
        self.blocks.extend(other.blocks.iter().cloned());
    }

    /// Sum of several snapshots (convenience over [`merge`]).
    ///
    /// [`merge`]: TelemetrySnapshot::merge
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a TelemetrySnapshot>) -> TelemetrySnapshot {
        let mut out = TelemetrySnapshot::default();
        for part in parts {
            out.merge(part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram_with(samples: &[u64]) -> HistogramSnapshot {
        let registry = crate::Registry::new(true);
        let histogram = registry.histogram("h");
        for &ns in samples {
            histogram.record_ns(ns);
        }
        histogram.snapshot()
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        // 100 samples at ~1µs, 1 sample at ~1s: p50 stays in the first
        // bucket, p99+ must not.
        let mut samples = vec![500u64; 100];
        samples.push(1_000_000_000);
        let snapshot = histogram_with(&samples);
        assert_eq!(snapshot.count(), 101);
        assert!(snapshot.p50_ns() <= 1_000.0);
        assert!(snapshot.p95_ns() <= 1_000.0);
        assert!(snapshot.quantile_ns(1.0) > 500_000_000.0);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let snapshot = HistogramSnapshot::default();
        assert_eq!(snapshot.count(), 0);
        assert_eq!(snapshot.p50_ns(), 0.0);
        assert_eq!(snapshot.mean_ns(), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_buckets_and_maxes_gauges() {
        let mut a = TelemetrySnapshot::default();
        a.counters.insert("c".into(), 2);
        a.gauges.insert("g".into(), 7);
        a.histograms.insert("h".into(), histogram_with(&[1_000]));
        let mut b = TelemetrySnapshot::default();
        b.counters.insert("c".into(), 3);
        b.counters.insert("only_b".into(), 1);
        b.gauges.insert("g".into(), 4);
        b.histograms.insert("h".into(), histogram_with(&[2_000, 3_000]));
        a.merge(&b);
        assert_eq!(a.counters["c"], 5);
        assert_eq!(a.counters["only_b"], 1);
        assert_eq!(a.gauges["g"], 7);
        assert_eq!(a.histograms["h"].count(), 3);
        let symmetric = TelemetrySnapshot::merged([&b]);
        assert_eq!(symmetric.counters["c"], 3);
    }
}
