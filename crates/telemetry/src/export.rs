//! Exporters: Prometheus exposition text, JSON, and the
//! `TELEMETRY_<key>.json` artifact writer (same drop-location contract
//! as the bench crate's `BENCH_<key>.json`).

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::registry::HISTOGRAM_BUCKET_BOUNDS;
use crate::snapshot::TelemetrySnapshot;

/// Turns `raa.hits` into a Prometheus-legal `raa_hits`.
fn prometheus_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl TelemetrySnapshot {
    /// Renders the snapshot as Prometheus exposition text: counters and
    /// gauges as `sereth_<name>`, histograms as the conventional
    /// `_bucket{le=...}` / `_sum` / `_count` triple (in nanoseconds,
    /// hence the `_ns` suffix).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = format!("sereth_{}", prometheus_name(name));
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {value}");
        }
        for (name, value) in &self.gauges {
            let metric = format!("sereth_{}", prometheus_name(name));
            let _ = writeln!(out, "# TYPE {metric} gauge");
            let _ = writeln!(out, "{metric} {value}");
        }
        for (name, histogram) in &self.histograms {
            let metric = format!("sereth_{}_ns", prometheus_name(name));
            let _ = writeln!(out, "# TYPE {metric} histogram");
            let mut cumulative = 0u64;
            for (i, count) in histogram.bucket_counts.iter().enumerate() {
                cumulative += count;
                match HISTOGRAM_BUCKET_BOUNDS.get(i) {
                    Some(bound) => {
                        let _ = writeln!(out, "{metric}_bucket{{le=\"{bound}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{metric}_sum {}", histogram.sum_ns);
            let _ = writeln!(out, "{metric}_count {}", histogram.count());
        }
        out
    }

    /// Renders the snapshot as a self-contained JSON object: counters,
    /// gauges, histograms (with derived count, mean, and p50/p95/p99),
    /// and the block-trace timeline.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(name));
            first = false;
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, value) in &self.gauges {
            let sep = if first { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", json_escape(name));
            first = false;
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, histogram) in &self.histograms {
            let sep = if first { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"mean_ns\": {:.1}, \
                 \"p50_ns\": {:.1}, \"p95_ns\": {:.1}, \"p99_ns\": {:.1}, \"buckets\": [",
                json_escape(name),
                histogram.count(),
                histogram.sum_ns,
                histogram.mean_ns(),
                histogram.p50_ns(),
                histogram.p95_ns(),
                histogram.p99_ns(),
            );
            // Sparse bucket listing: [upper_bound_ns, count] pairs for
            // non-empty buckets only (-1 bounds the overflow bucket).
            let mut first_bucket = true;
            for (i, &count) in histogram.bucket_counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let bound: i64 = HISTOGRAM_BUCKET_BOUNDS.get(i).map(|&bound| bound as i64).unwrap_or(-1);
                let sep = if first_bucket { "" } else { ", " };
                let _ = write!(out, "{sep}[{bound}, {count}]");
                first_bucket = false;
            }
            out.push_str("]}");
            first = false;
        }
        out.push_str("\n  },\n  \"blocks\": [");
        first = true;
        for trace in &self.blocks {
            let sep = if first { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"number\": {}, \"role\": \"{}\", \"phases\": {{",
                trace.number,
                json_escape(trace.role)
            );
            let mut first_phase = true;
            for (phase, ns) in &trace.phase_ns {
                let sep = if first_phase { "" } else { ", " };
                let _ = write!(out, "{sep}\"{}\": {ns}", phase.name());
                first_phase = false;
            }
            out.push_str("}}");
            first = false;
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the JSON rendering to `TELEMETRY_<key>.json` in
    /// `$BENCH_ARTIFACT_DIR` (or the current directory), returning the
    /// path — the same drop-location contract as the experiment runner's
    /// other artifacts, so CI uploads them side by side.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_artifact(&self, key: &str) -> std::io::Result<PathBuf> {
        let dir = std::env::var_os("BENCH_ARTIFACT_DIR").map(PathBuf::from).unwrap_or_default();
        let path = dir.join(format!("TELEMETRY_{key}.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{BlockTrace, Phase, Telemetry};

    fn sample_snapshot() -> TelemetrySnapshot {
        let telemetry = Telemetry::enabled();
        telemetry.counter("raa.hits").add(3);
        telemetry.gauge("pool.len").set(17);
        telemetry.phase(Phase::Seal).record_ns(1_500);
        telemetry.phase(Phase::Seal).record_ns(2_000_000_000_000);
        telemetry.trace_block(BlockTrace {
            number: 1,
            role: "build",
            phase_ns: vec![(Phase::OrderCandidates, 10), (Phase::Seal, 1_500)],
        });
        telemetry.snapshot()
    }

    #[test]
    fn prometheus_export_has_counter_gauge_and_histogram_series() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE sereth_raa_hits counter"));
        assert!(text.contains("sereth_raa_hits 3"));
        assert!(text.contains("sereth_pool_len 17"));
        assert!(text.contains("sereth_phase_seal_ns_bucket{le=\"2000\"} 1"));
        assert!(text.contains("sereth_phase_seal_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sereth_phase_seal_ns_count 2"));
    }

    #[test]
    fn json_export_is_structured_and_size_free() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"raa.hits\": 3"));
        assert!(json.contains("\"phase.seal\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"role\": \"build\""));
        assert!(json.contains("\"order_candidates\": 10"));
    }

    #[test]
    fn artifact_lands_in_the_configured_directory() {
        let dir = std::env::temp_dir().join("sereth_telemetry_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Env mutation is process-global: restore afterwards.
        let old = std::env::var_os("BENCH_ARTIFACT_DIR");
        std::env::set_var("BENCH_ARTIFACT_DIR", &dir);
        let path = sample_snapshot().write_artifact("test").unwrap();
        match old {
            Some(value) => std::env::set_var("BENCH_ARTIFACT_DIR", value),
            None => std::env::remove_var("BENCH_ARTIFACT_DIR"),
        }
        assert_eq!(path, dir.join("TELEMETRY_test.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"counters\""));
    }
}
