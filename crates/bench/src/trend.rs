//! Bench-trend regression checking: compares freshly produced
//! `BENCH_*.json` artifacts against checked-in baselines and flags
//! speedup regressions.
//!
//! The artifacts are the machine-readable output of
//! [`artifact`](crate::artifact) (schema:
//! `{bench, config, points:[{size, base_us, fast_us, speedup}]}`), and
//! baselines under `bench/baselines/` are verbatim copies of past
//! artifacts — so this module carries its own minimal parser for exactly
//! that shape (the build is offline; no serde). Comparison is by
//! *speedup ratio*, not absolute latency: wall-clock shifts with the host,
//! but "how much faster is the fast path than the baseline measured on the
//! same host" is the quantity the optimizations exist to protect.

use std::path::{Path, PathBuf};

/// One `(size, speedup)` measurement parsed from an artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendPoint {
    /// Workload size of the point.
    pub size: u64,
    /// `base_us / fast_us` at that size.
    pub speedup: f64,
}

/// A parsed benchmark artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The runner entry that produced it (`"exec_scale"`, …).
    pub bench: String,
    /// The measured points, in file order.
    pub points: Vec<TrendPoint>,
}

fn extract_string(text: &str, key: &str) -> Option<String> {
    let pos = text.find(&format!("\"{key}\""))?;
    let after = &text[pos + key.len() + 2..];
    let start = after.find('"')? + 1;
    let end = start + after[start..].find('"')?;
    Some(after[start..end].to_string())
}

fn extract_number(object: &str, key: &str) -> Option<f64> {
    let pos = object.find(&format!("\"{key}\""))?;
    let after = object[pos + key.len() + 2..].trim_start();
    let value = after.strip_prefix(':')?.trim_start();
    let end = value
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

/// Parses one artifact.
///
/// # Errors
///
/// Returns a description of the first structural problem: missing `bench`
/// field, a point without `size`/`speedup`, or an unterminated point.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let bench = extract_string(text, "bench").ok_or("artifact missing \"bench\" field")?;
    let mut points = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"size\"") {
        rest = &rest[pos..];
        let end = rest.find('}').ok_or("unterminated point object")?;
        let object = &rest[..end];
        let size = extract_number(object, "size").ok_or("point missing \"size\"")? as u64;
        let speedup = extract_number(object, "speedup").ok_or("point missing \"speedup\"")?;
        points.push(TrendPoint { size, speedup });
        rest = &rest[end..];
    }
    Ok(Artifact { bench, points })
}

/// One point whose fresh speedup fell below the allowed fraction of its
/// baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Workload size of the regressed point.
    pub size: u64,
    /// The committed baseline speedup.
    pub baseline: f64,
    /// The freshly measured speedup.
    pub fresh: f64,
    /// The minimum the fresh run had to reach (`baseline * (1 - pct/100)`).
    pub floor: f64,
}

/// Result of comparing one fresh artifact against its baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Points that regressed beyond the tolerance.
    pub regressions: Vec<Regression>,
    /// Baseline sizes the fresh artifact did not measure (compared sizes
    /// are the intersection; these are reported so a size change that
    /// silently shrinks coverage is visible).
    pub missing_sizes: Vec<u64>,
    /// Sizes compared and found within tolerance.
    pub ok_points: usize,
}

/// Compares `fresh` against `baseline`: every baseline size the fresh run
/// also measured must reach at least `(1 - max_regression_pct/100)` of the
/// baseline speedup.
pub fn compare(baseline: &Artifact, fresh: &Artifact, max_regression_pct: f64) -> Comparison {
    let keep = (1.0 - max_regression_pct / 100.0).max(0.0);
    let mut out = Comparison::default();
    for base_point in &baseline.points {
        match fresh.points.iter().find(|p| p.size == base_point.size) {
            Some(fresh_point) => {
                let floor = base_point.speedup * keep;
                if fresh_point.speedup < floor {
                    out.regressions.push(Regression {
                        size: base_point.size,
                        baseline: base_point.speedup,
                        fresh: fresh_point.speedup,
                        floor,
                    });
                } else {
                    out.ok_points += 1;
                }
            }
            None => out.missing_sizes.push(base_point.size),
        }
    }
    out
}

/// Lists the `BENCH_*.json` files in `dir`, sorted by name (empty when the
/// directory does not exist).
pub fn artifact_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

/// The regression the gate tolerates, in percent: a fresh speedup must
/// reach 40 % of its baseline.
pub const MAX_REGRESSION_PCT: f64 = 60.0;

fn read_artifact(path: &Path) -> Result<Artifact, String> {
    let text = std::fs::read_to_string(path).map_err(|error| format!("{}: {error}", path.display()))?;
    parse_artifact(&text).map_err(|error| format!("{}: {error}", path.display()))
}

/// The bench-trend gate: compares every baseline in `baseline_dir` against
/// the fresh artifact of the same file name in `fresh_dir`, prints one
/// table row per baseline, and returns the failures (empty when the gate
/// passes). A baseline fails when its fresh artifact is missing or
/// unreadable, was written by another bench, shares no size with it, or
/// fell more than [`MAX_REGRESSION_PCT`] below it at a shared size.
pub fn gate(baseline_dir: &Path, fresh_dir: &Path) -> Vec<String> {
    let baselines = artifact_files(baseline_dir);
    if baselines.is_empty() {
        return vec![format!("no BENCH_*.json baselines under {}/ to gate against", baseline_dir.display())];
    }
    println!(
        "Bench trend: {} baseline(s) from {}/, fresh artifacts from {}/, tolerance {MAX_REGRESSION_PCT}%",
        baselines.len(),
        baseline_dir.display(),
        fresh_dir.display()
    );
    println!("| artifact | bench | points ok | missing sizes | regressions |");
    println!("|----------|-------|-----------|---------------|-------------|");

    let mut failures: Vec<String> = Vec::new();
    for baseline_path in &baselines {
        let name = baseline_path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        // File names pair the two; the `bench` fields must agree too, or
        // another bench's numbers would pass as this one's.
        let paired = match (read_artifact(baseline_path), read_artifact(&fresh_dir.join(name))) {
            (Ok(baseline), Ok(fresh)) if fresh.bench == baseline.bench => Ok((baseline, fresh)),
            (Ok(baseline), Ok(fresh)) => Err(format!(
                "{name}: the fresh artifact was written by {}, the baseline by {}",
                fresh.bench, baseline.bench
            )),
            (Err(error), _) | (_, Err(error)) => Err(error),
        };
        let (baseline, fresh) = match paired {
            Ok(pair) => pair,
            Err(failure) => {
                println!("| {name} | — | — | — | {failure} |");
                failures.push(failure);
                continue;
            }
        };
        let comparison = compare(&baseline, &fresh, MAX_REGRESSION_PCT);
        println!(
            "| {name} | {} | {} | {:?} | {} |",
            baseline.bench,
            comparison.ok_points,
            comparison.missing_sizes,
            comparison.regressions.len()
        );
        // A gate without its measurement is a failure, not a pass: when the
        // fresh run shares no size with the baseline, nothing was checked.
        if comparison.ok_points == 0 && comparison.regressions.is_empty() && !baseline.points.is_empty() {
            failures.push(format!(
                "{name}: baseline sizes {:?} share none with the fresh artifact — the gate measured nothing",
                comparison.missing_sizes
            ));
        }
        for regression in &comparison.regressions {
            failures.push(format!(
                "{name} size {}: speedup {:.2}x fell below {:.2}x (baseline {:.2}x, tolerance \
                 {MAX_REGRESSION_PCT}%)",
                regression.size, regression.fresh, regression.floor, regression.baseline
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "exec_scale",
  "config": {
    "threads": "4",
    "conflict_pct": "0"
  },
  "points": [
    {"size": 128, "base_us": 1000.000, "fast_us": 250.000, "speedup": 4.000},
    {"size": 512, "base_us": 4000.000, "fast_us": 500.000, "speedup": 8.000}
  ]
}
"#;

    #[test]
    fn parses_the_writer_schema() {
        let artifact = parse_artifact(SAMPLE).unwrap();
        assert_eq!(artifact.bench, "exec_scale");
        assert_eq!(
            artifact.points,
            vec![TrendPoint { size: 128, speedup: 4.0 }, TrendPoint { size: 512, speedup: 8.0 }]
        );
    }

    #[test]
    fn parses_what_write_bench_artifact_emits() {
        // Round-trip against the real writer so the two halves of the
        // pipeline cannot drift: writer output must always parse.
        let dir = std::env::temp_dir().join(format!("sereth-trend-roundtrip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let point = crate::BenchPoint::from_durations(
            64,
            std::time::Duration::from_micros(900),
            std::time::Duration::from_micros(300),
        );
        let path = crate::write_bench_artifact(&dir, "trendtest", "val_scale", &[], &[point]).unwrap();
        let artifact = parse_artifact(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(artifact.bench, "val_scale");
        assert_eq!(artifact.points.len(), 1);
        assert_eq!(artifact.points[0].size, 64);
        assert!((artifact.points[0].speedup - 3.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_artifacts_without_a_bench_name() {
        assert!(parse_artifact("{\"points\": []}").is_err());
    }

    #[test]
    fn compare_flags_only_points_beyond_tolerance() {
        let baseline = parse_artifact(SAMPLE).unwrap();
        let fresh = Artifact {
            bench: "exec_scale".into(),
            points: vec![
                // 4.0 → 2.5 is a 37.5% regression: within a 50% budget.
                TrendPoint { size: 128, speedup: 2.5 },
                // 8.0 → 3.0 is a 62.5% regression: flagged.
                TrendPoint { size: 512, speedup: 3.0 },
            ],
        };
        let comparison = compare(&baseline, &fresh, 50.0);
        assert_eq!(comparison.ok_points, 1);
        assert_eq!(comparison.missing_sizes, Vec::<u64>::new());
        assert_eq!(comparison.regressions.len(), 1);
        let regression = &comparison.regressions[0];
        assert_eq!(regression.size, 512);
        assert_eq!(regression.baseline, 8.0);
        assert_eq!(regression.fresh, 3.0);
        assert!((regression.floor - 4.0).abs() < 1e-9);
    }

    #[test]
    fn compare_reports_sizes_the_fresh_run_skipped() {
        let baseline = parse_artifact(SAMPLE).unwrap();
        let fresh =
            Artifact { bench: "exec_scale".into(), points: vec![TrendPoint { size: 128, speedup: 4.0 }] };
        let comparison = compare(&baseline, &fresh, 25.0);
        assert_eq!(comparison.missing_sizes, vec![512]);
        assert_eq!(comparison.ok_points, 1);
        assert!(comparison.regressions.is_empty());
    }

    #[test]
    fn improvement_and_equality_never_flag() {
        let baseline = parse_artifact(SAMPLE).unwrap();
        let comparison = compare(&baseline, &baseline, 0.0);
        assert!(comparison.regressions.is_empty());
        assert_eq!(comparison.ok_points, 2);
    }

    #[test]
    fn a_fresh_artifact_from_another_bench_fails() {
        let root = std::env::temp_dir().join(format!("sereth-trend-gate-{}", std::process::id()));
        let (baselines, fresh) = (root.join("baselines"), root.join("fresh"));
        std::fs::create_dir_all(&baselines).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        std::fs::write(baselines.join("BENCH_pool.json"), SAMPLE.replace("exec_scale", "pool_scale"))
            .unwrap();
        std::fs::write(fresh.join("BENCH_pool.json"), SAMPLE.replace("exec_scale", "pool_scale")).unwrap();
        let same_bench = gate(&baselines, &fresh);
        std::fs::write(fresh.join("BENCH_pool.json"), SAMPLE).unwrap();
        let other_bench = gate(&baselines, &fresh);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(same_bench, Vec::<String>::new());
        assert_eq!(other_bench.len(), 1, "{other_bench:?}");
        assert!(other_bench[0].contains("written by exec_scale"), "{other_bench:?}");
    }
}
