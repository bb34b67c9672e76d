//! Machine-readable bench records and the conformance gate over them.
//!
//! Every `perf_*` bench writes a versioned `BENCH_<name>.json` into the
//! working directory: workload parameters, gated metrics (each tagged
//! with the direction that counts as *better* and an optional per-metric
//! tolerance), and an ungated span-profile summary. The `bench-diff`
//! binary compares fresh records against the baselines checked into
//! `crates/bench/records/` and fails CI when a gated metric regresses
//! past its tolerance (default [`DEFAULT_TOLERANCE`]).
//!
//! Speed is judged in one place, the repository benchmark
//! (`BENCHMARK.json`), so no record carries a wall-clock number: the
//! benches print throughput and latency and record only what is
//! seed-determined (result counts, recall and probe fractions, compressed
//! size: 1–2 % tolerances, where drift means a semantic change) or a
//! ratio of two timings from the same run (kernel and cache speedups,
//! connection reuse, span attribution: wider tolerances).

use crate::jsonv::JsonValue;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Record format version; bump when the JSON shape changes.
pub const RECORD_SCHEMA_VERSION: u32 = 1;

/// Relative regression allowed when a metric declares no tolerance.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// Which direction of change counts as *better* for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Bigger is better (counts, recall, speedups).
    Higher,
    /// Smaller is better (probe fractions, bytes).
    Lower,
}

impl Dir {
    fn as_str(self) -> &'static str {
        match self {
            Dir::Higher => "higher",
            Dir::Lower => "lower",
        }
    }
}

/// One gated metric in a record.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (snake_case).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Which direction is better.
    pub dir: Dir,
    /// Relative regression allowed before the gate fails (None: the
    /// [`DEFAULT_TOLERANCE`]).
    pub tol: Option<f64>,
}

/// One ungated span-profile line carried for context.
#[derive(Debug, Clone)]
pub struct ProfileLine {
    /// `/`-joined span path ("request/execute/kernel.union").
    pub path: String,
    /// Times the path occurred.
    pub count: u64,
    /// Total seconds across occurrences.
    pub total_s: f64,
    /// Seconds not attributed to child spans.
    pub self_s: f64,
}

/// A full bench record, serialized to `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Bench name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// Workload parameters (informational, compared for equality only
    /// in the report, never gated).
    pub params: Vec<(String, String)>,
    /// Gated metrics, in insertion order.
    pub metrics: Vec<Metric>,
    /// Ungated span-profile summary.
    pub profile: Vec<ProfileLine>,
}

impl BenchRecord {
    /// An empty record for `name`.
    pub fn new(name: &str) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            params: Vec::new(),
            metrics: Vec::new(),
            profile: Vec::new(),
        }
    }

    /// Attach one workload parameter.
    pub fn param(&mut self, key: &str, value: impl std::fmt::Display) {
        self.params.push((key.to_string(), value.to_string()));
    }

    /// Attach one gated metric.
    pub fn metric(&mut self, name: &str, value: f64, dir: Dir, tol: Option<f64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            dir,
            tol,
        });
    }

    /// Attach one profile summary line.
    pub fn profile_line(&mut self, path: &str, count: u64, total_s: f64, self_s: f64) {
        self.profile.push(ProfileLine {
            path: path.to_string(),
            count,
            total_s,
            self_s,
        });
    }

    /// Deterministic JSON rendering (insertion order, `{:?}` floats).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{RECORD_SCHEMA_VERSION},\"name\":{:?},\"params\":{{",
            self.name
        );
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k:?}:{v:?}");
        }
        out.push_str("},\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{:?}:{{\"value\":{:?},\"dir\":{:?}",
                m.name,
                m.value,
                m.dir.as_str()
            );
            if let Some(tol) = m.tol {
                let _ = write!(out, ",\"tol\":{tol:?}");
            }
            out.push('}');
        }
        out.push_str("},\"profile\":[");
        for (i, p) in self.profile.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":{:?},\"count\":{},\"total\":{:?},\"self\":{:?}}}",
                p.path, p.count, p.total_s, p.self_s
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Write `BENCH_<name>.json` into `dir`, returning the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Write `BENCH_<name>.json` into the working directory (the CI
    /// artifact location), returning the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(Path::new("."))
    }
}

/// Outcome of comparing one metric between baseline and current.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Current value.
    pub current: f64,
    /// Relative change in the *worse* direction (0 when equal or
    /// improved).
    pub regression: f64,
    /// Tolerance applied.
    pub tol: f64,
    /// True when `regression > tol`.
    pub regressed: bool,
}

/// Compare a current record (parsed JSON) against its baseline.
///
/// Gating rules: every baseline metric must exist in the current record
/// (a vanished metric is an error); the tolerance comes from the
/// baseline's `tol` field, else [`DEFAULT_TOLERANCE`]; a metric
/// regresses when it moves past the tolerance in its worse direction.
/// Metrics only present in the current record are ignored (they gate
/// once they are baselined).
pub fn diff_records(base: &JsonValue, current: &JsonValue) -> Result<Vec<MetricDiff>, String> {
    let base_metrics = base
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .ok_or("baseline record has no metrics object")?;
    let mut out = Vec::new();
    for (name, bm) in base_metrics {
        let base_value = bm
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("baseline metric {name} has no value"))?;
        let dir = match bm.get("dir").and_then(JsonValue::as_str) {
            Some("higher") => Dir::Higher,
            Some("lower") => Dir::Lower,
            other => return Err(format!("baseline metric {name} has bad dir {other:?}")),
        };
        let tol = bm
            .get("tol")
            .and_then(JsonValue::as_f64)
            .unwrap_or(DEFAULT_TOLERANCE);
        let cur_value = current
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("current record is missing metric {name}"))?;
        let denom = base_value.abs().max(f64::MIN_POSITIVE);
        let regression = match dir {
            Dir::Higher => (base_value - cur_value) / denom,
            Dir::Lower => (cur_value - base_value) / denom,
        }
        .max(0.0);
        out.push(MetricDiff {
            name: name.clone(),
            base: base_value,
            current: cur_value,
            regression,
            tol,
            regressed: regression > tol,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchRecord {
        let mut r = BenchRecord::new("demo");
        r.param("space", 1u64 << 22);
        r.metric("bestk_speedup", 1000.0, Dir::Higher, Some(0.5));
        r.metric("compressed_bytes", 250.0, Dir::Lower, None);
        r.profile_line("request/execute", 10, 1.5, 0.25);
        r
    }

    #[test]
    fn record_json_is_deterministic_and_parses() {
        let r = sample();
        let json = r.to_json();
        assert_eq!(json, r.to_json());
        let v = JsonValue::parse(json.trim()).expect("parse own output");
        assert_eq!(v.get("schema").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("demo"));
        assert_eq!(
            v.get("params")
                .and_then(|p| p.get("space"))
                .and_then(JsonValue::as_str),
            Some("4194304")
        );
        let m = v.get("metrics").and_then(|m| m.get("bestk_speedup"));
        assert_eq!(
            m.and_then(|m| m.get("tol")).and_then(JsonValue::as_f64),
            Some(0.5)
        );
        assert_eq!(
            v.get("profile").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn diff_gates_on_direction_and_tolerance() {
        let base = JsonValue::parse(sample().to_json().trim()).expect("base");
        // The speedup halves (regression 0.5, tol 0.5: at the edge, not
        // past it) and the size doubles (regression 1.0 > default 0.15).
        let mut cur = sample();
        cur.metrics.clear();
        cur.metric("bestk_speedup", 500.0, Dir::Higher, Some(0.5));
        cur.metric("compressed_bytes", 500.0, Dir::Lower, None);
        let cur = JsonValue::parse(cur.to_json().trim()).expect("cur");
        let diffs = diff_records(&base, &cur).expect("diff");
        assert_eq!(diffs.len(), 2);
        assert!(!diffs[0].regressed, "at-tolerance must pass: {diffs:?}");
        assert!(diffs[1].regressed, "size doubling must fail: {diffs:?}");
        assert!((diffs[1].regression - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diff_improvements_never_regress() {
        let base = JsonValue::parse(sample().to_json().trim()).expect("base");
        let mut cur = sample();
        cur.metrics.clear();
        cur.metric("bestk_speedup", 9000.0, Dir::Higher, None);
        cur.metric("compressed_bytes", 10.0, Dir::Lower, None);
        let cur = JsonValue::parse(cur.to_json().trim()).expect("cur");
        let diffs = diff_records(&base, &cur).expect("diff");
        assert!(diffs.iter().all(|d| !d.regressed && d.regression == 0.0));
    }

    #[test]
    fn diff_fails_on_missing_current_metric() {
        let base = JsonValue::parse(sample().to_json().trim()).expect("base");
        let mut cur = BenchRecord::new("demo");
        cur.metric("bestk_speedup", 1000.0, Dir::Higher, None);
        let cur = JsonValue::parse(cur.to_json().trim()).expect("cur");
        assert!(diff_records(&base, &cur).is_err());
    }
}
