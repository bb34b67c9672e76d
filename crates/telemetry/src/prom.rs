//! Prometheus text exposition over a [`TelemetrySnapshot`].
//!
//! [`render_prometheus`] produces the standard `text/plain; version=0.0.4` format:
//! one `# TYPE` line per metric followed by every series, labelled by
//! scope (`proto`/`trial`/`origin`). Histograms expose the usual
//! cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
//!
//! The rendering is mechanical over the snapshot, so every registered
//! counter, gauge, and histogram appears — there is no allow-list to
//! drift. Metric names swap `.` for `_` ("scan.probes_sent" →
//! `scan_probes_sent`); snapshot order (metric name, then scope) makes
//! the output deterministic for deterministic registries.

use crate::{HistogramEntry, MetricEntry, Scope, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The content type the exposition format is served under.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Prometheus-safe metric name: dots become underscores.
pub(crate) fn metric_name(name: &str) -> String {
    name.replace('.', "_")
}

fn labels(scope: Scope) -> String {
    format!(
        "{{proto=\"{}\",trial=\"{}\",origin=\"{}\"}}",
        scope.proto, scope.trial, scope.origin
    )
}

/// Render the full snapshot as Prometheus text exposition.
pub fn render_prometheus(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    render_counters(&mut out, &snap.counters);
    render_gauges(&mut out, &snap.gauges);
    render_histograms(&mut out, &snap.histograms);
    out
}

fn render_counters(out: &mut String, counters: &[MetricEntry<u64>]) {
    let mut by_name: BTreeMap<&str, Vec<&MetricEntry<u64>>> = BTreeMap::new();
    for c in counters {
        by_name.entry(c.name).or_default().push(c);
    }
    for (name, entries) in by_name {
        let pname = metric_name(name);
        let _ = writeln!(out, "# TYPE {pname} counter");
        for e in entries {
            let _ = writeln!(out, "{pname}{} {}", labels(e.scope), e.value);
        }
    }
}

fn render_gauges(out: &mut String, gauges: &[MetricEntry<f64>]) {
    let mut by_name: BTreeMap<&str, Vec<&MetricEntry<f64>>> = BTreeMap::new();
    for g in gauges {
        by_name.entry(g.name).or_default().push(g);
    }
    for (name, entries) in by_name {
        let pname = metric_name(name);
        let _ = writeln!(out, "# TYPE {pname} gauge");
        for e in entries {
            let _ = writeln!(out, "{pname}{} {:?}", labels(e.scope), e.value);
        }
    }
}

fn render_histograms(out: &mut String, histograms: &[HistogramEntry]) {
    let mut by_name: BTreeMap<&str, Vec<&HistogramEntry>> = BTreeMap::new();
    for h in histograms {
        by_name.entry(h.name).or_default().push(h);
    }
    for (name, entries) in by_name {
        let pname = metric_name(name);
        let _ = writeln!(out, "# TYPE {pname} histogram");
        for e in entries {
            let scope_labels = labels(e.scope);
            // Prometheus buckets are cumulative and le-labelled; the
            // inner label list drops the braces to splice `le` in.
            let inner = scope_labels
                .trim_start_matches('{')
                .trim_end_matches('}')
                .to_string();
            let mut cum = 0u64;
            for (i, &count) in e.counts.iter().enumerate() {
                cum += count;
                let le = match e.bounds.get(i) {
                    Some(b) => format!("{b:?}"),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(out, "{pname}_bucket{{{inner},le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{pname}_sum{scope_labels} {:?}", e.sum);
            let _ = writeln!(out, "{pname}_count{scope_labels} {cum}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;
    use crate::Telemetry;

    #[test]
    fn exposition_covers_every_metric_kind() {
        let t = Telemetry::new();
        let sc = Scope::new("HTTP", 0, 1);
        t.add(sc, names::PROBES_SENT, 7);
        t.set_gauge(sc, names::DURATION_SECONDS, 2.5);
        t.observe(
            sc,
            names::L7_ATTEMPTS,
            crate::metrics::L7_ATTEMPT_BOUNDS,
            2.0,
        );
        t.observe(
            sc,
            names::L7_ATTEMPTS,
            crate::metrics::L7_ATTEMPT_BOUNDS,
            9.0,
        );
        let text = render_prometheus(&t.snapshot());
        assert!(text.contains("# TYPE scan_probes_sent counter"), "{text}");
        assert!(
            text.contains("scan_probes_sent{proto=\"HTTP\",trial=\"0\",origin=\"1\"} 7"),
            "{text}"
        );
        assert!(text.contains("# TYPE scan_duration_s gauge"), "{text}");
        assert!(
            text.contains("scan_duration_s{proto=\"HTTP\",trial=\"0\",origin=\"1\"} 2.5"),
            "{text}"
        );
        assert!(text.contains("# TYPE scan_l7_attempts histogram"), "{text}");
        // Cumulative buckets: 2.0 lands in le=2.5; 9.0 in +Inf.
        assert!(text.contains("le=\"2.5\"} 1"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
        assert!(
            text.contains("scan_l7_attempts_count{proto=\"HTTP\",trial=\"0\",origin=\"1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("scan_l7_attempts_sum{proto=\"HTTP\",trial=\"0\",origin=\"1\"} 11.0"),
            "{text}"
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            let t = Telemetry::new();
            t.add(Scope::new("SSH", 1, 3), names::SYNACKS, 2);
            t.add(Scope::new("HTTP", 0, 0), names::SYNACKS, 5);
            t.snapshot()
        };
        assert_eq!(render_prometheus(&build()), render_prometheus(&build()));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render_prometheus(&TelemetrySnapshot::default()), "");
    }
}
