//! Deterministic flame-tree profiles aggregated from span traces.
//!
//! A [`Profile`] merges any number of [`Trace`]s by *span path* — the
//! `/`-joined chain of span names from the root ("request/execute/load")
//! — accumulating call counts and total time per path. Self time is
//! derived (total minus the totals of direct children), which is exactly
//! the "unaccounted" measure the serve latency work is planned against:
//! a large root self-time means the instrumentation is missing a phase.
//!
//! Output: [`Profile::to_jsonl`], one line per node, pinned by the
//! telemetry schema golden (`type:"profile"`).
//!
//! Determinism: nodes live in a `BTreeMap` keyed by path, so two
//! profiles over the same traces serialize identically regardless of
//! trace arrival order.

use crate::json::JsonObj;
use crate::span::{SpanRecord, Trace};
use std::collections::BTreeMap;

/// One merged node of the flame tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// `/`-joined span-name path from the root ("scan/probe").
    pub path: String,
    /// The node's own span name (last path segment).
    pub name: String,
    /// Nesting depth (root = 0).
    pub depth: usize,
    /// Spans merged into this node.
    pub count: u64,
    /// Summed span durations in seconds.
    pub total_s: f64,
    /// Total minus direct children's totals, clamped non-negative.
    pub self_s: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Agg {
    count: u64,
    total_s: f64,
}

/// A merged flame tree, built from a snapshot's traces
/// ([`crate::TelemetrySnapshot::profile`]); read [`Profile::nodes`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    map: BTreeMap<String, Agg>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Merge every span of `trace` into the tree.
    pub(crate) fn add_trace(&mut self, trace: &Trace) {
        self.add_spans(&trace.spans);
    }

    /// Merge a span list (IDs must be their indices, parents first —
    /// the shape [`crate::span::Tracer::finish`] produces).
    pub fn add_spans(&mut self, spans: &[SpanRecord]) {
        let mut paths: Vec<String> = Vec::with_capacity(spans.len());
        for s in spans {
            let path = match s.parent.and_then(|p| paths.get(p as usize)) {
                Some(parent_path) => format!("{parent_path}/{}", s.name),
                None => s.name.to_string(),
            };
            let agg = self.map.entry(path.clone()).or_default();
            agg.count += 1;
            agg.total_s += s.duration_s();
            paths.push(path);
        }
    }

    /// Build a profile over many traces at once.
    pub(crate) fn from_traces<'a, I: IntoIterator<Item = &'a Trace>>(traces: I) -> Profile {
        let mut p = Profile::new();
        for t in traces {
            p.add_trace(t);
        }
        p
    }

    /// The merged nodes in path (depth-first) order, with derived self
    /// times and depths.
    pub fn nodes(&self) -> Vec<ProfileNode> {
        self.map
            .iter()
            .map(|(path, agg)| {
                let child_total: f64 = self
                    .map
                    .range(format!("{path}/")..)
                    .take_while(|(p, _)| {
                        p.starts_with(path.as_str()) && p.as_bytes().get(path.len()) == Some(&b'/')
                    })
                    .filter(|(p, _)| {
                        p.get(path.len() + 1..)
                            .is_some_and(|rest| !rest.contains('/'))
                    })
                    .map(|(_, a)| a.total_s)
                    .sum();
                let name = path.rsplit('/').next().unwrap_or(path).to_string();
                ProfileNode {
                    path: path.clone(),
                    name,
                    depth: path.matches('/').count(),
                    count: agg.count,
                    total_s: agg.total_s,
                    self_s: (agg.total_s - child_total).max(0.0),
                }
            })
            .collect()
    }

    /// Look up one node by path.
    pub fn node(&self, path: &str) -> Option<ProfileNode> {
        self.nodes().into_iter().find(|n| n.path == path)
    }

    /// One JSONL line per node (trailing newline after every line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for n in self.nodes() {
            let mut o = JsonObj::new();
            o.field_str("type", "profile");
            o.field_str("path", &n.path);
            o.field_str("name", &n.name);
            o.field_u64("count", n.count);
            o.field_f64("total", n.total_s);
            o.field_f64("self", n.self_s);
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
impl Profile {
    /// Indented human-readable tree.
    fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>14} {:>14}",
            "span path", "count", "total_s", "self_s"
        );
        let _ = writeln!(out, "{}", "-".repeat(80));
        for n in self.nodes() {
            let label = format!("{}{}", "  ".repeat(n.depth), n.name);
            let _ = writeln!(
                out,
                "{:<40} {:>8} {:>14.6} {:>14.6}",
                label, n.count, n.total_s, n.self_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn sample_trace() -> Trace {
        let tr = Tracer::sim();
        {
            let _scan = tr.span("scan");
            tr.set_time(1.0);
            {
                let _probe = tr.span("probe");
                tr.set_time(7.0);
            }
            tr.record_span("tail", 7.0, 9.0);
            tr.set_time(10.0);
        }
        tr.finish()
    }

    #[test]
    fn merge_by_path_with_self_time() {
        let t = sample_trace();
        let mut p = Profile::new();
        p.add_trace(&t);
        p.add_trace(&t); // merging twice doubles counts and totals
        let scan = p.node("scan").expect("scan node");
        assert_eq!(scan.count, 2);
        assert_eq!(scan.total_s, 20.0);
        // children: probe 6s + tail 2s per trace → self = 10 - 8 = 2 each
        assert_eq!(scan.self_s, 4.0);
        let probe = p.node("scan/probe").expect("probe node");
        assert_eq!(probe.depth, 1);
        assert_eq!(probe.total_s, 12.0);
        assert_eq!(probe.self_s, 12.0, "leaf self == total");
    }

    #[test]
    fn jsonl_is_deterministic_and_path_ordered() {
        let t = sample_trace();
        let a = Profile::from_traces([&t]).to_jsonl();
        let b = Profile::from_traces([&t]).to_jsonl();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"path\":\"scan\""), "{}", lines[0]);
        assert!(lines[1].contains("\"path\":\"scan/probe\""), "{}", lines[1]);
        assert!(lines[2].contains("\"path\":\"scan/tail\""), "{}", lines[2]);
        assert!(
            lines[0].starts_with("{\"type\":\"profile\""),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn sibling_prefix_names_do_not_alias() {
        let tr = Tracer::sim();
        {
            let _a = tr.span("load");
            tr.instant("x");
        }
        let t1 = tr.finish();
        let tr = Tracer::sim();
        {
            let _a = tr.span("load2");
            tr.instant("y");
        }
        let t2 = tr.finish();
        let p = Profile::from_traces([&t1, &t2]);
        // "load2/y" must not be counted as a child of "load".
        let load = p.node("load").expect("load");
        assert_eq!(load.self_s, load.total_s);
        assert_eq!(p.nodes().len(), 4);
    }

    #[test]
    fn render_indents_by_depth() {
        let p = Profile::from_traces([&sample_trace()]);
        let text = p.render();
        assert!(text.contains("\n  probe"), "{text}");
        assert!(text.contains("scan"), "{text}");
    }
}
