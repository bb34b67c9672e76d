//! The traced run: spans recorded by the harness around each call into a
//! layer, kept in memory, written out when the run ends.
//!
//! Span names read `layer:operation`; the text before the colon is the
//! layer the time is charged to (a slash would collide with the flame
//! tree's path separator). Clocks and span trees are the program's
//! own (`originscan_telemetry::Tracer` over the serve crate's wall
//! source, `Profile` for the flame tree), so a trace file reads like the
//! server's `GET /trace`.

use crate::json::Obj;
use originscan_serve::WallTime;
use originscan_telemetry::profile::{Profile, ProfileNode};
use originscan_telemetry::span::{SpanGuard, SpanRecord, Tracer};
use std::collections::BTreeMap;

/// The spans the server and the query engine record themselves, with
/// the layer whose code each one times. They reach a trace two ways:
/// through a tracer the harness hands to `execute_text_traced`, and as
/// JSON from `GET /trace`.
const PROGRAM_SPANS: &[(&str, &str)] = &[
    ("request", "serve.http"),
    ("read", "serve.http"),
    ("write", "serve.http"),
    ("execute", "serve.engine"),
    ("parse", "serve.engine"),
    ("plan", "serve.engine"),
    ("cache", "serve.engine"),
    ("resolve", "serve.engine"),
    ("load", "store"),
    ("kernel.union", "store"),
    ("kernel.diff", "store"),
    ("kernel.intersect", "store"),
    ("kernel.bestk", "store"),
    ("kernel.rank", "store"),
    ("kernel.member", "store"),
    ("kernel.recall", "store"),
];

/// The layer a span's time is charged to: a harness span's name up to
/// the colon, a program span's entry in [`PROGRAM_SPANS`].
pub fn layer_of(span_name: &str) -> &str {
    match span_name.split_once(':') {
        Some((layer, _)) => layer,
        None => PROGRAM_SPANS
            .iter()
            .find(|(name, _)| *name == span_name)
            .map_or("serve.engine", |(_, layer)| layer),
    }
}

/// A program span's name as the `&'static str` a `SpanRecord` needs.
pub fn intern(span_name: &str) -> &'static str {
    PROGRAM_SPANS
        .iter()
        .find(|(name, _)| *name == span_name)
        .map_or("other", |(name, _)| name)
}

/// Span recording that costs one branch when off.
#[derive(Debug)]
pub struct Spans {
    tracer: Option<Tracer>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans { tracer: None }
    }

    pub fn on() -> Spans {
        Spans {
            tracer: Some(WallTime::tracer()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.tracer.is_some()
    }

    /// The tracer to hand to a program function that takes one.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Open a span; guards opened while it lives become its children.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.tracer.as_ref().map(|t| t.span(name))
    }

    /// Run `f` under a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    pub fn finish(self) -> Vec<SpanRecord> {
        self.tracer.map(|t| t.finish().spans).unwrap_or_default()
    }
}

/// Every trace of one run, ready to be summarised and written.
#[derive(Debug, Default)]
pub struct TraceLog {
    traces: Vec<Vec<SpanRecord>>,
}

impl TraceLog {
    pub fn push(&mut self, spans: Vec<SpanRecord>) {
        if !spans.is_empty() {
            self.traces.push(spans);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    pub fn append(&mut self, other: TraceLog) {
        self.traces.extend(other.traces);
    }

    pub fn profile(&self) -> Profile {
        let mut p = Profile::new();
        for t in &self.traces {
            p.add_spans(t);
        }
        p
    }

    /// The merged flame tree's nodes, with derived self times.
    pub fn nodes(&self) -> Vec<ProfileNode> {
        self.profile().nodes()
    }

    /// One line per span (`type:"span"`, with its trace number, parent
    /// and layer), then the merged flame tree (`type:"profile"`, with
    /// self time).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (trace_id, spans) in self.traces.iter().enumerate() {
            for s in spans {
                let mut o = Obj::new()
                    .str("type", "span")
                    .int("trace", trace_id as u64)
                    .int("span", u64::from(s.id));
                if let Some(p) = s.parent {
                    o = o.int("parent", u64::from(p));
                }
                out.push_str(
                    &o.str("name", s.name)
                        .str("layer", layer_of(s.name))
                        .num("start", s.start_s)
                        .num("end", s.end_s)
                        .finish(),
                );
                out.push('\n');
            }
        }
        out.push_str(&self.profile().to_jsonl());
        out
    }
}

/// Self seconds per layer (a span's time minus its children's, summed
/// over every span of the layer) and the total of all root spans. The
/// parts sum to the whole by construction.
pub fn layer_self_seconds(nodes: &[ProfileNode]) -> (BTreeMap<String, f64>, f64) {
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut root_total = 0.0;
    for n in nodes {
        *by_layer.entry(layer_of(&n.name).to_string()).or_default() += n.self_s;
        if n.depth == 0 {
            root_total += n.total_s;
        }
    }
    (by_layer, root_total)
}

/// Share of root-span time covered by direct child spans: how much of a
/// pass the named stages account for.
pub fn stage_coverage(nodes: &[ProfileNode]) -> f64 {
    let total_at = |depth: usize| -> f64 {
        nodes
            .iter()
            .filter(|n| n.depth == depth)
            .map(|n| n.total_s)
            .sum()
    };
    let roots = total_at(0);
    if roots > 0.0 {
        total_at(1) / roots
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start_s: f64,
        end_s: f64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let mut log = TraceLog::default();
        log.push(vec![
            rec(0, None, "bench:pass", 0.0, 10.0),
            rec(1, Some(0), "core.experiment:run", 0.0, 7.0),
            rec(2, Some(0), "store:write_to", 7.0, 9.0),
            rec(3, Some(2), "store:encode", 7.0, 8.0),
        ]);
        let (layers, total) = layer_self_seconds(&log.nodes());
        assert_eq!(total, 10.0);
        assert_eq!(layers["bench"], 1.0);
        assert_eq!(layers["core.experiment"], 7.0);
        assert_eq!(layers["store"], 2.0);
        assert_eq!(layers.values().sum::<f64>(), total);
        assert_eq!(stage_coverage(&log.nodes()), 0.9);
        assert_eq!(layer_of("kernel.union"), "store");
        assert_eq!(layer_of("load"), "store");
        assert_eq!(layer_of("write"), "serve.http");
        assert_eq!(layer_of("resolve"), "serve.engine");
        assert_eq!(intern("kernel.bestk"), "kernel.bestk");
        assert_eq!(intern("something-new"), "other");
    }

    #[test]
    fn spans_off_records_nothing_and_on_nests() {
        let off = Spans::off();
        assert_eq!(off.time("a:b", || 3), 3);
        assert!(off.finish().is_empty());
        let on = Spans::on();
        {
            let _outer = on.span("bench:pass");
            on.time("store:load", || ());
        }
        let spans = on.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let mut log = TraceLog::default();
        log.push(spans);
        let text = log.to_jsonl();
        assert!(text.contains(
            r#""type":"span","trace":0,"span":1,"parent":0,"name":"store:load","layer":"store""#
        ));
        assert!(text.contains(r#""type":"profile","path":"bench:pass/store:load""#));
    }
}
