//! Request tracing for the HTTP front end: the wall-clock span source
//! and the in-memory ring buffer behind `GET /trace`.
//!
//! This module extends the crate's audited I/O boundary: it owns the
//! *only* construction of a wall-clock [`TimeSource`] in the workspace.
//! Wall-clock traces never reach a [`Telemetry`] hub or any other
//! deterministic surface — they live in the bounded [`TraceRing`] and
//! are served back as JSON, where tests compare structure (span names
//! and nesting), never timestamps.
//!
//! [`Telemetry`]: originscan_telemetry::Telemetry

use originscan_telemetry::span::{TimeSource, Trace, Tracer};
use originscan_telemetry::JsonObj;
use std::collections::VecDeque;
use std::sync::Mutex;

/// How many finished request traces the server retains.
pub(crate) const TRACE_RING_CAPACITY: usize = 256;

/// A monotonic wall-clock [`TimeSource`] anchored at construction time.
#[derive(Debug)]
pub struct WallTime {
    origin: std::time::Instant,
}

impl WallTime {
    /// A source reading zero now and wall-elapsed seconds later.
    #[expect(
        clippy::disallowed_methods,
        reason = "span timing at the audited I/O boundary; wall traces stay in the trace ring"
    )]
    pub fn start() -> WallTime {
        let origin = std::time::Instant::now();
        WallTime { origin }
    }

    /// A request tracer over a fresh wall source.
    pub fn tracer() -> Tracer {
        Tracer::from_source(Box::new(WallTime::start()))
    }
}

impl TimeSource for WallTime {
    fn now_s(&self) -> f64 {
        // `elapsed()` is a duration since the audited `Instant::now` in
        // `start()` — no fresh wall-clock read happens here.
        self.origin.elapsed().as_secs_f64()
    }
}

/// One finished request trace in the ring.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoredTrace {
    /// Monotonic per-server trace ID (accept order is concurrent, so
    /// these are *not* deterministic — structure comparisons only).
    pub(crate) id: u64,
    /// Query kind ("coverage", "best-k", ...; "invalid" on parse
    /// failure, the route name for non-query endpoints).
    pub(crate) kind: &'static str,
    /// HTTP status the request was answered with.
    pub(crate) status: u16,
    /// The span tree.
    pub(crate) trace: Trace,
}

impl StoredTrace {
    /// The trace as one JSON object (`spans` as a nested array).
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut head = JsonObj::new();
        head.field_u64("trace", self.id);
        head.field_str("kind", self.kind);
        head.field_u64("status", u64::from(self.status));
        head.field_str("clock", self.trace.clock);
        let head = head.finish();
        out.push_str(head.get(1..head.len().saturating_sub(1)).unwrap_or(""));
        out.push_str(",\"spans\":[");
        for (i, s) in self.trace.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut o = JsonObj::new();
            s.fields_into(&mut o);
            out.push_str(&o.finish());
        }
        out.push_str("]}");
        out
    }
}

#[derive(Debug, Default)]
struct RingInner {
    next_id: u64,
    buf: VecDeque<StoredTrace>,
}

/// A bounded, thread-safe ring of the most recent request traces.
#[derive(Debug)]
pub(crate) struct TraceRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(TRACE_RING_CAPACITY)
    }
}

impl TraceRing {
    /// An empty ring retaining at most `capacity` traces.
    pub(crate) fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner::default()),
        }
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, RingInner> {
        match self.inner.lock() {
            Ok(g) => g,
            // A pusher cannot poison mid-structure: VecDeque ops are
            // all-or-nothing here.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Append a finished trace, evicting the oldest past capacity.
    /// Returns the assigned trace ID.
    pub(crate) fn push(&self, kind: &'static str, status: u16, trace: Trace) -> u64 {
        let mut inner = self.guard();
        let id = inner.next_id;
        inner.next_id += 1;
        if inner.buf.len() >= self.capacity {
            inner.buf.pop_front();
        }
        inner.buf.push_back(StoredTrace {
            id,
            kind,
            status,
            trace,
        });
        id
    }

    /// The last `n` traces, oldest first.
    pub(crate) fn last(&self, n: usize) -> Vec<StoredTrace> {
        let inner = self.guard();
        let skip = inner.buf.len().saturating_sub(n);
        inner.buf.iter().skip(skip).cloned().collect()
    }

    /// Traces currently retained.
    pub(crate) fn len(&self) -> usize {
        self.guard().buf.len()
    }

    /// The `GET /trace` response body: `{"count":N,"traces":[...]}` with
    /// the last `n` traces, oldest first.
    pub(crate) fn to_json(&self, n: usize) -> String {
        let traces = self.last(n);
        let mut out = format!("{{\"count\":{},\"traces\":[", traces.len());
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_trace(names: &[&'static str]) -> Trace {
        let tr = Tracer::sim();
        let _root = tr.span("request");
        for n in names {
            tr.instant(n);
        }
        drop(_root);
        tr.finish()
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_ids() {
        let ring = TraceRing::new(2);
        ring.push("coverage", 200, mk_trace(&["parse"]));
        ring.push("diff", 200, mk_trace(&["parse"]));
        ring.push("union", 404, mk_trace(&["parse"]));
        assert_eq!(ring.len(), 2);
        let last = ring.last(10);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].id, 1);
        assert_eq!(last[0].kind, "diff");
        assert_eq!(last[1].id, 2);
        assert_eq!(last[1].status, 404);
    }

    #[test]
    fn trace_json_shape() {
        let ring = TraceRing::new(4);
        ring.push("coverage", 200, mk_trace(&[]));
        let body = ring.to_json(1);
        assert!(
            body.starts_with("{\"count\":1,\"traces\":[{\"trace\":0,"),
            "{body}"
        );
        assert!(body.contains("\"kind\":\"coverage\""), "{body}");
        assert!(body.contains("\"clock\":\"sim\""), "{body}");
        assert!(
            body.contains("\"spans\":[{\"span\":0,\"name\":\"request\""),
            "{body}"
        );
        assert!(body.ends_with("]}]}"), "{body}");
    }

    #[test]
    fn wall_source_is_monotonic() {
        let w = WallTime::start();
        let a = w.now_s();
        let b = w.now_s();
        assert!(b >= a);
        assert!(a >= 0.0);
        let tr = WallTime::tracer();
        assert_eq!(tr.clock_name(), "wall");
    }
}
