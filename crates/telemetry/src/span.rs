//! Hierarchical span tracing: RAII guards, deterministic span IDs, and
//! pluggable clocks.
//!
//! A [`Tracer`] records one *trace* — a tree of named, timed spans — for
//! one unit of work: a scan attempt in the engine, a supervised origin
//! in the runner, or a single HTTP request in the serve front end. Spans
//! nest: a [`SpanGuard`] opened while another guard is live becomes its
//! child, and dropping the guard closes the span at the tracer's current
//! clock reading.
//!
//! ## Clock domains
//!
//! The determinism contract splits tracing into two clock domains:
//!
//! * **`sim`** — a manually-advanced simulated clock ([`Tracer::sim`]).
//!   Library code (scanner, core) sets the clock from the pacer's
//!   simulated send times, so same-seed runs produce byte-identical
//!   span streams. These traces land in the [`crate::Telemetry`] hub
//!   and are part of the JSONL determinism goldens.
//! * **`wall`** — an external [`TimeSource`]
//!   ([`Tracer::from_source`]). Only the serve crate's audited I/O
//!   boundary constructs one; wall traces stay in the server's in-memory
//!   ring buffer (`GET /trace`) and are *never* recorded into a hub, so
//!   deterministic surfaces only ever compare their structure.
//!
//! ## Determinism
//!
//! Span IDs are sequential within a trace (assigned at open, so a parent
//! always has a smaller ID than its children), and the hub assigns trace
//! IDs per [`crate::Scope`] in record order — one scope is one scan is one
//! thread, so both sequences are total orders independent of cross-scope
//! interleaving.

use crate::json::JsonObj;
use std::cell::{Cell, RefCell};

/// Upper bound on spans retained per trace. A runaway instrumentation
/// site (say, a span per probed address) degrades to dropped spans, not
/// unbounded memory; the drop count is carried on the finished trace.
pub(crate) const MAX_SPANS_PER_TRACE: usize = 65_536;

/// A monotonically non-decreasing clock a [`Tracer`] can read.
///
/// The telemetry crate itself only ships the simulated clock; the serve
/// crate implements this trait over `std::time::Instant` behind its
/// audited wall-clock allow.
pub trait TimeSource: std::fmt::Debug {
    /// Seconds since this source's origin.
    fn now_s(&self) -> f64;
}

#[derive(Debug)]
enum Clock {
    /// Manually advanced simulated seconds ([`Tracer::set_time`]).
    Sim(Cell<f64>),
    /// An external source (serve's wall clock).
    Source(Box<dyn TimeSource>),
}

/// One closed (or still-open) span inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Sequential ID within the trace (assigned at open).
    pub id: u32,
    /// Parent span ID; `None` for a root span.
    pub parent: Option<u32>,
    /// Static span name ("scan", "probe", "request", "parse", ...).
    pub name: &'static str,
    /// Clock reading when the span opened.
    pub start_s: f64,
    /// Clock reading when the span closed.
    pub end_s: f64,
}

impl SpanRecord {
    /// Duration in seconds (clamped non-negative).
    pub(crate) fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// Serialize as the span fields of a JSONL line into `o` (the caller
    /// supplies the envelope: type/proto/trial/origin/trace/clock).
    pub fn fields_into(&self, o: &mut JsonObj) {
        o.field_u64("span", u64::from(self.id));
        if let Some(p) = self.parent {
            o.field_u64("parent", u64::from(p));
        }
        o.field_str("name", self.name);
        o.field_f64("start", self.start_s);
        o.field_f64("end", self.end_s);
    }
}

/// A finished trace: the span tree plus its clock domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// `"sim"` or `"wall"` — which clock produced the timestamps.
    pub clock: &'static str,
    /// Spans in ID order (parents before children).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded after [`MAX_SPANS_PER_TRACE`] was reached.
    pub(crate) dropped: u32,
}

#[cfg(test)]
impl Trace {
    /// Direct children of the span with ID `id`, in ID order.
    fn children(&self, id: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }
}

#[derive(Debug)]
struct Open {
    parent: Option<u32>,
    name: &'static str,
    start_s: f64,
    end_s: Option<f64>,
}

#[derive(Debug, Default)]
struct TracerInner {
    spans: Vec<Open>,
    stack: Vec<u32>,
    dropped: u32,
}

/// Records one trace. Single-threaded by design (`RefCell` inner): a
/// tracer belongs to the one thread running its unit of work.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    inner: RefCell<TracerInner>,
}

impl Tracer {
    /// A tracer over the manually-advanced simulated clock, starting at
    /// `t = 0`.
    pub fn sim() -> Tracer {
        Tracer {
            clock: Clock::Sim(Cell::new(0.0)),
            inner: RefCell::new(TracerInner::default()),
        }
    }

    /// A tracer over an external clock (serve's audited wall source).
    pub fn from_source(source: Box<dyn TimeSource>) -> Tracer {
        Tracer {
            clock: Clock::Source(source),
            inner: RefCell::new(TracerInner::default()),
        }
    }

    /// The clock domain this tracer stamps spans with.
    pub fn clock_name(&self) -> &'static str {
        match self.clock {
            Clock::Sim(_) => "sim",
            Clock::Source(_) => "wall",
        }
    }

    /// Advance the simulated clock (no-op on an external source; sim
    /// time never goes backwards, so stale callers cannot unorder spans).
    pub fn set_time(&self, t: f64) {
        if let Clock::Sim(cell) = &self.clock {
            if t > cell.get() {
                cell.set(t);
            }
        }
    }

    /// Current clock reading in seconds.
    pub fn now_s(&self) -> f64 {
        match &self.clock {
            Clock::Sim(cell) => cell.get(),
            Clock::Source(s) => s.now_s(),
        }
    }

    /// Open a span at the current clock reading. Dropping the returned
    /// guard closes it; guards opened while this one is live become its
    /// children.
    #[must_use = "dropping the guard immediately produces a zero-width span"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.open(name, self.now_s());
        SpanGuard { tracer: self, id }
    }

    /// Record an already-measured closed span under the current parent.
    /// Used by simulated paths where both endpoints are known up front
    /// (an injected stall, a backoff window).
    pub fn record_span(&self, name: &'static str, start_s: f64, end_s: f64) {
        let id = self.open(name, start_s);
        self.close(id, end_s.max(start_s));
    }

    /// Record a zero-width marker span at the current clock reading.
    pub fn instant(&self, name: &'static str) {
        let t = self.now_s();
        self.record_span(name, t, t);
    }

    /// Close any still-open spans at the current clock reading and
    /// return the finished trace.
    pub fn finish(self) -> Trace {
        self.drain()
    }

    /// [`Tracer::finish`] behind `&self`: the tracer is left empty, and
    /// guards still alive close nothing when they drop.
    #[expect(clippy::cast_possible_truncation, reason = "span count ≪ 2^32")]
    pub(crate) fn drain(&self) -> Trace {
        let now = self.now_s();
        let clock = self.clock_name();
        let inner = std::mem::take(&mut *self.inner.borrow_mut());
        let spans = inner
            .spans
            .into_iter()
            .enumerate()
            .map(|(i, s)| SpanRecord {
                id: i as u32,
                parent: s.parent,
                name: s.name,
                start_s: s.start_s,
                end_s: s.end_s.unwrap_or(now).max(s.start_s),
            })
            .collect();
        Trace {
            clock,
            spans,
            dropped: inner.dropped,
        }
    }

    fn open(&self, name: &'static str, start_s: f64) -> u32 {
        let mut inner = self.inner.borrow_mut();
        if inner.spans.len() >= MAX_SPANS_PER_TRACE {
            inner.dropped = inner.dropped.saturating_add(1);
            // A sentinel ID past the cap: close() ignores it.
            return u32::MAX;
        }
        let id = match u32::try_from(inner.spans.len()) {
            Ok(id) => id,
            // Unreachable: MAX_SPANS_PER_TRACE bounds len far below u32::MAX.
            Err(_) => return u32::MAX,
        };
        let parent = inner.stack.last().copied();
        inner.spans.push(Open {
            parent,
            name,
            start_s,
            end_s: None,
        });
        inner.stack.push(id);
        id
    }

    fn close(&self, id: u32, end_s: f64) {
        let mut inner = self.inner.borrow_mut();
        if id == u32::MAX {
            return;
        }
        // Tolerant LIFO: close everything opened after `id` too, so an
        // out-of-order drop cannot leave orphans on the stack.
        while let Some(top) = inner.stack.pop() {
            if let Some(s) = inner.spans.get_mut(top as usize) {
                if s.end_s.is_none() {
                    s.end_s = Some(end_s.max(s.start_s));
                }
            }
            if top == id {
                break;
            }
        }
    }

    fn end_guard(&self, id: u32) {
        self.close(id, self.now_s());
    }
}

/// RAII handle for an open span: dropping it closes the span at the
/// tracer's current clock reading.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.end_guard(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_into_parent_child_trees() {
        let tr = Tracer::sim();
        {
            let _scan = tr.span("scan");
            tr.set_time(1.0);
            {
                let _probe = tr.span("probe");
                tr.set_time(3.0);
            }
            tr.set_time(4.0);
        }
        let t = tr.finish();
        assert_eq!(t.clock, "sim");
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "scan");
        assert_eq!(t.spans[0].parent, None);
        assert_eq!((t.spans[0].start_s, t.spans[0].end_s), (0.0, 4.0));
        assert_eq!(t.spans[1].name, "probe");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!((t.spans[1].start_s, t.spans[1].end_s), (1.0, 3.0));
    }

    #[test]
    fn ids_are_sequential_and_parents_precede_children() {
        let tr = Tracer::sim();
        let root = tr.span("a");
        tr.instant("m1");
        tr.record_span("m2", 0.5, 0.7);
        drop(root);
        let t = tr.finish();
        let ids: Vec<u32> = t.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        for s in &t.spans {
            if let Some(p) = s.parent {
                assert!(p < s.id, "parent {} !< child {}", p, s.id);
            }
        }
    }

    #[test]
    fn finish_closes_open_spans_and_sim_time_is_monotonic() {
        let tr = Tracer::sim();
        let g = tr.span("open");
        tr.set_time(5.0);
        tr.set_time(2.0); // ignored: sim time never rewinds
        std::mem::forget(g); // guard lost — finish still closes the span
        let t = tr.finish();
        assert_eq!(t.spans[0].end_s, 5.0);
    }

    #[test]
    fn span_cap_drops_instead_of_growing() {
        let tr = Tracer::sim();
        for _ in 0..MAX_SPANS_PER_TRACE + 10 {
            tr.instant("x");
        }
        let t = tr.finish();
        assert_eq!(t.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(t.dropped, 10);
    }

    #[test]
    fn record_span_clamps_inverted_intervals() {
        let tr = Tracer::sim();
        tr.record_span("w", 3.0, 1.0);
        let t = tr.finish();
        assert_eq!(t.spans[0].start_s, 3.0);
        assert_eq!(t.spans[0].end_s, 3.0);
        assert_eq!(t.spans[0].duration_s(), 0.0);
    }

    #[test]
    fn children_iterates_direct_descendants_only() {
        let tr = Tracer::sim();
        {
            let _a = tr.span("a");
            {
                let _b = tr.span("b");
                tr.instant("c"); // child of b, grandchild of a
            }
            tr.instant("d"); // child of a
        }
        let t = tr.finish();
        let kids: Vec<&str> = t.children(0).map(|s| s.name).collect();
        assert_eq!(kids, vec!["b", "d"]);
    }
}
