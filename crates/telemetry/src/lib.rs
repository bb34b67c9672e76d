//! # originscan-telemetry
//!
//! Deterministic tracing, metrics, and scan timelines for the originscan
//! workspace.
//!
//! The paper's analyses (§4–§6) explain *why* an origin misses hosts —
//! blocking, transient bursts, detection, `MaxStartups` refusal — so the
//! reproduction's pipeline must be equally explainable: when a scan loses
//! 8% of SSH hosts, telemetry records which stage dropped them, when the
//! supervisor retried, and how long each injected stall lasted.
//!
//! Three pieces, all dependency-free:
//!
//! * **Events** (`Event`, [`EventKind`]) — structured moments keyed to
//!   **simulated time** and a [`Scope`] (protocol, trial, origin).
//!   Library code never reads a wall clock; the only wall-clock numbers
//!   in the system enter through the bench/CLI [`emit_progress`] sink as
//!   pre-measured plain values.
//! * **Metrics** ([`metrics`]) — named counters, gauges, and fixed-bucket
//!   histograms. Hot loops accumulate locally and flush once per scan, so
//!   the shared registry costs one lock per scan, not per probe.
//! * **Sinks** — an in-memory timeline ([`TelemetrySnapshot`]), a JSONL
//!   exporter ([`TelemetrySnapshot::to_jsonl`]), and a human-readable
//!   per-origin summary ([`TelemetrySnapshot::render_summary`]).
//!
//! ## Determinism contract
//!
//! Telemetry output is a pure function of `(seed, origin, trial)` plus
//! the configured fault plan. Two mechanisms make that hold under the
//! experiment runner's thread-per-origin parallelism:
//!
//! 1. every event carries a per-scope sequence number assigned in
//!    emission order (one scope = one scan = one thread, so the per-scope
//!    stream is totally ordered), and
//! 2. snapshots sort events by `(scope, seq)` and keep metrics in
//!    `BTreeMap` order, erasing cross-thread interleaving.
//!
//! The workspace's clippy denies apply here like anywhere else; the
//! stderr progress sink carries the one `print_stderr` escape among the
//! library crates.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

// `pub mod` for the modules the repository benchmark names by path; the
// rest is private and its API is re-exported below.
mod event;
mod json;
pub mod metrics;
pub mod profile;
mod progress;
mod prom;
mod schema;
mod scoped;
pub mod span;

pub use event::{EventKind, Scope};
pub use json::JsonObj;
pub use metrics::{HistogramEntry, MetricEntry};
pub use progress::{emit_progress, FieldValue};
pub use prom::{render_prometheus, PROMETHEUS_CONTENT_TYPE};
pub use schema::describe_schema;
pub use scoped::ScopedTelemetry;
pub use span::{SpanGuard, Tracer};

use event::Event;
use metrics::{Histogram, Registry};
use profile::Profile;
use span::Trace;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Mutex;

/// The shared telemetry hub: every scan, supervisor, and fault layer in
/// one experiment records into a single `Telemetry` behind `&self`.
///
/// Locking discipline: one short lock per *event* (events are rare —
/// checkpoints, faults, lifecycle) and one per metrics *flush* (once per
/// scan). Nothing in a per-probe hot path takes the lock unless a fault
/// is actually being injected on that probe.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    seqs: std::collections::BTreeMap<Scope, u32>,
    registry: Registry,
    /// Scopes currently inside an injected outage window (drives the
    /// started/ended transition events).
    in_outage: BTreeSet<Scope>,
    traces: Vec<TraceEntry>,
    trace_seqs: std::collections::BTreeMap<Scope, u32>,
}

impl Telemetry {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` on the inner state, recovering from a poisoned lock the
    /// same way [`CheckpointStore`] does: a writer that panicked between
    /// two pushes leaves the vectors coherent, so telemetry keeps
    /// accepting records from the supervisor's retry.
    ///
    /// [`CheckpointStore`]: https://docs.rs/originscan-scanner
    fn with_inner<T>(&self, f: impl FnOnce(&mut Inner) -> T) -> T {
        match self.inner.lock() {
            Ok(mut g) => f(&mut g),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }

    /// Record an event at simulated time `time_s`.
    pub fn emit(&self, scope: Scope, time_s: f64, kind: EventKind) {
        self.with_inner(|inner| {
            let seq = inner.seqs.entry(scope).or_insert(0);
            let event = Event {
                scope,
                seq: *seq,
                time_s,
                kind,
            };
            *seq += 1;
            inner.events.push(event);
        });
    }

    /// Add `delta` to a counter.
    pub fn add(&self, scope: Scope, name: &'static str, delta: u64) {
        self.with_inner(|inner| inner.registry.add(scope, name, delta));
    }

    /// Set a gauge.
    pub fn set_gauge(&self, scope: Scope, name: &'static str, value: f64) {
        self.with_inner(|inner| inner.registry.set_gauge(scope, name, value));
    }

    /// Record one observation into a fixed-bucket histogram.
    pub fn observe(&self, scope: Scope, name: &'static str, bounds: &'static [f64], value: f64) {
        self.with_inner(|inner| inner.registry.observe(scope, name, bounds, value));
    }

    /// Track an outage state transition: emits [`EventKind::OutageStarted`]
    /// / [`EventKind::OutageEnded`] exactly when `in_outage` flips for
    /// `scope`. Called by the fault layer on every probe of an origin that
    /// has outage windows configured; untouched origins never reach here.
    pub fn outage_update(&self, scope: Scope, time_s: f64, in_outage: bool) {
        self.with_inner(|inner| {
            let was = inner.in_outage.contains(&scope);
            if in_outage == was {
                return;
            }
            if in_outage {
                inner.in_outage.insert(scope);
            } else {
                inner.in_outage.remove(&scope);
            }
            let kind = if in_outage {
                EventKind::OutageStarted
            } else {
                EventKind::OutageEnded
            };
            let seq = inner.seqs.entry(scope).or_insert(0);
            let event = Event {
                scope,
                seq: *seq,
                time_s,
                kind,
            };
            *seq += 1;
            inner.events.push(event);
        });
    }

    /// Record a finished span [`Trace`] under `scope`, assigning it the
    /// scope's next sequential trace ID (one scope = one scan = one
    /// thread, so per-scope trace order is deterministic). Also bumps
    /// the `trace.*` counters so trace volume shows up in metrics.
    pub(crate) fn record_trace(&self, scope: Scope, trace: Trace) {
        self.with_inner(|inner| {
            let seq = inner.trace_seqs.entry(scope).or_insert(0);
            let trace_id = *seq;
            *seq += 1;
            inner.registry.add(scope, metrics::names::TRACE_TRACES, 1);
            inner
                .registry
                .add(scope, metrics::names::TRACE_SPANS, trace.spans.len() as u64);
            if trace.dropped > 0 {
                inner.registry.add(
                    scope,
                    metrics::names::TRACE_SPANS_DROPPED,
                    u64::from(trace.dropped),
                );
            }
            inner.traces.push(TraceEntry {
                scope,
                trace_id,
                trace,
            });
        });
    }

    /// Merge a locally-accumulated [`MetricBatch`] into the registry in a
    /// single lock acquisition. This is the hot-path contract: a scan
    /// accumulates into plain locals, builds one batch, and flushes once.
    /// A histogram merges with one lookup however many values it holds.
    pub fn flush(&self, scope: Scope, batch: MetricBatch) {
        self.with_inner(|inner| {
            for (name, delta) in batch.counters {
                inner.registry.add(scope, name, delta);
            }
            for (name, value) in batch.gauges {
                inner.registry.set_gauge(scope, name, value);
            }
            for (name, h) in batch.histograms {
                inner.registry.merge(scope, name, &h);
            }
        });
    }

    /// Snapshot the current state (events sorted by `(scope, seq)`,
    /// metrics in key order), leaving the hub untouched.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.with_inner(|inner| {
            let mut events = inner.events.clone();
            events.sort_by_key(|e| (e.scope, e.seq));
            TelemetrySnapshot {
                events,
                counters: inner
                    .registry
                    .counters
                    .iter()
                    .map(|(&(scope, name), &value)| MetricEntry { scope, name, value })
                    .collect(),
                gauges: inner
                    .registry
                    .gauges
                    .iter()
                    .map(|(&(scope, name), &value)| MetricEntry { scope, name, value })
                    .collect(),
                histograms: inner
                    .registry
                    .histograms
                    .iter()
                    .map(|(&(scope, name), h)| HistogramEntry {
                        scope,
                        name,
                        bounds: h.bounds,
                        counts: h.counts.clone(),
                        sum: h.sum,
                    })
                    .collect(),
                traces: {
                    let mut traces = inner.traces.clone();
                    traces.sort_by_key(|t| (t.scope, t.trace_id));
                    traces
                },
            }
        })
    }

    /// Consume the hub into its snapshot.
    pub fn into_snapshot(self) -> TelemetrySnapshot {
        self.snapshot()
    }
}

/// Metrics accumulated locally (no locks) for one scope, to be merged
/// into a [`Telemetry`] hub with one [`Telemetry::flush`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricBatch {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl MetricBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a counter increment (dropped when `delta` is zero, so
    /// untouched counters never appear in snapshots).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if delta > 0 {
            self.counters.push((name, delta));
        }
    }

    /// Queue a gauge write.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.push((name, value));
    }

    /// Fold an observation into the batch's one histogram for `name`.
    /// Flushed into a (scope, name) the hub has not seen, that is
    /// bit-exact with observing the values one by one (`0.0 + s == s`);
    /// a later multi-value batch adds its partial sum, which may round
    /// differently from adding the values singly.
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], value: f64) {
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| *n == name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new(bounds);
            h.observe(value);
            self.histograms.push((name, h));
        }
    }
}

/// One recorded trace with its scope and per-scope sequential ID.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TraceEntry {
    /// The (protocol, trial, origin) the trace belongs to.
    pub(crate) scope: Scope,
    /// Per-scope sequential trace ID (record order).
    pub(crate) trace_id: u32,
    /// The span tree.
    pub(crate) trace: Trace,
}

impl TraceEntry {
    /// One JSONL line per span (trailing newline after every line).
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.trace.spans {
            let mut o = JsonObj::new();
            o.field_str("type", "span");
            o.field_str("proto", self.scope.proto);
            o.field_u64("trial", u64::from(self.scope.trial));
            o.field_u64("origin", u64::from(self.scope.origin));
            o.field_u64("trace", u64::from(self.trace_id));
            o.field_str("clock", self.trace.clock);
            s.fields_into(&mut o);
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

/// An immutable, deterministic view of everything recorded: the in-memory
/// timeline sink. Embedded in `ExperimentResults` so two runs with the
/// same seed carry byte-identical telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// All events, sorted by `(scope, seq)`.
    pub events: Vec<Event>,
    /// All counters, in `(scope, name)` order.
    pub counters: Vec<MetricEntry<u64>>,
    /// All gauges, in `(scope, name)` order.
    pub gauges: Vec<MetricEntry<f64>>,
    /// All histograms, in `(scope, name)` order.
    pub histograms: Vec<HistogramEntry>,
    /// All span traces, sorted by `(scope, trace_id)`.
    pub(crate) traces: Vec<TraceEntry>,
}

impl TelemetrySnapshot {
    /// The event stream as JSONL (one event per line, trailing newline
    /// after every line).
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// The metrics (counters, then gauges, then histograms) as JSONL.
    pub fn metrics_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&c.to_json());
            out.push('\n');
        }
        for g in &self.gauges {
            out.push_str(&g.to_json());
            out.push('\n');
        }
        for h in &self.histograms {
            out.push_str(&h.to_json());
            out.push('\n');
        }
        out
    }

    /// The span traces as JSONL (one span per line).
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.traces {
            out.push_str(&t.to_jsonl());
        }
        out
    }

    /// Full JSONL export: events, then spans, then metrics.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.events_jsonl();
        out.push_str(&self.spans_jsonl());
        out.push_str(&self.metrics_jsonl());
        out
    }

    /// The merged flame-tree profile over every recorded trace.
    pub fn profile(&self) -> Profile {
        Profile::from_traces(self.traces.iter().map(|t| &t.trace))
    }

    /// Look up a counter (0 when never touched).
    pub fn counter(&self, scope: Scope, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.scope == scope && c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Look up a gauge.
    pub fn gauge(&self, scope: Scope, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.scope == scope && g.name == name)
            .map(|g| g.value)
    }

    /// Events belonging to one scope, in emission order.
    pub fn events_for(&self, scope: Scope) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.scope == scope)
    }

    /// Every scope that recorded anything, in canonical order.
    pub(crate) fn scopes(&self) -> Vec<Scope> {
        let mut set: BTreeSet<Scope> = self.events.iter().map(|e| e.scope).collect();
        set.extend(self.counters.iter().map(|c| c.scope));
        set.extend(self.gauges.iter().map(|g| g.scope));
        set.extend(self.histograms.iter().map(|h| h.scope));
        set.extend(self.traces.iter().map(|t| t.scope));
        set.into_iter().collect()
    }

    /// Human-readable per-origin scan summary: one line per scope with
    /// the headline counters, plus its disruption events.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>5} {:>6}  {:>12} {:>10} {:>9} {:>8} {:>8} {:>7}",
            "proto",
            "trial",
            "origin",
            "probes",
            "synacks",
            "val.fail",
            "l7.ok",
            "events",
            "faults"
        );
        let _ = writeln!(out, "{}", "-".repeat(82));
        for scope in self.scopes() {
            let faults = self.counter(scope, metrics::names::FAULT_STALLS)
                + self.counter(scope, metrics::names::FAULT_KILLS)
                + self.counter(scope, metrics::names::FAULT_REPLIES_CORRUPTED)
                + self.counter(scope, metrics::names::FAULT_REPLIES_DUPLICATED)
                + self.counter(scope, metrics::names::FAULT_OUTAGE_SILENCED);
            let _ = writeln!(
                out,
                "{:<6} {:>5} {:>6}  {:>12} {:>10} {:>9} {:>8} {:>8} {:>7}",
                scope.proto,
                scope.trial,
                scope.origin,
                self.counter(scope, metrics::names::PROBES_SENT),
                self.counter(scope, metrics::names::SYNACKS),
                self.counter(scope, metrics::names::VALIDATION_FAILURES),
                self.counter(scope, metrics::names::L7_SUCCESS),
                self.events_for(scope).count(),
                faults,
            );
            for e in self.events_for(scope) {
                if !matches!(
                    e.kind,
                    EventKind::CheckpointSaved { .. }
                        | EventKind::ScanStarted { .. }
                        | EventKind::ScanCompleted { .. }
                ) {
                    let _ = writeln!(out, "    t={:>12.3}s  {}", e.time_s, e.kind.name());
                }
            }
        }
        out
    }
}

#[cfg(test)]
impl TelemetrySnapshot {
    /// Traces belonging to one scope, in trace-ID order.
    fn traces_for(&self, scope: Scope) -> impl Iterator<Item = &TraceEntry> {
        self.traces.iter().filter(move |t| t.scope == scope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;

    fn sc(origin: u16) -> Scope {
        Scope::new("HTTP", 0, origin)
    }

    #[test]
    fn seq_is_per_scope_and_snapshot_sorted() {
        let t = Telemetry::new();
        t.emit(sc(1), 5.0, EventKind::ScanStarted { attempt: 0 });
        t.emit(sc(0), 1.0, EventKind::ScanStarted { attempt: 0 });
        t.emit(
            sc(1),
            9.0,
            EventKind::ScanCompleted {
                addresses_probed: 4,
                duration_s: 9.0,
            },
        );
        let s = t.snapshot();
        let keys: Vec<(u16, u32)> = s.events.iter().map(|e| (e.scope.origin, e.seq)).collect();
        assert_eq!(keys, vec![(0, 0), (1, 0), (1, 1)]);
    }

    #[test]
    fn snapshot_is_insensitive_to_emission_interleaving() {
        // Two hubs fed the same per-scope streams in different global
        // orders serialize identically.
        let a = Telemetry::new();
        let b = Telemetry::new();
        let e0 = EventKind::ScanStarted { attempt: 0 };
        let e1 = EventKind::ScanCompleted {
            addresses_probed: 1,
            duration_s: 2.0,
        };
        a.emit(sc(0), 0.0, e0);
        a.emit(sc(0), 2.0, e1);
        a.emit(sc(1), 0.0, e0);
        b.emit(sc(1), 0.0, e0);
        b.emit(sc(0), 0.0, e0);
        b.emit(sc(0), 2.0, e1);
        a.add(sc(0), names::PROBES_SENT, 3);
        b.add(sc(0), names::PROBES_SENT, 3);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().to_jsonl(), b.snapshot().to_jsonl());
    }

    #[test]
    fn outage_transitions_emit_once_per_flip() {
        let t = Telemetry::new();
        t.outage_update(sc(0), 1.0, false); // no-op: not in outage
        t.outage_update(sc(0), 2.0, true); // started
        t.outage_update(sc(0), 3.0, true); // still inside: no event
        t.outage_update(sc(0), 4.0, false); // ended
        let s = t.snapshot();
        let kinds: Vec<&str> = s.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["outage_started", "outage_ended"]);
        assert_eq!(s.events[0].time_s, 2.0);
        assert_eq!(s.events[1].time_s, 4.0);
    }

    #[test]
    fn summary_renders_headline_counters() {
        let t = Telemetry::new();
        t.add(sc(2), names::PROBES_SENT, 100);
        t.add(sc(2), names::L7_SUCCESS, 42);
        t.emit(sc(2), 7.5, EventKind::PipelineStall { delay_s: 5.0 });
        let text = t.snapshot().render_summary();
        assert!(text.contains("HTTP"), "{text}");
        assert!(text.contains("100"), "{text}");
        assert!(text.contains("pipeline_stall"), "{text}");
    }

    #[test]
    fn batch_flush_merges_in_one_shot() {
        let t = Telemetry::new();
        let mut b = MetricBatch::new();
        b.add(names::PROBES_SENT, 10);
        b.add(names::PROBES_SENT, 5);
        b.add(names::SYNACKS, 0); // dropped: zero deltas never surface
        b.set_gauge(names::DURATION_SECONDS, 3.5);
        b.observe(names::L7_ATTEMPTS, metrics::L7_ATTEMPT_BOUNDS, 1.0);
        t.flush(sc(0), b);
        let s = t.snapshot();
        assert_eq!(s.counter(sc(0), names::PROBES_SENT), 15);
        assert!(!s.counters.iter().any(|c| c.name == names::SYNACKS));
        assert_eq!(s.gauge(sc(0), names::DURATION_SECONDS), Some(3.5));
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].counts.iter().sum::<u64>(), 1);
    }

    #[test]
    fn a_flushed_batch_is_its_values_observed_one_by_one() {
        // Two histograms interleaved, values past the last bound, a NaN.
        let frac = [0.05, 0.95, 3.0, 0.1, 0.7, 0.2];
        let attempts = [1.0, f64::NAN, 12.0, 2.0, 1e300, 4.5];
        let (batched, single) = (Telemetry::new(), Telemetry::new());
        let mut b = MetricBatch::new();
        for (&f, &a) in frac.iter().zip(&attempts) {
            for (name, bounds, v) in [
                (names::RESPONSE_FRAC, metrics::RESPONSE_FRAC_BOUNDS, f),
                (names::L7_ATTEMPTS, metrics::L7_ATTEMPT_BOUNDS, a),
            ] {
                b.observe(name, bounds, v);
                single.observe(sc(0), name, bounds, v);
            }
        }
        batched.flush(sc(0), b);
        let (got, want) = (batched.snapshot(), single.snapshot());
        assert_eq!(got.histograms.len(), 2);
        for (g, w) in got.histograms.iter().zip(&want.histograms) {
            assert_eq!((g.name, g.bounds, &g.counts), (w.name, w.bounds, &w.counts));
            assert_eq!(g.sum.to_bits(), w.sum.to_bits(), "{}", g.name);
        }
        assert_eq!(got.metrics_jsonl(), want.metrics_jsonl());
    }

    #[test]
    fn a_later_batch_adds_its_partial_sum() {
        let bounds = metrics::RESPONSE_FRAC_BOUNDS;
        let t = Telemetry::new();
        let mut first = MetricBatch::new();
        first.observe(names::RESPONSE_FRAC, bounds, 0.1);
        t.flush(sc(0), first);
        let mut second = MetricBatch::new();
        second.observe(names::RESPONSE_FRAC, bounds, 0.2);
        second.observe(names::RESPONSE_FRAC, bounds, 0.3);
        t.flush(sc(0), second);
        let h = &t.snapshot().histograms[0];
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
        // 0.1 + (0.2 + 0.3), not (0.1 + 0.2) + 0.3: the last bit differs.
        assert_eq!(h.sum.to_bits(), (0.1 + (0.2 + 0.3f64)).to_bits());
        assert_ne!(h.sum.to_bits(), (0.1 + 0.2 + 0.3f64).to_bits());
    }

    #[test]
    fn traces_get_per_scope_ids_and_sorted_snapshots() {
        let build = |interleave: bool| {
            let t = Telemetry::new();
            let mk = |name| {
                let tr = Tracer::sim();
                tr.set_time(1.0);
                tr.instant(name);
                tr.finish()
            };
            if interleave {
                t.record_trace(sc(1), mk("b"));
                t.record_trace(sc(0), mk("a"));
            } else {
                t.record_trace(sc(0), mk("a"));
                t.record_trace(sc(1), mk("b"));
            }
            t.record_trace(sc(0), mk("c"));
            t.snapshot()
        };
        let s1 = build(false);
        let s2 = build(true);
        // Cross-scope interleaving is erased by per-scope IDs + sorting.
        assert_eq!(s1, s2);
        assert_eq!(s1.spans_jsonl(), s2.spans_jsonl());
        let ids: Vec<(u16, u32)> = s1
            .traces
            .iter()
            .map(|t| (t.scope.origin, t.trace_id))
            .collect();
        assert_eq!(ids, vec![(0, 0), (0, 1), (1, 0)]);
        assert_eq!(s1.counter(sc(0), names::TRACE_TRACES), 2);
        assert_eq!(s1.counter(sc(0), names::TRACE_SPANS), 2);
        let line = s1.spans_jsonl();
        assert!(
            line.starts_with(
                "{\"type\":\"span\",\"proto\":\"HTTP\",\"trial\":0,\"origin\":0,\
                 \"trace\":0,\"clock\":\"sim\",\"span\":0,\"name\":\"a\",\"start\":1.0,\"end\":1.0}"
            ),
            "{line}"
        );
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        let s = Telemetry::new().snapshot();
        assert_eq!(s.counter(sc(0), names::PROBES_SENT), 0);
        assert_eq!(s.gauge(sc(0), names::DURATION_SECONDS), None);
        assert!(s.scopes().is_empty());
    }
}
