//! One unit of work's view of the hub.
//!
//! A scan attempt (or a supervised origin) records events, metrics and
//! one sim-clock span trace under a single [`Scope`], and telemetry may
//! be off altogether. [`ScopedTelemetry`] bundles optional hub, scope and
//! tracer so callers write `tele.emit(..)` unconditionally: with no hub
//! every method returns at once.

use crate::{EventKind, MetricBatch, Scope, SpanGuard, Telemetry, Tracer};

/// A hub handle bound to one [`Scope`], with its own sim-clock trace.
#[derive(Debug)]
pub struct ScopedTelemetry<'a> {
    scope: Scope,
    on: Option<(&'a Telemetry, Tracer)>,
}

impl<'a> ScopedTelemetry<'a> {
    /// Bind `scope` to `hub`; `None` makes every method a no-op.
    pub fn new(hub: Option<&'a Telemetry>, scope: Scope) -> Self {
        Self {
            scope,
            on: hub.map(|hub| (hub, Tracer::sim())),
        }
    }

    /// Record an event at simulated time `time_s`.
    pub fn emit(&self, time_s: f64, kind: EventKind) {
        if let Some((hub, _)) = &self.on {
            hub.emit(self.scope, time_s, kind);
        }
    }

    /// Add `delta` to a counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some((hub, _)) = &self.on {
            hub.add(self.scope, name, delta);
        }
    }

    /// Set a gauge.
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        if let Some((hub, _)) = &self.on {
            hub.set_gauge(self.scope, name, value);
        }
    }

    /// Build a batch and merge it in one lock acquisition; `build` never
    /// runs when telemetry is off, so it may walk whole outputs.
    pub fn flush_with(&self, build: impl FnOnce() -> MetricBatch) {
        if let Some((hub, _)) = &self.on {
            hub.flush(self.scope, build());
        }
    }

    /// Advance the trace's simulated clock (never backwards).
    pub fn set_time(&self, t: f64) {
        if let Some((_, tracer)) = &self.on {
            tracer.set_time(t);
        }
    }

    /// Open a span at the current clock reading; see [`Tracer::span`].
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.on.as_ref().map(|(_, tracer)| tracer.span(name))
    }

    /// Record an already-measured closed span; see [`Tracer::record_span`].
    pub fn record_span(&self, name: &'static str, start_s: f64, end_s: f64) {
        if let Some((_, tracer)) = &self.on {
            tracer.record_span(name, start_s, end_s);
        }
    }

    /// End the unit of work at `end_s`: advance the clock there, close
    /// every span still open (their guards may drop later, harmlessly)
    /// and record the trace into the hub. Every exit that should leave a
    /// trace behind — completion, an injected kill, a supervisor giving
    /// up — is this one call.
    pub fn finish(&self, end_s: f64) {
        if let Some((hub, tracer)) = &self.on {
            tracer.set_time(end_s);
            hub.record_trace(self.scope, tracer.drain());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;

    fn scope() -> Scope {
        Scope::new("HTTP", 0, 3)
    }

    #[test]
    fn records_under_its_scope_and_finish_closes_open_spans() {
        let hub = Telemetry::new();
        let tele = ScopedTelemetry::new(Some(&hub), scope());
        tele.emit(0.0, EventKind::ScanStarted { attempt: 0 });
        tele.add(names::FAULT_KILLS, 1);
        tele.set_gauge(names::DURATION_SECONDS, 9.0);
        tele.flush_with(|| {
            let mut b = MetricBatch::new();
            b.add(names::PROBES_SENT, 7);
            b
        });
        let _scan = tele.span("scan");
        tele.record_span("permute", 0.0, 0.0);
        let probe = tele.span("probe");
        tele.set_time(4.0);
        drop(probe);
        tele.record_span("stall", 4.0, 6.0);
        tele.finish(9.0);

        let snap = hub.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.counter(scope(), names::FAULT_KILLS), 1);
        assert_eq!(snap.counter(scope(), names::PROBES_SENT), 7);
        assert_eq!(snap.gauge(scope(), names::DURATION_SECONDS), Some(9.0));
        let traces: Vec<_> = snap.traces_for(scope()).collect();
        assert_eq!(traces.len(), 1);
        let spans: Vec<_> = traces[0]
            .trace
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.start_s, s.end_s))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("scan", None, 0.0, 9.0),
                ("permute", Some(0), 0.0, 0.0),
                ("probe", Some(0), 0.0, 4.0),
                ("stall", Some(0), 4.0, 6.0),
            ]
        );
    }

    #[test]
    fn without_a_hub_nothing_runs() {
        let tele = ScopedTelemetry::new(None, scope());
        tele.emit(1.0, EventKind::ScanStarted { attempt: 0 });
        tele.add(names::FAULT_KILLS, 1);
        tele.flush_with(|| panic!("batch built with telemetry off"));
        assert!(tele.span("scan").is_none());
        tele.set_time(2.0);
        tele.finish(3.0);
    }
}
