//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, keyed by [`Scope`].
//!
//! Hot paths never touch this module directly — the engine accumulates
//! plain local counters and flushes them in one call at scan completion,
//! so the registry costs one lock acquisition per *scan*, not per probe.
//! Histogram bucket boundaries are compile-time constants (see
//! [`RESPONSE_FRAC_BOUNDS`] and friends), so serialized histograms are
//! identical across platforms by construction.

use crate::event::Scope;
use crate::json::JsonObj;
use std::collections::BTreeMap;

/// Fraction-of-scan-duration buckets for first-response times. Using
/// fractions (not seconds) keeps one bucket set meaningful for a 21-hour
/// paper trial and a 20-second unit test alike.
pub const RESPONSE_FRAC_BOUNDS: &[f64] = &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Buckets for L7 attempt counts (paper §6 sweeps 0..8 retries).
pub const L7_ATTEMPT_BOUNDS: &[f64] = &[1.5, 2.5, 4.5, 8.5];

/// Simulated-second buckets for fault stalls and supervisor backoff.
pub const STALL_BOUNDS: &[f64] = &[1.0, 10.0, 60.0, 300.0, 900.0, 3600.0];

/// Microsecond buckets for serve query latency (spans a cached point
/// lookup to a cold multi-origin union over a large store).
pub const SERVE_LATENCY_BOUNDS: &[f64] = &[
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 50000.0, 250000.0,
];

/// Canonical metric names. Instrumentation sites use these constants so
/// the schema golden test pins the full metric catalogue.
pub mod names {
    /// SYN probes sent (counter).
    pub const PROBES_SENT: &str = "scan.probes_sent";
    /// Addresses probed after blocklist and sharding (counter).
    pub const ADDRESSES_PROBED: &str = "scan.addresses_probed";
    /// Addresses skipped by the blocklist (counter).
    pub const BLOCKLIST_SKIPS: &str = "scan.blocklist_skips";
    /// Validated SYN-ACKs received (counter).
    pub const SYNACKS: &str = "scan.synacks";
    /// Replies that failed stateless validation (counter).
    pub const VALIDATION_FAILURES: &str = "scan.validation_failures";
    /// Hosts that produced any validated response (counter).
    pub const RESPONSIVE_HOSTS: &str = "scan.responsive_hosts";
    /// Hosts whose application handshake completed (counter).
    pub const L7_SUCCESS: &str = "scan.l7.success";
    /// Hosts whose connection was closed without data (counter).
    pub const L7_CONN_CLOSED: &str = "scan.l7.conn_closed";
    /// Hosts whose application connection timed out (counter).
    pub const L7_TIMEOUT: &str = "scan.l7.timeout";
    /// Hosts that answered with an unparsable payload (counter).
    pub const L7_PROTOCOL_ERROR: &str = "scan.l7.protocol_error";
    /// Periodic resumable checkpoints written (counter).
    pub const CHECKPOINT_WRITES: &str = "scan.checkpoint_writes";
    /// Simulated scan duration in seconds (gauge).
    pub const DURATION_SECONDS: &str = "scan.duration_s";
    /// Accumulated pipeline-stall seconds (gauge).
    pub const STALL_SECONDS: &str = "scan.stall_s";
    /// First-response time as a fraction of scan duration (histogram,
    /// [`super::RESPONSE_FRAC_BOUNDS`]).
    pub const RESPONSE_FRAC: &str = "scan.response_frac";
    /// L7 attempts per responsive host (histogram,
    /// [`super::L7_ATTEMPT_BOUNDS`]).
    pub const L7_ATTEMPTS: &str = "scan.l7_attempts";
    /// Supervised attempts consumed (counter).
    pub const SUP_ATTEMPTS: &str = "supervisor.attempts";
    /// Retries after failed attempts (counter).
    pub const SUP_RETRIES: &str = "supervisor.retries";
    /// Simulated seconds spent in retry backoff (gauge).
    pub const SUP_BACKOFF_SECONDS: &str = "supervisor.backoff_s";
    /// Injected pipeline stalls (counter).
    pub const FAULT_STALLS: &str = "fault.stalls";
    /// Injected scan kills (counter).
    pub const FAULT_KILLS: &str = "fault.kills";
    /// Injected stall durations in simulated seconds (histogram,
    /// [`super::STALL_BOUNDS`]).
    pub const FAULT_STALL_SECONDS: &str = "fault.stall_seconds";
    /// Replies corrupted in flight by the fault layer (counter).
    pub const FAULT_REPLIES_CORRUPTED: &str = "fault.replies_corrupted";
    /// Replies replaced by a duplicate of the previous probe's (counter).
    pub const FAULT_REPLIES_DUPLICATED: &str = "fault.replies_duplicated";
    /// SYN probes silenced by an injected outage window (counter).
    pub const FAULT_OUTAGE_SILENCED: &str = "fault.outage_probes_silenced";
    /// L7 connections timed out inside an outage window (counter).
    pub const FAULT_OUTAGE_L7_TIMEOUTS: &str = "fault.outage_l7_timeouts";
    /// Scan-set store entries serialized (counter).
    pub const STORE_ENTRIES_WRITTEN: &str = "store.entries_written";
    /// Compressed containers serialized across all entries (counter).
    pub const STORE_CONTAINERS_WRITTEN: &str = "store.containers_written";
    /// Store file bytes written (counter).
    pub const STORE_BYTES_WRITTEN: &str = "store.bytes_written";
    /// Store entries whose directory was opened by a reader (counter).
    pub const STORE_ENTRIES_LOADED: &str = "store.entries_loaded";
    /// Chunk payloads loaded and checksum-verified (counter).
    pub const STORE_CHUNKS_LOADED: &str = "store.chunks_loaded";
    /// Store file bytes read (counter).
    pub const STORE_BYTES_READ: &str = "store.bytes_read";
    /// Queries executed by the serve engine (counter).
    pub const SERVE_QUERIES: &str = "serve.queries";
    /// Queries answered from the memoized-plan cache (counter).
    pub const SERVE_PLAN_HITS: &str = "serve.plan_hits";
    /// Materialized scan sets served from the bitmap cache (counter).
    pub const SERVE_SET_HITS: &str = "serve.set_hits";
    /// Scan sets materialized from the store on a cache miss (counter).
    pub const SERVE_SET_LOADS: &str = "serve.set_loads";
    /// Queries that ended in a [`crate::event::Scope`]-visible error (counter).
    pub const SERVE_ERRORS: &str = "serve.errors";
    /// HTTP requests accepted off the listener (counter).
    pub const SERVE_HTTP_REQUESTS: &str = "serve.http.requests";
    /// HTTP requests rejected with 503 under backpressure (counter).
    pub const SERVE_HTTP_REJECTED: &str = "serve.http.rejected";
    /// Query latency in microseconds (histogram,
    /// [`super::SERVE_LATENCY_BOUNDS`]).
    pub const SERVE_LATENCY_US: &str = "serve.latency_us";
    /// Defender rate-detector trips against this origin (counter).
    pub const DEFENDER_DETECTIONS: &str = "defender.detections";
    /// SYN probes swallowed or reset by an active block window (counter).
    pub const DEFENDER_BLOCKED_PROBES: &str = "defender.blocked_probes";
    /// SYN probes dropped because the origin is reputation-listed (counter).
    pub const DEFENDER_REPUTATION_DROPS: &str = "defender.reputation_drops";
    /// Origins newly listed by the reputation store (counter).
    pub const DEFENDER_LISTINGS: &str = "defender.listings";
    /// Adaptive-controller rate backoffs engaged (counter).
    pub const ADAPT_BACKOFFS: &str = "adapt.backoffs";
    /// Adaptive-controller backoff levels recovered (counter).
    pub const ADAPT_RECOVERIES: &str = "adapt.recoveries";
    /// Adaptive-controller source-IP rotations (counter).
    pub const ADAPT_ROTATIONS: &str = "adapt.rotations";
    /// Addresses deferred to the end-of-scan retry pass (counter).
    pub const ADAPT_DEFERRED_ADDRESSES: &str = "adapt.deferred_addresses";
    /// Final rate multiplier when the scan completed (gauge).
    pub const ADAPT_RATE_MULT: &str = "adapt.rate_mult";
    /// Span traces recorded into the hub (counter).
    pub(crate) const TRACE_TRACES: &str = "trace.traces";
    /// Spans across all recorded traces (counter).
    pub(crate) const TRACE_SPANS: &str = "trace.spans";
    /// Spans discarded after the per-trace cap (counter).
    pub(crate) const TRACE_SPANS_DROPPED: &str = "trace.spans_dropped";
    /// Bitmap kernel invocations charged by the serve engine (counter).
    pub const STORE_KERNEL_OPS: &str = "store.kernel_ops";
    /// Machine words of compressed container payload walked by those
    /// kernels — the engine's work-unit cost model (counter).
    pub const STORE_KERNEL_WORDS: &str = "store.kernel_words";
    /// Addresses skipped because they fall outside the target plan
    /// (counter).
    pub const PLAN_SKIPS: &str = "plan.skips";
    /// /24s admitted by the scan's target plan (gauge).
    pub const PLAN_PLANNED_S24S: &str = "plan.planned_s24s";
    /// Addresses admitted by the scan's target plan (gauge).
    pub const PLAN_PLANNED_ADDRESSES: &str = "plan.planned_addresses";

    /// The full catalogue as (name, record type) pairs, in serialization
    /// order. Pinned by the schema golden test.
    pub(crate) const ALL: &[(&str, &str)] = &[
        (PROBES_SENT, "counter"),
        (ADDRESSES_PROBED, "counter"),
        (BLOCKLIST_SKIPS, "counter"),
        (SYNACKS, "counter"),
        (VALIDATION_FAILURES, "counter"),
        (RESPONSIVE_HOSTS, "counter"),
        (L7_SUCCESS, "counter"),
        (L7_CONN_CLOSED, "counter"),
        (L7_TIMEOUT, "counter"),
        (L7_PROTOCOL_ERROR, "counter"),
        (CHECKPOINT_WRITES, "counter"),
        (DURATION_SECONDS, "gauge"),
        (STALL_SECONDS, "gauge"),
        (RESPONSE_FRAC, "histogram"),
        (L7_ATTEMPTS, "histogram"),
        (SUP_ATTEMPTS, "counter"),
        (SUP_RETRIES, "counter"),
        (SUP_BACKOFF_SECONDS, "gauge"),
        (FAULT_STALLS, "counter"),
        (FAULT_KILLS, "counter"),
        (FAULT_STALL_SECONDS, "histogram"),
        (FAULT_REPLIES_CORRUPTED, "counter"),
        (FAULT_REPLIES_DUPLICATED, "counter"),
        (FAULT_OUTAGE_SILENCED, "counter"),
        (FAULT_OUTAGE_L7_TIMEOUTS, "counter"),
        (STORE_ENTRIES_WRITTEN, "counter"),
        (STORE_CONTAINERS_WRITTEN, "counter"),
        (STORE_BYTES_WRITTEN, "counter"),
        (STORE_ENTRIES_LOADED, "counter"),
        (STORE_CHUNKS_LOADED, "counter"),
        (STORE_BYTES_READ, "counter"),
        (SERVE_QUERIES, "counter"),
        (SERVE_PLAN_HITS, "counter"),
        (SERVE_SET_HITS, "counter"),
        (SERVE_SET_LOADS, "counter"),
        (SERVE_ERRORS, "counter"),
        (SERVE_HTTP_REQUESTS, "counter"),
        (SERVE_HTTP_REJECTED, "counter"),
        (SERVE_LATENCY_US, "histogram"),
        (DEFENDER_DETECTIONS, "counter"),
        (DEFENDER_BLOCKED_PROBES, "counter"),
        (DEFENDER_REPUTATION_DROPS, "counter"),
        (DEFENDER_LISTINGS, "counter"),
        (ADAPT_BACKOFFS, "counter"),
        (ADAPT_RECOVERIES, "counter"),
        (ADAPT_ROTATIONS, "counter"),
        (ADAPT_DEFERRED_ADDRESSES, "counter"),
        (ADAPT_RATE_MULT, "gauge"),
        (TRACE_TRACES, "counter"),
        (TRACE_SPANS, "counter"),
        (TRACE_SPANS_DROPPED, "counter"),
        (STORE_KERNEL_OPS, "counter"),
        (STORE_KERNEL_WORDS, "counter"),
        (PLAN_SKIPS, "counter"),
        (PLAN_PLANNED_S24S, "gauge"),
        (PLAN_PLANNED_ADDRESSES, "gauge"),
    ];
}

/// A fixed-bucket histogram: `counts[i]` counts observations `v` with
/// `bounds[i-1] <= v < bounds[i]` (first bucket: `v < bounds[0]`; last
/// bucket: overflow).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket boundaries (compile-time constants, strictly
    /// increasing).
    pub(crate) bounds: &'static [f64],
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub(crate) counts: Vec<u64>,
    /// Sum of all observed values (Prometheus `_sum`).
    pub(crate) sum: f64,
}

impl Histogram {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
        }
    }

    /// Record one observation. Values at or past the last bound (and
    /// non-finite values) saturate into the overflow bucket.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value < b)
            .unwrap_or(self.bounds.len());
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot = slot.saturating_add(1);
        }
        self.sum += value;
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimate the `p`-quantile (`0.0..=1.0`) from the fixed buckets by
    /// linear interpolation inside the bucket holding the target rank.
    /// The underflow bucket interpolates from 0; the overflow bucket
    /// saturates at the last bound (the buckets carry no upper limit).
    /// Returns 0 for an empty histogram.
    #[expect(clippy::cast_possible_truncation, reason = "a rank in 1..=total")]
    pub fn percentile(&self, p: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            let before = cum;
            cum += count;
            if cum < target || count == 0 {
                continue;
            }
            if i == self.bounds.len() {
                // Overflow bucket: no upper bound to interpolate toward.
                return self.bounds.last().copied().unwrap_or(0.0);
            }
            let lower = if i == 0 {
                0.0
            } else {
                self.bounds.get(i - 1).copied().unwrap_or(0.0)
            };
            let upper = self.bounds.get(i).copied().unwrap_or(lower);
            let into = (target - before) as f64 / count as f64;
            return lower + (upper - lower) * into;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

/// The registry proper: three ordered maps keyed by `(scope, name)`.
/// BTreeMaps keep snapshot order reproducible without a sort.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Registry {
    pub(crate) counters: BTreeMap<(Scope, &'static str), u64>,
    pub(crate) gauges: BTreeMap<(Scope, &'static str), f64>,
    pub(crate) histograms: BTreeMap<(Scope, &'static str), Histogram>,
}

impl Registry {
    pub(crate) fn add(&mut self, scope: Scope, name: &'static str, delta: u64) {
        *self.counters.entry((scope, name)).or_insert(0) += delta;
    }

    pub(crate) fn set_gauge(&mut self, scope: Scope, name: &'static str, value: f64) {
        self.gauges.insert((scope, name), value);
    }

    pub(crate) fn observe(
        &mut self,
        scope: Scope,
        name: &'static str,
        bounds: &'static [f64],
        value: f64,
    ) {
        self.histograms
            .entry((scope, name))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Merge a batch's histogram: counts add and sums add.
    pub(crate) fn merge(&mut self, scope: Scope, name: &'static str, h: &Histogram) {
        let into = self
            .histograms
            .entry((scope, name))
            .or_insert_with(|| Histogram::new(h.bounds));
        for (c, add) in into.counts.iter_mut().zip(&h.counts) {
            *c = c.saturating_add(*add);
        }
        into.sum += h.sum;
    }
}

/// One counter or gauge in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricEntry<T> {
    /// The (protocol, trial, origin) the metric belongs to.
    pub(crate) scope: Scope,
    /// Metric name (one of [`names`]).
    pub name: &'static str,
    /// Its value at snapshot time.
    pub value: T,
}

impl MetricEntry<u64> {
    /// Serialize as one JSONL line (no trailing newline).
    pub(crate) fn to_json(self) -> String {
        let mut o = scoped_obj("counter", self.scope, self.name);
        o.field_u64("value", self.value);
        o.finish()
    }
}

impl MetricEntry<f64> {
    /// Serialize as one JSONL line (no trailing newline).
    pub(crate) fn to_json(self) -> String {
        let mut o = scoped_obj("gauge", self.scope, self.name);
        o.field_f64("value", self.value);
        o.finish()
    }
}

/// One histogram in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramEntry {
    /// The (protocol, trial, origin) the histogram belongs to.
    pub(crate) scope: Scope,
    /// Histogram name (one of [`names`]).
    pub name: &'static str,
    /// Upper bucket boundaries.
    pub(crate) bounds: &'static [f64],
    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub(crate) sum: f64,
}

impl HistogramEntry {
    /// Serialize as one JSONL line (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        let mut o = scoped_obj("histogram", self.scope, self.name);
        o.field_f64_array("bounds", self.bounds);
        o.field_u64_array("counts", &self.counts);
        o.field_f64("sum", self.sum);
        o.finish()
    }
}

fn scoped_obj(ty: &str, scope: Scope, name: &str) -> JsonObj {
    let mut o = JsonObj::new();
    o.field_str("type", ty);
    o.field_str("proto", scope.proto);
    o.field_u64("trial", u64::from(scope.trial));
    o.field_u64("origin", u64::from(scope.origin));
    o.field_str("name", name);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> Scope {
        Scope::new("HTTP", 0, 1)
    }

    #[test]
    fn histogram_bucket_edges() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 1 (left-closed on the boundary)
        h.observe(1.5); // bucket 1
        h.observe(9.0); // overflow
        assert_eq!(h.counts, vec![1, 2, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn registry_accumulates() {
        let mut r = Registry::default();
        r.add(sc(), names::PROBES_SENT, 2);
        r.add(sc(), names::PROBES_SENT, 3);
        r.set_gauge(sc(), names::DURATION_SECONDS, 9.5);
        r.observe(sc(), names::RESPONSE_FRAC, RESPONSE_FRAC_BOUNDS, 0.42);
        assert_eq!(r.counters[&(sc(), names::PROBES_SENT)], 5);
        assert_eq!(r.gauges[&(sc(), names::DURATION_SECONDS)], 9.5);
        assert_eq!(r.histograms[&(sc(), names::RESPONSE_FRAC)].total(), 1);
    }

    #[test]
    fn metric_json_shapes() {
        let c = MetricEntry {
            scope: sc(),
            name: names::SYNACKS,
            value: 7u64,
        };
        assert_eq!(
            c.to_json(),
            "{\"type\":\"counter\",\"proto\":\"HTTP\",\"trial\":0,\"origin\":1,\
             \"name\":\"scan.synacks\",\"value\":7}"
        );
        let h = HistogramEntry {
            scope: sc(),
            name: names::L7_ATTEMPTS,
            bounds: &[1.5],
            counts: vec![4, 0],
            sum: 4.0,
        };
        assert_eq!(
            h.to_json(),
            "{\"type\":\"histogram\",\"proto\":\"HTTP\",\"trial\":0,\"origin\":1,\
             \"name\":\"scan.l7_attempts\",\"bounds\":[1.5],\"counts\":[4,0],\"sum\":4.0}"
        );
    }

    #[test]
    fn histogram_values_exactly_on_bounds_go_right() {
        // Buckets are left-closed on the boundary: an observation equal
        // to bounds[i] lands in bucket i+1, for every boundary.
        let mut h = Histogram::new(&[10.0, 20.0, 30.0]);
        h.observe(10.0);
        h.observe(20.0);
        h.observe(30.0);
        assert_eq!(h.counts, vec![0, 1, 1, 1]);
        assert_eq!(h.sum, 60.0);
    }

    #[test]
    fn histogram_overflow_bucket_saturates() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(1.0); // on the last bound → overflow
        h.observe(1e300); // far past it → overflow
        h.observe(f64::INFINITY); // non-finite → overflow
        h.observe(f64::NAN); // NaN compares false on `<` → overflow
        assert_eq!(h.counts, vec![0, 4]);
        // A saturated overflow count stays at u64::MAX instead of
        // wrapping.
        h.counts[1] = u64::MAX;
        h.observe(2.0);
        assert_eq!(h.counts[1], u64::MAX);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let mut h = Histogram::new(&[100.0, 200.0]);
        for _ in 0..10 {
            h.observe(150.0); // all ten in (100, 200]
        }
        // Rank math: p50 → 5th of 10 in a bucket spanning 100..200.
        assert_eq!(h.percentile(0.5), 150.0);
        assert_eq!(h.percentile(1.0), 200.0);
        assert_eq!(h.percentile(0.0), 110.0, "rank clamps to 1");
    }

    #[test]
    fn percentile_edges() {
        let empty = Histogram::new(&[1.0, 2.0]);
        assert_eq!(empty.percentile(0.5), 0.0);

        // Everything in the overflow bucket saturates to the last bound.
        let mut over = Histogram::new(&[1.0, 2.0]);
        over.observe(50.0);
        assert_eq!(over.percentile(0.5), 2.0);
        assert_eq!(over.percentile(0.99), 2.0);

        // Underflow bucket interpolates from zero.
        let mut under = Histogram::new(&[8.0]);
        under.observe(0.1);
        under.observe(0.2);
        assert_eq!(under.percentile(0.5), 4.0);

        // Mixed: 9 fast, 1 slow — p50 in the first bucket, p99 in the
        // overflow.
        let mut mixed = Histogram::new(&[10.0]);
        for _ in 0..9 {
            mixed.observe(1.0);
        }
        mixed.observe(100.0);
        assert!(mixed.percentile(0.5) < 10.0);
        assert_eq!(mixed.percentile(0.99), 10.0);
    }

    #[test]
    fn bucket_boundaries_are_the_documented_constants() {
        // The exact values are part of the serialized telemetry contract:
        // any change must be deliberate and shows up in the schema golden.
        assert_eq!(
            RESPONSE_FRAC_BOUNDS,
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        );
        assert_eq!(L7_ATTEMPT_BOUNDS, &[1.5, 2.5, 4.5, 8.5]);
        assert_eq!(STALL_BOUNDS, &[1.0, 10.0, 60.0, 300.0, 900.0, 3600.0]);
    }
}
