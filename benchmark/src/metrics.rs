//! Every metric the benchmark prints, by name and unit. `BENCHMARK.json`
//! at the repository root lists the same names with their direction and
//! (for end-to-end metrics) regression bound; a unit test keeps the two
//! in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a user of the system sees. Every workload reports all of them.
///
/// * `setup_s` — world build, input generation, store write/open,
///   server start, memo warm: median of five set-ups.
/// * `pass_ms` — wall time of one pass of the workload: the fastest
///   pass of the run (see `harness::fastest` for why not the median).
/// * `throughput` — the workload's primary work per second inside the
///   calls that do it, best pass of the run: probes sent (`study`,
///   `scan_single`, `resilience`), set members written and read
///   (`store_roundtrip`), requests answered correctly (`serve_*`).
/// * `cpu_ms` — user + system CPU per pass, all threads (the run's
///   CPU-to-wall ratio times `pass_ms`): what a pass costs, where
///   `pass_ms` is how long it takes.
/// * `peak_rss_mb` — the process's resident-set high-water mark.
pub const END_TO_END: &[MetricDef] = &[
    lo("setup_s", "s"),
    lo("pass_ms", "ms"),
    hi("throughput", "1/s"),
    lo("cpu_ms", "ms"),
    lo("peak_rss_mb", "MiB"),
];

/// Single layers, from the traced run. Names follow the crates. A
/// workload that never enters a layer reports 0 for the metrics its own
/// trace would have produced; probe metrics ("lab", see `layers.rs`)
/// read the same in every workload's traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // The harness itself.
    hi("bench.calib_steps_per_s", "1/s"),
    lo("bench.trace_overhead_ratio", "ratio"),
    hi("bench.stage_coverage", "ratio"),
    // Where a traced pass's time went: self time per layer over the
    // pass (or, when serving, over the server's request spans).
    lo("share.scan_loop", "ratio"),
    lo("share.core_analysis", "ratio"),
    lo("share.scanner_output", "ratio"),
    lo("share.netmodel_setup", "ratio"),
    lo("share.store", "ratio"),
    lo("share.plan", "ratio"),
    lo("share.serve_engine", "ratio"),
    lo("share.serve_http", "ratio"),
    lo("share.bench", "ratio"),
    // netmodel
    lo("netmodel.world_build_ms", "ms"),
    lo("netmodel.simnet_new_ns", "ns"),
    lo("netmodel.syn_ns", "ns"),
    lo("netmodel.l7_ns", "ns"),
    lo("netmodel.icmp_ns", "ns"),
    lo("netmodel.udp_ns", "ns"),
    lo("netmodel.defender_syn_ns", "ns"),
    // scanner
    hi("scanner.cyclic.steps_per_s", "1/s"),
    hi("scanner.cyclic.shard_steps_per_s", "1/s"),
    lo("scanner.blocklist.contains_ns", "ns"),
    lo("scanner.probe.tcp_deliver_ns", "ns"),
    lo("scanner.probe.icmp_deliver_ns", "ns"),
    lo("scanner.probe.dns_deliver_ns", "ns"),
    lo("scanner.probe.tcp_wirecheck_ns", "ns"),
    hi("scanner.engine.http_probes_per_s", "1/s"),
    hi("scanner.engine.https_probes_per_s", "1/s"),
    hi("scanner.engine.ssh_probes_per_s", "1/s"),
    hi("scanner.engine.icmp_probes_per_s", "1/s"),
    hi("scanner.engine.dns_probes_per_s", "1/s"),
    hi("scanner.engine.wirecheck_probes_per_s", "1/s"),
    hi("scanner.engine.planned_probes_per_s", "1/s"),
    hi("scanner.engine.sharded_probes_per_s", "1/s"),
    lo("scanner.engine.overhead_ns_per_probe", "ns"),
    hi("scanner.engine.supervised_probes_per_s", "1/s"),
    lo("scanner.engine.checkpoint_overhead_ratio", "ratio"),
    lo("scanner.engine.telemetry_overhead_ratio", "ratio"),
    hi("scanner.engine.adaptive_probes_per_s", "1/s"),
    lo("scanner.engine.resume_s", "s"),
    hi("scanner.engine.hit_ratio", "ratio"),
    lo("scanner.engine.invalid_ratio", "ratio"),
    hi("scanner.output.csv_mb_per_s", "MB/s"),
    lo("scanner.output.scanset_ms", "ms"),
    // wire
    lo("wire.tcp_emit_ns", "ns"),
    lo("wire.tcp_parse_ns", "ns"),
    lo("wire.validator_seq_ns", "ns"),
    lo("wire.validator_check_ns", "ns"),
    hi("wire.checksum_mb_per_s", "MB/s"),
    lo("wire.icmp_roundtrip_ns", "ns"),
    lo("wire.dns_roundtrip_ns", "ns"),
    // core
    lo("core.experiment.run_s", "s"),
    hi("core.experiment.scans", "count"),
    hi("core.experiment.probes", "count"),
    lo("core.experiment.cpu_s", "s"),
    hi("core.experiment.parallel_speedup", "ratio"),
    lo("core.experiment.faulted_run_s", "s"),
    lo("core.experiment.retries", "count"),
    lo("core.adversarial.sweep_s", "s"),
    lo("core.results.store_build_ms", "ms"),
    lo("core.report.full_report_ms", "ms"),
    lo("core.report.coverage_ms", "ms"),
    lo("core.report.classify_ms", "ms"),
    lo("core.report.multiorigin_ms", "ms"),
    // stats
    lo("stats.mcnemar_ns", "ns"),
    lo("stats.spearman_us", "us"),
    // store
    lo("store.from_sorted_ms", "ms"),
    hi("store.encode_mb_per_s", "MB/s"),
    hi("store.decode_mb_per_s", "MB/s"),
    lo("store.open_us", "us"),
    hi("store.load_mb_per_s", "MB/s"),
    lo("store.lazy_rank_ns", "ns"),
    lo("store.materialize_ms", "ms"),
    lo("store.union_many_ms", "ms"),
    lo("store.and_card_ms", "ms"),
    lo("store.andnot_ms", "ms"),
    lo("store.exclusive_ms", "ms"),
    lo("store.contains_ns", "ns"),
    lo("store.rank_ns", "ns"),
    lo("store.select_ns", "ns"),
    lo("store.write_s", "s"),
    lo("store.read_s", "s"),
    lo("store.bytes", "B"),
    lo("store.bytes_per_host", "B"),
    hi("store.containers_array", "count"),
    hi("store.containers_bitmap", "count"),
    hi("store.containers_run", "count"),
    lo("store.chunks_loaded", "count"),
    lo("store.bytes_read", "B"),
    // plan
    lo("plan.observe_ms", "ms"),
    lo("plan.build_observed_ms", "ms"),
    lo("plan.build_hybrid_ms", "ms"),
    lo("plan.encode_us", "us"),
    lo("plan.decode_us", "us"),
    lo("plan.allows_ns", "ns"),
    lo("plan.planned_s24s", "count"),
    // serve
    lo("serve.query.parse_ns", "ns"),
    lo("serve.query.canonical_ns", "ns"),
    lo("serve.engine.open_us", "us"),
    lo("serve.engine.memo_hit_ns", "ns"),
    lo("serve.engine.cold_coverage_us", "us"),
    lo("serve.engine.cold_diff_us", "us"),
    lo("serve.engine.cold_exclusive_us", "us"),
    lo("serve.engine.cold_bestk_us", "us"),
    lo("serve.engine.cold_rank_us", "us"),
    lo("serve.engine.cold_recall_us", "us"),
    lo("serve.engine.setwarm_bestk_us", "us"),
    lo("serve.engine.contended_cold_us", "us"),
    hi("serve.engine.plan_hit_ratio", "ratio"),
    hi("serve.engine.set_hit_ratio", "ratio"),
    lo("serve.engine.kernel_ops", "count"),
    lo("serve.engine.kernel_words", "count"),
    lo("serve.http.connect_us", "us"),
    lo("serve.http.overhead_us", "us"),
    lo("serve.http.read_us", "us"),
    lo("serve.http.execute_us", "us"),
    lo("serve.http.write_us", "us"),
    hi("serve.http.span_attribution", "ratio"),
    hi("serve.http.conn_reuse", "ratio"),
    lo("serve.http.shed_503", "count"),
    lo("serve.http.lat_p50_us", "us"),
    lo("serve.http.lat_p99_us", "us"),
    hi("serve.http.lat_samples", "count"),
    // telemetry
    lo("telemetry.emit_ns", "ns"),
    lo("telemetry.span_ns", "ns"),
    lo("telemetry.flush_us", "us"),
    hi("telemetry.snapshot_jsonl_mb_per_s", "MB/s"),
];

/// A per-layer metric that is a harness span's mean time per traced
/// pass.
#[derive(Debug, Clone, Copy)]
pub struct SpanMetric {
    pub span: &'static str,
    pub metric: &'static str,
    /// Seconds → the metric's unit.
    pub scale: f64,
}

const fn span_metric(span: &'static str, metric: &'static str, scale: f64) -> SpanMetric {
    SpanMetric {
        span,
        metric,
        scale,
    }
}

pub const SPAN_METRICS: &[SpanMetric] = &[
    span_metric("core.experiment:run", "core.experiment.run_s", 1.0),
    span_metric(
        "core.experiment:run_faulted",
        "core.experiment.faulted_run_s",
        1.0,
    ),
    span_metric("core.adversarial:sweep", "core.adversarial.sweep_s", 1.0),
    span_metric(
        "core.results:scan_set_store",
        "core.results.store_build_ms",
        1e3,
    ),
    span_metric("core.report:full_report", "core.report.full_report_ms", 1e3),
    span_metric("plan:observe", "plan.observe_ms", 1e3),
    span_metric("plan:build_observed", "plan.build_observed_ms", 1e3),
    span_metric("plan:build_hybrid", "plan.build_hybrid_ms", 1e3),
    span_metric("plan:encode", "plan.encode_us", 1e6),
    span_metric("plan:decode", "plan.decode_us", 1e6),
];

/// The share metric a layer's self time is reported under. The scan
/// loop — `Experiment::run`, the sweep, bare `run_scan` — is one layer
/// here: permutation, probe modules, netmodel replies and the
/// supervisor run inside those calls and cannot be told apart from
/// outside them; the `scanner.*` and `netmodel.*` probes split them.
pub fn share_metric(layer: &str) -> &'static str {
    match layer {
        "core.experiment" | "core.adversarial" | "scanner.engine" => "share.scan_loop",
        "core.results" | "core.report" => "share.core_analysis",
        "scanner.output" => "share.scanner_output",
        "netmodel" => "share.netmodel_setup",
        "store" => "share.store",
        "plan" => "share.plan",
        "serve.engine" => "share.serve_engine",
        "serve.http" => "share.serve_http",
        _ => "share.bench",
    }
}

/// Values measured in one run, by registered name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `value` under a registered name. An unregistered name is a
    /// bug in the harness, not an input error.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        self.values.insert(def.name, value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let sum = self.get(name).unwrap_or(0.0) + value;
        self.set(name, sum);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Take over every value of `other`.
    pub fn absorb(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    /// The `metrics` object of a result line: every metric of `defs`, in
    /// registry order, 0 where the run measured nothing.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut obj = crate::json::Obj::new();
        for d in defs {
            let value = self.get(d.name).unwrap_or(0.0);
            let entry = crate::json::Obj::new()
                .num("value", value)
                .str("unit", d.unit)
                .finish();
            obj = obj.raw(d.name, &entry);
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_within_the_contract_and_unique() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        for s in SPAN_METRICS {
            assert!(PER_LAYER.iter().any(|d| d.name == s.metric), "{}", s.metric);
        }
        for layer in [
            "core.experiment",
            "store",
            "plan",
            "serve.http",
            "netmodel",
            "bench",
        ] {
            let name = share_metric(layer);
            assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
        }
    }

    /// `BENCHMARK.json` is the contract; the registry must say the same.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).expect(key).as_arr();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(Value::as_str).unwrap_or("");
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let bounds = doc.get("end_to_end").expect("end_to_end").as_arr();
        assert!(bounds.iter().all(|e| {
            e.get("bound")
                .and_then(Value::as_f64)
                .is_some_and(|b| b > 0.0 && b <= 0.25)
        }));
    }

    #[test]
    fn result_metrics_default_to_zero_and_keep_registry_order() {
        let mut m = Metrics::default();
        m.set("pass_ms", 12.5);
        m.add("pass_ms", 0.5);
        let json = m.to_json(END_TO_END);
        assert!(
            json.starts_with(
                r#"{"setup_s":{"value":0,"unit":"s"},"pass_ms":{"value":13,"unit":"ms"}"#
            ),
            "{json}"
        );
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_names_are_rejected() {
        Metrics::default().set("no.such.metric", 1.0);
    }
}
