//! The run loop every workload shares: set up (several times, so the
//! set-up time is a median), warm up once, then time passes for the
//! asked number of seconds. An untraced run yields the end-to-end
//! metrics; a traced run alternates untraced and traced passes and
//! turns the spans into per-layer numbers (the caller adds the layer
//! probes, which do not depend on the workload).

use crate::client::Client;
use crate::inputs::{Scale, Seeds};
use crate::json::Value;
use crate::metrics::{share_metric, Metrics, SPAN_METRICS};
use crate::spans::{intern, layer_self_seconds, stage_coverage, Spans, TraceLog};
use crate::stat::{median, percentile_sorted};
use originscan_telemetry::profile::ProfileNode;
use originscan_telemetry::span::SpanRecord;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

pub use originscan_serve::query::fnv1a64 as fnv;

/// A run sets up at least this many times; `setup_s` is the median.
const MIN_SETUPS: usize = 5;
/// A set-up of milliseconds is repeated until this share of the run's
/// seconds has gone into set-ups (five 2 ms set-ups gave a median that
/// moved by a quarter between runs), but no more often than `MAX_SETUPS`.
const SETUP_SHARE: f64 = 1.0 / 30.0;
const MAX_SETUPS: usize = 64;
/// Fewest timed passes a run reports a median over.
const MIN_PASSES: usize = 3;
/// Share of a traced run's seconds spent on the workload's own passes;
/// the layer probes that follow take about as long again.
const TRACED_WORKLOAD_SHARE: f64 = 0.4;

/// What a workload is built from.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seeds: Seeds,
    pub scale: Scale,
    /// Scratch directory inside the checkout, unique to this process.
    pub dir: PathBuf,
}

/// What one pass did.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Units of the workload's primary work: probes sent, set members
    /// written and read, or requests answered correctly.
    pub work: u64,
    /// Seconds inside the calls that did that work.
    pub work_s: f64,
    /// Operations attempted: scans, store calls, queries, requests,
    /// output checks.
    pub ops: u64,
    pub failed: u64,
    /// FNV-1a over the pass's outputs: every pass of a run must agree.
    pub digest: u64,
    /// Seconds the harness spent checking outputs inside the pass; they
    /// are not the program's, so they come off the pass's wall time.
    pub check_s: f64,
    /// Per-layer values observed this pass, by metric name.
    pub extra: Vec<(&'static str, f64)>,
    /// Request latencies (serving workloads).
    pub latencies_us: Vec<f64>,
    /// Spans recorded by client threads (serving workloads, traced).
    pub client_spans: Vec<Vec<SpanRecord>>,
}

impl PassOut {
    /// Count one output check.
    pub fn check(&mut self, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    fn setup(ctx: &Ctx) -> Self;
    fn pass(&mut self, spans: &Spans) -> PassOut;
    /// The live server, when the workload has one.
    fn server(&self) -> Option<SocketAddr> {
        None
    }
}

/// The last line of a run's standard output.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The traced run's spans, to be written by the caller.
    pub trace: TraceLog,
}

/// Resident-set high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads. The kernel
/// reports clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; fields resume after `)`.
            let rest = s.rsplit_once(')')?.1;
            let mut fields = rest.split_ascii_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<u64>,
}

impl Tally {
    /// Count a pass; its digest must equal the first pass's.
    fn add(&mut self, out: &PassOut) {
        self.attempted += out.ops + 1;
        self.failed += out.failed;
        match self.reference {
            None => self.reference = Some(out.digest),
            Some(d) => self.failed += u64::from(d != out.digest),
        }
    }
}

/// The undisturbed pass: the fastest one.
///
/// On this kind of machine interference only ever adds time — other
/// tenants' cache and memory traffic, a vCPU scheduled away — and it
/// comes in stretches longer than a run. Across eight runs of unchanged
/// code in a noisy hour the median pass moved by 12 % (scan_single) to
/// 22 % (serve_warm) between runs, the fastest pass by 4 % to 13 %; in a
/// quiet hour both stay within 2 %. The fastest pass is what the code
/// costs; the median is what the neighbours cost.
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn run<W: Workload>(ctx: &Ctx, seconds: f64, trace: bool) -> RunResult {
    let mut setup_times = Vec::with_capacity(MIN_SETUPS);
    let mut workload = None;
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS
            && setup_times.iter().sum::<f64>() < seconds * SETUP_SHARE)
    {
        // The previous instance is torn down first (servers stop, files
        // go), outside the timed set-up.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(ctx));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("MIN_SETUPS is at least one");
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        reference: None,
    };
    let mut metrics = Metrics::default();
    // Caches fill and lazy set-up finishes before anything is timed.
    tally.add(&w.pass(&Spans::off()));

    let mut log = TraceLog::default();
    if trace {
        traced_run(
            &mut w,
            seconds * TRACED_WORKLOAD_SHARE,
            &mut tally,
            &mut metrics,
            &mut log,
        );
    } else {
        metrics.set("setup_s", median(&setup_times));
        let (mut walls, mut rates) = (Vec::new(), Vec::new());
        let cpu0 = cpu_seconds();
        let started = Instant::now();
        while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let out = w.pass(&Spans::off());
            walls.push(t.elapsed().as_secs_f64() - out.check_s);
            rates.push(out.work as f64 / out.work_s.max(1e-9));
            tally.add(&out);
        }
        let cpu = cpu_seconds() - cpu0;
        let wall = started.elapsed().as_secs_f64();
        let best = fastest(&walls);
        metrics.set("pass_ms", best * 1e3);
        metrics.set("throughput", rates.iter().copied().fold(0.0, f64::max));
        // CPU is only readable in 10 ms ticks, too coarse per pass: the
        // run's CPU-to-wall ratio times the undisturbed pass instead.
        metrics.set("cpu_ms", best * (cpu / wall.max(1e-9)) * 1e3);
        metrics.set("peak_rss_mb", peak_rss_mb());
    }
    drop(w);
    RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        trace: log,
    }
}

/// Alternate untraced and traced passes, so both see the same machine,
/// then turn the traced ones into per-layer numbers.
fn traced_run<W: Workload>(
    w: &mut W,
    seconds: f64,
    tally: &mut Tally,
    metrics: &mut Metrics,
    log: &mut TraceLog,
) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut extras: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut latencies = Vec::new();
    let (mut cpu, mut wall) = (0.0, 0.0);
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = w.pass(&Spans::off());
        plain.push(t.elapsed().as_secs_f64() - out.check_s);
        tally.add(&out);
        latencies.extend(out.latencies_us);

        let spans = Spans::on();
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let mut out = w.pass(&spans);
        traced.push(t.elapsed().as_secs_f64() - out.check_s);
        wall += t.elapsed().as_secs_f64();
        cpu += cpu_seconds() - cpu0;
        tally.add(&out);
        log.push(spans.finish());
        for spans in std::mem::take(&mut out.client_spans) {
            log.push(spans);
        }
        for (name, v) in out.extra {
            extras.entry(name).or_default().push(v);
        }
    }
    let passes = traced.len() as f64;
    metrics.set(
        "bench.trace_overhead_ratio",
        fastest(&traced) / fastest(&plain).max(1e-9),
    );
    for (name, values) in &extras {
        metrics.set(name, median(values));
    }

    // The server's own request traces (the ring holds the last 256;
    // the mix is shuffled, so they are a fair sample of a pass).
    let mut server_side = TraceLog::default();
    if let Some(addr) = w.server() {
        let mut client = Client::new(addr);
        if let Ok(r) = client.get("/trace?n=256") {
            for spans in server_traces(&r.body) {
                server_side.push(spans);
            }
        }
        server_metrics(&server_side.nodes(), metrics);
        latencies.sort_by(f64::total_cmp);
        metrics.set("serve.http.lat_p50_us", percentile_sorted(&latencies, 0.50));
        metrics.set("serve.http.lat_p99_us", percentile_sorted(&latencies, 0.99));
        metrics.set("serve.http.lat_samples", latencies.len() as f64);
        if let Some(execute_us) = metrics.get("serve.http.execute_us") {
            // What a request costs around the engine: sockets, parsing
            // the request, writing the response, the worker hand-off.
            let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
            metrics.set("serve.http.overhead_us", mean - execute_us);
        }
    }

    // Where a pass's time went. Serving time is split by the server's
    // own spans; everything else by the harness's.
    let nodes = log.nodes();
    let server_nodes = server_side.nodes();
    let shares = if server_side.is_empty() {
        &nodes
    } else {
        &server_nodes
    };
    let (by_layer, total) = layer_self_seconds(shares);
    for (layer, self_s) in &by_layer {
        metrics.add(share_metric(layer), self_s / total.max(1e-12));
    }
    if server_side.is_empty() {
        metrics.set("bench.stage_coverage", stage_coverage(&nodes));
    }
    for def in SPAN_METRICS {
        let total_s: f64 = nodes
            .iter()
            .filter(|n| n.name == def.span)
            .map(|n| n.total_s)
            .sum();
        if total_s > 0.0 {
            metrics.set(def.metric, total_s / passes * def.scale);
        }
    }
    if metrics.get("core.experiment.run_s").is_some() {
        // The experiment is nearly all of a study pass, so the pass's
        // CPU over its wall is the experiment's parallel speed-up.
        metrics.set("core.experiment.cpu_s", cpu / passes);
        metrics.set("core.experiment.parallel_speedup", cpu / wall.max(1e-9));
    }
    log.append(server_side);
}

/// The span trees in a `GET /trace` body, query requests only.
pub fn server_traces(body: &str) -> Vec<Vec<SpanRecord>> {
    let Ok(doc) = Value::parse(body.trim()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for t in doc.get("traces").map(Value::as_arr).unwrap_or(&[]) {
        let kind = t.get("kind").and_then(Value::as_str).unwrap_or("");
        if matches!(kind, "trace" | "stats" | "metrics" | "healthz") {
            continue;
        }
        let spans: Option<Vec<SpanRecord>> = t
            .get("spans")
            .map(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|s| {
                let num = |k: &str| s.get(k).and_then(Value::as_f64);
                Some(SpanRecord {
                    id: num("span")? as u32,
                    parent: num("parent").map(|p| p as u32),
                    name: intern(s.get("name").and_then(Value::as_str)?),
                    start_s: num("start")?,
                    end_s: num("end")?,
                })
            })
            .collect();
        out.extend(spans);
    }
    out
}

/// Mean microseconds per request of the server's phases, and how much
/// of a request its named child spans account for.
fn server_metrics(nodes: &[ProfileNode], metrics: &mut Metrics) {
    let Some(request) = nodes.iter().find(|n| n.path == "request") else {
        return;
    };
    let requests = request.count.max(1) as f64;
    let mut children = 0.0;
    for (path, metric) in [
        ("request/read", "serve.http.read_us"),
        ("request/execute", "serve.http.execute_us"),
        ("request/write", "serve.http.write_us"),
    ] {
        if let Some(n) = nodes.iter().find(|n| n.path == path) {
            metrics.set(metric, n.total_s / requests * 1e6);
            children += n.total_s;
        }
    }
    metrics.set(
        "serve.http.span_attribution",
        children / request.total_s.max(1e-12),
    );
}
