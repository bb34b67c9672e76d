//! Load generator for the serve stack: in-process clients hammer a real
//! HTTP server over loopback and report latency percentiles and
//! throughput, cold-cache vs warm-cache.
//!
//! The store is synthetic (six correlated origins over 2²² addresses,
//! the `origin_set` generator `perf_setops` also uses), so the bench measures
//! the serve stack — parsing, planning, cache, set kernels, HTTP — not
//! experiment time. Two phases over an identical query mix:
//!
//! * **cold** — fresh engine, every query a plan miss: bitmaps load
//!   from disk, one signature pass runs, the rest are table sums.
//! * **warm** — same queries again: plan-memo hits, no store or kernel
//!   work, so the remaining cost is parsing + HTTP.
//!
//! Timings go through the telemetry progress sink (`bench_timed` /
//! `serve_load` JSONL on stderr); the stdout table is the artifact
//! recorded in EXPERIMENTS.md. After the warm phase the bench pulls
//! `GET /trace` and checks span attribution: ≥90% of warm request wall
//! time must land in named child spans (read/execute/write and the
//! kernels below them), so the instrumentation cannot silently rot. The
//! bench asserts the warm best-k pass is ≥5× faster than the cold one
//! and that warm connections are reused (each client thread holds one
//! persistent connection, so a server that stops keeping them shows),
//! then writes `BENCH_serve.json` (the bench-diff gate input: ratios
//! only, throughput and latency are printed, not recorded) and
//! `BENCH_serve.profile.jsonl` (the merged flame tree of the warm
//! traces).

// Wall-clock timing is the bench harness's job; results never feed analyses.
#![allow(clippy::disallowed_methods)]

use originscan_bench::jsonv::JsonValue;
use originscan_bench::origin_set;
use originscan_bench::record::{BenchRecord, Dir};
use originscan_serve::{QueryEngine, Server, ServerConfig};
use originscan_store::{ScanSet, ScanSetStore, StoreKey, StoreReader};
use originscan_telemetry::profile::Profile;
use originscan_telemetry::progress::{emit_progress, FieldValue};
use originscan_telemetry::span::SpanRecord;
use originscan_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Synthetic address space: 2²² (large enough that materializing a
/// bitmap costs real work, small enough to build in milliseconds).
const SPACE: u32 = 1 << 22;
const DENSITY: f64 = 0.05;
const ORIGINS: u16 = 6;
const CLIENT_THREADS: usize = 4;
/// Rounds of the mix in the warm phase: on kept connections a round is
/// a fraction of a millisecond, so fewer would time thread start-up.
const WARM_ROUNDS: usize = 64;

fn build_store(path: &std::path::Path) {
    let mut store = ScanSetStore::new();
    for origin in 0..ORIGINS {
        store.insert(
            StoreKey::new("HTTP", 0, origin),
            ScanSet::from_sorted(&origin_set(u64::from(origin), SPACE, DENSITY)),
        );
    }
    store.write_to(path).expect("write bench store");
}

/// The query mix one client round sends: set-op heavy with point
/// lookups mixed in, every query distinct within the round.
fn query_mix() -> Vec<String> {
    let mut queries = Vec::new();
    for o in 0..ORIGINS {
        queries.push(format!("coverage proto=HTTP trial=0 origins={o}"));
    }
    for a in 0..ORIGINS {
        for b in (a + 1)..ORIGINS {
            queries.push(format!("diff proto=HTTP trial=0 a={a} b={b}"));
        }
    }
    for o in 0..ORIGINS {
        queries.push(format!("exclusive proto=HTTP trial=0 origin={o}"));
        queries.push(format!("rank proto=HTTP trial=0 origin={o} addr=2000000"));
        queries.push(format!("member proto=HTTP trial=0 origin={o} addr=1000000"));
    }
    queries.push("best-k proto=HTTP trial=0 k=2".to_string());
    queries.push("best-k proto=HTTP trial=0 k=3".to_string());
    queries
}

/// One client's persistent connection. Requests never ask to close and
/// answers are framed by `Content-Length`, so the socket is reused for
/// as long as the server keeps it; a `Connection: close` answer makes
/// the next request reconnect.
struct Conn {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
    requests: u64,
    connections: u64,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            reader: None,
            requests: 0,
            connections: 0,
        }
    }

    /// Send one request; returns the status and the body.
    fn exchange(&mut self, request: &str) -> (u16, String) {
        let addr = self.addr;
        let reader = self.reader.get_or_insert_with(|| {
            self.connections += 1;
            let s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            BufReader::new(s)
        });
        self.requests += 1;
        reader
            .get_mut()
            .write_all(request.as_bytes())
            .expect("send");
        let (mut status, mut length, mut close) = (0u16, 0usize, false);
        let mut line = String::new();
        loop {
            line.clear();
            assert!(
                reader.read_line(&mut line).expect("read head") > 0,
                "closed mid-answer"
            );
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if status == 0 {
                status = l
                    .split(' ')
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .expect("status line");
            } else if let Some((name, value)) = l.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().expect("Content-Length");
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("read body");
        if close {
            self.reader = None;
        }
        (status, String::from_utf8(body).expect("UTF-8 body"))
    }

    fn query(&mut self, query: &str) -> u16 {
        let len = query.len();
        self.exchange(&format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\r\n{query}"
        ))
        .0
    }

    /// GET `path` and return the response body.
    fn get(&mut self, path: &str) -> String {
        self.exchange(&format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
            .1
    }
}

/// Span trees pulled back out of a `GET /trace` response.
struct TraceAnalysis {
    /// Traces inspected.
    traces: u64,
    /// Fraction of root ("request") wall time attributed to direct
    /// child spans, summed across traces.
    attribution: f64,
    /// The merged flame tree.
    profile: Profile,
}

/// Parse `GET /trace` JSON and compute child-span attribution.
///
/// Span names arrive as owned strings but [`SpanRecord`] carries
/// `&'static str` (tracers record static names); the vocabulary here is
/// a dozen names in a one-shot process, so interning by leak is fine.
fn analyze_traces(body: &str) -> TraceAnalysis {
    let doc = JsonValue::parse(body.trim()).expect("parse /trace");
    let mut names: BTreeMap<String, &'static str> = BTreeMap::new();
    let mut profile = Profile::new();
    let mut traces = 0u64;
    let mut root_total = 0.0f64;
    let mut child_total = 0.0f64;
    for t in doc.get("traces").and_then(JsonValue::as_arr).unwrap_or(&[]) {
        let mut spans = Vec::new();
        for s in t.get("spans").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let f = |key: &str| s.get(key).and_then(JsonValue::as_f64);
            let name = s
                .get("name")
                .and_then(JsonValue::as_str)
                .expect("span name");
            let name: &'static str = names
                .entry(name.to_string())
                .or_insert_with(|| Box::leak(name.to_string().into_boxed_str()));
            spans.push(SpanRecord {
                id: f("span").expect("span id") as u32,
                parent: f("parent").map(|p| p as u32),
                name,
                start_s: f("start").expect("span start"),
                end_s: f("end").expect("span end"),
            });
        }
        let root_id = spans.iter().find(|s| s.parent.is_none()).map(|s| s.id);
        for s in &spans {
            if s.parent.is_none() {
                root_total += s.duration_s();
            } else if s.parent == root_id {
                child_total += s.duration_s();
            }
        }
        profile.add_spans(&spans);
        traces += 1;
    }
    TraceAnalysis {
        traces,
        attribution: if root_total > 0.0 {
            child_total / root_total
        } else {
            0.0
        },
        profile,
    }
}

/// The largest `p99_us` across the per-kind serve-side latency
/// histograms in the `/stats` body.
fn stats_worst_p99_us(body: &str) -> f64 {
    let doc = JsonValue::parse(body.trim()).expect("parse /stats");
    doc.get("latency")
        .and_then(JsonValue::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(_, v)| v.get("p99_us").and_then(JsonValue::as_f64))
        .fold(0.0, f64::max)
}

struct PhaseReport {
    wall_s: f64,
    p50_us: f64,
    p99_us: f64,
    req_per_s: f64,
    /// Requests per connection opened, over all clients.
    conn_reuse: f64,
}

/// Run the query mix through `CLIENT_THREADS` concurrent clients, one
/// persistent connection each, collecting per-request latencies.
fn run_phase(label: &str, addr: SocketAddr, rounds: usize) -> PhaseReport {
    let queries = Arc::new(query_mix());
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..CLIENT_THREADS {
        let queries = Arc::clone(&queries);
        handles.push(std::thread::spawn(move || {
            let mut conn = Conn::new(addr);
            let mut latencies_us = Vec::new();
            for round in 0..rounds {
                // Interleave clients across the mix so threads do not
                // lockstep on the same query.
                for i in 0..queries.len() {
                    let q = &queries[(i + t + round) % queries.len()];
                    let sent = Instant::now();
                    let status = conn.query(q);
                    assert_eq!(status, 200, "query failed under load: {q}");
                    latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                }
            }
            (latencies_us, conn.requests, conn.connections)
        }));
    }
    let (mut latencies, mut requests, mut connections) = (Vec::new(), 0, 0);
    for h in handles {
        let (l, r, c) = h.join().expect("client thread");
        latencies.extend(l);
        requests += r;
        connections += c;
    }
    let wall_s = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let report = PhaseReport {
        wall_s,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        req_per_s: latencies.len() as f64 / wall_s,
        conn_reuse: requests as f64 / connections as f64,
    };
    emit_progress(
        "serve_load",
        &[
            ("phase", FieldValue::from(label)),
            ("requests", FieldValue::from(latencies.len() as u64)),
            ("wall_s", FieldValue::from(report.wall_s)),
            ("p50_us", FieldValue::from(report.p50_us)),
            ("p99_us", FieldValue::from(report.p99_us)),
            ("req_per_s", FieldValue::from(report.req_per_s)),
            ("conn_reuse", FieldValue::from(report.conn_reuse)),
        ],
    );
    report
}

/// Time one best-k pass (the heaviest plan) on its own.
fn best_k_pass(addr: SocketAddr) -> f64 {
    let t = Instant::now();
    assert_eq!(Conn::new(addr).query("best-k proto=HTTP trial=0 k=3"), 200);
    t.elapsed().as_secs_f64()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("originscan-perf-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let store_path = dir.join("load.oscs");
    let build_t = Instant::now();
    build_store(&store_path);
    emit_progress(
        "bench_timed",
        &[
            ("label", FieldValue::from("serve store build")),
            ("wall_s", FieldValue::from(build_t.elapsed().as_secs_f64())),
        ],
    );

    let engine = Arc::new(QueryEngine::from_readers(vec![StoreReader::open(
        &store_path,
    )
    .expect("open store")]));
    let hub = Arc::new(Telemetry::new());
    let server = Server::start(
        Arc::clone(&engine),
        Some(Arc::clone(&hub)),
        ServerConfig::default(),
    )
    .expect("start server");
    let addr = server.local_addr();

    // Cold best-k: plan miss, six bitmap loads, one signature pass.
    let cold_bestk_s = best_k_pass(addr);
    // Warm best-k: plan-memo hit.
    let warm_bestk_s = best_k_pass(addr);

    engine.clear_caches();
    let cold = run_phase("cold", addr, 1);
    let warm = run_phase("warm", addr, WARM_ROUNDS);

    // The warm phase alone fills the 256-entry trace ring several times
    // over, so everything pulled here is a warm request trace.
    let mut conn = Conn::new(addr);
    let analysis = analyze_traces(&conn.get("/trace?n=256"));
    let server_p99_us = stats_worst_p99_us(&conn.get("/stats"));
    drop(conn);
    emit_progress(
        "serve_load",
        &[
            ("phase", FieldValue::from("trace")),
            ("traces", FieldValue::from(analysis.traces)),
            ("attribution", FieldValue::from(analysis.attribution)),
            ("server_p99_us", FieldValue::from(server_p99_us)),
        ],
    );

    println!("\n================================================================");
    println!("perf_serve — HTTP load over loopback ({CLIENT_THREADS} clients)");
    println!("================================================================");
    println!("phase   requests/s      p50 (us)      p99 (us)    wall (s)");
    println!(
        "cold    {:>10.0}    {:>10.0}    {:>10.0}    {:>8.3}",
        cold.req_per_s, cold.p50_us, cold.p99_us, cold.wall_s
    );
    println!(
        "warm    {:>10.0}    {:>10.0}    {:>10.0}    {:>8.3}",
        warm.req_per_s, warm.p50_us, warm.p99_us, warm.wall_s
    );
    let bestk_speedup = cold_bestk_s / warm_bestk_s.max(1e-9);
    println!(
        "best-k k=3: cold {:.1} ms, warm {:.3} ms ({bestk_speedup:.0}x)",
        cold_bestk_s * 1e3,
        warm_bestk_s * 1e3
    );
    emit_progress(
        "serve_load",
        &[
            ("phase", FieldValue::from("best-k")),
            ("cold_s", FieldValue::from(cold_bestk_s)),
            ("warm_s", FieldValue::from(warm_bestk_s)),
            ("speedup", FieldValue::from(bestk_speedup)),
        ],
    );

    // The caches must buy real factors, not noise. The best-k plan goes
    // from bitmap loads + a signature pass to one memo lookup; 5x is a
    // loose floor (typical is orders of magnitude).
    assert!(
        bestk_speedup >= 5.0,
        "warm best-k must be >=5x faster than cold (got {bestk_speedup:.1}x)"
    );
    // Every client keeps its one connection unless the server hands a
    // worker to somebody else; a server that closes after each answer
    // reads 1.0 here whatever the machine.
    println!(
        "connection reuse: {:.0} requests per connection (warm)",
        warm.conn_reuse
    );
    assert!(
        warm.conn_reuse >= 8.0,
        "warm connections are not being kept: {:.1} requests per connection",
        warm.conn_reuse
    );
    assert!(
        warm.p50_us <= cold.p99_us,
        "warm median should not exceed cold tail"
    );
    // Span-attribution floor: if request time stops landing in named
    // child spans, a phase lost its instrumentation.
    println!(
        "span attribution: {:.1}% of request time in named child spans ({} traces)",
        analysis.attribution * 100.0,
        analysis.traces
    );
    assert!(analysis.traces > 0, "trace ring empty after the warm phase");
    assert!(
        analysis.attribution >= 0.90,
        "span profile attributes only {:.1}% of warm request time to child spans",
        analysis.attribution * 100.0
    );

    let mut rec = BenchRecord::new("serve");
    rec.param("space", SPACE);
    rec.param("density", DENSITY);
    rec.param("origins", ORIGINS);
    rec.param("client_threads", CLIENT_THREADS);
    rec.param("queries_per_round", query_mix().len());
    rec.param("warm_rounds", WARM_ROUNDS);
    // Throughput and latency are printed above and judged by the
    // repository benchmark; the record keeps ratios. The attribution
    // ratio is machine-independent, so it gates tightly.
    rec.metric("warm_conn_reuse", warm.conn_reuse, Dir::Higher, Some(0.9));
    rec.metric("bestk_speedup", bestk_speedup, Dir::Higher, Some(0.8));
    rec.metric(
        "span_attribution",
        analysis.attribution,
        Dir::Higher,
        Some(0.05),
    );
    for n in analysis.profile.nodes() {
        rec.profile_line(&n.path, n.count, n.total_s, n.self_s);
    }
    let rec_path = rec.write().expect("write BENCH_serve.json");
    std::fs::write("BENCH_serve.profile.jsonl", analysis.profile.to_jsonl())
        .expect("write span profile");
    println!("record: {} + BENCH_serve.profile.jsonl", rec_path.display());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    println!("\nperf_serve: OK");
}
