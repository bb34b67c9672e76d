//! `serve_cold` and `serve_warm`: a live `Server` on loopback under two
//! closed-loop clients that split the 468-query analyst mix.
//!
//! Closed loop is deliberate: the callers are analyst scripts that wait
//! for each answer. Both workloads share one fixture (synthetic
//! HTTP/HTTPS/SSH views, 63 keys, a registered plan, default
//! `ServerConfig`, no telemetry hub) and differ only in cache state:
//!
//! * **cold** — before each pass the clients are quiet and the harness
//!   calls `clear_caches()`, so every request is a plan miss and the
//!   first touch of each key a store load. Store reads under the reader
//!   mutex, bitmap materialisation and kernels dominate.
//! * **warm** — the memo is filled in set-up (468 answers fit the
//!   1024-entry plan cache), so every request is a memo hit and accept /
//!   read / write / teardown is nearly all of the time.
//!
//! Every body is compared with what `execute_text` answers in-process
//! on a second engine over the same file, which also makes cold ≡ warm.
//! Numbers are loopback's in this sandbox, not a network's.

use crate::client::Client;
use crate::harness::{Ctx, PassOut, Workload};
use crate::inputs::{build_world, query_mix, synthetic_views};
use crate::spans::Spans;
use crate::workloads::observed_plan;
use originscan_scanner::probe::PAPER_PROTOCOLS;
use originscan_serve::{QueryEngine, Server, ServerConfig};
use originscan_store::StoreReader;
use originscan_telemetry::span::SpanRecord;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator threads: one connection each, never more than the machine
/// has cores (two here).
pub const CLIENTS: usize = 2;

pub struct ServeFixture {
    pub engine: Arc<QueryEngine>,
    server: Option<Server>,
    pub addr: SocketAddr,
    pub queries: Vec<String>,
    /// What `execute_text` answers for each query, in-process.
    pub expected: Vec<String>,
    store_path: PathBuf,
}

/// What one client saw during a pass.
#[derive(Debug, Default)]
pub struct ClientReport {
    pub latencies_us: Vec<f64>,
    pub requests: u64,
    pub failed: u64,
    pub shed_503: u64,
    pub connections: u64,
    pub connect_time: Duration,
    pub spans: Vec<SpanRecord>,
}

impl ServeFixture {
    pub fn new(ctx: &Ctx, slash24s: u32, file_name: &str) -> ServeFixture {
        let world = build_world(ctx.seeds.world, slash24s);
        let views = synthetic_views(&world, &PAPER_PROTOCOLS, ctx.seeds.views, false);
        let store_path = ctx.dir.join(file_name);
        views
            .store
            .write_to(&store_path)
            .expect("write the serve store inside the benchmark's out directory");
        let open = || StoreReader::open(&store_path).expect("reopen the store just written");
        let plan = observed_plan(&world, &open(), ctx.seeds.scan).expect("learn the observed plan");
        let queries = query_mix(
            &PAPER_PROTOCOLS,
            world.space(),
            "observed",
            ctx.seeds.queries,
        );

        let mut reference = QueryEngine::from_readers(vec![open()]);
        reference.register_plan("observed", plan.clone());
        let expected = queries
            .iter()
            .map(|q| {
                reference
                    .execute_text(q)
                    .map(|body| body.to_string())
                    .unwrap_or_else(|e| panic!("the mix holds only valid queries; `{q}`: {e:?}"))
            })
            .collect();

        let mut engine = QueryEngine::from_readers(vec![open()]);
        engine.register_plan("observed", plan);
        let engine = Arc::new(engine);
        let server = Server::start(Arc::clone(&engine), None, ServerConfig::default())
            .expect("bind a loopback port");
        ServeFixture {
            addr: server.local_addr(),
            engine,
            server: Some(server),
            queries,
            expected,
            store_path,
        }
    }

    /// `rounds` rounds of the mix, split between the clients: client `c`
    /// sends queries `c, c + CLIENTS, …` of each round, waits for each
    /// answer, and checks it.
    pub fn drive(&self, rounds: usize, traced: bool) -> Vec<ClientReport> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || self.client_loop(c, rounds, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    }

    fn client_loop(&self, c: usize, rounds: usize, traced: bool) -> ClientReport {
        let mut client = Client::new(self.addr);
        let mut report = ClientReport::default();
        let spans = if traced { Spans::on() } else { Spans::off() };
        {
            let _root = spans.span("bench:client");
            for _ in 0..rounds {
                for i in (c..self.queries.len()).step_by(CLIENTS) {
                    let _g = spans.span("serve.http:request");
                    match client.post_query(&self.queries[i]) {
                        Ok(r) if r.status == 200 && r.body == self.expected[i] => {
                            report.latencies_us.push(r.latency.as_secs_f64() * 1e6);
                        }
                        Ok(r) => {
                            report.failed += 1;
                            report.shed_503 += u64::from(r.status == 503);
                        }
                        Err(_) => report.failed += 1,
                    }
                }
            }
        }
        report.requests = client.requests;
        report.connections = client.connections;
        report.connect_time = client.connect_time;
        report.spans = spans.finish();
        report
    }

    /// Fold the clients' reports into a pass result.
    fn pass_out(&self, reports: Vec<ClientReport>, wall_s: f64) -> PassOut {
        let mut out = PassOut {
            work_s: wall_s,
            ..PassOut::default()
        };
        let (mut connections, mut connect_s, mut shed) = (0u64, 0.0, 0u64);
        for r in reports {
            out.ops += r.requests;
            out.failed += r.failed;
            out.work += r.latencies_us.len() as u64;
            out.latencies_us.extend(r.latencies_us);
            connections += r.connections;
            connect_s += r.connect_time.as_secs_f64();
            shed += r.shed_503;
            out.client_spans.push(r.spans);
        }
        out.extra.extend([
            (
                "serve.http.conn_reuse",
                out.ops as f64 / connections.max(1) as f64,
            ),
            (
                "serve.http.connect_us",
                connect_s * 1e6 / connections.max(1) as f64,
            ),
            ("serve.http.shed_503", shed as f64),
        ]);
        // Bodies are compared one by one; the digest only has to say
        // that every pass got the same number right.
        out.digest = out.work;
        out
    }
}

impl Drop for ServeFixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_file(&self.store_path);
    }
}

pub struct ServeCold(pub ServeFixture);

impl Workload for ServeCold {
    const NAME: &'static str = "serve_cold";

    fn setup(ctx: &Ctx) -> ServeCold {
        ServeCold(ServeFixture::new(
            ctx,
            ctx.scale.serve_cold_s24,
            "serve_cold.oscs",
        ))
    }

    fn pass(&mut self, spans: &Spans) -> PassOut {
        let before = self.0.engine.stats();
        self.0.engine.clear_caches();
        let t = Instant::now();
        let reports = self.0.drive(1, spans.is_on());
        let mut out = self.0.pass_out(reports, t.elapsed().as_secs_f64());
        let after = self.0.engine.stats();
        let plan_lookups =
            (after.plans.hits + after.plans.misses) - (before.plans.hits + before.plans.misses);
        let set_lookups =
            (after.sets.hits + after.sets.misses) - (before.sets.hits + before.sets.misses);
        out.extra.extend([
            (
                "serve.engine.plan_hit_ratio",
                (after.plans.hits - before.plans.hits) as f64 / plan_lookups.max(1) as f64,
            ),
            (
                "serve.engine.set_hit_ratio",
                (after.sets.hits - before.sets.hits) as f64 / set_lookups.max(1) as f64,
            ),
            (
                "serve.engine.kernel_ops",
                (after.kernel_ops - before.kernel_ops) as f64,
            ),
            (
                "serve.engine.kernel_words",
                (after.kernel_words - before.kernel_words) as f64,
            ),
        ]);
        out
    }

    fn server(&self) -> Option<SocketAddr> {
        Some(self.0.addr)
    }
}

pub struct ServeWarm {
    fixture: ServeFixture,
    rounds: usize,
}

impl Workload for ServeWarm {
    const NAME: &'static str = "serve_warm";

    fn setup(ctx: &Ctx) -> ServeWarm {
        let fixture = ServeFixture::new(ctx, ctx.scale.serve_warm_s24, "serve_warm.oscs");
        // Fill the memo: after this, every query of the mix is a hit.
        let warmed = fixture.drive(1, false);
        assert!(
            warmed.iter().all(|r| r.failed == 0),
            "memo warm-up failed: {warmed:?}"
        );
        ServeWarm {
            fixture,
            rounds: ctx.scale.warm_rounds,
        }
    }

    fn pass(&mut self, spans: &Spans) -> PassOut {
        let before = self.fixture.engine.stats();
        let t = Instant::now();
        let reports = self.fixture.drive(self.rounds, spans.is_on());
        let mut out = self.fixture.pass_out(reports, t.elapsed().as_secs_f64());
        let after = self.fixture.engine.stats();
        let lookups =
            (after.plans.hits + after.plans.misses) - (before.plans.hits + before.plans.misses);
        out.extra.push((
            "serve.engine.plan_hit_ratio",
            (after.plans.hits - before.plans.hits) as f64 / lookups.max(1) as f64,
        ));
        out.check(after.plans.misses == before.plans.misses);
        out
    }

    fn server(&self) -> Option<SocketAddr> {
        Some(self.fixture.addr)
    }
}
