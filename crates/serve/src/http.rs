//! A hand-rolled HTTP/1.1 front end for the query engine.
//!
//! This module sits at the crate's audited I/O boundary: it owns the
//! listener, the worker pool, and — via [`crate::trace::WallTime`] —
//! the wall clock (timeouts, latency measurement, request spans).
//! Everything behind it — parsing, planning, execution, response
//! bytes — is deterministic; the clock only decides *when* a
//! connection is abandoned, never *what* a query answers.
//!
//! Shape: an accept thread pushes connections into a bounded queue; a
//! fixed pool of workers pops them and serves each one request after
//! another (HTTP/1.1 persistent connections; bytes read past one
//! request, such as a pipelined second one, start the next). When the
//! queue is full the accept thread answers `503` with `Retry-After`
//! inline and drops the connection — backpressure costs one write, not
//! a worker. Shutdown is graceful: the listener closes first (new
//! connections are refused by the OS), then workers drain every queued
//! connection before joining.
//!
//! Every response is one `write`. The connection is then kept, unless:
//!
//! * the request said `Connection: close`, or was HTTP/1.0 without
//!   `Connection: keep-alive`;
//! * the request could not be framed (`400` for a malformed head, `413`,
//!   a socket error mid-read) — what follows on the socket is unknown;
//! * the server is shutting down;
//! * more connections wait in the accept queue than there are parked
//!   workers to take them — the worker takes the oldest over, so a
//!   kept-alive client cannot starve a queued one.
//!
//! A closing answer carries `Connection: close` and is followed by a
//! half-close and a bounded drain. A kept connection that stays silent
//! is closed after `read_timeout`, or within a poll interval of either
//! of the last two rules coming true; a connection still waiting for
//! its *first* request is in flight and keeps its full `read_timeout`
//! through a shutdown.
//!
//! Every worker-served request runs under a wall-clock span tree
//! (`request` → `read` / `execute` / `write`, with the engine adding
//! `parse`, `plan`, `cache`, `resolve`, `load`, and `kernel.*`
//! children), retained in a bounded [`TraceRing`] behind `GET /trace`.
//! The tree starts when the request's first byte is in hand, so the
//! time a kept connection idles is in nobody's `read` span.
//! `GET /metrics` renders the telemetry hub plus engine counters in
//! Prometheus text format, and `GET /stats` adds per-query-type
//! latency histograms on top of the engine counters.

use crate::engine::{error_body, QueryEngine};
use crate::trace::{TraceRing, WallTime};
use originscan_telemetry::metrics::{names, Histogram, SERVE_LATENCY_BOUNDS};
use originscan_telemetry::span::Tracer;
use originscan_telemetry::JsonObj;
use originscan_telemetry::{render_prometheus, Scope, Telemetry, PROMETHEUS_CONTENT_TYPE};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything tunable about the server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads serving popped connections.
    pub workers: usize,
    /// Connections allowed to wait for a worker before `503`.
    pub queue_depth: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Largest request (head + body) accepted before `413`.
    pub max_request_bytes: usize,
    /// The `Retry-After` seconds a backpressured client is told.
    pub retry_after_s: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_request_bytes: 64 * 1024,
            retry_after_s: 1,
        }
    }
}

/// The telemetry scope every server metric lands under.
fn serve_scope() -> Scope {
    Scope::new("serve", 0, 0)
}

/// Every route the server knows, with the `Allow` list for each. A
/// known path with the wrong method answers `405` + `Allow`; an
/// unknown path answers `404`.
const ROUTES: &[(&str, &str)] = &[
    ("/query", "GET, POST"),
    ("/healthz", "GET"),
    ("/stats", "GET"),
    ("/metrics", "GET"),
    ("/trace", "GET"),
];

/// How many traces `GET /trace` returns when `?n=` is absent.
const TRACE_DEFAULT_N: usize = 16;

/// The longest a worker blocks in one socket read before it looks up:
/// worker sockets time out in slices of this, and [`read_polled`]
/// stitches the slices back into `read_timeout`. It is also the silence
/// that ends a worker's drain after a closing answer.
const POLL: Duration = Duration::from_millis(50);

/// Accepted connections waiting for a worker, and how many workers are
/// parked waiting for one — under one lock, so comparing them is exact.
#[derive(Default)]
struct Queue {
    waiting: VecDeque<TcpStream>,
    parked: usize,
}

impl Queue {
    /// More connections wait than parked workers will take.
    fn overflowing(&self) -> bool {
        self.waiting.len() > self.parked
    }
}

struct Shared {
    engine: Arc<QueryEngine>,
    hub: Option<Arc<Telemetry>>,
    queue: Mutex<Queue>,
    available: Condvar,
    shutdown: AtomicBool,
    ring: TraceRing,
    /// Per-query-kind latency histograms (microseconds), for `/stats`.
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
    cfg: ServerConfig,
}

impl Shared {
    /// The connection a worker should turn to instead of keeping its
    /// own: the oldest one waiting that no parked worker will take.
    /// Taking it here, not after the old connection is closed, is what
    /// stops a second worker giving up its client for the same one.
    fn take_over(&self) -> Option<TcpStream> {
        let mut queue = lock(&self.queue);
        if queue.overflowing() {
            queue.waiting.pop_front()
        } else {
            None
        }
    }

    /// Whether a kept connection with nothing to say should be dropped.
    fn worker_wanted(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || lock(&self.queue).overflowing()
    }

    fn count(&self, name: &'static str) {
        if let Some(hub) = &self.hub {
            hub.add(serve_scope(), name, 1);
        }
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A running server: accept thread + worker pool over one engine.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the pool, and start accepting.
    pub fn start(
        engine: Arc<QueryEngine>,
        hub: Option<Arc<Telemetry>>,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            hub,
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            ring: TraceRing::default(),
            latency: Mutex::new(BTreeMap::new()),
            cfg: cfg.clone(),
        });

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for _ in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || accept_loop(&listener, &accept_shared));

        Ok(Server {
            local_addr,
            shared,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, drain queued connections, join every thread.
    /// In-flight requests complete (a connection whose first request
    /// has yet to arrive counts as in flight; one idling between
    /// requests is closed); connections arriving after the listener
    /// closes are refused by the OS.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread is parked in `accept()`; a throwaway
        // connection wakes it so it can observe the flag and drop the
        // listener.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a raced client) — refuse it.
            return;
        }
        let _ = stream.set_nodelay(true);
        let mut queue = lock(&shared.queue);
        if queue.waiting.len() >= shared.cfg.queue_depth {
            drop(queue);
            // The inline 503 is the one request this connection gets.
            shared.count(names::SERVE_HTTP_REQUESTS);
            shared.count(names::SERVE_HTTP_REJECTED);
            reject_busy(&stream, shared);
            continue;
        }
        queue.waiting.push_back(stream);
        drop(queue);
        shared.available.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(s) = queue.waiting.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue.parked += 1;
                queue = match shared.available.wait(queue) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                queue.parked -= 1;
            }
        };
        let Some(mut stream) = stream else { return };
        while let Some(next) = serve_connection(&stream, shared) {
            stream = next;
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One fully-built answer, carried from routing to the socket write.
struct Response {
    status: u16,
    content_type: &'static str,
    extra_headers: String,
    body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: String::new(),
            body,
        }
    }
}

/// One answer on the way out, head and body in a single write; socket
/// errors are connection-fatal and silent (the client is gone — there
/// is nobody to tell).
fn respond(mut stream: &TcpStream, resp: &Response, keep: bool) -> io::Result<()> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let mut out = String::with_capacity(160 + resp.extra_headers.len() + resp.body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n{}\r\n",
        resp.status,
        resp.content_type,
        resp.body.len(),
        if keep { "keep-alive" } else { "close" },
        resp.extra_headers
    );
    out.push_str(&resp.body);
    stream.write_all(out.as_bytes())
}

/// Close after an answer that said `Connection: close`: half-close,
/// then drain whatever the client is still sending (e.g. the rest of an
/// oversized body). Closing with unread bytes queued makes the kernel
/// reset the connection, destroying the response before the client
/// reads it. The drain ends when the client closes, falls silent for
/// the socket's read timeout, or has sent a capped number of bytes, so
/// neither a hostile nor a slow client can pin the thread.
fn close_after_answer(mut stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    let mut drained = 0usize;
    while drained < 256 * 1024 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn reject_busy(stream: &TcpStream, shared: &Shared) {
    // Short read timeout: the post-response drain runs on the accept
    // thread here, and a slow client must not stall accepts.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut o = JsonObj::new();
    o.field_str("error", "busy");
    o.field_str("detail", "request queue full; retry shortly");
    let mut resp = Response::json(503, o.finish());
    resp.extra_headers = format!("Retry-After: {}\r\n", shared.cfg.retry_after_s);
    let _ = respond(stream, &resp, false);
    close_after_answer(stream);
}

/// One `read`, bounded by `read_timeout` but taken in [`POLL`] slices
/// (the socket's own timeout). A read that `yields` — the wait between
/// two requests of a kept connection — gives up as soon as the worker is
/// wanted.
fn read_polled(
    mut stream: &TcpStream,
    buf: &mut [u8],
    shared: &Shared,
    yields: bool,
) -> io::Result<usize> {
    use io::ErrorKind::{TimedOut, WouldBlock};
    let mut waited = Duration::ZERO;
    loop {
        match stream.read(buf) {
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                waited += POLL;
                if waited >= shared.cfg.read_timeout || (yields && shared.worker_wanted()) {
                    return Err(TimedOut.into());
                }
            }
            done => return done,
        }
    }
}

/// Append one read's worth of bytes to `carry`; `Ok(0)` is end of stream.
fn fill(
    stream: &TcpStream,
    carry: &mut Vec<u8>,
    shared: &Shared,
    yields: bool,
) -> io::Result<usize> {
    let mut chunk = [0u8; 1024];
    let n = read_polled(stream, &mut chunk, shared, yields)?;
    carry.extend_from_slice(chunk.get(..n).unwrap_or(&chunk));
    Ok(n)
}

/// Serve one connection, request after request, until a rule in the
/// module doc says to close it. Returns the connection the worker took
/// over from the queue, when that is why it stopped.
fn serve_connection(stream: &TcpStream, shared: &Shared) -> Option<TcpStream> {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout.min(POLL)));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    // Bytes read but not yet consumed: it never holds more than one
    // `max_request_bytes` request plus one read, whatever is served.
    let mut carry: Vec<u8> = Vec::with_capacity(1024);
    let mut kept = false;
    loop {
        // Waiting for a request to begin is not part of serving it: the
        // trace starts once its first byte is here.
        if carry.is_empty() && !matches!(fill(stream, &mut carry, shared, kept), Ok(1..)) {
            return None;
        }
        let tracer = WallTime::tracer();
        let root = tracer.span("request");
        let request = {
            let _g = tracer.span("read");
            read_request(stream, &mut carry, shared)
        };
        let (close, (kind, resp)) = match request {
            Ok(r) => (r.close, route(shared, &r, &tracer)),
            Err(RequestError::TooLarge) => {
                let mut o = JsonObj::new();
                o.field_str("error", "too-large");
                o.field_str("detail", "request exceeds the configured size limit");
                (true, ("error", Response::json(413, o.finish())))
            }
            Err(RequestError::Malformed(detail)) => {
                let mut o = JsonObj::new();
                o.field_str("error", "malformed-request");
                o.field_str("detail", detail);
                (true, ("error", Response::json(400, o.finish())))
            }
            // Socket-level failure mid-read: nothing to answer, and no
            // response to trace either.
            Err(RequestError::Io) => return None,
        };
        let (next, written) = {
            let _g = tracer.span("write");
            shared.count(names::SERVE_HTTP_REQUESTS);
            let next = shared.take_over();
            kept = !close && next.is_none() && !shared.shutdown.load(Ordering::SeqCst);
            (next, respond(stream, &resp, kept))
        };
        drop(root);
        shared.ring.push(kind, resp.status, tracer.finish());
        if !kept || written.is_err() {
            if written.is_ok() {
                close_after_answer(stream);
            }
            return next;
        }
    }
}

/// Dispatch one parsed request. Returns the trace kind (the query kind
/// for `/query`, the route name otherwise) and the response to write.
fn route(shared: &Shared, req: &Request, tracer: &Tracer) -> (&'static str, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let mut o = JsonObj::new();
            o.field_str("status", "ok");
            o.field_u64("keys", shared.engine.key_count() as u64);
            ("healthz", Response::json(200, o.finish()))
        }
        ("GET", "/stats") => ("stats", Response::json(200, stats_body(shared))),
        ("GET", "/metrics") => (
            "metrics",
            Response {
                status: 200,
                content_type: PROMETHEUS_CONTENT_TYPE,
                extra_headers: String::new(),
                body: metrics_body(shared),
            },
        ),
        ("GET", "/trace") => {
            let n = req
                .query_param("n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(TRACE_DEFAULT_N);
            ("trace", Response::json(200, shared.ring.to_json(n)))
        }
        ("GET", "/query") => match req.query_param("q") {
            Some(q) => answer_query(shared, &q, tracer),
            None => {
                let mut o = JsonObj::new();
                o.field_str("error", "missing-query");
                o.field_str("detail", "GET /query needs ?q=<query text>");
                ("invalid", Response::json(400, o.finish()))
            }
        },
        ("POST", "/query") => answer_query(shared, &req.body, tracer),
        (_, path) => match ROUTES.iter().find(|(p, _)| *p == path) {
            Some((_, allow)) => {
                let mut o = JsonObj::new();
                o.field_str("error", "method-not-allowed");
                o.field_str("detail", allow);
                let mut resp = Response::json(405, o.finish());
                resp.extra_headers = format!("Allow: {allow}\r\n");
                ("method-not-allowed", resp)
            }
            None => {
                let mut o = JsonObj::new();
                o.field_str("error", "not-found");
                o.field_str(
                    "detail",
                    "routes: /query, /healthz, /stats, /metrics, /trace",
                );
                ("not-found", Response::json(404, o.finish()))
            }
        },
    }
}

fn answer_query(shared: &Shared, text: &str, tracer: &Tracer) -> (&'static str, Response) {
    // The span runs to the end of the function: the latency bookkeeping
    // and the body copy are what executing a query costs here too.
    let _g = tracer.span("execute");
    // Latency derives from the request tracer's wall source — the one
    // audited clock read in `WallTime::start` covers this too.
    let started = tracer.now_s();
    let (result, kind) = shared.engine.execute_text_traced(text.trim(), Some(tracer));
    let us = (tracer.now_s() - started) * 1e6;
    if let Some(hub) = &shared.hub {
        hub.observe(
            serve_scope(),
            names::SERVE_LATENCY_US,
            SERVE_LATENCY_BOUNDS,
            us,
        );
    }
    lock(&shared.latency)
        .entry(kind)
        .or_insert_with(|| Histogram::new(SERVE_LATENCY_BOUNDS))
        .observe(us);
    match result {
        Ok(body) => (kind, Response::json(200, body.to_string())),
        Err(e) => (kind, Response::json(e.http_status(), error_body(&e))),
    }
}

/// The `/stats` body: engine counters plus retained-trace count and a
/// per-query-kind latency section (`count`, `p50_us`, `p99_us` from the
/// worker-side histograms).
fn stats_body(shared: &Shared) -> String {
    let mut out = shared.engine.stats_obj().finish();
    out.pop();
    out.push_str(&format!(",\"traces\":{},\"latency\":{{", shared.ring.len()));
    let lat = lock(&shared.latency);
    for (i, (kind, h)) in lat.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = JsonObj::new();
        o.field_u64("count", h.total());
        o.field_f64("p50_us", h.percentile(0.50));
        o.field_f64("p99_us", h.percentile(0.99));
        out.push_str(&format!("{kind:?}:{}", o.finish()));
    }
    out.push_str("}}");
    out
}

/// The `/metrics` body: the telemetry hub snapshot (when the server has
/// one) followed by engine-local counters, all in Prometheus text
/// format.
fn metrics_body(shared: &Shared) -> String {
    let mut out = String::new();
    if let Some(hub) = &shared.hub {
        out.push_str(&render_prometheus(&hub.snapshot()));
    }
    out.push_str(&engine_prom(&shared.engine));
    out
}

fn engine_prom(engine: &QueryEngine) -> String {
    let s = engine.stats();
    let mut out = String::new();
    for (name, val) in [
        ("serve_engine_queries", s.queries),
        ("serve_engine_errors", s.errors),
        ("serve_engine_plan_hits", s.plans.hits),
        ("serve_engine_plan_misses", s.plans.misses),
        ("serve_engine_set_hits", s.sets.hits),
        ("serve_engine_set_misses", s.sets.misses),
        ("serve_engine_set_evictions", s.sets.evictions),
        ("serve_engine_kernel_ops", s.kernel_ops),
        ("serve_engine_kernel_words", s.kernel_words),
    ] {
        out.push_str(&format!("# TYPE {name} counter\n{name} {val}\n"));
    }
    out.push_str(&format!(
        "# TYPE serve_engine_keys gauge\nserve_engine_keys {}\n",
        engine.key_count()
    ));
    out
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    raw_query: String,
    body: String,
    /// The client wants the connection closed after this answer.
    close: bool,
}

impl Request {
    /// The percent-decoded value of query parameter `name`, if present.
    fn query_param(&self, name: &str) -> Option<String> {
        for pair in self.raw_query.split('&') {
            if let Some((k, v)) = pair.split_once('=') {
                if k == name {
                    return Some(percent_decode(v));
                }
            }
        }
        None
    }
}

enum RequestError {
    TooLarge,
    Malformed(&'static str),
    Io,
}

/// Take one HTTP/1.1 request (head + optional `Content-Length` body),
/// bounded by `max_request_bytes`, off the front of `carry`, reading
/// more from the socket as needed. Bytes past the request stay in
/// `carry` for the next call.
fn read_request(
    stream: &TcpStream,
    carry: &mut Vec<u8>,
    shared: &Shared,
) -> Result<Request, RequestError> {
    let max_bytes = shared.cfg.max_request_bytes;
    let mut searched = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(carry, searched) {
            break pos;
        }
        if carry.len() > max_bytes {
            return Err(RequestError::TooLarge);
        }
        // The terminator may straddle this read and the next.
        searched = carry.len().saturating_sub(3);
        if fill(stream, carry, shared, false).map_err(|_| RequestError::Io)? == 0 {
            return Err(RequestError::Malformed("connection closed mid-request"));
        }
    };
    let head = carry
        .get(..head_end)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or(RequestError::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or(RequestError::Malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RequestError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(RequestError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(RequestError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("unsupported HTTP version"));
    }
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length = 0usize;
    // HTTP/1.1 connections persist unless told otherwise; 1.0 ones
    // close unless told otherwise.
    let mut close = version == "HTTP/1.0";
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Malformed("bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',').map(str::trim) {
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            }
        }
    }
    let body_start = head_end + 4;
    let body_end = body_start.saturating_add(content_length);
    if body_end > max_bytes {
        return Err(RequestError::TooLarge);
    }
    while carry.len() < body_end {
        if fill(stream, carry, shared, false).map_err(|_| RequestError::Io)? == 0 {
            return Err(RequestError::Malformed("connection closed mid-body"));
        }
    }
    let body = carry
        .get(body_start..body_end)
        .and_then(|b| std::str::from_utf8(b).ok())
        .ok_or(RequestError::Malformed("request body is not UTF-8"))?
        .to_string();
    carry.drain(..body_end);
    Ok(Request {
        method,
        path,
        raw_query,
        body,
        close,
    })
}

/// Offset of the first `\r\n\r\n` at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let pos = buf.get(from..)?.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(from + pos)
}

/// Minimal percent-decoding: `%XX` and `+`-as-space, enough for query
/// text in a URL. Malformed escapes pass through verbatim (the query
/// parser will reject them with a typed error).
fn percent_decode(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    let mut rest = s.as_bytes();
    while let [b, tail @ ..] = rest {
        rest = tail;
        match b {
            b'+' => out.push(b' '),
            b'%' => {
                let escape = tail.split_at_checked(2).and_then(|(hex, after)| {
                    let hex = std::str::from_utf8(hex).ok()?;
                    Some((u8::from_str_radix(hex, 16).ok()?, after))
                });
                match escape {
                    Some((byte, after)) => {
                        out.push(byte);
                        rest = after;
                    }
                    None => out.push(b'%'),
                }
            }
            &b => out.push(b),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(
            percent_decode("coverage+proto%3DHTTP+trial%3D0"),
            "coverage proto=HTTP trial=0"
        );
        assert_eq!(percent_decode("a%2Cb"), "a,b");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%"), "trail%");
    }

    #[test]
    fn head_end_detection() {
        let buf = b"GET / HTTP/1.1\r\n\r\nbody";
        assert_eq!(find_head_end(buf, 0), Some(14));
        // Resuming three bytes back still sees a terminator that
        // straddled the previous read; resuming past it does not.
        assert_eq!(find_head_end(buf, 14), Some(14));
        assert_eq!(find_head_end(buf, 15), None);
        assert_eq!(find_head_end(b"partial", 0), None);
        assert_eq!(find_head_end(b"short", 9), None);
    }

    #[test]
    fn query_param_extraction() {
        let req = Request {
            method: "GET".to_string(),
            path: "/trace".to_string(),
            raw_query: "n=3&q=coverage+proto%3DHTTP".to_string(),
            body: String::new(),
            close: false,
        };
        assert_eq!(req.query_param("n").as_deref(), Some("3"));
        assert_eq!(req.query_param("q").as_deref(), Some("coverage proto=HTTP"));
        assert_eq!(req.query_param("x"), None);
    }

    #[test]
    fn route_table_lists_every_endpoint() {
        for path in ["/query", "/healthz", "/stats", "/metrics", "/trace"] {
            assert!(
                ROUTES.iter().any(|(p, _)| *p == path),
                "missing route {path}"
            );
        }
    }
}
