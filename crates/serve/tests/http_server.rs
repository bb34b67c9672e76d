//! End-to-end tests of the HTTP front end over real loopback sockets:
//! routing, error statuses, request-size limits, backpressure, graceful
//! shutdown semantics (in-flight requests complete while new
//! connections are refused), and persistent connections (reuse,
//! pipelining, the close rules, worker fairness, idle timeout).

#![expect(
    clippy::disallowed_methods,
    reason = "the timeout tests time the server from outside; nothing here feeds an analysis"
)]

use originscan_serve::{QueryEngine, Server, ServerConfig};
use originscan_store::{ScanSet, ScanSetStore, StoreKey, StoreReader};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_engine(tag: &str) -> Arc<QueryEngine> {
    let dir = std::env::temp_dir().join(format!("originscan-http-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let mut store = ScanSetStore::new();
    store.insert(
        StoreKey::new("HTTP", 0, 0),
        ScanSet::from_unsorted(vec![1, 2, 3, 100_000]),
    );
    store.insert(
        StoreKey::new("HTTP", 0, 1),
        ScanSet::from_unsorted(vec![2, 3, 4]),
    );
    store.insert(
        StoreKey::new("HTTP", 0, 2),
        ScanSet::from_unsorted(vec![900_000, 900_001]),
    );
    let path = dir.join("t.oscs");
    store.write_to(&path).expect("write store");
    let engine = QueryEngine::from_readers(vec![StoreReader::open(&path).expect("open")]);
    std::fs::remove_dir_all(&dir).ok();
    Arc::new(engine)
}

/// Send raw bytes, read the whole response (server closes when done).
fn roundtrip(addr: SocketAddr, request: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    s.write_all(request.as_bytes()).expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

fn get(addr: SocketAddr, target: &str) -> String {
    roundtrip(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    )
}

fn post_query(addr: SocketAddr, query: &str) -> String {
    roundtrip(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{query}",
            query.len()
        ),
    )
}

/// A client that keeps its socket and frames answers by
/// `Content-Length`, so it never depends on the server closing.
struct KeptClient {
    reader: BufReader<TcpStream>,
}

const HEALTHZ: &str = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";

impl KeptClient {
    fn connect(addr: SocketAddr) -> KeptClient {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
        KeptClient {
            reader: BufReader::new(s),
        }
    }

    fn send(&mut self, request: &str) {
        self.reader
            .get_mut()
            .write_all(request.as_bytes())
            .expect("send");
    }

    /// The next answer, head and body together like `roundtrip` returns
    /// them; `None` once the server has closed the connection.
    fn recv(&mut self) -> Option<String> {
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            match self.reader.read_line(&mut head) {
                Ok(0) | Err(_) => return None,
                Ok(_) => {}
            }
        }
        let len: usize = header_of(&head, "Content-Length")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("answer without Content-Length: {head}"));
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).expect("framed body");
        Some(head + std::str::from_utf8(&body).expect("UTF-8 body"))
    }

    fn exchange(&mut self, request: &str) -> String {
        self.send(request);
        self.recv().expect("an answer on the kept connection")
    }
}

fn post(query: &str, extra_headers: &str) -> String {
    format!(
        "POST /query HTTP/1.1\r\nHost: x\r\n{extra_headers}Content-Length: {}\r\n\r\n{query}",
        query.len()
    )
}

fn header_of<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    let head = response.split("\r\n\r\n").next().unwrap_or("");
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn says_close(response: &str) -> bool {
    header_of(response, "Connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

#[test]
fn routes_and_statuses() {
    let server =
        Server::start(test_engine("routes"), None, ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    let r = get(addr, "/healthz");
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(body_of(&r).contains("\"status\":\"ok\""), "{r}");

    let r = post_query(addr, "coverage proto=HTTP trial=0 origins=0,1");
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(body_of(&r).contains("\"coverage\":"), "{r}");

    // GET with a percent-encoded query answers identically to POST.
    let r2 = get(
        addr,
        "/query?q=coverage+proto%3DHTTP+trial%3D0+origins%3D0,1",
    );
    assert_eq!(status_of(&r2), 200, "{r2}");
    assert_eq!(body_of(&r2), body_of(&r), "GET and POST must agree");

    let r = post_query(addr, "member proto=HTTP trial=0 origin=9 addr=1");
    assert_eq!(status_of(&r), 404, "{r}");
    assert!(body_of(&r).contains("\"error\":\"key-not-found\""), "{r}");

    let r = post_query(addr, "nonsense");
    assert_eq!(status_of(&r), 400, "{r}");

    let r = get(addr, "/nope");
    assert_eq!(status_of(&r), 404, "{r}");
    assert!(body_of(&r).contains("\"error\":\"not-found\""), "{r}");

    let r = roundtrip(
        addr,
        "DELETE /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&r), 405, "{r}");

    let r = get(addr, "/stats");
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(body_of(&r).contains("\"queries\":"), "{r}");

    server.shutdown();
}

#[test]
fn unknown_protocol_is_a_400_not_an_empty_answer() {
    let server =
        Server::start(test_engine("unknown-proto"), None, ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    // A label no probe module owns is a client error with its own typed
    // kind, over both transports.
    for q in [
        "coverage proto=GOPHER trial=0 origins=0",
        "member proto=http trial=0 origin=0 addr=1", // names are case-sensitive keys
    ] {
        let r = post_query(addr, q);
        assert_eq!(status_of(&r), 400, "{q}: {r}");
        assert!(
            body_of(&r).contains("\"error\":\"unknown-protocol\""),
            "{q}: {r}"
        );
    }
    let r = get(addr, "/query?q=best-k+proto%3DGOPHER+trial%3D0+k%3D2");
    assert_eq!(status_of(&r), 400, "{r}");
    assert!(
        body_of(&r).contains("\"error\":\"unknown-protocol\""),
        "{r}"
    );

    // Registered modules with an empty store stay 404s: the new ICMP
    // and DNS names are queryable, not client errors.
    for proto in ["ICMP", "DNS"] {
        let r = post_query(addr, &format!("coverage proto={proto} trial=0 origins=0"));
        assert_eq!(status_of(&r), 404, "{proto}: {r}");
        assert!(body_of(&r).contains("\"error\":\"no-origins\""), "{r}");
    }
    server.shutdown();
}

#[test]
fn oversized_requests_get_413() {
    let cfg = ServerConfig {
        max_request_bytes: 512,
        ..ServerConfig::default()
    };
    let server = Server::start(test_engine("large"), None, cfg).expect("start");
    let addr = server.local_addr();
    let r = post_query(addr, &"x".repeat(4096));
    assert_eq!(status_of(&r), 413, "{r}");
    assert!(body_of(&r).contains("\"error\":\"too-large\""), "{r}");
    server.shutdown();
}

#[test]
fn malformed_requests_get_400() {
    let server =
        Server::start(test_engine("malformed"), None, ServerConfig::default()).expect("start");
    let addr = server.local_addr();
    let r = roundtrip(addr, "NOT-HTTP\r\n\r\n");
    assert_eq!(status_of(&r), 400, "{r}");
    let r = roundtrip(addr, "GET /query SPDY/3\r\n\r\n");
    assert_eq!(status_of(&r), 400, "{r}");
    server.shutdown();
}

#[test]
fn backpressure_answers_503_with_retry_after() {
    // One worker, queue of one: a held-open connection pins the worker,
    // a second fills the queue, and every further connection bounces
    // with 503 until the hogs release.
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(test_engine("busy"), None, cfg).expect("start");
    let addr = server.local_addr();

    // Pin the worker (popped from the queue, blocked in its bounded
    // read), then fill the queue with a second idle connection.
    let mut hog_worker = TcpStream::connect(addr).expect("connect worker hog");
    std::thread::sleep(Duration::from_millis(100));
    let mut hog_queue = TcpStream::connect(addr).expect("connect queue hog");
    std::thread::sleep(Duration::from_millis(100));

    let r = get(addr, "/healthz");
    assert_eq!(status_of(&r), 503, "{r}");
    assert!(r.contains("Retry-After:"), "{r}");
    assert!(body_of(&r).contains("\"error\":\"busy\""), "{r}");

    // Release both hogs; each gets real service, proving the rejection
    // was backpressure, not breakage.
    for hog in [&mut hog_worker, &mut hog_queue] {
        hog.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut out = String::new();
        hog.read_to_string(&mut out).expect("read");
        assert_eq!(status_of(&out), 200, "{out}");
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_completes_in_flight_and_refuses_new() {
    let server =
        Server::start(test_engine("shutdown"), None, ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    // In-flight: connected and accepted, but the request not yet sent.
    let mut in_flight = TcpStream::connect(addr).expect("connect in-flight");
    in_flight
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok();
    std::thread::sleep(Duration::from_millis(100));

    // Send the request concurrently with shutdown: it must complete.
    let writer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        in_flight
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("send in-flight");
        let mut out = String::new();
        in_flight.read_to_string(&mut out).expect("read in-flight");
        out
    });

    server.shutdown();
    let response = writer.join().expect("writer thread");
    assert_eq!(
        status_of(&response),
        200,
        "in-flight request must complete through shutdown: {response}"
    );

    // After shutdown the listener is gone: connects are refused.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    assert!(
        refused.is_err(),
        "new connections must be refused after shutdown"
    );
}

const COVERAGE: &str = "coverage proto=HTTP trial=0 origins=0,1";

#[test]
fn one_socket_serves_many_requests() {
    let server = Server::start(test_engine("keep"), None, ServerConfig::default()).expect("start");
    let addr = server.local_addr();
    let one_shot = post_query(addr, COVERAGE);

    let mut c = KeptClient::connect(addr);
    for i in 0..24 {
        // Application-level errors (a bad query, an unknown path) are
        // framed answers like any other: the connection stays.
        let (request, status) = match i % 4 {
            0 => (post(COVERAGE, ""), 200),
            1 => (HEALTHZ.to_string(), 200),
            2 => (post("nonsense", ""), 400),
            _ => ("GET /nope HTTP/1.1\r\nHost: x\r\n\r\n".to_string(), 404),
        };
        let r = c.exchange(&request);
        assert_eq!(status_of(&r), status, "request {i}: {r}");
        assert!(!says_close(&r), "request {i} must keep the socket: {r}");
        if i % 4 == 0 {
            assert_eq!(body_of(&r), body_of(&one_shot), "request {i}");
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server =
        Server::start(test_engine("pipeline"), None, ServerConfig::default()).expect("start");
    let mut c = KeptClient::connect(server.local_addr());

    // Two requests in one write: the second one's bytes are read along
    // with the first and must start the next request, not be lost.
    c.send(&(post(COVERAGE, "") + HEALTHZ));
    let first = c.recv().expect("first answer");
    assert!(body_of(&first).contains("\"coverage\":"), "{first}");
    let second = c.recv().expect("second answer");
    assert!(body_of(&second).contains("\"status\":\"ok\""), "{second}");

    // A body split from its head, then a pipelined request that asks to
    // close: answered in order, then end of stream.
    let query = post(COVERAGE, "Connection: close\r\n");
    let (head, tail) = query.split_at(query.len() - 5);
    c.send(&(HEALTHZ.to_string() + head));
    std::thread::sleep(Duration::from_millis(50));
    c.send(tail);
    assert!(body_of(&c.recv().expect("third")).contains("\"status\":\"ok\""));
    let last = c.recv().expect("fourth");
    assert!(body_of(&last).contains("\"coverage\":"), "{last}");
    assert!(says_close(&last), "{last}");
    assert!(c.recv().is_none(), "closed after the answer that said so");
    server.shutdown();
}

#[test]
fn close_rules() {
    let cfg = ServerConfig {
        max_request_bytes: 512,
        ..ServerConfig::default()
    };
    let server = Server::start(test_engine("close-rules"), None, cfg).expect("start");
    let addr = server.local_addr();
    let too_large = post(&"x".repeat(4096), "");

    for (request, status, closes) in [
        // The client's wish, either way round.
        (post(COVERAGE, "Connection: close\r\n"), 200, true),
        (
            post(COVERAGE, "Connection: Keep-Alive, Close\r\n"),
            200,
            true,
        ),
        ("GET /healthz HTTP/1.0\r\n\r\n".to_string(), 200, true),
        (
            "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_string(),
            200,
            false,
        ),
        // A request that could not be framed always closes.
        ("NOT-HTTP\r\n\r\n".to_string(), 400, true),
        (too_large, 413, true),
        // A query the engine rejects was framed fine.
        (post("nonsense", ""), 400, false),
    ] {
        // Each on a connection that has already served one request, so
        // the rule is what closes it, not a first-request special case.
        let mut c = KeptClient::connect(addr);
        assert_eq!(status_of(&c.exchange(HEALTHZ)), 200);
        let r = c.exchange(&request);
        assert_eq!(status_of(&r), status, "{request}: {r}");
        assert_eq!(says_close(&r), closes, "{request}: {r}");
        if closes {
            assert!(c.recv().is_none(), "{request}: must be closed");
        } else {
            assert_eq!(status_of(&c.exchange(HEALTHZ)), 200, "{request}: kept");
        }
    }
    server.shutdown();
}

#[test]
fn a_kept_connection_cannot_starve_a_queued_one() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let read_timeout = cfg.read_timeout;
    let server = Server::start(test_engine("fair"), None, cfg).expect("start");
    let addr = server.local_addr();
    let started = Instant::now();

    // The first client owns the only worker and is mid-request (so the
    // worker is reading, not idling) when the second connects.
    let mut first = KeptClient::connect(addr);
    assert!(!says_close(&first.exchange(HEALTHZ)));
    let (head, tail) = HEALTHZ.split_at(HEALTHZ.len() - 2);
    first.send(head);
    std::thread::sleep(Duration::from_millis(100));
    let mut second = KeptClient::connect(addr);
    second.send(HEALTHZ);
    std::thread::sleep(Duration::from_millis(100));

    // The first client's answer hands the worker over ...
    first.send(tail);
    let r = first.recv().expect("first client's answer");
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(says_close(&r), "a waiting connection ends the keep: {r}");
    assert!(first.recv().is_none());
    // (The old socket stays open on this side: the server's wait for the
    // client to finish closing must not hold the worker either.)
    // ... the second is served and now holds the worker, idle ...
    let r = second.recv().expect("second client's answer");
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(!says_close(&r), "nobody is waiting any more: {r}");

    // ... and gives it up without sending anything when the first
    // client comes back.
    let mut first = KeptClient::connect(addr);
    assert_eq!(status_of(&first.exchange(HEALTHZ)), 200);
    assert!(
        started.elapsed() < read_timeout / 2,
        "nobody may wait out read_timeout: {:?}",
        started.elapsed()
    );
    server.shutdown();
}

#[test]
fn idle_kept_connection_is_closed_after_read_timeout() {
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start(test_engine("idle"), None, cfg).expect("start");
    let mut c = KeptClient::connect(server.local_addr());
    assert!(!says_close(&c.exchange(HEALTHZ)));
    let idle_since = Instant::now();
    assert!(c.recv().is_none(), "the server closes, it does not answer");
    let waited = idle_since.elapsed();
    assert!(
        waited >= Duration::from_millis(250) && waited < Duration::from_secs(3),
        "closed after {waited:?}, read_timeout is 300 ms"
    );
    server.shutdown();
}

#[test]
fn shutdown_does_not_wait_for_idle_kept_connections() {
    let cfg = ServerConfig::default();
    let read_timeout = cfg.read_timeout;
    let server = Server::start(test_engine("idle-shutdown"), None, cfg).expect("start");
    let mut c = KeptClient::connect(server.local_addr());
    assert!(!says_close(&c.exchange(HEALTHZ)));

    let t = Instant::now();
    server.shutdown();
    assert!(
        t.elapsed() < read_timeout / 4,
        "shutdown took {:?} with an idle kept connection open",
        t.elapsed()
    );
    assert!(c.recv().is_none());
}

#[test]
fn every_request_of_a_connection_gets_its_own_trace() {
    let server =
        Server::start(test_engine("traces"), None, ServerConfig::default()).expect("start");
    let addr = server.local_addr();
    let pause = Duration::from_millis(200);
    let k = 4;

    let mut c = KeptClient::connect(addr);
    for _ in 0..k {
        std::thread::sleep(pause);
        assert_eq!(status_of(&c.exchange(HEALTHZ)), 200);
    }
    // Its own trace is pushed after the answer is written; this GET
    // goes over the same connection, hence after all of them.
    let r = c.exchange("GET /trace?n=100 HTTP/1.1\r\nHost: x\r\n\r\n");
    let traces: Vec<&str> = body_of(&r)
        .split("{\"trace\":")
        .filter(|t| t.contains("\"kind\":\"healthz\""))
        .collect();
    assert_eq!(traces.len(), k, "{r}");

    // Seconds between `"start":` and `"end":` of the span called `name`.
    let span_s = |trace: &str, name: &str| -> f64 {
        let tail = trace
            .split_once(&format!("\"name\":\"{name}\",\"start\":"))
            .unwrap_or_else(|| panic!("no {name} span in {trace}"))
            .1;
        let (start, tail) = tail.split_once(",\"end\":").expect("end");
        let end = tail.split_once('}').expect("span object").0;
        end.parse::<f64>().expect("end") - start.parse::<f64>().expect("start")
    };
    for t in traces {
        // The time the connection idled before each request is in no
        // span: a trace begins when its request's first byte is here.
        for name in ["request", "read", "write"] {
            let s = span_s(t, name);
            assert!(
                (0.0..pause.as_secs_f64() / 2.0).contains(&s),
                "{name} span of {s} s: {t}"
            );
        }
    }
    server.shutdown();
}
