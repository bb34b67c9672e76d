//! The load client: a closed-loop HTTP/1.1 client that behaves as the
//! protocol says, so the server's connection policy decides how many
//! connections a run opens, not the benchmark.
//!
//! It never sends `Connection: close`, frames responses by
//! `Content-Length`, and keeps the socket unless the response says
//! `Connection: close` (or is HTTP/1.0 without keep-alive). Against a
//! server that closes after every response that is one connection per
//! request; against a keep-alive server it is one per client, with no
//! edit here. Latency runs from just before the request is written to
//! the last body byte; connecting is outside it and inside throughput.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What the response head says about framing and reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    pub status: u16,
    /// `None`: no `Content-Length`, the body runs to end of stream.
    pub content_length: Option<usize>,
    /// The server will close (or the body is delimited by closing).
    pub close: bool,
}

/// Parse a response head (status line and headers, without the blank
/// line that ends it).
pub fn parse_head(head: &str) -> Result<Head, String> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("not an HTTP/1.x status line: {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status code in {status_line:?}"))?;
    let mut content_length = None;
    // HTTP/1.1 connections persist unless told otherwise; 1.0 ones do
    // not unless told otherwise.
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line {line:?}"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }
    if content_length.is_none() {
        close = true;
    }
    Ok(Head {
        status,
        content_length,
        close,
    })
}

/// Offset just past the `\r\n\r\n` that ends the head, if it is in `buf`.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub latency: Duration,
}

/// Largest response accepted; the server's biggest (`/trace?n=256`) is
/// well under this.
const MAX_RESPONSE_BYTES: usize = 16 << 20;

#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the end of the previous response.
    carry: Vec<u8>,
    pub requests: u64,
    pub connections: u64,
    pub connect_time: Duration,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            carry: Vec::new(),
            requests: 0,
            connections: 0,
            connect_time: Duration::ZERO,
        }
    }

    pub fn post_query(&mut self, query: &str) -> io::Result<Response> {
        let request = format!(
            "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        );
        self.exchange(request.as_bytes())
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.exchange(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    fn connect(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        self.connect_time += t.elapsed();
        self.connections += 1;
        self.carry.clear();
        self.stream = Some(stream);
        Ok(())
    }

    /// One request, one response. A kept connection the server has
    /// meanwhile closed shows as an error or end of stream before any
    /// response byte; that request is sent again, once, on a fresh
    /// connection, and timed from the second write.
    fn exchange(&mut self, request: &[u8]) -> io::Result<Response> {
        self.requests += 1;
        let reused = self.stream.is_some();
        if !reused {
            self.connect()?;
        }
        match self.round_trip(request) {
            Err(e) if reused && e.kind() != io::ErrorKind::InvalidData => {
                self.connect()?;
                self.round_trip(request)
            }
            other => other,
        }
    }

    fn round_trip(&mut self, request: &[u8]) -> io::Result<Response> {
        let result = self.round_trip_inner(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn round_trip_inner(&mut self, request: &[u8]) -> io::Result<Response> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let Some(stream) = self.stream.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "no connection"));
        };
        let started = Instant::now();
        stream.write_all(request)?;
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 8192];
        let head_len = loop {
            if let Some(end) = head_end(&buf) {
                break end;
            }
            if buf.len() > MAX_RESPONSE_BYTES {
                return Err(bad("response head too large".to_string()));
            }
            match stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a response",
                    ))
                }
                n => buf.extend_from_slice(&chunk[..n]),
            }
        };
        let head_text = std::str::from_utf8(&buf[..head_len - 4])
            .map_err(|_| bad("response head is not UTF-8".to_string()))?;
        let head = parse_head(head_text).map_err(bad)?;
        let mut body = buf.split_off(head_len);
        match head.content_length {
            Some(len) if len > MAX_RESPONSE_BYTES => {
                return Err(bad(format!("Content-Length {len} too large")));
            }
            Some(len) => {
                while body.len() < len {
                    match stream.read(&mut chunk)? {
                        0 => {
                            return Err(bad(format!("body ended at {} of {len} bytes", body.len())))
                        }
                        n => body.extend_from_slice(&chunk[..n]),
                    }
                }
                self.carry = body.split_off(len);
            }
            None => loop {
                if body.len() > MAX_RESPONSE_BYTES {
                    return Err(bad("unframed body too large".to_string()));
                }
                match stream.read(&mut chunk)? {
                    0 => break,
                    n => body.extend_from_slice(&chunk[..n]),
                }
            },
        }
        let latency = started.elapsed();
        if head.close {
            // Dropping the socket is what lets the server's worker stop
            // draining and take the next connection.
            self.stream = None;
        }
        Ok(Response {
            status: head.status,
            body: String::from_utf8(body).map_err(|_| bad("body is not UTF-8".to_string()))?,
            latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn head_framing_and_reuse_rules() {
        let h = parse_head("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\nConnection: close").unwrap();
        assert_eq!(
            h,
            Head {
                status: 200,
                content_length: Some(12),
                close: true
            }
        );
        // HTTP/1.1 persists by default; header names are case-blind.
        let h = parse_head("HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0").unwrap();
        assert_eq!((h.status, h.content_length, h.close), (503, Some(0), false));
        // HTTP/1.0 closes unless it says keep-alive.
        assert!(
            parse_head("HTTP/1.0 200 OK\r\nContent-Length: 1")
                .unwrap()
                .close
        );
        assert!(
            !parse_head("HTTP/1.0 200 OK\r\nContent-Length: 1\r\nConnection: Keep-Alive")
                .unwrap()
                .close
        );
        // No length: the body is delimited by the close.
        let h = parse_head("HTTP/1.1 200 OK").unwrap();
        assert_eq!((h.content_length, h.close), (None, true));
        assert!(parse_head("SPDY/3 200").is_err());
        assert!(parse_head("HTTP/1.1 abc").is_err());
        assert!(parse_head("HTTP/1.1 200 OK\r\nContent-Length: x").is_err());
        assert!(parse_head("HTTP/1.1 200 OK\r\nnocolon").is_err());
        assert_eq!(head_end(b"HTTP/1.1 200 OK\r\n\r\nbody"), Some(19));
        assert_eq!(head_end(b"HTTP/1.1 200 OK\r\n"), None);
    }

    /// A server scripted per connection: for each request it reads, it
    /// writes the next canned response, then closes if told to.
    fn scripted_server(
        script: Vec<Vec<(&'static str, bool)>>,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for conn in script {
                let (mut s, _) = listener.accept().unwrap();
                for (response, close_after) in conn {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 1024];
                    // Requests here carry no body past the head except a
                    // short query that arrives in the same segment.
                    while head_end(&buf).is_none() {
                        let n = s.read(&mut chunk).unwrap();
                        if n == 0 {
                            return;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    s.write_all(response.as_bytes()).unwrap();
                    if close_after {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_is_reused_close_reconnects_and_stale_socket_retries() {
        let (addr, server) = scripted_server(vec![
            // Connection 1: two keep-alive responses, then the server
            // closes without saying so.
            vec![
                ("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nab", false),
                ("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\ncde", true),
            ],
            // Connection 2 (the retry): says close.
            vec![(
                "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nConnection: close\r\n\r\nf",
                true,
            )],
            // Connection 3: unframed body, delimited by the close.
            vec![("HTTP/1.1 404 Not Found\r\n\r\nnope", true)],
        ]);
        let mut c = Client::new(addr);
        assert_eq!(c.get("/a").unwrap().body, "ab");
        assert_eq!(c.get("/b").unwrap().body, "cde");
        assert_eq!(c.connections, 1, "keep-alive reuses the socket");
        assert_eq!(c.get("/c").unwrap().body, "f");
        assert_eq!(c.connections, 2, "a stale kept socket is retried once");
        assert!(c.stream.is_none(), "Connection: close drops the socket");
        let r = c.post_query("x").unwrap();
        assert_eq!((r.status, r.body.as_str()), (404, "nope"));
        assert_eq!((c.requests, c.connections), (4, 3));
        server.join().unwrap();
    }
}
