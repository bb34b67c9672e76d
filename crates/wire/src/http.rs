//! HTTP/1.1 request construction and status-line parsing.
//!
//! The paper's HTTP handshake is a `GET /` followed by reading the status
//! line; a host "completes the L7 handshake" when it returns any valid
//! HTTP status line. We implement exactly that.

use crate::{decimal_len, put_decimal, ParseError};

/// The request up to the `Host` value, and everything after it.
const GET_HEAD: &[u8] = b"GET / HTTP/1.1\r\nHost: ";
const GET_TAIL: &[u8] = b"\r\nUser-Agent: Mozilla/5.0 (compatible; originscan/0.1; +https://example.edu/scanning)\r\nAccept: */*\r\nConnection: close\r\n\r\n";

/// Build the `GET /` request the scanner sends to `addr`, named in
/// dotted-quad form in its `Host` header.
///
/// Mirrors ZGrab's defaults: explicit `Host`, a researcher-identifying
/// `User-Agent`, and `Connection: close` so the probed server tears the
/// connection down immediately (one of the paper's ethical measures).
pub fn get_request(addr: u32) -> Vec<u8> {
    let octets = addr.to_be_bytes().map(u64::from);
    let host_len: usize = octets.iter().map(|&o| decimal_len(o) + 1).sum::<usize>() - 1;
    let mut req = Vec::with_capacity(GET_HEAD.len() + host_len + GET_TAIL.len());
    req.extend_from_slice(GET_HEAD);
    for (i, octet) in octets.into_iter().enumerate() {
        if i > 0 {
            req.push(b'.');
        }
        put_decimal(&mut req, octet);
    }
    req.extend_from_slice(GET_TAIL);
    req
}

/// A parsed HTTP status line, borrowing its reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusLine<'a> {
    /// Minor version of `HTTP/1.x` (0 or 1).
    pub minor_version: u8,
    /// Three-digit status code.
    pub code: u16,
    /// Reason phrase (may be empty).
    pub reason: &'a str,
}

/// What [`StatusLine::emit`] writes between the reason phrase and the
/// body length, and after it.
const CONTENT_LENGTH: &[u8] = b"\r\nContent-Length: ";
const CLOSE: &[u8] = b"\r\nConnection: close\r\n\r\n";

impl<'a> StatusLine<'a> {
    /// Parse a status line from the front of a response buffer.
    pub fn parse(buf: &'a [u8]) -> Result<Self, ParseError> {
        let line_end = buf
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or(ParseError::Truncated)?;
        let line = buf.get(..line_end).ok_or(ParseError::Truncated)?;
        let line = core::str::from_utf8(line).map_err(|_| ParseError::Malformed)?;
        let rest = line.strip_prefix("HTTP/1.").ok_or(ParseError::Malformed)?;
        let mut it = rest.splitn(3, ' ');
        let minor: u8 = it
            .next()
            .ok_or(ParseError::Malformed)?
            .parse()
            .map_err(|_| ParseError::Malformed)?;
        if minor > 1 {
            return Err(ParseError::Malformed);
        }
        let code: u16 = it
            .next()
            .ok_or(ParseError::Malformed)?
            .parse()
            .map_err(|_| ParseError::Malformed)?;
        if !(100..600).contains(&code) {
            return Err(ParseError::Malformed);
        }
        Ok(Self {
            minor_version: minor,
            code,
            reason: it.next().unwrap_or(""),
        })
    }

    /// Render a status line plus minimal headers, as simulated servers
    /// send, into one buffer of exactly its length.
    pub fn emit(&self, body: &str) -> Vec<u8> {
        let (minor, code) = (u64::from(self.minor_version), u64::from(self.code));
        let body_len = body.len() as u64;
        let len = b"HTTP/1.".len()
            + decimal_len(minor)
            + 1
            + decimal_len(code)
            + 1
            + self.reason.len()
            + CONTENT_LENGTH.len()
            + decimal_len(body_len)
            + CLOSE.len()
            + body.len();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(b"HTTP/1.");
        put_decimal(&mut out, minor);
        out.push(b' ');
        put_decimal(&mut out, code);
        out.push(b' ');
        out.extend_from_slice(self.reason.as_bytes());
        out.extend_from_slice(CONTENT_LENGTH);
        put_decimal(&mut out, body_len);
        out.extend_from_slice(CLOSE);
        out.extend_from_slice(body.as_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_well_formed() {
        let req = get_request(0x0102_0304);
        let s = core::str::from_utf8(&req).unwrap();
        assert!(s.starts_with("GET / HTTP/1.1\r\n"));
        assert!(s.contains("Host: 1.2.3.4\r\n"));
        assert!(s.contains("Connection: close"));
        assert!(s.ends_with("\r\n\r\n"));
    }

    /// The `format!` renderings the byte writers replaced.
    fn formatted_request(addr: u32) -> Vec<u8> {
        format!(
            "GET / HTTP/1.1\r\nHost: {}\r\nUser-Agent: Mozilla/5.0 (compatible; originscan/0.1; +https://example.edu/scanning)\r\nAccept: */*\r\nConnection: close\r\n\r\n",
            crate::ipv4::fmt_addr(addr)
        )
        .into_bytes()
    }

    fn formatted_status(sl: &StatusLine<'_>, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.{} {} {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            sl.minor_version,
            sl.code,
            sl.reason,
            body.len(),
            body
        )
        .into_bytes()
    }

    #[test]
    fn request_bytes_equal_the_formatted_request() {
        let octets = [0u32, 9, 10, 99, 100, 255];
        for a in octets {
            for b in octets {
                for c in octets {
                    for d in octets {
                        let addr = a << 24 | b << 16 | c << 8 | d;
                        let req = get_request(addr);
                        assert_eq!(req, formatted_request(addr), "{addr:#x}");
                        assert_eq!(req.len(), req.capacity(), "{addr:#x}");
                    }
                }
            }
        }
    }

    /// Every status a simulated server sends (any code with `OK`, `403
    /// Forbidden` with its `Blocked Site` page) and then some.
    #[test]
    fn status_bytes_equal_the_formatted_status() {
        for minor_version in [0, 1] {
            for code in 100..600 {
                for (reason, body) in [("OK", ""), ("Forbidden", "Blocked Site"), ("", "x")] {
                    let sl = StatusLine {
                        minor_version,
                        code,
                        reason,
                    };
                    let bytes = sl.emit(body);
                    assert_eq!(bytes, formatted_status(&sl, body), "{sl:?}");
                    assert_eq!(bytes.len(), bytes.capacity(), "{sl:?}");
                }
            }
        }
        let long = "b".repeat(12_345);
        let sl = StatusLine {
            minor_version: 1,
            code: 200,
            reason: "OK",
        };
        assert_eq!(sl.emit(&long), formatted_status(&sl, &long));
    }

    #[test]
    fn status_roundtrip() {
        let sl = StatusLine {
            minor_version: 1,
            code: 200,
            reason: "OK",
        };
        let bytes = sl.emit("hello");
        let parsed = StatusLine::parse(&bytes).unwrap();
        assert_eq!(parsed, sl);
    }

    #[test]
    fn blocked_site_page_parses() {
        // The WA K-20 networks in the paper serve Brazil a "Blocked Site"
        // page — still a completed L7 handshake.
        let bytes = b"HTTP/1.1 403 Forbidden\r\n\r\nBlocked Site";
        let parsed = StatusLine::parse(bytes).unwrap();
        assert_eq!(parsed.code, 403);
    }

    #[test]
    fn garbage_rejected() {
        assert!(StatusLine::parse(b"SSH-2.0-OpenSSH_8.0\r\n").is_err());
        assert!(StatusLine::parse(b"HTTP/2.0 200 OK\r\n").is_err());
        assert!(StatusLine::parse(b"HTTP/1.1 999 Nope\r\n").is_err());
        assert!(StatusLine::parse(b"HTTP/1.1 20x OK\r\n").is_err());
        assert!(StatusLine::parse(b"no newline here").is_err());
    }

    #[test]
    fn missing_reason_ok() {
        let parsed = StatusLine::parse(b"HTTP/1.0 204 \r\n\r\n").unwrap();
        assert_eq!(parsed.code, 204);
        assert_eq!(parsed.minor_version, 0);
    }
}
