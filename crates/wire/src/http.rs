//! HTTP/1.1 request construction and status-line parsing.
//!
//! The paper's HTTP handshake is a `GET /` followed by reading the status
//! line; a host "completes the L7 handshake" when it returns any valid
//! HTTP status line. We implement exactly that.

use crate::ParseError;

/// Build the `GET /` request the scanner sends.
///
/// Mirrors ZGrab's defaults: explicit `Host`, a researcher-identifying
/// `User-Agent`, and `Connection: close` so the probed server tears the
/// connection down immediately (one of the paper's ethical measures).
pub fn get_request(host: &str) -> Vec<u8> {
    format!(
        "GET / HTTP/1.1\r\nHost: {host}\r\nUser-Agent: Mozilla/5.0 (compatible; originscan/0.1; +https://example.edu/scanning)\r\nAccept: */*\r\nConnection: close\r\n\r\n"
    )
    .into_bytes()
}

/// A parsed HTTP status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusLine {
    /// Minor version of `HTTP/1.x` (0 or 1).
    pub minor_version: u8,
    /// Three-digit status code.
    pub code: u16,
    /// Reason phrase (may be empty).
    pub reason: String,
}

impl StatusLine {
    /// Parse a status line from the front of a response buffer.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
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
        let reason = it.next().unwrap_or("").to_string();
        Ok(Self {
            minor_version: minor,
            code,
            reason,
        })
    }

    /// Render a status line plus minimal headers, as simulated servers send.
    pub fn emit(&self, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.{} {} {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.minor_version,
            self.code,
            self.reason,
            body.len(),
            body
        )
        .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_well_formed() {
        let req = get_request("1.2.3.4");
        let s = core::str::from_utf8(&req).unwrap();
        assert!(s.starts_with("GET / HTTP/1.1\r\n"));
        assert!(s.contains("Host: 1.2.3.4\r\n"));
        assert!(s.contains("Connection: close"));
        assert!(s.ends_with("\r\n\r\n"));
    }

    #[test]
    fn status_roundtrip() {
        let sl = StatusLine {
            minor_version: 1,
            code: 200,
            reason: "OK".into(),
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
