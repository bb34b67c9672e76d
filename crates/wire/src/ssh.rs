//! SSH identification-string exchange (RFC 4253 §4.2).
//!
//! The paper's SSH handshake "terminates after the protocol version
//! exchange": the scanner sends its identification string, reads the
//! server's, and disconnects. A host that returns a valid `SSH-`
//! identification line counts as a completed L7 handshake.

use crate::ParseError;

/// Identification string the scanner announces.
pub(crate) const CLIENT_IDENT: &str = "SSH-2.0-originscan_0.1";

/// Maximum identification line length including CRLF (RFC 4253).
pub(crate) const MAX_IDENT_LEN: usize = 255;

/// Build the client identification line as sent on the wire.
pub fn client_ident_line() -> Vec<u8> {
    let mut line = Vec::with_capacity(CLIENT_IDENT.len() + 2);
    line.extend_from_slice(CLIENT_IDENT.as_bytes());
    line.extend_from_slice(b"\r\n");
    line
}

/// A parsed server identification string, borrowing from the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerIdent<'a> {
    /// Protocol version, e.g. `2.0` or `1.99` (which signals 2.0 compat).
    pub proto_version: &'a str,
    /// Software version token, e.g. `OpenSSH_7.4`.
    pub software: &'a str,
    /// Optional comment following the software version.
    pub comment: Option<&'a str>,
}

impl<'a> ServerIdent<'a> {
    /// Emit the line as a server sends it.
    pub fn emit(&self) -> Vec<u8> {
        let mut s = format!("SSH-{}-{}", self.proto_version, self.software);
        if let Some(c) = &self.comment {
            s.push(' ');
            s.push_str(c);
        }
        s.push_str("\r\n");
        s.into_bytes()
    }

    /// Parse a server identification line.
    ///
    /// Accepts a bare `\n` terminator (some stacks omit `\r`), rejects
    /// over-long or non-SSH lines.
    pub fn parse(buf: &'a [u8]) -> Result<Self, ParseError> {
        let nl = buf
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(ParseError::Truncated)?;
        if nl + 1 > MAX_IDENT_LEN {
            return Err(ParseError::Malformed);
        }
        let line = buf.get(..nl).ok_or(ParseError::Truncated)?;
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let line = core::str::from_utf8(line).map_err(|_| ParseError::Malformed)?;
        let rest = line.strip_prefix("SSH-").ok_or(ParseError::Malformed)?;
        let (proto, soft_and_comment) = rest.split_once('-').ok_or(ParseError::Malformed)?;
        if proto != "2.0" && proto != "1.99" && proto != "1.5" {
            return Err(ParseError::Malformed);
        }
        let (software, comment) = match soft_and_comment.split_once(' ') {
            Some((s, c)) => (s, Some(c)),
            None => (soft_and_comment, None),
        };
        if software.is_empty() {
            return Err(ParseError::Malformed);
        }
        Ok(Self {
            proto_version: proto,
            software,
            comment,
        })
    }

    /// True when the identified implementation is OpenSSH (whose
    /// `MaxStartups` behaviour §6 of the paper analyzes).
    pub fn is_openssh(&self) -> bool {
        self.software.starts_with("OpenSSH")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_line_ends_crlf() {
        let line = client_ident_line();
        assert!(line.starts_with(b"SSH-2.0-"));
        assert!(line.ends_with(b"\r\n"));
        assert!(line.len() <= MAX_IDENT_LEN);
        // Byte for byte what `format!` rendered, in a buffer of its size.
        assert_eq!(line, format!("{CLIENT_IDENT}\r\n").into_bytes());
        assert_eq!(line.len(), line.capacity());
    }

    #[test]
    fn parse_openssh_with_comment() {
        let parsed = ServerIdent::parse(b"SSH-2.0-OpenSSH_7.4 Debian-10+deb9u7\r\n").unwrap();
        assert_eq!(parsed.proto_version, "2.0");
        assert_eq!(parsed.software, "OpenSSH_7.4");
        assert_eq!(parsed.comment, Some("Debian-10+deb9u7"));
        assert!(parsed.is_openssh());
    }

    #[test]
    fn roundtrip() {
        let ident = ServerIdent {
            proto_version: "2.0",
            software: "dropbear_2019.78",
            comment: None,
        };
        assert_eq!(ServerIdent::parse(&ident.emit()).unwrap(), ident);
        assert!(!ident.is_openssh());
    }

    #[test]
    fn bare_lf_accepted() {
        assert!(ServerIdent::parse(b"SSH-2.0-OpenSSH_8.0\n").is_ok());
    }

    #[test]
    fn legacy_199_accepted() {
        let parsed = ServerIdent::parse(b"SSH-1.99-Cisco-1.25\r\n").unwrap();
        assert_eq!(parsed.proto_version, "1.99");
    }

    #[test]
    fn junk_rejected() {
        assert!(ServerIdent::parse(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(ServerIdent::parse(b"SSH-3.0-future\r\n").is_err());
        assert!(ServerIdent::parse(b"SSH-2.0-\r\n").is_err());
        assert!(ServerIdent::parse(b"no terminator").is_err());
        let long = [b'a'; 300];
        let mut msg = b"SSH-2.0-".to_vec();
        msg.extend_from_slice(&long);
        msg.extend_from_slice(b"\r\n");
        assert!(ServerIdent::parse(&msg).is_err());
    }
}
