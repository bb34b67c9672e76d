//! HTTP leg of the ZGrab phase: send `GET /`, accept any valid status line.

use super::{L7Detail, L7Outcome};
use crate::target::L7Ctx;
use originscan_wire::http::{get_request, StatusLine};

/// Build the request bytes for this connection.
pub fn request(ctx: &L7Ctx) -> Vec<u8> {
    get_request(ctx.dst)
}

/// Parse the response: any syntactically valid HTTP status line counts as
/// a completed handshake (the paper's ground-truth rule — even a `403
/// Blocked Site` page is a *reachable* host).
pub fn parse(bytes: &[u8]) -> L7Outcome {
    match StatusLine::parse(bytes) {
        Ok(sl) => L7Outcome::Success(L7Detail::Http { code: sl.code }),
        Err(_) => L7Outcome::ProtocolError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Protocol;

    #[test]
    fn request_names_destination_host() {
        let ctx = L7Ctx {
            origin: 0,
            src_ip: 0,
            dst: 0x08080404,
            protocol: Protocol::Http,
            time_s: 0.0,
            trial: 0,
            attempt: 0,
            concurrent_origins: 1,
        };
        let req = String::from_utf8(request(&ctx)).unwrap();
        assert!(req.contains("Host: 8.8.4.4"));
    }

    #[test]
    fn any_status_code_is_success() {
        for resp in [
            "HTTP/1.1 200 OK\r\n\r\n",
            "HTTP/1.0 500 Oops\r\n\r\n",
            "HTTP/1.1 403 Forbidden\r\n\r\nBlocked Site",
        ] {
            assert!(parse(resp.as_bytes()).is_success(), "{resp}");
        }
    }

    #[test]
    fn non_http_is_protocol_error() {
        assert_eq!(parse(b"SSH-2.0-foo\r\n"), L7Outcome::ProtocolError);
        assert_eq!(parse(b""), L7Outcome::ProtocolError);
    }
}
