//! HTTPS leg of the ZGrab phase: TLS 1.2 ClientHello, parse ServerHello.

use super::{L7Detail, L7Outcome};
use crate::target::L7Ctx;
use originscan_wire::{client_hello, ServerHello};

/// Build the ClientHello for this connection; the client random is derived
/// from the flow so the whole exchange is deterministic.
pub(super) fn request(ctx: &L7Ctx) -> Vec<u8> {
    let random = (u64::from(ctx.src_ip) << 32)
        ^ u64::from(ctx.dst)
        ^ (u64::from(ctx.trial) << 17)
        ^ u64::from(ctx.attempt);
    client_hello(random)
}

/// Parse the response. A ServerHello that selects a suite we offered is a
/// completed handshake; alerts, junk, or suites we never offered are
/// protocol errors (the host is reachable but not HTTPS-speaking — same
/// bucket ZGrab places them in).
pub(crate) fn parse(bytes: &[u8]) -> L7Outcome {
    match ServerHello::parse(bytes) {
        Ok(sh) if sh.suite_is_offered() => L7Outcome::Success(L7Detail::Tls {
            cipher: sh.cipher_suite,
        }),
        _ => L7Outcome::ProtocolError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::Protocol;
    use originscan_wire::{alert, VERSION_TLS12};

    fn ctx() -> L7Ctx {
        L7Ctx {
            origin: 1,
            src_ip: 10,
            dst: 20,
            protocol: Protocol::Https,
            time_s: 0.0,
            trial: 1,
            attempt: 0,
            concurrent_origins: 1,
        }
    }

    #[test]
    fn request_is_client_hello() {
        let req = request(&ctx());
        assert_eq!(req[0], originscan_wire::CONTENT_HANDSHAKE);
        assert_eq!(req[5], originscan_wire::HS_CLIENT_HELLO);
    }

    #[test]
    fn request_varies_by_attempt() {
        let mut c2 = ctx();
        c2.attempt = 1;
        assert_ne!(request(&ctx()), request(&c2));
    }

    #[test]
    fn offered_suite_succeeds() {
        let sh = ServerHello {
            version: VERSION_TLS12,
            cipher_suite: 0xc02b,
        };
        match parse(&sh.emit(9)) {
            L7Outcome::Success(L7Detail::Tls { cipher }) => assert_eq!(cipher, 0xc02b),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unoffered_suite_fails() {
        let sh = ServerHello {
            version: VERSION_TLS12,
            cipher_suite: 0x1302,
        };
        assert_eq!(parse(&sh.emit(9)), L7Outcome::ProtocolError);
    }

    #[test]
    fn alert_fails() {
        assert_eq!(parse(&alert(40)), L7Outcome::ProtocolError);
    }
}
