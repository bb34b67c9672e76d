//! ZGrab-style application-layer handshakes.
//!
//! After ZMap reports an address L4-responsive (validated SYN-ACK), the
//! paper immediately completes an application handshake: `GET /` for HTTP,
//! a TLS 1.2 ClientHello for HTTPS, and the SSH identification exchange
//! for SSH. A host only counts toward ground truth when this L7 handshake
//! succeeds — L4-only responders (firewalls, middleboxes, DDoS shields)
//! are excluded.
//!
//! This module drives those handshakes against a [`Network`], parses the
//! responses with `originscan-wire`, and implements the retry policy §6
//! of the paper evaluates against probabilistic temporary blocking.

pub mod http;
mod ssh;
mod tls;

use crate::error::MAX_L7_RETRIES;
use crate::target::{CloseKind, L7Ctx, L7Reply, Network, Protocol};

/// Protocol-specific facts recorded from a successful handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L7Detail {
    /// HTTP status code returned for `GET /`.
    Http {
        /// The status code (100..599).
        code: u16,
    },
    /// TLS ServerHello facts.
    Tls {
        /// Negotiated cipher suite.
        cipher: u16,
    },
    /// SSH identification facts.
    Ssh {
        /// Coarse software classification.
        software: SshSoftware,
    },
    /// ICMP echo reply (stateless module: the probe reply *is* the
    /// terminal result; no follow-up connection exists).
    Icmp,
    /// DNS response facts (stateless module, like [`L7Detail::Icmp`]).
    Dns {
        /// Response code from the header.
        rcode: u8,
        /// Answer-record count (saturated at 255).
        answers: u8,
    },
}

/// Coarse classification of SSH server software (kept allocation-free;
/// §6's MaxStartups analysis only needs to know "is this OpenSSH").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SshSoftware {
    /// OpenSSH (subject to `MaxStartups` probabilistic refusal).
    OpenSsh,
    /// Dropbear.
    Dropbear,
    /// Anything else.
    Other,
}

/// Final outcome of the application-layer phase for one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L7Outcome {
    /// Handshake completed; the host counts toward ground truth.
    Success(L7Detail),
    /// Server closed the connection (RST or FIN-ACK) without data on
    /// every attempt.
    ConnClosed(CloseKind),
    /// Connection timed out on every attempt.
    Timeout,
    /// Server sent data that does not parse as the expected protocol.
    ProtocolError,
}

impl L7Outcome {
    /// Did the handshake complete?
    pub(crate) fn is_success(&self) -> bool {
        matches!(self, L7Outcome::Success(_))
    }
}

/// Result of [`grab`]: the outcome plus how many attempts it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrabResult {
    /// Final outcome.
    pub outcome: L7Outcome,
    /// Attempts performed (1 = no retry needed).
    pub(crate) attempts: u8,
}

/// Perform the application handshake with up to `retries` immediate
/// retries after a closed or timed-out connection (at most
/// `MAX_L7_RETRIES`, so the attempt count fits its `u8`).
///
/// The base study uses `retries = 0` (a single attempt, as ZGrab does);
/// §6's follow-up experiment sweeps `retries` from 0 to 8 and shows
/// retrying recovers most hosts lost to OpenSSH `MaxStartups`.
pub fn grab<N: Network + ?Sized>(net: &N, mut ctx: L7Ctx, retries: u8) -> GrabResult {
    let retries = retries.min(MAX_L7_RETRIES);
    let mut last = L7Outcome::Timeout;
    for attempt in 0..=retries {
        ctx.attempt = attempt;
        let reply = dispatch(net, &ctx);
        let outcome = parse_reply(ctx.protocol, reply);
        match outcome {
            L7Outcome::Success(_) | L7Outcome::ProtocolError => {
                return GrabResult {
                    outcome,
                    attempts: attempt + 1,
                };
            }
            L7Outcome::ConnClosed(_) | L7Outcome::Timeout => {
                last = outcome;
            }
        }
    }
    GrabResult {
        outcome: last,
        attempts: retries + 1,
    }
}

/// Send the protocol-appropriate request bytes.
fn dispatch<N: Network + ?Sized>(net: &N, ctx: &L7Ctx) -> L7Reply {
    let request = match ctx.protocol {
        Protocol::Http => http::request(ctx),
        Protocol::Https => tls::request(ctx),
        Protocol::Ssh => ssh::request(),
        // Stateless probe modules never reach the ZGrab phase (their
        // positive reply is already terminal); a stray call sends
        // nothing rather than panicking.
        Protocol::Icmp | Protocol::Dns => Vec::new(),
    };
    net.l7(ctx, &request)
}

/// Parse the server's reply according to the protocol.
fn parse_reply(protocol: Protocol, reply: L7Reply) -> L7Outcome {
    match reply {
        L7Reply::ConnClosed(kind) => L7Outcome::ConnClosed(kind),
        L7Reply::Timeout => L7Outcome::Timeout,
        L7Reply::Data(bytes) => match protocol {
            Protocol::Http => http::parse(&bytes),
            Protocol::Https => tls::parse(&bytes),
            Protocol::Ssh => ssh::parse(&bytes),
            // See dispatch(): unreachable for stateless modules, and
            // any data here cannot be a valid connection-oriented reply.
            Protocol::Icmp | Protocol::Dns => L7Outcome::ProtocolError,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{ProbeCtx, SynReply};
    use originscan_wire::tcp::TcpHeader;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// A network whose L7 endpoint refuses the first `refusals` attempts.
    struct FlakyNet {
        refusals: u8,
        calls: AtomicU8,
    }

    impl Network for FlakyNet {
        fn syn(&self, _: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 1))
        }
        fn l7(&self, ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            if n < self.refusals {
                L7Reply::ConnClosed(CloseKind::FinAck)
            } else {
                match ctx.protocol {
                    Protocol::Ssh => L7Reply::Data(b"SSH-2.0-OpenSSH_7.4\r\n".to_vec()),
                    Protocol::Http => L7Reply::Data(b"HTTP/1.1 200 OK\r\n\r\n".to_vec()),
                    Protocol::Https => {
                        let sh = originscan_wire::ServerHello {
                            version: originscan_wire::VERSION_TLS12,
                            cipher_suite: 0xc02f,
                        };
                        L7Reply::Data(sh.emit(1))
                    }
                    // Stateless modules never open L7 connections.
                    Protocol::Icmp | Protocol::Dns => L7Reply::Timeout,
                }
            }
        }
    }

    fn ctx(protocol: Protocol) -> L7Ctx {
        L7Ctx {
            origin: 0,
            src_ip: 1,
            dst: 2,
            protocol,
            time_s: 0.0,
            trial: 0,
            attempt: 0,
            concurrent_origins: 1,
        }
    }

    #[test]
    fn retry_recovers_maxstartups_style_refusal() {
        let net = FlakyNet {
            refusals: 3,
            calls: AtomicU8::new(0),
        };
        // Without retries: refused.
        let r = grab(&net, ctx(Protocol::Ssh), 0);
        assert_eq!(r.outcome, L7Outcome::ConnClosed(CloseKind::FinAck));
        assert_eq!(r.attempts, 1);
        // With retries (the counter has already consumed 1 refusal above):
        let r = grab(&net, ctx(Protocol::Ssh), 4);
        assert!(r.outcome.is_success());
        assert_eq!(r.attempts, 3); // two remaining refusals + one success
    }

    #[test]
    fn all_protocols_succeed_without_refusals() {
        for p in crate::probe::PAPER_PROTOCOLS {
            let net = FlakyNet {
                refusals: 0,
                calls: AtomicU8::new(0),
            };
            let r = grab(&net, ctx(p), 0);
            assert!(r.outcome.is_success(), "{p}");
        }
    }

    #[test]
    fn retries_past_the_cap_stop_at_a_countable_attempt() {
        let net = FlakyNet {
            refusals: u8::MAX,
            calls: AtomicU8::new(0),
        };
        let r = grab(&net, ctx(Protocol::Http), u8::MAX);
        assert_eq!(r.outcome, L7Outcome::ConnClosed(CloseKind::FinAck));
        assert_eq!(r.attempts, u8::MAX);
        assert_eq!(net.calls.load(Ordering::Relaxed), u8::MAX);
    }

    #[test]
    fn exhausted_retries_report_last_failure() {
        let net = FlakyNet {
            refusals: 10,
            calls: AtomicU8::new(0),
        };
        let r = grab(&net, ctx(Protocol::Http), 2);
        assert_eq!(r.outcome, L7Outcome::ConnClosed(CloseKind::FinAck));
        assert_eq!(r.attempts, 3);
    }
}
