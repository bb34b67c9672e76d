//! # originscan-wire
//!
//! Wire-format codecs used by the `originscan` scanner.
//!
//! This crate implements, from scratch, the small set of packet formats a
//! ZMap + ZGrab style scanning pipeline touches:
//!
//! * [`ipv4`] — IPv4 header construction and parsing with RFC 1071
//!   checksums.
//! * [`tcp`] — TCP header construction and parsing, including the SYN
//!   probes ZMap emits (MSS option) and the checksum over the IPv4
//!   pseudo-header.
//! * [`icmp`] — ICMP echo request/reply and destination-unreachable
//!   messages, with the validation MAC carried in identifier/sequence.
//! * [`udp`] — UDP datagrams with the pseudo-header checksum, carrying
//!   the DNS probe payloads.
//! * [`dns`] — a minimal DNS codec: the A-record query the DNS probe
//!   module sends (transaction id as validation MAC) and response
//!   parsing/construction.
//! * [`validation`] — ZMap's stateless *validation* scheme: the scanner
//!   keeps no per-target state, so it encodes a MAC of the flow 4-tuple in
//!   the SYN's sequence number and verifies `ack = seq + 1` on the
//!   SYN-ACK. We implement the MAC with SipHash-1-3 ([`SipHash13`]).
//! * `http` — the `GET /` request and status-line parsing used by the
//!   HTTP handshake.
//! * `tls` — a minimal TLS 1.2 record/handshake codec: the ClientHello
//!   (with modern-Chrome cipher suites, as in the paper's methodology) and
//!   ServerHello parsing.
//! * `ssh` — the SSH identification-string exchange (the paper's SSH
//!   handshake terminates after the protocol version exchange).
//! * `pcap` — classic libpcap capture files (LINKTYPE_RAW), so
//!   simulated scans can be inspected in Wireshark/tcpdump.
//!
//! Everything here is deterministic, allocation-light, and independent of
//! the rest of the workspace; the scanner drives these codecs against the
//! simulated network in `originscan-netmodel`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

// `pub mod` for the modules the repository benchmark names by path
// (`checksum dns icmp ipv4 tcp validation`) and for `udp`, whose
// `HEADER_LEN` would clash with theirs at the root; the rest is private
// and its API is re-exported below.
mod bytes;
pub mod checksum;
pub mod dns;
mod http;
pub mod icmp;
pub mod ipv4;
mod pcap;
mod siphash;
mod ssh;
pub mod tcp;
mod tls;
pub mod udp;
pub mod validation;

pub use bytes::{decimal_len, put_decimal};
pub use http::{get_request, StatusLine};
pub use ipv4::Ipv4Header;
pub use pcap::PcapWriter;
pub use siphash::SipHash13;
pub use ssh::{client_ident_line, ServerIdent};
pub use tcp::TcpHeader;
pub use tls::{
    alert, client_hello, ServerHello, CHROME_TLS12_SUITES, CONTENT_HANDSHAKE, HS_CLIENT_HELLO,
    VERSION_TLS12,
};

/// Errors produced when parsing wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer is shorter than the fixed header demands.
    Truncated,
    /// A version / magic / length field holds an unsupported value.
    Malformed,
    /// The checksum over the buffer does not verify.
    BadChecksum,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "buffer truncated"),
            ParseError::Malformed => write!(f, "malformed field"),
            ParseError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for ParseError {}
