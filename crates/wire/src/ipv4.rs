//! IPv4 header construction and parsing.
//!
//! Only the fields the scanner's probe modules touch are modelled;
//! options are intentionally unsupported (ZMap never sends them, and
//! the simulated network never generates them).

use crate::bytes::{be16, be32, byte};
use crate::checksum::{self, Accumulator};
use crate::ParseError;

/// Length of the option-less IPv4 header.
pub const HEADER_LEN: usize = 20;

/// Default TTL used by the scanner (matches ZMap's default of 255).
pub const DEFAULT_TTL: u8 = 255;

/// Protocol number for ICMP.
pub const PROTO_ICMP: u8 = 1;

/// Protocol number for TCP.
pub const PROTO_TCP: u8 = 6;

/// Protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

/// A parsed or to-be-serialized IPv4 header (no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Total length of the datagram, header included.
    pub total_len: u16,
    /// Identification field (ZMap re-purposes this for debugging; we send 0).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol number ([`PROTO_TCP`] for everything we send).
    pub protocol: u8,
    /// Source address as a host-order u32.
    pub src: u32,
    /// Destination address as a host-order u32.
    pub dst: u32,
}

impl Ipv4Header {
    /// Build a header for a datagram of `protocol` carrying
    /// `payload_len` bytes.
    #[expect(clippy::cast_possible_truncation, reason = "datagrams are < 64 KiB")]
    pub fn for_proto(protocol: u8, src: u32, dst: u32, payload_len: usize) -> Self {
        Self {
            total_len: (HEADER_LEN + payload_len) as u16,
            ident: 0,
            ttl: DEFAULT_TTL,
            protocol,
            src,
            dst,
        }
    }

    /// Build a header for a TCP datagram carrying `payload_len` bytes.
    pub fn for_tcp(src: u32, dst: u32, payload_len: usize) -> Self {
        Self::for_proto(PROTO_TCP, src, dst, payload_len)
    }

    /// Serialize into exactly [`HEADER_LEN`] bytes with a valid checksum.
    pub fn emit(&self) -> [u8; HEADER_LEN] {
        let [len_hi, len_lo] = self.total_len.to_be_bytes();
        let [id_hi, id_lo] = self.ident.to_be_bytes();
        let [s0, s1, s2, s3] = self.src.to_be_bytes();
        let [d0, d1, d2, d3] = self.dst.to_be_bytes();
        let with_checksum = |[ck_hi, ck_lo]: [u8; 2]| {
            [
                0x45,   // 0: version 4, IHL 5
                0,      // 1: DSCP/ECN
                len_hi, // 2–3: total length
                len_lo,
                id_hi, // 4–5: identification
                id_lo,
                0x40, // 6–7: DF set, no fragmentation
                0x00,
                self.ttl,      // 8
                self.protocol, // 9
                ck_hi,         // 10–11: header checksum
                ck_lo,
                s0, // 12–15: source
                s1,
                s2,
                s3,
                d0, // 16–19: destination
                d1,
                d2,
                d3,
            ]
        };
        // The checksum is computed over the header with its field zero.
        let csum = checksum::checksum(&with_checksum([0, 0]));
        with_checksum(csum.to_be_bytes())
    }

    /// Parse and checksum-verify a header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        let header = buf.get(..HEADER_LEN).ok_or(ParseError::Truncated)?;
        let version_ihl = byte(header, 0)?;
        if version_ihl >> 4 != 4 {
            return Err(ParseError::Malformed);
        }
        let ihl = usize::from(version_ihl & 0x0f) * 4;
        if ihl != HEADER_LEN {
            // Options unsupported by design.
            return Err(ParseError::Malformed);
        }
        if !checksum::verify(header) {
            return Err(ParseError::BadChecksum);
        }
        Ok(Self {
            total_len: be16(header, 2)?,
            ident: be16(header, 4)?,
            ttl: byte(header, 8)?,
            protocol: byte(header, 9)?,
            src: be32(header, 12)?,
            dst: be32(header, 16)?,
        })
    }

    /// Contribution of the TCP/UDP pseudo-header to a payload checksum.
    pub fn pseudo_header_sum(&self, payload_len: u16) -> Accumulator {
        let mut acc = Accumulator::new();
        acc.add_u32(self.src);
        acc.add_u32(self.dst);
        acc.add_u16(u16::from(self.protocol));
        acc.add_u16(payload_len);
        acc
    }
}

/// Render a host-order u32 as dotted-quad for diagnostics.
pub fn fmt_addr(addr: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        addr >> 24,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

/// Parse a dotted-quad address into a host-order u32.
pub fn parse_addr(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut addr = 0u32;
    for _ in 0..4 {
        let octet: u32 = parts.next()?.parse().ok()?;
        if octet > 255 {
            return None;
        }
        addr = (addr << 8) | octet;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_roundtrip() {
        let h = Ipv4Header::for_tcp(0x0a000001, 0xc0a80101, 24);
        let bytes = h.emit();
        let parsed = Ipv4Header::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(parsed.total_len as usize, HEADER_LEN + 24);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut bytes = Ipv4Header::for_tcp(1, 2, 0).emit();
        bytes[15] ^= 0xff;
        assert_eq!(Ipv4Header::parse(&bytes), Err(ParseError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = Ipv4Header::for_tcp(1, 2, 0).emit();
        assert_eq!(Ipv4Header::parse(&bytes[..10]), Err(ParseError::Truncated));
    }

    #[test]
    fn non_v4_rejected() {
        let mut bytes = Ipv4Header::for_tcp(1, 2, 0).emit();
        bytes[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&bytes), Err(ParseError::Malformed));
    }

    #[test]
    fn proto_constructors_agree() {
        assert_eq!(
            Ipv4Header::for_tcp(1, 2, 8),
            Ipv4Header::for_proto(PROTO_TCP, 1, 2, 8)
        );
        for proto in [PROTO_ICMP, PROTO_UDP] {
            let h = Ipv4Header::for_proto(proto, 0x0a000001, 0x08080808, 8);
            assert_eq!(h.protocol, proto);
            assert_eq!(Ipv4Header::parse(&h.emit()).unwrap(), h);
        }
    }

    #[test]
    fn addr_formatting() {
        assert_eq!(fmt_addr(0xc0a80101), "192.168.1.1");
        assert_eq!(parse_addr("192.168.1.1"), Some(0xc0a80101));
        assert_eq!(parse_addr("1.2.3"), None);
        assert_eq!(parse_addr("1.2.3.256"), None);
        assert_eq!(parse_addr("1.2.3.4.5"), None);
    }
}
