//! UDP datagram construction and parsing.
//!
//! Supports what a DNS-over-UDP scanner needs: an 8-byte header around
//! an opaque payload, with the checksum computed over the IPv4
//! pseudo-header as RFC 768 requires. Per that RFC a computed checksum
//! of zero is transmitted as all-ones; a zero checksum on the wire
//! means "not computed" and is rejected here, since our own emitter
//! always checksums.

use crate::bytes::be16;
use crate::ipv4::Ipv4Header;
use crate::ParseError;

/// Length of the UDP header.
pub const HEADER_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Datagram length on the wire, header included.
    pub len: u16,
}

/// Serialize a datagram, computing the checksum over `ip`'s
/// pseudo-header.
#[expect(clippy::cast_possible_truncation, reason = "datagrams are < 64 KiB")]
pub fn emit_datagram(src_port: u16, dst_port: u16, payload: &[u8], ip: &Ipv4Header) -> Vec<u8> {
    let len = (HEADER_LEN + payload.len()) as u16;
    let mut b = Vec::with_capacity(HEADER_LEN + payload.len());
    b.extend_from_slice(&src_port.to_be_bytes());
    b.extend_from_slice(&dst_port.to_be_bytes());
    b.extend_from_slice(&len.to_be_bytes());
    b.extend_from_slice(&[0, 0]); // checksum, patched below
    b.extend_from_slice(payload);
    let mut acc = ip.pseudo_header_sum(len);
    acc.add_bytes(&b);
    let mut csum = acc.finish();
    if csum == 0 {
        csum = 0xffff; // RFC 768: zero is reserved for "no checksum"
    }
    if let Some(field) = b.get_mut(6..8) {
        field.copy_from_slice(&csum.to_be_bytes());
    }
    b
}

/// Parse and checksum-verify a datagram received under `ip`, returning
/// the header and a view of the payload.
pub fn parse_datagram<'a>(
    buf: &'a [u8],
    ip: &Ipv4Header,
) -> Result<(UdpHeader, &'a [u8]), ParseError> {
    if buf.len() < HEADER_LEN {
        return Err(ParseError::Truncated);
    }
    let len = be16(buf, 4)?;
    let datagram = buf.get(..usize::from(len)).ok_or(ParseError::Truncated)?;
    if usize::from(len) < HEADER_LEN {
        return Err(ParseError::Malformed);
    }
    if be16(buf, 6)? == 0 {
        // Our emitter always computes a checksum; a zero field means
        // the datagram is not one of ours.
        return Err(ParseError::Malformed);
    }
    let mut acc = ip.pseudo_header_sum(len);
    acc.add_bytes(datagram);
    if acc.finish() != 0 {
        return Err(ParseError::BadChecksum);
    }
    let payload = datagram.get(HEADER_LEN..).ok_or(ParseError::Truncated)?;
    Ok((
        UdpHeader {
            src_port: be16(buf, 0)?,
            dst_port: be16(buf, 2)?,
            len,
        },
        payload,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4;

    fn ip(payload_len: usize) -> Ipv4Header {
        Ipv4Header::for_proto(
            ipv4::PROTO_UDP,
            0x0a000001,
            0x08080808,
            HEADER_LEN + payload_len,
        )
    }

    #[test]
    fn datagram_roundtrip() {
        let payload = b"dns goes here";
        let bytes = emit_datagram(40000, 53, payload, &ip(payload.len()));
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        let (h, body) = parse_datagram(&bytes, &ip(payload.len())).unwrap();
        assert_eq!((h.src_port, h.dst_port), (40000, 53));
        assert_eq!(usize::from(h.len), bytes.len());
        assert_eq!(body, payload);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = emit_datagram(1, 2, &[], &ip(0));
        let (h, body) = parse_datagram(&bytes, &ip(0)).unwrap();
        assert_eq!(usize::from(h.len), HEADER_LEN);
        assert!(body.is_empty());
    }

    #[test]
    fn checksum_corruption_detected() {
        let mut bytes = emit_datagram(40000, 53, b"payload", &ip(7));
        if let Some(b) = bytes.get_mut(10) {
            *b ^= 0x20;
        }
        assert_eq!(parse_datagram(&bytes, &ip(7)), Err(ParseError::BadChecksum));
    }

    #[test]
    fn wrong_pseudo_header_detected() {
        // Same bytes delivered to the wrong address: the pseudo-header
        // no longer matches, so the checksum fails.
        let bytes = emit_datagram(40000, 53, b"payload", &ip(7));
        let other = Ipv4Header::for_proto(ipv4::PROTO_UDP, 0x0a000001, 0x08080809, bytes.len());
        assert_eq!(parse_datagram(&bytes, &other), Err(ParseError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = emit_datagram(1, 2, b"abcdef", &ip(6));
        assert_eq!(
            parse_datagram(bytes.get(..HEADER_LEN + 2).unwrap(), &ip(6)),
            Err(ParseError::Truncated)
        );
        assert_eq!(
            parse_datagram(bytes.get(..4).unwrap(), &ip(6)),
            Err(ParseError::Truncated)
        );
    }

    #[test]
    fn bad_length_field_rejected() {
        let mut bytes = emit_datagram(1, 2, &[], &ip(0));
        if let Some(field) = bytes.get_mut(4..6) {
            field.copy_from_slice(&4u16.to_be_bytes()); // shorter than the header
        }
        assert_eq!(parse_datagram(&bytes, &ip(0)), Err(ParseError::Malformed));
    }

    #[test]
    fn zero_checksum_rejected() {
        let mut bytes = emit_datagram(1, 2, b"xy", &ip(2));
        if let Some(field) = bytes.get_mut(6..8) {
            field.copy_from_slice(&[0, 0]);
        }
        assert_eq!(parse_datagram(&bytes, &ip(2)), Err(ParseError::Malformed));
    }
}
