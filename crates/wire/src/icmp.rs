//! ICMP echo construction and parsing.
//!
//! Supports exactly what an ICMP echo scanner needs: echo requests
//! carrying ZMap-style validation state in the identifier/sequence
//! fields, echo replies, and destination-unreachable messages quoting
//! the offending datagram. Checksums follow RFC 1071 and cover the
//! whole ICMP message — unlike TCP/UDP there is no IPv4 pseudo-header.

use crate::bytes::{be16, byte};
use crate::checksum;
use crate::ParseError;

/// ICMP type for an echo reply.
pub(crate) const TYPE_ECHO_REPLY: u8 = 0;
/// ICMP type for destination unreachable.
pub(crate) const TYPE_DEST_UNREACHABLE: u8 = 3;
/// ICMP type for an echo request.
pub(crate) const TYPE_ECHO_REQUEST: u8 = 8;

/// Length of the fixed ICMP header (type, code, checksum, rest-of-header).
pub const HEADER_LEN: usize = 8;

/// Destination-unreachable code for "port unreachable".
pub const CODE_PORT_UNREACHABLE: u8 = 3;

/// An ICMP echo request or reply.
///
/// The scanner is stateless, so the probe encodes a MAC of the flow in
/// `ident`/`seq` (see `originscan-wire`'s [`validation`](crate::validation)
/// scheme) and verifies the echo reply mirrors both fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpEcho {
    /// True for an echo reply (type 0), false for a request (type 8).
    pub reply: bool,
    /// Identifier field (high half of the validation MAC in probes).
    pub ident: u16,
    /// Sequence field (low half of the validation MAC in probes).
    pub seq: u16,
}

impl IcmpEcho {
    /// Build the echo request a scanner sends.
    pub fn request(ident: u16, seq: u16) -> Self {
        Self {
            reply: false,
            ident,
            seq,
        }
    }

    /// Build the echo reply a live host answers with: both validation
    /// fields mirrored back.
    pub fn reply_to(probe: &IcmpEcho) -> Self {
        Self {
            reply: true,
            ident: probe.ident,
            seq: probe.seq,
        }
    }

    /// Serialize into [`HEADER_LEN`] bytes with a valid checksum.
    pub fn emit(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(HEADER_LEN);
        b.push(if self.reply {
            TYPE_ECHO_REPLY
        } else {
            TYPE_ECHO_REQUEST
        });
        b.push(0); // code: always 0 for echo
        b.extend_from_slice(&[0, 0]); // checksum, patched below
        b.extend_from_slice(&self.ident.to_be_bytes());
        b.extend_from_slice(&self.seq.to_be_bytes());
        let csum = checksum::checksum(&b);
        if let Some(field) = b.get_mut(2..4) {
            field.copy_from_slice(&csum.to_be_bytes());
        }
        b
    }

    /// Parse and checksum-verify an echo message.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        if !checksum::verify(buf) {
            return Err(ParseError::BadChecksum);
        }
        let reply = match byte(buf, 0)? {
            TYPE_ECHO_REPLY => true,
            TYPE_ECHO_REQUEST => false,
            _ => return Err(ParseError::Malformed),
        };
        if byte(buf, 1)? != 0 {
            return Err(ParseError::Malformed);
        }
        Ok(Self {
            reply,
            ident: be16(buf, 4)?,
            seq: be16(buf, 6)?,
        })
    }
}

/// An ICMP destination-unreachable message quoting the offending
/// datagram (routers quote the IP header plus the first payload bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpUnreachable {
    /// Unreachable code (e.g. [`CODE_PORT_UNREACHABLE`]).
    pub(crate) code: u8,
    /// Quoted bytes of the datagram that triggered the message.
    pub(crate) original: Vec<u8>,
}

impl IcmpUnreachable {
    /// Build an unreachable message quoting `original`.
    pub fn new(code: u8, original: &[u8]) -> Self {
        Self {
            code,
            original: original.to_vec(),
        }
    }

    /// Serialize with a valid checksum over header and quoted bytes.
    pub fn emit(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(HEADER_LEN + self.original.len());
        b.push(TYPE_DEST_UNREACHABLE);
        b.push(self.code);
        b.extend_from_slice(&[0, 0]); // checksum, patched below
        b.extend_from_slice(&[0, 0, 0, 0]); // unused rest-of-header
        b.extend_from_slice(&self.original);
        let csum = checksum::checksum(&b);
        if let Some(field) = b.get_mut(2..4) {
            field.copy_from_slice(&csum.to_be_bytes());
        }
        b
    }

    /// Parse and checksum-verify an unreachable message.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        if !checksum::verify(buf) {
            return Err(ParseError::BadChecksum);
        }
        if byte(buf, 0)? != TYPE_DEST_UNREACHABLE {
            return Err(ParseError::Malformed);
        }
        let original = buf.get(HEADER_LEN..).ok_or(ParseError::Truncated)?.to_vec();
        Ok(Self {
            code: byte(buf, 1)?,
            original,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_request_roundtrip() {
        let probe = IcmpEcho::request(0xdead, 0xbeef);
        let bytes = probe.emit();
        assert_eq!(bytes.len(), HEADER_LEN);
        let parsed = IcmpEcho::parse(&bytes).unwrap();
        assert_eq!(parsed, probe);
        assert!(!parsed.reply);
    }

    #[test]
    fn echo_reply_mirrors_validation_fields() {
        let probe = IcmpEcho::request(41, 42);
        let reply = IcmpEcho::reply_to(&probe);
        assert!(reply.reply);
        assert_eq!((reply.ident, reply.seq), (41, 42));
        let parsed = IcmpEcho::parse(&reply.emit()).unwrap();
        assert_eq!(parsed, reply);
    }

    #[test]
    fn checksum_corruption_detected() {
        let mut bytes = IcmpEcho::request(1, 2).emit();
        if let Some(b) = bytes.get_mut(5) {
            *b ^= 0x40;
        }
        assert_eq!(IcmpEcho::parse(&bytes), Err(ParseError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = IcmpEcho::request(1, 2).emit();
        assert_eq!(
            IcmpEcho::parse(bytes.get(..4).unwrap()),
            Err(ParseError::Truncated)
        );
    }

    #[test]
    fn wrong_type_rejected() {
        // A valid unreachable message is not an echo message.
        let bytes = IcmpUnreachable::new(CODE_PORT_UNREACHABLE, &[]).emit();
        assert_eq!(IcmpEcho::parse(&bytes), Err(ParseError::Malformed));
    }

    #[test]
    fn unreachable_roundtrip_quotes_original() {
        let quoted = IcmpEcho::request(7, 8).emit();
        let msg = IcmpUnreachable::new(CODE_PORT_UNREACHABLE, &quoted);
        let bytes = msg.emit();
        let parsed = IcmpUnreachable::parse(&bytes).unwrap();
        assert_eq!(parsed, msg);
        assert_eq!(parsed.original, quoted);
    }

    #[test]
    fn unreachable_corruption_detected() {
        let mut bytes = IcmpUnreachable::new(1, &[9, 9, 9]).emit();
        if let Some(b) = bytes.get_mut(9) {
            *b ^= 0x01;
        }
        assert_eq!(IcmpUnreachable::parse(&bytes), Err(ParseError::BadChecksum));
    }
}
