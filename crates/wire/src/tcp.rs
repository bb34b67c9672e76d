//! TCP header construction and parsing.
//!
//! Supports exactly what a SYN scanner needs: SYN probes carrying an MSS
//! option (as ZMap sends), and parsing of SYN-ACK / RST / FIN-ACK replies,
//! with checksums computed over the IPv4 pseudo-header.

use crate::bytes::{be16, be32, byte};
use crate::ipv4::Ipv4Header;
use crate::ParseError;

/// Length of an option-less TCP header.
pub const HEADER_LEN: usize = 20;

/// Length of the 4-byte MSS option ZMap appends to SYNs.
pub(crate) const MSS_OPTION_LEN: usize = 4;

/// The MSS value advertised in probes (ZMap's default).
pub(crate) const PROBE_MSS: u16 = 1460;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// SYN flag.
    pub(crate) const SYN: u8 = 0x02;
    /// RST flag.
    pub(crate) const RST: u8 = 0x04;
    /// ACK flag.
    pub(crate) const ACK: u8 = 0x10;

    /// A pure SYN.
    pub(crate) fn syn() -> Self {
        Self(Self::SYN)
    }
    /// A SYN-ACK.
    pub(crate) fn syn_ack() -> Self {
        Self(Self::SYN | Self::ACK)
    }
    /// A RST (optionally with ACK, as most stacks send).
    pub(crate) fn rst_ack() -> Self {
        Self(Self::RST | Self::ACK)
    }
}

#[cfg(test)]
impl TcpFlags {
    pub(crate) fn is_syn(self) -> bool {
        self.0 & Self::SYN != 0
    }
    fn is_ack(self) -> bool {
        self.0 & Self::ACK != 0
    }
    fn is_rst(self) -> bool {
        self.0 & Self::RST != 0
    }
    fn is_syn_ack(self) -> bool {
        self.is_syn() && self.is_ack() && !self.is_rst()
    }
}

/// A TCP header (options restricted to the probe MSS option).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number (carries the ZMap validation MAC in probes).
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Whether an MSS option is attached.
    pub mss: Option<u16>,
}

impl TcpHeader {
    /// Build the SYN probe ZMap sends: validation MAC as the sequence
    /// number, window 65535, MSS 1460.
    pub fn syn_probe(src_port: u16, dst_port: u16, validation_seq: u32) -> Self {
        Self {
            src_port,
            dst_port,
            seq: validation_seq,
            ack: 0,
            flags: TcpFlags::syn(),
            window: 65535,
            mss: Some(PROBE_MSS),
        }
    }

    /// Build the SYN-ACK a listening host answers with.
    pub fn syn_ack_reply(probe: &TcpHeader, server_isn: u32) -> Self {
        Self {
            src_port: probe.dst_port,
            dst_port: probe.src_port,
            seq: server_isn,
            ack: probe.seq.wrapping_add(1),
            flags: TcpFlags::syn_ack(),
            window: 65535,
            mss: Some(PROBE_MSS),
        }
    }

    /// Build the RST a closed port (or a blocking middlebox) answers with.
    pub fn rst_reply(probe: &TcpHeader) -> Self {
        Self {
            src_port: probe.dst_port,
            dst_port: probe.src_port,
            seq: 0,
            ack: probe.seq.wrapping_add(1),
            flags: TcpFlags::rst_ack(),
            window: 0,
            mss: None,
        }
    }

    /// Header length on the wire, including options.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN
            + if self.mss.is_some() {
                MSS_OPTION_LEN
            } else {
                0
            }
    }

    /// Serialize, computing the checksum over `ip`'s pseudo-header.
    #[expect(clippy::cast_possible_truncation, reason = "`wire_len()` is 20 or 24")]
    pub fn emit(&self, ip: &Ipv4Header) -> Vec<u8> {
        let len = self.wire_len();
        let mut b = Vec::with_capacity(len);
        b.extend_from_slice(&self.src_port.to_be_bytes());
        b.extend_from_slice(&self.dst_port.to_be_bytes());
        b.extend_from_slice(&self.seq.to_be_bytes());
        b.extend_from_slice(&self.ack.to_be_bytes());
        b.push(((len / 4) as u8) << 4);
        b.push(self.flags.0);
        b.extend_from_slice(&self.window.to_be_bytes());
        b.extend_from_slice(&[0, 0]); // checksum, patched below
        b.extend_from_slice(&[0, 0]); // urgent pointer
        if let Some(mss) = self.mss {
            b.push(2); // kind: MSS
            b.push(4); // length
            b.extend_from_slice(&mss.to_be_bytes());
        }
        let mut acc = ip.pseudo_header_sum(len as u16);
        acc.add_bytes(&b);
        let csum = acc.finish();
        if let Some(field) = b.get_mut(16..18) {
            field.copy_from_slice(&csum.to_be_bytes());
        }
        b
    }

    /// Parse and checksum-verify a segment received under `ip`.
    pub fn parse(buf: &[u8], ip: &Ipv4Header) -> Result<Self, ParseError> {
        if buf.len() < HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let data_off = usize::from(byte(buf, 12)? >> 4) * 4;
        if data_off < HEADER_LEN || data_off > buf.len() {
            return Err(ParseError::Malformed);
        }
        // An IPv4 payload can never exceed u16::MAX; anything longer is
        // not a TCP segment we could checksum.
        let Ok(seg_len) = u16::try_from(buf.len()) else {
            return Err(ParseError::Malformed);
        };
        let mut acc = ip.pseudo_header_sum(seg_len);
        acc.add_bytes(buf);
        if acc.finish() != 0 {
            return Err(ParseError::BadChecksum);
        }
        let mut mss = None;
        let mut opts = buf.get(HEADER_LEN..data_off).ok_or(ParseError::Malformed)?;
        loop {
            match *opts {
                [] | [0, ..] => break,             // done / end-of-options
                [1, ref rest @ ..] => opts = rest, // NOP
                [2, 4, hi, lo, ref rest @ ..] => {
                    mss = Some(u16::from_be_bytes([hi, lo]));
                    opts = rest;
                }
                [2, ..] => return Err(ParseError::Malformed),
                [_, l, ref rest @ ..] => {
                    // Unknown option: skip by its length byte.
                    let skip = usize::from(l);
                    if skip < 2 {
                        return Err(ParseError::Malformed);
                    }
                    opts = rest.get(skip - 2..).ok_or(ParseError::Malformed)?;
                }
                [_] => return Err(ParseError::Malformed),
            }
        }
        Ok(Self {
            src_port: be16(buf, 0)?,
            dst_port: be16(buf, 2)?,
            seq: be32(buf, 4)?,
            ack: be32(buf, 8)?,
            flags: TcpFlags(byte(buf, 13)?),
            window: be16(buf, 14)?,
            mss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip() -> Ipv4Header {
        Ipv4Header::for_tcp(0x0a000001, 0x08080808, HEADER_LEN + MSS_OPTION_LEN)
    }

    #[test]
    fn syn_probe_roundtrip() {
        let probe = TcpHeader::syn_probe(40000, 443, 0xdeadbeef);
        let bytes = probe.emit(&ip());
        assert_eq!(bytes.len(), 24);
        let parsed = TcpHeader::parse(&bytes, &ip()).unwrap();
        assert_eq!(parsed, probe);
        assert!(parsed.flags.is_syn() && !parsed.flags.is_ack());
        assert_eq!(parsed.mss, Some(PROBE_MSS));
    }

    #[test]
    fn syn_ack_acks_probe_seq_plus_one() {
        let probe = TcpHeader::syn_probe(40000, 80, 41);
        let reply = TcpHeader::syn_ack_reply(&probe, 7);
        assert_eq!(reply.ack, 42);
        assert!(reply.flags.is_syn_ack());
        assert_eq!(reply.src_port, 80);
        assert_eq!(reply.dst_port, 40000);
    }

    #[test]
    fn rst_reply_flags() {
        let probe = TcpHeader::syn_probe(40000, 22, u32::MAX);
        let rst = TcpHeader::rst_reply(&probe);
        assert!(rst.flags.is_rst());
        assert_eq!(rst.ack, 0); // wrapping_add(1) on u32::MAX
    }

    #[test]
    fn checksum_corruption_detected() {
        let probe = TcpHeader::syn_probe(1, 2, 3);
        let mut bytes = probe.emit(&ip());
        bytes[5] ^= 0x40;
        assert_eq!(
            TcpHeader::parse(&bytes, &ip()),
            Err(ParseError::BadChecksum)
        );
    }

    #[test]
    fn bad_data_offset_rejected() {
        let probe = TcpHeader::syn_probe(1, 2, 3);
        let mut bytes = probe.emit(&ip());
        bytes[12] = 0x10; // data offset 4 words < minimum 5
        assert!(TcpHeader::parse(&bytes, &ip()).is_err());
    }

    #[test]
    fn optionless_header_parses() {
        let rst = TcpHeader::rst_reply(&TcpHeader::syn_probe(9, 10, 11));
        let ip = Ipv4Header::for_tcp(0x08080808, 0x0a000001, HEADER_LEN);
        let bytes = rst.emit(&ip);
        assert_eq!(bytes.len(), HEADER_LEN);
        let parsed = TcpHeader::parse(&bytes, &ip).unwrap();
        assert_eq!(parsed, rst);
    }
}
