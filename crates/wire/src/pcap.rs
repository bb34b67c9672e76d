//! Classic libpcap capture files (little-endian, LINKTYPE_RAW).
//!
//! The simulated scanner can dump its probe/reply exchange to a `.pcap`
//! for inspection in Wireshark/tcpdump — the same debugging affordance
//! real ZMap users lean on. Only writing and (for tests/tools) reading of
//! the classic format is implemented; packets are raw IPv4 datagrams
//! (link type 101), so no synthetic Ethernet headers are needed.

use std::io::{self, Write};

/// Magic number of the classic little-endian pcap format.
pub(crate) const MAGIC_LE: u32 = 0xa1b2_c3d4;

/// LINKTYPE_RAW: packets begin with the IPv4/IPv6 header.
pub(crate) const LINKTYPE_RAW: u32 = 101;

/// Streaming pcap writer.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    out: W,
    packets: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header and return the writer.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&MAGIC_LE.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&65535u32.to_le_bytes())?; // snaplen
        out.write_all(&LINKTYPE_RAW.to_le_bytes())?;
        Ok(Self { out, packets: 0 })
    }

    /// Append one raw-IP packet captured at `time_s` (fractional seconds
    /// since the epoch — the simulation's clock maps directly).
    #[expect(clippy::cast_possible_truncation, reason = "float `as` saturates")]
    pub fn packet(&mut self, time_s: f64, data: &[u8]) -> io::Result<()> {
        let len = u32::try_from(data.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "packet exceeds 2^32 bytes")
        })?;
        let secs = time_s.max(0.0).floor();
        let micros = ((time_s - secs) * 1e6).round() as u32;
        self.out.write_all(&(secs as u32).to_le_bytes())?;
        self.out.write_all(&micros.min(999_999).to_le_bytes())?;
        self.out.write_all(&len.to_le_bytes())?; // incl_len
        self.out.write_all(&len.to_le_bytes())?; // orig_len
        self.out.write_all(data)?;
        self.packets += 1;
        Ok(())
    }

    /// Packets written so far.
    pub fn packet_count(&self) -> u64 {
        self.packets
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Header;
    use crate::tcp::TcpHeader;
    use crate::ParseError;

    /// A packet read back from a capture.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct PcapPacket {
        /// Capture timestamp in microseconds.
        time_us: u64,
        /// Raw packet bytes.
        data: Vec<u8>,
    }

    /// Read the little-endian `u32` at `off`.
    fn le_u32(buf: &[u8], off: usize) -> Result<u32, ParseError> {
        match buf.get(off..off + 4) {
            Some(&[a, b, c, d]) => Ok(u32::from_le_bytes([a, b, c, d])),
            _ => Err(ParseError::Truncated),
        }
    }

    /// Parse a classic little-endian pcap buffer (tests and tooling).
    fn parse(buf: &[u8]) -> Result<(u32, Vec<PcapPacket>), ParseError> {
        if buf.len() < 24 {
            return Err(ParseError::Truncated);
        }
        if le_u32(buf, 0)? != MAGIC_LE {
            return Err(ParseError::Malformed);
        }
        let linktype = le_u32(buf, 20)?;
        let mut packets = Vec::new();
        let mut off = 24usize;
        while off < buf.len() {
            let secs = le_u32(buf, off)?;
            let micros = le_u32(buf, off + 4)?;
            let incl = le_u32(buf, off + 8)? as usize;
            let orig = le_u32(buf, off + 12)? as usize;
            if incl != orig {
                return Err(ParseError::Malformed); // we never truncate
            }
            off += 16;
            let data = buf.get(off..off.saturating_add(incl));
            packets.push(PcapPacket {
                time_us: u64::from(secs) * 1_000_000 + u64::from(micros),
                data: data.ok_or(ParseError::Truncated)?.to_vec(),
            });
            off += incl;
        }
        Ok((linktype, packets))
    }

    fn capture_probe(time: f64) -> Vec<u8> {
        let probe = TcpHeader::syn_probe(40000, 443, 0x1234_5678);
        let ip = Ipv4Header::for_tcp(0x0a000001, 0x08080808, probe.wire_len());
        let mut pkt = ip.emit().to_vec();
        pkt.extend_from_slice(&probe.emit(&ip));
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.packet(time, &pkt).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_single_packet() {
        let bytes = capture_probe(1.5);
        let (linktype, pkts) = parse(&bytes).unwrap();
        assert_eq!(linktype, LINKTYPE_RAW);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].time_us, 1_500_000);
        // The captured bytes parse back as our probe.
        let ip = Ipv4Header::parse(&pkts[0].data).unwrap();
        assert_eq!(ip.protocol, crate::ipv4::PROTO_TCP);
        let tcp = TcpHeader::parse(&pkts[0].data[20..], &ip).unwrap();
        assert!(tcp.flags.is_syn());
        assert_eq!(tcp.seq, 0x1234_5678);
    }

    #[test]
    fn multiple_packets_ordered() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for i in 0..5u32 {
            w.packet(f64::from(i) * 0.25, &i.to_be_bytes()).unwrap();
        }
        assert_eq!(w.packet_count(), 5);
        let bytes = w.finish().unwrap();
        let (_, pkts) = parse(&bytes).unwrap();
        assert_eq!(pkts.len(), 5);
        assert!(pkts.windows(2).all(|p| p[0].time_us <= p[1].time_us));
        assert_eq!(pkts[4].data, 4u32.to_be_bytes());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(parse(&[0u8; 10]), Err(ParseError::Truncated));
        let mut bad = capture_probe(0.0);
        bad[0] ^= 0xff; // break magic
        assert_eq!(parse(&bad), Err(ParseError::Malformed));
        let truncated = &capture_probe(0.0)[..30];
        assert!(parse(truncated).is_err());
        // Every prefix of a two-packet capture that does not end on a
        // record boundary (24, 60, 104) is refused.
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.packet(0.5, &[0x45; 20]).unwrap();
        w.packet(1.0, &[0x45; 28]).unwrap();
        let two = w.finish().unwrap();
        for cut in 0..=two.len() {
            let got = parse(&two[..cut]).map(|(_, pkts)| pkts.len());
            let want = match cut {
                24 => Ok(0),
                60 => Ok(1),
                104 => Ok(2),
                _ => Err(ParseError::Truncated),
            };
            assert_eq!(got, want, "prefix {cut}");
        }
        // A record claiming 4 GiB of packet is refused, not allocated.
        let mut huge = two[..24 + 8].to_vec();
        huge.extend_from_slice(&[0xff; 8]); // incl_len = orig_len = u32::MAX
        huge.extend_from_slice(&[0x45; 20]);
        assert_eq!(parse(&huge), Err(ParseError::Truncated));
    }

    #[test]
    fn empty_capture_is_valid() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let bytes = w.finish().unwrap();
        let (lt, pkts) = parse(&bytes).unwrap();
        assert_eq!(lt, LINKTYPE_RAW);
        assert!(pkts.is_empty());
    }
}
