//! Property tests: every wire codec must round-trip losslessly for
//! arbitrary field values, and checksums must catch corruption.
// Gated: runs only with `--features proptest` (vendored shim; see
// third_party/proptest). The default offline build skips these suites.
#![cfg(feature = "proptest")]

use originscan_wire::icmp::{IcmpEcho, IcmpUnreachable};
use originscan_wire::ipv4::{Ipv4Header, PROTO_UDP};
use originscan_wire::tcp::{TcpFlags, TcpHeader};
use originscan_wire::validation::Validator;
use originscan_wire::ServerIdent;
use originscan_wire::SipHash13;
use originscan_wire::StatusLine;
use originscan_wire::{dns, udp};
use originscan_wire::{ServerHello, CHROME_TLS12_SUITES, VERSION_TLS12};
use proptest::prelude::*;

proptest! {
    #[test]
    fn ipv4_header_roundtrip(src: u32, dst: u32, payload in 0usize..1400, ttl in 1u8..=255) {
        let mut h = Ipv4Header::for_tcp(src, dst, payload);
        h.ttl = ttl;
        let parsed = Ipv4Header::parse(&h.emit()).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn ipv4_single_bit_corruption_detected(src: u32, dst: u32, bit in 0usize..160) {
        let h = Ipv4Header::for_tcp(src, dst, 0);
        let mut bytes = h.emit();
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Either the checksum or a structural check must reject it (a flip
        // in the version/IHL nibble hits the Malformed path).
        prop_assert!(Ipv4Header::parse(&bytes).is_err());
    }

    #[test]
    fn tcp_header_roundtrip(
        src: u32, dst: u32,
        sport: u16, dport: u16,
        seq: u32, ack: u32,
        flag_bits in 0u8..32,
        window: u16,
        mss in proptest::option::of(1u16..=9000),
    ) {
        let h = TcpHeader {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags: TcpFlags(flag_bits),
            window,
            mss,
        };
        let ip = Ipv4Header::for_tcp(src, dst, h.wire_len());
        let parsed = TcpHeader::parse(&h.emit(&ip), &ip).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn tcp_corruption_detected(seq: u32, bit in 0usize..(24 * 8)) {
        let probe = TcpHeader::syn_probe(40000, 443, seq);
        let ip = Ipv4Header::for_tcp(1, 2, probe.wire_len());
        let mut bytes = probe.emit(&ip).to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(TcpHeader::parse(&bytes, &ip).is_err());
    }

    #[test]
    fn validation_accepts_genuine_rejects_mutated(
        seed: u64, src: u32, dst: u32, sport: u16, delta in 1u32..u32::MAX,
    ) {
        let v = Validator::from_seed(seed);
        let seq = v.probe_seq(src, dst, sport, 443);
        let probe = TcpHeader::syn_probe(sport, 443, seq);
        let mut reply = TcpHeader::syn_ack_reply(&probe, 12345);
        prop_assert!(v.check_reply(&reply, src, dst));
        reply.ack = reply.ack.wrapping_add(delta);
        prop_assert!(!v.check_reply(&reply, src, dst));
    }

    #[test]
    fn siphash_words_match_le_bytes(
        k0: u64, k1: u64,
        words in proptest::collection::vec(any::<u64>(), 0..=8),
    ) {
        let h = SipHash13::new(k0, k1);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        prop_assert_eq!(h.hash_words(&words), h.hash(&bytes));
    }

    #[test]
    fn status_line_roundtrip(minor in 0u8..=1, code in 100u16..600, reason in "[ -~]{0,30}") {
        // Reason phrases are free-form printable ASCII.
        let sl = StatusLine { minor_version: minor, code, reason: &reason };
        let bytes = sl.emit("body");
        let parsed = StatusLine::parse(&bytes).unwrap();
        prop_assert_eq!(parsed, sl);
    }

    #[test]
    fn server_hello_roundtrip(i in 0usize..CHROME_TLS12_SUITES.len(), random: u64) {
        let sh = ServerHello { version: VERSION_TLS12, cipher_suite: CHROME_TLS12_SUITES[i] };
        let parsed = ServerHello::parse(&sh.emit(random)).unwrap();
        prop_assert_eq!(parsed, sh);
        prop_assert!(parsed.suite_is_offered());
    }

    #[test]
    fn ssh_ident_roundtrip(
        software in "[a-zA-Z0-9_.]{1,20}",
        comment in proptest::option::of("[a-zA-Z0-9 .+-]{1,20}"),
    ) {
        // Comments must not start with a space-splitting ambiguity; the
        // generator above guarantees non-empty tokens.
        let ident = ServerIdent {
            proto_version: "2.0",
            software: &software,
            comment: comment.as_deref().map(str::trim).filter(|c| !c.is_empty()),
        };
        let bytes = ident.emit();
        let parsed = ServerIdent::parse(&bytes).unwrap();
        prop_assert_eq!(parsed.software, ident.software);
        prop_assert_eq!(parsed.proto_version, "2.0");
    }

    #[test]
    fn icmp_echo_roundtrip(ident: u16, seq: u16, reply: bool) {
        let m = IcmpEcho { reply, ident, seq };
        prop_assert_eq!(IcmpEcho::parse(&m.emit()).unwrap(), m);
    }

    #[test]
    fn icmp_single_bit_corruption_detected(ident: u16, seq: u16, bit in 0usize..64) {
        // The one's-complement checksum (or a structural check, for
        // flips in the type/code bytes) must reject every single-bit
        // flip in the 8-byte echo message.
        let mut bytes = IcmpEcho::request(ident, seq).emit();
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(IcmpEcho::parse(&bytes).is_err());
    }

    #[test]
    fn icmp_unreachable_roundtrip(
        code in 0u8..16,
        quoted in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let m = IcmpUnreachable::new(code, &quoted);
        prop_assert_eq!(IcmpUnreachable::parse(&m.emit()).unwrap(), m);
    }

    #[test]
    fn udp_datagram_roundtrip(
        src: u32, dst: u32,
        sport: u16, dport: u16,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let ip = Ipv4Header::for_proto(PROTO_UDP, src, dst, udp::HEADER_LEN + payload.len());
        let bytes = udp::emit_datagram(sport, dport, &payload, &ip);
        let (h, body) = udp::parse_datagram(&bytes, &ip).unwrap();
        prop_assert_eq!((h.src_port, h.dst_port), (sport, dport));
        prop_assert_eq!(usize::from(h.len), bytes.len());
        prop_assert_eq!(body, &payload[..]);
    }

    #[test]
    fn udp_single_bit_corruption_detected(
        sport: u16,
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        bit_seed: u32,
    ) {
        // The pseudo-header checksum covers ports, length, and payload:
        // any single-bit flip anywhere in the datagram must be rejected
        // (a flip in the length field additionally trips the structural
        // truncation checks).
        let ip = Ipv4Header::for_proto(PROTO_UDP, 1, 2, udp::HEADER_LEN + payload.len());
        let mut bytes = udp::emit_datagram(sport, 53, &payload, &ip);
        let bit = (bit_seed as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(udp::parse_datagram(&bytes, &ip).is_err());
    }

    #[test]
    fn dns_query_roundtrip(txid: u16, label in "[a-z0-9-]{1,20}") {
        let name = format!("{label}.example.com");
        let q = dns::a_query(txid, &name).unwrap();
        let parsed = dns::parse_query(&q).unwrap();
        prop_assert_eq!(parsed.txid, txid);
        prop_assert_eq!(parsed.qname, name);
        prop_assert_eq!(parsed.qtype, dns::QTYPE_A);
    }

    #[test]
    fn dns_response_roundtrip_validates_txid(
        txid: u16,
        rcode in 0u8..16,
        answers in proptest::collection::vec(any::<u32>(), 0..8),
        delta in 1u16..=u16::MAX,
    ) {
        // ZMap-style stateless validation: the response mirrors the
        // query's txid exactly; any other txid must be distinguishable.
        let q = dns::a_query(txid, "origin-scan.example.com").unwrap();
        let resp = dns::build_response(&q, rcode, &answers).unwrap();
        let parsed = dns::parse_response(&resp).unwrap();
        prop_assert_eq!(parsed.txid, txid);
        prop_assert_eq!(parsed.rcode, rcode & 0x0f);
        prop_assert_eq!(usize::from(parsed.answers), answers.len());
        prop_assert_ne!(parsed.txid, txid.wrapping_add(delta));
    }

    #[test]
    fn dns_truncated_responses_never_panic(
        answers in proptest::collection::vec(any::<u32>(), 0..4),
        cut in 0usize..64,
    ) {
        // Chopping a valid response anywhere must yield a clean error
        // (or a shorter-but-structurally-valid parse), never a panic.
        let q = dns::a_query(7, "origin-scan.example.com").unwrap();
        let resp = dns::build_response(&q, dns::RCODE_NOERROR, &answers).unwrap();
        let cut = cut.min(resp.len());
        let _ = dns::parse_response(&resp[..cut]);
        let _ = dns::parse_query(&resp[..cut]);
    }

    #[test]
    fn truncated_buffers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Parsers must reject or accept, never panic, on arbitrary bytes.
        let _ = Ipv4Header::parse(&data);
        let _ = StatusLine::parse(&data);
        let _ = ServerIdent::parse(&data);
        let _ = ServerHello::parse(&data);
        let ip = Ipv4Header::for_tcp(1, 2, data.len());
        let _ = TcpHeader::parse(&data, &ip);
        let _ = IcmpEcho::parse(&data);
        let _ = IcmpUnreachable::parse(&data);
        let udp_ip = Ipv4Header::for_proto(PROTO_UDP, 1, 2, data.len());
        let _ = udp::parse_datagram(&data, &udp_ip);
        let _ = dns::parse_query(&data);
        let _ = dns::parse_response(&data);
    }
}
