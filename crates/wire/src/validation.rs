//! ZMap-style stateless probe validation.
//!
//! A stateless scanner cannot keep a table of outstanding probes, so it
//! must recognize *its own* probes' answers — and reject spoofed or stale
//! packets — from the reply alone. ZMap does this by setting the SYN's
//! sequence number to a MAC of the flow tuple under a per-scan secret key.
//! A genuine SYN-ACK then acknowledges `mac + 1`, which the scanner can
//! recompute and verify without any state.

use crate::siphash::SipHash13;
use crate::tcp::TcpHeader;

/// Computes and checks probe validation values for one scan.
#[derive(Debug, Clone, Copy)]
pub struct Validator {
    mac: SipHash13,
}

impl Validator {
    /// Create a validator from the per-scan 128-bit secret.
    pub fn new(key0: u64, key1: u64) -> Self {
        Self {
            mac: SipHash13::new(key0, key1),
        }
    }

    /// Derive one from a single scan seed (the common case: ZMap expands
    /// its `--seed` into the validation key).
    pub fn from_seed(seed: u64) -> Self {
        // Split the seed into two words with different constants so that
        // seed 0 does not yield the all-zero key.
        Self::new(
            seed ^ 0x9e37_79b9_7f4a_7c15,
            seed.rotate_left(32) ^ 0xbf58_476d_1ce4_e5b9,
        )
    }

    /// The sequence number to place in a SYN probe for this flow.
    ///
    /// `src`/`dst` are host-order IPv4 addresses. The destination port is
    /// fixed per scan, the source port may vary across retransmissions, so
    /// both are bound into the MAC.
    #[inline]
    pub fn probe_seq(&self, src: u32, dst: u32, src_port: u16, dst_port: u16) -> u32 {
        let tag = self.mac.hash_words(&[
            (u64::from(src) << 32) | u64::from(dst),
            (u64::from(src_port) << 16) | u64::from(dst_port),
        ]);
        (tag & 0xffff_ffff) as u32
    }

    /// Validate a reply segment claiming to answer a probe on this flow.
    ///
    /// `reply_src`/`reply_dst` are the *reply's* IPv4 addresses, i.e. the
    /// probe's destination and source swapped back by the caller. Accepts
    /// SYN-ACKs that acknowledge `mac + 1` and RSTs that acknowledge
    /// `mac + 1` (RFC-compliant RST-ACK answering our SYN).
    #[inline]
    pub fn check_reply(&self, reply: &TcpHeader, probe_src: u32, probe_dst: u32) -> bool {
        let expected = self
            .probe_seq(probe_src, probe_dst, reply.dst_port, reply.src_port)
            .wrapping_add(1);
        reply.ack == expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpHeader;

    #[test]
    fn genuine_syn_ack_validates() {
        let v = Validator::from_seed(1234);
        let (src, dst) = (0x0a000001, 0x01020304);
        let seq = v.probe_seq(src, dst, 40000, 443);
        let probe = TcpHeader::syn_probe(40000, 443, seq);
        let reply = TcpHeader::syn_ack_reply(&probe, 999);
        assert!(v.check_reply(&reply, src, dst));
    }

    #[test]
    fn spoofed_reply_rejected() {
        let v = Validator::from_seed(1234);
        let (src, dst) = (0x0a000001, 0x01020304);
        let mut reply = TcpHeader::syn_ack_reply(&TcpHeader::syn_probe(40000, 443, 0), 1);
        reply.ack = 0x5555_5555;
        assert!(!v.check_reply(&reply, src, dst));
    }

    #[test]
    fn reply_from_wrong_host_rejected() {
        let v = Validator::from_seed(99);
        let (src, dst) = (0x0a000001, 0x01020304);
        let seq = v.probe_seq(src, dst, 40000, 80);
        let probe = TcpHeader::syn_probe(40000, 80, seq);
        let reply = TcpHeader::syn_ack_reply(&probe, 1);
        // Same segment, but attributed to a different probed destination.
        assert!(!v.check_reply(&reply, src, dst + 1));
    }

    #[test]
    fn different_seeds_disagree() {
        let a = Validator::from_seed(1);
        let b = Validator::from_seed(2);
        assert_ne!(a.probe_seq(1, 2, 3, 4), b.probe_seq(1, 2, 3, 4),);
    }

    #[test]
    fn mac_values_are_pinned() {
        // Validation passes for any self-consistent MAC, so no golden
        // would notice the MAC itself drifting; these three values are
        // the ones the byte-serialising SipHash path produced.
        for (seed, src, dst, sport, dport, seq) in [
            (
                0u64,
                0x0a00_0001u32,
                0x0102_0304u32,
                40_000u16,
                80u16,
                0x603d_1236u32,
            ),
            (2020, 0xc0a8_0001, 0x0000_beef, 54_321, 443, 0xccac_02a5),
            (u64::MAX, 0xffff_ffff, 0, 0, 0, 0x465d_9fac),
        ] {
            let got = Validator::from_seed(seed).probe_seq(src, dst, sport, dport);
            assert_eq!(got, seq, "seed {seed:#x}: {got:#010x}");
        }
    }

    #[test]
    fn rst_ack_to_probe_validates() {
        // A RST that correctly acknowledges our SYN proves the probe reached
        // the host (closed port), and must validate.
        let v = Validator::from_seed(7);
        let (src, dst) = (0x0a000001, 0x7f000001);
        let seq = v.probe_seq(src, dst, 50000, 22);
        let probe = TcpHeader::syn_probe(50000, 22, seq);
        let rst = TcpHeader::rst_reply(&probe);
        assert!(v.check_reply(&rst, src, dst));
    }
}
