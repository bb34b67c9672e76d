//! RFC 1071 Internet checksum.
//!
//! The same ones'-complement sum is used by the IPv4 header checksum and —
//! combined with a pseudo-header — by the TCP checksum.

/// Incremental ones'-complement accumulator.
///
/// Feed arbitrary byte slices (odd lengths are handled per RFC 1071 by
/// zero-padding the final octet) and u16/u32 words, then call
/// [`Accumulator::finish`] to fold and complement.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Accumulator {
    sum: u32,
}

impl Accumulator {
    /// Create an empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add a big-endian 16-bit word.
    pub(crate) fn add_u16(&mut self, v: u16) {
        self.sum += u32::from(v);
    }

    /// Add a 32-bit value as two big-endian 16-bit words.
    pub(crate) fn add_u32(&mut self, v: u32) {
        self.add_u16((v >> 16) as u16);
        self.add_u16((v & 0xffff) as u16);
    }

    /// Add a byte slice, padding a trailing odd octet with zero.
    pub(crate) fn add_bytes(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            if let [hi, lo] = *c {
                self.add_u16(u16::from_be_bytes([hi, lo]));
            }
        }
        if let [last] = chunks.remainder() {
            self.add_u16(u16::from_be_bytes([*last, 0]));
        }
    }

    /// Fold carries and return the ones'-complement checksum.
    pub(crate) fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        let [_, _, hi, lo] = sum.to_be_bytes();
        !u16::from_be_bytes([hi, lo])
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut acc = Accumulator::new();
    acc.add_bytes(data);
    acc.finish()
}

/// Verify that a buffer containing its own checksum field sums to zero.
///
/// Per RFC 1071, summing a buffer whose checksum field is already filled in
/// yields `0xffff` before complementing, i.e. `checksum(buf) == 0`.
pub(crate) fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> fold -> ddf2 -> !
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_roundtrip() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06, 0, 0,
        ];
        let csum = checksum(&data);
        data[10] = (csum >> 8) as u8;
        data[11] = (csum & 0xff) as u8;
        assert!(verify(&data));
        // Flipping any bit breaks verification.
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn u32_matches_bytes() {
        let mut a = Accumulator::new();
        a.add_u32(0xdead_beef);
        let mut b = Accumulator::new();
        b.add_bytes(&[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(a.finish(), b.finish());
    }
}
