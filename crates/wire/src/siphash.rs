//! SipHash-1-3: a short-input keyed pseudorandom function.
//!
//! ZMap derives its stateless probe validation from a keyed MAC of the flow
//! tuple. We implement SipHash with 1 compression round and 3 finalization
//! rounds — the variant real ZMap adopted for validation generation — from
//! the reference description (Aumasson & Bernstein, 2012). The
//! implementation is self-contained so the scanner does not depend on the
//! standard library's unstable hasher internals.

/// SipHash state keyed with a 128-bit key.
#[derive(Debug, Clone, Copy)]
pub struct SipHash13 {
    k0: u64,
    k1: u64,
}

#[inline]
fn sipround(v0: u64, v1: u64, v2: u64, v3: u64) -> (u64, u64, u64, u64) {
    let mut v0 = v0.wrapping_add(v1);
    let mut v1 = v1.rotate_left(13);
    v1 ^= v0;
    v0 = v0.rotate_left(32);
    let mut v2 = v2.wrapping_add(v3);
    let mut v3 = v3.rotate_left(16);
    v3 ^= v2;
    v0 = v0.wrapping_add(v3);
    v3 = v3.rotate_left(21);
    v3 ^= v0;
    v2 = v2.wrapping_add(v1);
    v1 = v1.rotate_left(17);
    v1 ^= v2;
    v2 = v2.rotate_left(32);
    (v0, v1, v2, v3)
}

/// The four-word SipHash state while a message is absorbed.
#[derive(Clone, Copy)]
struct State(u64, u64, u64, u64);

impl State {
    /// One message block: c = 1 compression round.
    #[inline]
    fn absorb(self, m: u64) -> Self {
        let Self(v0, v1, v2, v3) = self;
        let (v0, v1, v2, v3) = sipround(v0, v1, v2, v3 ^ m);
        Self(v0 ^ m, v1, v2, v3)
    }

    /// d = 3 finalization rounds, folded to the 64-bit tag.
    #[inline]
    fn finish(self) -> u64 {
        let Self(mut v0, mut v1, mut v2, mut v3) = self;
        v2 ^= 0xff;
        (v0, v1, v2, v3) = sipround(v0, v1, v2, v3);
        (v0, v1, v2, v3) = sipround(v0, v1, v2, v3);
        (v0, v1, v2, v3) = sipround(v0, v1, v2, v3);
        v0 ^ v1 ^ v2 ^ v3
    }
}

impl SipHash13 {
    /// Construct from a 128-bit key split into two words.
    pub fn new(k0: u64, k1: u64) -> Self {
        Self { k0, k1 }
    }

    #[inline]
    fn keyed(&self) -> State {
        State(
            self.k0 ^ 0x736f_6d65_7073_6575,
            self.k1 ^ 0x646f_7261_6e64_6f6d,
            self.k0 ^ 0x6c79_6765_6e65_7261,
            self.k1 ^ 0x7465_6462_7974_6573,
        )
    }

    /// Hash a message, returning a 64-bit tag.
    pub fn hash(&self, msg: &[u8]) -> u64 {
        let mut v = self.keyed();
        let mut chunks = msg.chunks_exact(8);
        for c in &mut chunks {
            // chunks_exact(8) guarantees the conversion succeeds.
            v = v.absorb(u64::from_le_bytes(c.try_into().unwrap_or_default()));
        }
        // Final block: remaining bytes in the low positions plus
        // `len mod 256` in the top byte, per spec. The shift by 56 keeps
        // exactly the low 8 bits of the length — no narrowing cast needed.
        let mut m = (msg.len() as u64) << 56;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            m |= u64::from(b) << (8 * i);
        }
        v.absorb(m).finish()
    }

    /// Hash a sequence of 64-bit words: the tag of [`hash`](Self::hash)
    /// over their little-endian bytes, without serialising them. Each
    /// word is one whole block, so the final block carries only the
    /// byte length `8·n`. This is the per-probe validation MAC, so it
    /// must not allocate.
    #[inline]
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        let v = words.iter().fold(self.keyed(), |v, &w| v.absorb(w));
        v.absorb((words.len() as u64 * 8) << 56).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_key_sensitive() {
        let a = SipHash13::new(1, 2);
        let b = SipHash13::new(1, 3);
        assert_eq!(a.hash(b"hello"), a.hash(b"hello"));
        assert_ne!(a.hash(b"hello"), b.hash(b"hello"));
        assert_ne!(a.hash(b"hello"), a.hash(b"hellp"));
    }

    #[test]
    fn length_extension_differs() {
        // Messages that share a prefix but differ in length must differ, the
        // length byte in the final block guarantees it.
        let h = SipHash13::new(7, 11);
        assert_ne!(h.hash(&[0u8; 7]), h.hash(&[0u8; 8]));
        assert_ne!(h.hash(&[0u8; 8]), h.hash(&[0u8; 9]));
    }

    #[test]
    fn words_match_bytes() {
        // `hash` over the little-endian bytes is the reference; the word
        // path must agree at every length, including the empty message.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            // SplitMix64 step.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for round in 0..40 {
            let h = SipHash13::new(next(), next());
            for len in 0..=8 {
                let words: Vec<u64> = (0..len).map(|_| next()).collect();
                let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                assert_eq!(
                    h.hash_words(&words),
                    h.hash(&bytes),
                    "round {round}, {len} words"
                );
            }
        }
    }

    #[test]
    fn avalanche_spot_check() {
        // Flipping one input bit should flip roughly half the output bits.
        let h = SipHash13::new(0xdead, 0xbeef);
        let x = h.hash(&[0u8; 16]);
        let mut msg = [0u8; 16];
        msg[0] = 1;
        let y = h.hash(&msg);
        let flipped = (x ^ y).count_ones();
        assert!((16..=48).contains(&flipped), "flipped {flipped} bits");
    }
}
