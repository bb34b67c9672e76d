//! Minimal TLS 1.2 record and handshake codec.
//!
//! The paper's HTTPS handshake is a TLS 1.2 ClientHello advertising the
//! cipher suites of then-modern Chrome; a host counts as reachable when it
//! answers with a parseable ServerHello selecting one of them. We implement
//! just that slice of TLS: record framing, ClientHello emission, and
//! ServerHello parsing. No key exchange or encryption — the scan closes the
//! connection after the hello exchange.

use crate::ParseError;

/// TLS record content type for handshake messages.
pub const CONTENT_HANDSHAKE: u8 = 22;
/// TLS record content type for alerts.
pub(crate) const CONTENT_ALERT: u8 = 21;
/// Wire version for TLS 1.2.
pub const VERSION_TLS12: u16 = 0x0303;

/// Handshake message type: ClientHello.
pub const HS_CLIENT_HELLO: u8 = 1;
/// Handshake message type: ServerHello.
pub(crate) const HS_SERVER_HELLO: u8 = 2;

/// The TLS 1.2 cipher suites modern Chrome offered at the time of the
/// study (GREASE omitted), in Chrome's preference order.
pub const CHROME_TLS12_SUITES: [u16; 11] = [
    0xc02b, // ECDHE-ECDSA-AES128-GCM-SHA256
    0xc02f, // ECDHE-RSA-AES128-GCM-SHA256
    0xc02c, // ECDHE-ECDSA-AES256-GCM-SHA384
    0xc030, // ECDHE-RSA-AES256-GCM-SHA384
    0xcca9, // ECDHE-ECDSA-CHACHA20-POLY1305
    0xcca8, // ECDHE-RSA-CHACHA20-POLY1305
    0xc013, // ECDHE-RSA-AES128-CBC-SHA
    0xc014, // ECDHE-RSA-AES256-CBC-SHA
    0x009c, // RSA-AES128-GCM-SHA256
    0x002f, // RSA-AES128-CBC-SHA
    0x0035, // RSA-AES256-CBC-SHA
];

/// ClientHello body bytes: version, random, empty session id, the
/// suites with their length, one (null) compression method, and an
/// empty extension block.
const CLIENT_HELLO_BODY: usize = 2 + 32 + 1 + 2 + 2 * CHROME_TLS12_SUITES.len() + 2 + 2;

/// Emit a complete ClientHello record.
///
/// `random` seeds the 32-byte client random deterministically (the
/// simulator derives it from the flow); real entropy is irrelevant since
/// the handshake is aborted after the ServerHello.
#[expect(clippy::cast_possible_truncation, reason = "an 11-entry const table")]
pub fn client_hello(random: u64) -> Vec<u8> {
    framed(HS_CLIENT_HELLO, CLIENT_HELLO_BODY, |body| {
        body.extend_from_slice(&VERSION_TLS12.to_be_bytes());
        // 32-byte client random expanded from the seed.
        for i in 0..4u64 {
            body.extend_from_slice(
                &random
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i)
                    .to_be_bytes(),
            );
        }
        body.push(0); // empty session id
        let suites_len = (CHROME_TLS12_SUITES.len() * 2) as u16;
        body.extend_from_slice(&suites_len.to_be_bytes());
        for s in CHROME_TLS12_SUITES {
            body.extend_from_slice(&s.to_be_bytes());
        }
        body.push(1); // one compression method:
        body.push(0); //   null
        body.extend_from_slice(&0u16.to_be_bytes()); // no extensions
    })
}

/// One handshake message of type `hs_type` in one record, in one buffer
/// of exactly its length: the record and handshake headers, then the
/// `body_len` bytes `body` writes.
#[expect(
    clippy::cast_possible_truncation,
    reason = "guarded: hello bodies stay tiny, far from the 2^24 and 2^16 length caps"
)]
fn framed(hs_type: u8, body_len: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let hs_len = 4 + body_len;
    debug_assert!(hs_len <= usize::from(u16::MAX), "record exceeds u16 length");
    let mut rec = Vec::with_capacity(5 + hs_len);
    rec.push(CONTENT_HANDSHAKE);
    rec.extend_from_slice(&VERSION_TLS12.to_be_bytes());
    rec.extend_from_slice(&(hs_len as u16).to_be_bytes());
    rec.push(hs_type);
    let [_, l0, l1, l2] = (body_len as u32).to_be_bytes();
    rec.extend_from_slice(&[l0, l1, l2]); // 24-bit length
    body(&mut rec);
    debug_assert_eq!(rec.len(), 5 + hs_len, "body length mismatch");
    rec
}

/// The fields of a ServerHello the scanner records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// Negotiated protocol version.
    pub version: u16,
    /// Selected cipher suite.
    pub cipher_suite: u16,
}

impl ServerHello {
    /// Emit a ServerHello record selecting `cipher_suite` (used by the
    /// simulated servers).
    pub fn emit(&self, random: u64) -> Vec<u8> {
        // version, random, empty session id, suite, compression
        framed(HS_SERVER_HELLO, 2 + 32 + 1 + 2 + 1, |body| {
            body.extend_from_slice(&self.version.to_be_bytes());
            for i in 0..4u64 {
                body.extend_from_slice(&random.wrapping_add(i).to_be_bytes());
            }
            body.push(0); // empty session id
            body.extend_from_slice(&self.cipher_suite.to_be_bytes());
            body.push(0); // null compression
        })
    }

    /// Parse a ServerHello from a record buffer.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        // record: type(1) version(2) length(2) payload…
        let [content, _, _, len_hi, len_lo, rest @ ..] = buf else {
            return Err(ParseError::Truncated);
        };
        if *content == CONTENT_ALERT {
            return Err(ParseError::Malformed); // alert instead of hello
        }
        if *content != CONTENT_HANDSHAKE {
            return Err(ParseError::Malformed);
        }
        let rec_len = usize::from(u16::from_be_bytes([*len_hi, *len_lo]));
        let rec = rest.get(..rec_len).ok_or(ParseError::Truncated)?;
        // handshake: type(1) length(3) body…
        let [hs_type, hl0, hl1, hl2, hs_rest @ ..] = rec else {
            return Err(ParseError::Malformed);
        };
        if *hs_type != HS_SERVER_HELLO {
            return Err(ParseError::Malformed);
        }
        let hs_len = usize::from(*hl0) << 16 | usize::from(*hl1) << 8 | usize::from(*hl2);
        let body = hs_rest.get(..hs_len).ok_or(ParseError::Truncated)?;
        // body: version(2) random(32) sid_len(1) sid(sid_len) suite(2) …
        let [ver_hi, ver_lo, after_version @ ..] = body else {
            return Err(ParseError::Truncated);
        };
        let version = u16::from_be_bytes([*ver_hi, *ver_lo]);
        let after_random = after_version.get(32..).ok_or(ParseError::Truncated)?;
        let [sid_len, after_sid_len @ ..] = after_random else {
            return Err(ParseError::Truncated);
        };
        let after_sid = after_sid_len
            .get(usize::from(*sid_len)..)
            .ok_or(ParseError::Truncated)?;
        let [cs_hi, cs_lo, _compression, ..] = after_sid else {
            return Err(ParseError::Truncated);
        };
        let cipher_suite = u16::from_be_bytes([*cs_hi, *cs_lo]);
        Ok(Self {
            version,
            cipher_suite,
        })
    }

    /// Did the server pick a suite the ClientHello actually offered?
    pub fn suite_is_offered(&self) -> bool {
        CHROME_TLS12_SUITES.contains(&self.cipher_suite)
    }
}

/// Emit a fatal TLS alert record (e.g. `handshake_failure` = 40), as sent
/// by simulated servers that refuse the offered suites.
pub fn alert(description: u8) -> Vec<u8> {
    vec![
        CONTENT_ALERT,
        0x03,
        0x03,
        0x00,
        0x02,
        2, /* fatal */
        description,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_hello_framing() {
        let ch = client_hello(42);
        assert_eq!(ch[0], CONTENT_HANDSHAKE);
        assert_eq!(u16::from_be_bytes([ch[1], ch[2]]), VERSION_TLS12);
        let rec_len = usize::from(u16::from_be_bytes([ch[3], ch[4]]));
        assert_eq!(rec_len, ch.len() - 5);
        assert_eq!(ch[5], HS_CLIENT_HELLO);
    }

    /// The framing `framed` replaced: handshake header and body in one
    /// buffer, then record header and that in another.
    fn framed_in_two_buffers(hs_type: u8, body: &[u8]) -> Vec<u8> {
        let mut hs = vec![hs_type];
        hs.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..]);
        hs.extend_from_slice(body);
        let mut rec = vec![CONTENT_HANDSHAKE];
        rec.extend_from_slice(&VERSION_TLS12.to_be_bytes());
        rec.extend_from_slice(&(hs.len() as u16).to_be_bytes());
        rec.extend_from_slice(&hs);
        rec
    }

    #[test]
    fn hellos_equal_the_two_buffer_framing() {
        for random in [0, 1, 42, u64::MAX] {
            let ch = client_hello(random);
            assert_eq!(ch, framed_in_two_buffers(HS_CLIENT_HELLO, &ch[9..]));
            assert_eq!(ch.len(), ch.capacity());
            assert_eq!(&ch[9..11], &VERSION_TLS12.to_be_bytes());
            for cipher_suite in CHROME_TLS12_SUITES {
                let sh = ServerHello {
                    version: VERSION_TLS12,
                    cipher_suite,
                }
                .emit(random);
                assert_eq!(sh, framed_in_two_buffers(HS_SERVER_HELLO, &sh[9..]));
                assert_eq!(sh.len(), sh.capacity());
            }
        }
    }

    #[test]
    fn server_hello_roundtrip() {
        let sh = ServerHello {
            version: VERSION_TLS12,
            cipher_suite: 0xc02f,
        };
        let bytes = sh.emit(7);
        let parsed = ServerHello::parse(&bytes).unwrap();
        assert_eq!(parsed, sh);
        assert!(parsed.suite_is_offered());
    }

    #[test]
    fn unoffered_suite_detected() {
        let sh = ServerHello {
            version: VERSION_TLS12,
            cipher_suite: 0x1301,
        };
        assert!(!ServerHello::parse(&sh.emit(0)).unwrap().suite_is_offered());
    }

    #[test]
    fn alert_is_not_a_hello() {
        assert_eq!(ServerHello::parse(&alert(40)), Err(ParseError::Malformed));
    }

    #[test]
    fn truncated_rejected() {
        let sh = ServerHello {
            version: VERSION_TLS12,
            cipher_suite: 0xc02b,
        };
        let bytes = sh.emit(1);
        for cut in [0, 3, 8, bytes.len() - 1] {
            assert!(ServerHello::parse(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn http_response_is_not_tls() {
        assert!(ServerHello::parse(b"HTTP/1.1 400 Bad Request\r\n\r\n").is_err());
    }
}
