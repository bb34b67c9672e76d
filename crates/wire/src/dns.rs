//! Minimal DNS-over-UDP codec.
//!
//! Supports what a DNS scanner needs: building the A-record query the
//! probe sends (recursion desired, one question), parsing responses
//! enough to validate the transaction id and count answers, and — for
//! the simulated network — building a response to a given query. Name
//! compression is emitted only as the single `0xC00C` pointer back to
//! the question and accepted anywhere a name may occur.

use crate::bytes::Reader;
use crate::ParseError;

/// Length of the fixed DNS header.
pub const HEADER_LEN: usize = 12;

/// Query/record type for an IPv4 host address.
pub const QTYPE_A: u16 = 1;

/// The Internet class.
pub const QCLASS_IN: u16 = 1;

/// Header flag bit: message is a response.
pub const FLAG_RESPONSE: u16 = 0x8000;

/// Header flag bit: recursion desired.
pub const FLAG_RD: u16 = 0x0100;

/// Header flag bit: recursion available.
pub const FLAG_RA: u16 = 0x0080;

/// Maximum length of one label in an encoded name.
pub const MAX_LABEL_LEN: usize = 63;

/// Response code: no error.
pub const RCODE_NOERROR: u8 = 0;

/// Response code: name does not exist.
pub const RCODE_NXDOMAIN: u8 = 3;

/// Response code: server refused the query.
pub const RCODE_REFUSED: u8 = 5;

/// Append `name` in DNS label encoding (length-prefixed labels, zero
/// terminator). Rejects empty labels and labels over [`MAX_LABEL_LEN`].
pub fn encode_qname(name: &str, out: &mut Vec<u8>) -> Result<(), ParseError> {
    for label in name.split('.') {
        let bytes = label.as_bytes();
        if bytes.is_empty() || bytes.len() > MAX_LABEL_LEN {
            return Err(ParseError::Malformed);
        }
        let len = u8::try_from(bytes.len()).map_err(|_| ParseError::Malformed)?;
        out.push(len);
        out.extend_from_slice(bytes);
    }
    out.push(0);
    Ok(())
}

/// Build the A-record query a scanner sends: `txid` as the transaction
/// id (it carries the stateless validation MAC), recursion desired,
/// exactly one question.
pub fn a_query(txid: u16, name: &str) -> Result<Vec<u8>, ParseError> {
    let mut b = Vec::with_capacity(HEADER_LEN + name.len() + 6);
    b.extend_from_slice(&txid.to_be_bytes());
    b.extend_from_slice(&FLAG_RD.to_be_bytes());
    b.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    b.extend_from_slice(&0u16.to_be_bytes()); // ANCOUNT
    b.extend_from_slice(&0u16.to_be_bytes()); // NSCOUNT
    b.extend_from_slice(&0u16.to_be_bytes()); // ARCOUNT
    encode_qname(name, &mut b)?;
    b.extend_from_slice(&QTYPE_A.to_be_bytes());
    b.extend_from_slice(&QCLASS_IN.to_be_bytes());
    Ok(b)
}

/// The question section of a parsed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuery {
    /// Transaction id.
    pub txid: u16,
    /// The (single) question name, dotted.
    pub qname: String,
    /// Question type.
    pub qtype: u16,
}

/// The summary of a parsed response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsResponse {
    /// Transaction id (must mirror the query's for validation).
    pub txid: u16,
    /// Response code from the header flags.
    pub rcode: u8,
    /// Number of answer records.
    pub answers: u16,
}

/// Walk one encoded name, checking its structure and appending dotted
/// labels to `out` when the caller wants the text (a response's names
/// are only validated, so that path builds no string). Accepts a
/// compression pointer (terminating the walk) anywhere a label could
/// start.
fn read_name(r: &mut Reader<'_>, mut out: Option<&mut String>) -> Result<(), ParseError> {
    loop {
        let len = r.u8()?;
        if len == 0 {
            return Ok(());
        }
        if len & 0xc0 == 0xc0 {
            // Compression pointer: consume the low offset byte and stop
            // (the target is not followed; callers only need structure).
            r.u8()?;
            return Ok(());
        }
        if usize::from(len) > MAX_LABEL_LEN {
            return Err(ParseError::Malformed);
        }
        let label = r.take(usize::from(len))?;
        if !label.iter().all(u8::is_ascii_graphic) {
            return Err(ParseError::Malformed);
        }
        if let Some(out) = out.as_deref_mut() {
            if !out.is_empty() {
                out.push('.');
            }
            out.extend(label.iter().copied().map(char::from));
        }
    }
}

/// Parse a query: header plus its single question.
pub fn parse_query(buf: &[u8]) -> Result<DnsQuery, ParseError> {
    let mut r = Reader::new(buf);
    let txid = r.u16()?;
    let flags = r.u16()?;
    if flags & FLAG_RESPONSE != 0 {
        return Err(ParseError::Malformed);
    }
    let qdcount = r.u16()?;
    if qdcount != 1 {
        return Err(ParseError::Malformed);
    }
    r.skip(6)?; // AN/NS/AR counts

    // One allocation: the dotted name is shorter than its message.
    let mut qname = String::with_capacity(buf.len());
    read_name(&mut r, Some(&mut qname))?;
    let qtype = r.u16()?;
    r.u16()?; // qclass
    Ok(DnsQuery { txid, qname, qtype })
}

/// Parse a response: header, question echo, and answer records (names,
/// fixed fields, and rdata are structurally validated, not interpreted).
pub fn parse_response(buf: &[u8]) -> Result<DnsResponse, ParseError> {
    let mut r = Reader::new(buf);
    let txid = r.u16()?;
    let flags = r.u16()?;
    if flags & FLAG_RESPONSE == 0 {
        return Err(ParseError::Malformed);
    }
    let rcode = (flags & 0x000f) as u8;
    let qdcount = r.u16()?;
    let answers = r.u16()?;
    r.skip(4)?; // NS/AR counts
    for _ in 0..qdcount {
        read_name(&mut r, None)?;
        r.skip(4)?; // qtype + qclass
    }
    for _ in 0..answers {
        read_name(&mut r, None)?;
        r.skip(8)?; // type, class, TTL
        let rdlength = r.u16()?;
        r.skip(usize::from(rdlength))?;
    }
    Ok(DnsResponse {
        txid,
        rcode,
        answers,
    })
}

/// Build the response a resolver sends to `query`: the question echoed,
/// `rcode` in the flags, and one A record per address in `answers`
/// (name-compressed back to the question, TTL 60).
#[expect(clippy::cast_possible_truncation, reason = "HEADER_LEN is 12")]
pub fn build_response(query: &[u8], rcode: u8, answers: &[u32]) -> Result<Vec<u8>, ParseError> {
    let q = parse_query(query)?;
    let mut b = Vec::with_capacity(query.len() + 4 + answers.len() * 16);
    b.extend_from_slice(&q.txid.to_be_bytes());
    let flags = FLAG_RESPONSE | FLAG_RD | FLAG_RA | u16::from(rcode & 0x0f);
    b.extend_from_slice(&flags.to_be_bytes());
    let ancount = u16::try_from(answers.len()).map_err(|_| ParseError::Malformed)?;
    b.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    b.extend_from_slice(&ancount.to_be_bytes()); // ANCOUNT
    b.extend_from_slice(&0u16.to_be_bytes()); // NSCOUNT
    b.extend_from_slice(&0u16.to_be_bytes()); // ARCOUNT
    encode_qname(&q.qname, &mut b)?;
    b.extend_from_slice(&q.qtype.to_be_bytes());
    b.extend_from_slice(&QCLASS_IN.to_be_bytes());
    for addr in answers {
        b.extend_from_slice(&[0xc0, HEADER_LEN as u8]); // pointer to the question name
        b.extend_from_slice(&QTYPE_A.to_be_bytes());
        b.extend_from_slice(&QCLASS_IN.to_be_bytes());
        b.extend_from_slice(&60u32.to_be_bytes()); // TTL
        b.extend_from_slice(&4u16.to_be_bytes()); // RDLENGTH
        b.extend_from_slice(&addr.to_be_bytes());
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parses_back() {
        let q = a_query(0xbeef, "origin-scan.example.com").unwrap();
        let parsed = parse_query(&q).unwrap();
        assert_eq!(parsed.txid, 0xbeef);
        assert_eq!(parsed.qname, "origin-scan.example.com");
        assert_eq!(parsed.qtype, QTYPE_A);
    }

    #[test]
    fn response_roundtrip_with_answers() {
        let q = a_query(7, "example.com").unwrap();
        let resp = build_response(&q, RCODE_NOERROR, &[0x01020304, 0x05060708]).unwrap();
        let parsed = parse_response(&resp).unwrap();
        assert_eq!(parsed.txid, 7);
        assert_eq!(parsed.rcode, RCODE_NOERROR);
        assert_eq!(parsed.answers, 2);
    }

    #[test]
    fn nxdomain_response_has_no_answers() {
        let q = a_query(9, "nope.example").unwrap();
        let resp = build_response(&q, RCODE_NXDOMAIN, &[]).unwrap();
        let parsed = parse_response(&resp).unwrap();
        assert_eq!(parsed.rcode, RCODE_NXDOMAIN);
        assert_eq!(parsed.answers, 0);
    }

    #[test]
    fn query_is_not_a_response_and_vice_versa() {
        let q = a_query(1, "a.b").unwrap();
        assert_eq!(parse_response(&q), Err(ParseError::Malformed));
        let resp = build_response(&q, 0, &[]).unwrap();
        assert_eq!(parse_query(&resp), Err(ParseError::Malformed));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        // Both parsers consume their document exactly, so every strict
        // prefix must fail on some checked read.
        let q = a_query(3, "origin-scan.example.com").unwrap();
        for cut in 0..q.len() {
            assert!(
                parse_query(q.get(..cut).unwrap()).is_err(),
                "query truncated at {cut} must not parse"
            );
        }
        let resp = build_response(&q, 0, &[0x7f000001]).unwrap();
        for cut in 0..resp.len() {
            assert!(
                parse_response(resp.get(..cut).unwrap()).is_err(),
                "response truncated at {cut} must not parse"
            );
        }
        assert_eq!(parse_response(&[]), Err(ParseError::Truncated));
    }

    #[test]
    fn bad_labels_rejected() {
        let long = "x".repeat(MAX_LABEL_LEN + 1);
        assert_eq!(a_query(0, &long), Err(ParseError::Malformed));
        assert_eq!(a_query(0, "a..b"), Err(ParseError::Malformed));
        let ok = "y".repeat(MAX_LABEL_LEN);
        assert!(a_query(0, &ok).is_ok());
    }

    #[test]
    fn non_printable_name_bytes_rejected() {
        let mut q = a_query(0, "ab.cd").unwrap();
        if let Some(b) = q.get_mut(HEADER_LEN + 1) {
            *b = 0x07; // first label byte becomes a control character
        }
        assert_eq!(parse_query(&q), Err(ParseError::Malformed));
    }
}
