//! Checked byte-level reads shared by the wire parsers, and the decimal
//! writes shared by the text renderers.
//!
//! Every accessor returns a typed [`ParseError`] instead of panicking,
//! so parsers built on top of them contain no slice-index expressions:
//! a truncated buffer surfaces as `Err(Truncated)` on the exact read
//! that ran out of bytes.

use crate::ParseError;

/// Read the byte at `at`.
pub(crate) fn byte(buf: &[u8], at: usize) -> Result<u8, ParseError> {
    buf.get(at).copied().ok_or(ParseError::Truncated)
}

/// Read a big-endian u16 starting at `at`.
pub(crate) fn be16(buf: &[u8], at: usize) -> Result<u16, ParseError> {
    match buf.get(at..at.wrapping_add(2)) {
        Some([hi, lo]) => Ok(u16::from_be_bytes([*hi, *lo])),
        _ => Err(ParseError::Truncated),
    }
}

/// Read a big-endian u32 starting at `at`.
pub(crate) fn be32(buf: &[u8], at: usize) -> Result<u32, ParseError> {
    match buf.get(at..at.wrapping_add(4)) {
        Some([a, b, c, d]) => Ok(u32::from_be_bytes([*a, *b, *c, *d])),
        _ => Err(ParseError::Truncated),
    }
}

/// A forward-only cursor over a byte buffer with checked reads.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Read one byte and advance.
    pub(crate) fn u8(&mut self) -> Result<u8, ParseError> {
        let v = byte(self.buf, self.pos)?;
        self.pos += 1;
        Ok(v)
    }

    /// Read a big-endian u16 and advance.
    pub(crate) fn u16(&mut self) -> Result<u16, ParseError> {
        let v = be16(self.buf, self.pos)?;
        self.pos += 2;
        Ok(v)
    }

    /// Take `n` raw bytes and advance.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ParseError> {
        let out = self
            .buf
            .get(self.pos..self.pos.wrapping_add(n))
            .ok_or(ParseError::Truncated)?;
        self.pos += n;
        Ok(out)
    }

    /// Skip `n` bytes.
    pub(crate) fn skip(&mut self, n: usize) -> Result<(), ParseError> {
        self.take(n).map(|_| ())
    }
}

/// Digits in the decimal form of `n`: what [`put_decimal`] appends.
pub fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Append `n` in decimal, as `{n}` formats it, without formatting: a
/// renderer that sized its buffer with [`decimal_len`] never grows it.
pub fn put_decimal(out: &mut Vec<u8>, mut n: u64) {
    let start = out.len();
    loop {
        out.push(b'0' + (n % 10) as u8);
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if let Some(digits) = out.get_mut(start..) {
        digits.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_checked() {
        let buf = [1u8, 2, 3, 4, 5];
        assert_eq!(byte(&buf, 4), Ok(5));
        assert_eq!(byte(&buf, 5), Err(ParseError::Truncated));
        assert_eq!(be16(&buf, 0), Ok(0x0102));
        assert_eq!(be16(&buf, 4), Err(ParseError::Truncated));
        assert_eq!(be32(&buf, 1), Ok(0x0203_0405));
        assert_eq!(be32(&buf, 2), Err(ParseError::Truncated));
        // Offsets near usize::MAX must not wrap around into a panic.
        assert_eq!(be16(&buf, usize::MAX), Err(ParseError::Truncated));
        assert_eq!(be32(&buf, usize::MAX - 1), Err(ParseError::Truncated));
    }

    #[test]
    fn decimals_match_format() {
        let mut out = b"x".to_vec();
        for n in [0, 1, 9, 10, 99, 100, 255, 999, 1000, 65_535, u64::MAX] {
            out.truncate(1);
            put_decimal(&mut out, n);
            assert_eq!(out, format!("x{n}").into_bytes());
            assert_eq!(decimal_len(n), n.to_string().len());
        }
    }

    #[test]
    fn reader_walks_and_stops() {
        let buf = [0u8, 1, 2, 3, 4, 5, 6];
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(0));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.take(4), Ok(&[3u8, 4, 5, 6][..]));
        assert_eq!(r.u8(), Err(ParseError::Truncated));
        let mut r = Reader::new(&buf);
        assert_eq!(r.skip(5), Ok(()));
        assert_eq!(r.take(2), Ok(&[5u8, 6][..]));
        assert_eq!(r.take(1), Err(ParseError::Truncated));
    }
}
