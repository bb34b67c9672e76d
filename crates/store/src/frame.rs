//! The framing both on-disk formats share — `.oscs` scan-set stores
//! ([`crate::format`]) and `.osplan` target plans (`originscan-plan`):
//! little-endian fields, a `magic | version u16 | flags u16` file
//! prefix, CRC-32-checked sections, and one set of typed decode errors.
//!
//! Everything a decoder reads goes through [`Cursor`], which never
//! indexes: a read past the end is [`FrameError::Truncated`], and three
//! helpers carry the checks every section needs —
//!
//! * [`Cursor::header`]: the magic matches, the version is *exactly* the
//!   supported one, and no flag bit is set;
//! * [`Cursor::checked`]: a section of a declared length is present in
//!   full and its stored CRC-32 matches its bytes;
//! * [`Cursor::finish`]: nothing follows the last record.
//!
//! A length or count read from a file is therefore always compared with
//! the bytes actually present before anything is sized from it.

/// What can be wrong with the bytes of a store or plan file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file does not start with the format's magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
        /// The magic the reader expected.
        expected: [u8; 4],
    },
    /// The file's version is not the one this reader understands.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
        /// The one version the reader supports.
        supported: u16,
    },
    /// A section is shorter than its declared length.
    Truncated {
        /// Which section came up short.
        section: &'static str,
        /// Bytes the section required.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A section's checksum does not match its contents.
    ChecksumMismatch {
        /// Which section failed verification.
        section: &'static str,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the bytes read.
        computed: u32,
    },
    /// A structurally invalid section (set flag bits, trailing bytes,
    /// unsorted keys, a bad container code, a cardinality mismatch, ...).
    Corrupt {
        /// Which section is malformed.
        section: &'static str,
        /// What invariant it violates.
        detail: &'static str,
    },
    /// A value exceeds what the format can represent.
    TooLarge {
        /// Which field overflowed.
        section: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found, expected } => {
                write!(f, "bad magic {found:02x?} (expected {expected:02x?})")
            }
            FrameError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (reader supports {supported})")
            }
            FrameError::Truncated {
                section,
                needed,
                available,
            } => write!(
                f,
                "truncated: section `{section}` needs {needed} bytes, {available} available"
            ),
            FrameError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in section `{section}`: stored {stored:08x}, computed {computed:08x}"
            ),
            FrameError::Corrupt { section, detail } => {
                write!(f, "corrupt section `{section}`: {detail}")
            }
            FrameError::TooLarge { section } => {
                write!(f, "value too large for the format in `{section}`")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Sixteen tables for slicing-by-16: `T[0]` is the bytewise table and
/// `T[k][i]` is `T[0][i]` pushed through `k` further zero bytes.
#[expect(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "const-evaluated: an index out of range is a compile error; `i < 256`"
)]
const fn make_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = make_crc_tables();

/// CRC-32 (IEEE 802.3, reflected) over `data`, sixteen bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    // A `u8` cannot miss a 256-entry table, so `get` always hits (and
    // compiles without a bounds check).
    let at = |table: &[u32; 256], b: u8| table.get(usize::from(b)).copied().unwrap_or_default();
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = data.chunks_exact(16);
    for step in &mut steps {
        // The register meets the step's first four bytes; byte `i` then
        // has `15 - i` more bytes to pass through.
        let step = u128::from_le_bytes(step.try_into().unwrap_or_default());
        let folded = (step ^ u128::from(crc)).to_le_bytes();
        crc = (folded.iter().zip(CRC_TABLES.iter().rev()))
            .fold(0, |acc, (&b, table)| acc ^ at(table, b));
    }
    let [bytewise, ..] = &CRC_TABLES;
    for &b in steps.remainder() {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ at(bytewise, b ^ low);
    }
    !crc
}

/// Append `v` little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian cursor over the bytes of one section;
/// the section's name goes into every error it returns.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `data`, reporting errors against
    /// `section`.
    pub fn new(data: &'a [u8], section: &'static str) -> Cursor<'a> {
        Cursor {
            data,
            pos: 0,
            section,
        }
    }

    fn truncated(&self, n: usize) -> FrameError {
        FrameError::Truncated {
            section: self.section,
            needed: (self.pos as u64).saturating_add(n as u64),
            available: self.data.len() as u64,
        }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let (head, _) = self
            .rest()
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.pos += n;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let head = self.rest().first_chunk().ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(*head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        self.array().map(|[b]| b)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Everything not yet read.
    pub fn rest(&self) -> &'a [u8] {
        self.data.get(self.pos..).unwrap_or(&[])
    }

    /// Read and check a file's `magic | version u16 | flags u16` prefix.
    pub fn header(&mut self, magic: [u8; 4], version: u16) -> Result<(), FrameError> {
        let found = self.array()?;
        if found != magic {
            return Err(FrameError::BadMagic {
                found,
                expected: magic,
            });
        }
        // Exact match, not `>`: no version below the current one ever
        // existed, so anything else is corruption or a future format.
        let found = self.u16()?;
        if found != version {
            return Err(FrameError::UnsupportedVersion {
                found,
                supported: version,
            });
        }
        // No version defines a flag; a set bit is either corruption or a
        // future feature this reader cannot honor — reject, don't ignore.
        if self.u16()? != 0 {
            return Err(FrameError::Corrupt {
                section: self.section,
                detail: "unknown flag bits set (this version defines none)",
            });
        }
        Ok(())
    }

    /// The next `len` bytes as one section whose CRC-32 must equal
    /// `stored_crc`; returns a cursor over just that section.
    pub fn checked(&mut self, len: usize, stored_crc: u32) -> Result<Cursor<'a>, FrameError> {
        let bytes = self.take(len)?;
        let computed = crc32(bytes);
        if computed != stored_crc {
            return Err(FrameError::ChecksumMismatch {
                section: self.section,
                stored: stored_crc,
                computed,
            });
        }
        Ok(Cursor::new(bytes, self.section))
    }

    /// Done reading: any byte left over is corruption.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(FrameError::Corrupt {
                section: self.section,
                detail: "trailing bytes after the last record",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    /// The raw register after `data`, one byte per lookup: the
    /// definition the sliced tables are derived from.
    fn crc32_register(init: u32, data: &[u8]) -> u32 {
        data.iter().fold(init, |crc, &b| {
            (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
        })
    }

    /// CRC-32 folded a byte at a time (what `crc32` was before slicing).
    fn crc32_reference(data: &[u8]) -> u32 {
        !crc32_register(0xFFFF_FFFF, data)
    }

    /// `len` deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        for (data, crc) in [
            // The classic check value for CRC-32/IEEE.
            (&b"123456789"[..], 0xCBF4_3926),
            (b"", 0),
            (&[0x00; 32], 0x190A_55AD),
            (&[0xFF; 32], 0xFF6C_AB0B),
            (&ascending, 0x9126_7E8A),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(data), crc, "{data:02x?}");
            assert_eq!(crc32_reference(data), crc, "{data:02x?}");
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_definition_on_every_alignment() {
        // Every head/tail split around the 16-byte step.
        let buf = noise(16 + 96);
        for start in 0..16 {
            for len in 0..=96 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_reference(data),
                    "start {start} len {len}"
                );
            }
        }
        let mib = noise(1 << 20);
        assert_eq!(crc32(&mib), crc32_reference(&mib));
        for fill in [0x00u8, 0xFF] {
            for len in [15, 16, 17, 4096] {
                let data = vec![fill; len];
                assert_eq!(crc32(&data), crc32_reference(&data), "{len} × {fill:02x}");
            }
        }
    }

    #[test]
    fn crc_table_k_is_the_register_after_k_zero_bytes() {
        for (k, table) in CRC_TABLES.iter().enumerate() {
            for i in 0..=255u8 {
                let mut data = vec![i];
                data.resize(1 + k, 0);
                assert_eq!(
                    table[usize::from(i)],
                    crc32_register(0, &data),
                    "T[{k}][{i}]"
                );
            }
        }
    }

    #[test]
    fn reads_are_little_endian_and_bounded() {
        let mut out = vec![7u8];
        put_u16(&mut out, 0x0201);
        put_u32(&mut out, 0x0605_0403);
        put_u64(&mut out, 0x0e0d_0c0b_0a09_0807);
        let mut cur = Cursor::new(&out, "fields");
        assert_eq!(cur.u8(), Ok(7));
        assert_eq!(cur.u16(), Ok(0x0201));
        assert_eq!(cur.u32(), Ok(0x0605_0403));
        assert_eq!(cur.rest().len(), 8);
        assert_eq!(cur.u64(), Ok(0x0e0d_0c0b_0a09_0807));
        // A failed read names the section and moves nothing.
        assert_eq!(
            cur.u8(),
            Err(FrameError::Truncated {
                section: "fields",
                needed: 16,
                available: 15
            })
        );
        assert_eq!(cur.take(0), Ok(&[][..]));
        // A length no slice can have saturates instead of overflowing.
        assert_eq!(
            cur.take(usize::MAX),
            Err(FrameError::Truncated {
                section: "fields",
                needed: u64::MAX,
                available: 15
            })
        );
        assert_eq!(cur.finish(), Ok(()));
    }

    #[test]
    fn header_checks_magic_version_and_flags() {
        let good = [b'T', b'E', b'S', b'T', 3, 0, 0, 0, 0xAA];
        let mut cur = Cursor::new(&good, "file header");
        assert_eq!(cur.header(MAGIC, 3), Ok(()));
        assert_eq!(cur.rest(), &[0xAA]);

        let header = |bytes: &[u8]| Cursor::new(bytes, "file header").header(MAGIC, 3);
        assert_eq!(
            header(b"TESX\x03\0\0\0"),
            Err(FrameError::BadMagic {
                found: *b"TESX",
                expected: MAGIC
            })
        );
        // Older and newer versions are both refused.
        for v in [2u8, 4] {
            assert_eq!(
                header(&[b'T', b'E', b'S', b'T', v, 0, 0, 0]),
                Err(FrameError::UnsupportedVersion {
                    found: u16::from(v),
                    supported: 3
                })
            );
        }
        for flags in [[1u8, 0], [0, 0x80]] {
            let [lo, hi] = flags;
            assert!(matches!(
                header(&[b'T', b'E', b'S', b'T', 3, 0, lo, hi]),
                Err(FrameError::Corrupt {
                    section: "file header",
                    ..
                })
            ));
        }
        for cut in 0..8 {
            assert!(
                matches!(
                    header(good.get(..cut).unwrap()),
                    Err(FrameError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn checked_verifies_length_then_crc() {
        let body = b"section body";
        let crc = crc32(body);
        let mut cur = Cursor::new(body, "toc");
        let section = cur.checked(body.len(), crc).unwrap();
        assert_eq!(section.rest(), &body[..]);
        assert_eq!(cur.finish(), Ok(()));

        let mut cur = Cursor::new(body, "toc");
        assert_eq!(
            cur.checked(body.len(), crc ^ 1).unwrap_err(),
            FrameError::ChecksumMismatch {
                section: "toc",
                stored: crc ^ 1,
                computed: crc
            }
        );
        // A declared length the bytes cannot cover is a truncation, not
        // a checksum failure.
        let mut cur = Cursor::new(body, "toc");
        assert!(matches!(
            cur.checked(body.len() + 1, crc),
            Err(FrameError::Truncated { section: "toc", .. })
        ));
    }

    #[test]
    fn finish_rejects_leftover_bytes() {
        let mut cur = Cursor::new(&[1, 2], "toc");
        assert_eq!(cur.u8(), Ok(1));
        assert!(matches!(
            cur.finish(),
            Err(FrameError::Corrupt { section: "toc", .. })
        ));
    }
}
