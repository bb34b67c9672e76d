//! The versioned on-disk scan-set format: little-endian, checksummed,
//! deterministic.
//!
//! A store file is laid out as:
//!
//! ```text
//! header   magic "OSCS" | version u16 | flags u16 | entry_count u32
//!          | toc_len u32 | toc_crc u32                      (20 bytes)
//! toc      entry_count × { proto_len u8, proto bytes, trial u8,
//!          origin u16, offset u64, len u64 }       (crc32 = toc_crc)
//! entries  one serialized scan set per TOC record, at its offset
//! ```
//!
//! Each entry is itself sectioned for chunk-granular lazy loads:
//!
//! ```text
//! set header  chunk_count u32 | dir_crc u32                 (8 bytes)
//! directory   chunk_count × { key u16, kind u8, reserved u8,
//!             cardinality u32, payload_len u32, payload_crc u32 }
//!             (16 bytes each; crc32 = dir_crc)
//! payloads    concatenated container payloads, directory order
//! ```
//!
//! Container payloads: array = cardinality × `u16`; bitmap = 1024 ×
//! `u64`; run = run-count × (`u16` start, `u16` inclusive end). Every
//! checksum is CRC-32 (IEEE, reflected, polynomial `0xEDB88320`).
//! Entries are sorted by `(protocol, trial, origin)` and containers are
//! canonical (smallest representation), so same-seed experiments
//! serialize byte-identically. The header, checksum and bounds checks
//! are [`crate::frame`]'s, shared with the plan format; all corruption
//! surfaces as a typed [`FrameError`] (inside [`StoreError::Frame`]) —
//! never a panic.

use crate::container::{Container, ContainerKind, ARRAY_MAX, WORDS};
use crate::frame::{crc32, put_u16, put_u32, Cursor, FrameError};
use crate::scanset::ScanSet;

/// File magic: "OriginSCan Store".
pub const MAGIC: [u8; 4] = *b"OSCS";

/// Current format version.
pub const VERSION: u16 = 1;

/// Byte length of the fixed file header.
pub(crate) const HEADER_LEN: usize = 20;

/// Byte length of the per-entry set header (`chunk_count | dir_crc`).
pub(crate) const SET_HEADER_LEN: usize = 8;

/// Byte length of one chunk-directory record.
pub(crate) const DIR_RECORD_LEN: usize = 16;

/// Everything that can go wrong reading or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The bytes are not a valid store: bad magic, unsupported version,
    /// truncation, checksum mismatch, structural damage, or a value the
    /// format cannot represent.
    Frame(FrameError),
    /// The requested `(protocol, trial, origin)` is not in the store.
    KeyNotFound {
        /// Rendered key.
        key: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Frame(e) => write!(f, "store format error: {e}"),
            StoreError::KeyNotFound { key } => write!(f, "scan set `{key}` not in store"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Frame(e) => Some(e),
            StoreError::KeyNotFound { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        StoreError::Frame(e)
    }
}

/// One chunk-directory record, as parsed from an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkDirEntry {
    /// Chunk key (the high 16 address bits).
    pub(crate) key: u16,
    /// Container representation.
    pub(crate) kind: ContainerKind,
    /// Member count (readable without touching the payload).
    pub(crate) cardinality: u32,
    /// Payload byte length.
    pub(crate) payload_len: u32,
    /// CRC-32 of the payload.
    pub(crate) payload_crc: u32,
    /// Payload offset relative to the entry's payload base.
    pub(crate) payload_offset: u64,
}

/// Append a container's payload ([`Container::payload_bytes`] bytes).
pub(crate) fn encode_container(c: &Container, out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + c.payload_bytes(), 0);
    let payload = out.get_mut(start..).unwrap_or_default();
    match c {
        Container::Array(a) => {
            for (dst, v) in payload.chunks_exact_mut(2).zip(a) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        }
        Container::Bitmap(w) => {
            for (dst, word) in payload.chunks_exact_mut(8).zip(w.iter()) {
                dst.copy_from_slice(&word.to_le_bytes());
            }
        }
        Container::Run(r) => {
            for (dst, (s, e)) in payload.chunks_exact_mut(4).zip(r) {
                let ([s0, s1], [e0, e1]) = (s.to_le_bytes(), e.to_le_bytes());
                dst.copy_from_slice(&[s0, s1, e0, e1]);
            }
        }
    }
}

/// The little-endian `u16`s of `bytes` (a trailing odd byte is not
/// yielded; callers check the length first).
fn le_u16s(bytes: &[u8]) -> impl Iterator<Item = u16> + '_ {
    bytes
        .chunks_exact(2)
        .map(|pair| u16::from_le_bytes(pair.try_into().unwrap_or_default()))
}

/// Decode and structurally validate one container payload.
pub(crate) fn decode_container(
    kind: ContainerKind,
    cardinality: u32,
    payload: &[u8],
) -> Result<Container, FrameError> {
    let section = "chunk payload";
    let corrupt = |detail: &'static str| FrameError::Corrupt { section, detail };
    match kind {
        ContainerKind::Array => {
            if payload.len() != cardinality as usize * 2 {
                return Err(corrupt("array payload length != 2 × cardinality"));
            }
            if cardinality as usize > ARRAY_MAX {
                return Err(corrupt("array container above the 4096 cutoff"));
            }
            let values: Vec<u16> = le_u16s(payload).collect();
            if values.windows(2).any(|w| matches!(w, [a, b] if a >= b)) {
                return Err(corrupt("array values not strictly ascending"));
            }
            Ok(Container::Array(values))
        }
        ContainerKind::Bitmap => {
            if payload.len() != WORDS * 8 {
                return Err(corrupt("bitmap payload is not 8192 bytes"));
            }
            let mut words = Box::new([0u64; WORDS]);
            for (dst, chunk) in words.iter_mut().zip(payload.chunks_exact(8)) {
                *dst = u64::from_le_bytes(chunk.try_into().unwrap_or_default());
            }
            let c = Container::Bitmap(words);
            if c.cardinality() != cardinality {
                return Err(corrupt("bitmap popcount != declared cardinality"));
            }
            Ok(c)
        }
        ContainerKind::Run => {
            if !payload.len().is_multiple_of(4) {
                return Err(corrupt("run payload length not a multiple of 4"));
            }
            let mut runs = Vec::with_capacity(payload.len() / 4);
            let mut bounds = le_u16s(payload);
            while let (Some(s), Some(e)) = (bounds.next(), bounds.next()) {
                if e < s {
                    return Err(corrupt("run with end before start"));
                }
                runs.push((s, e));
            }
            // Sorted, non-overlapping, non-adjacent (else not canonical).
            if runs.windows(2).any(
                |w| matches!(w, [(_, end), (next, _)] if u32::from(*next) <= u32::from(*end) + 1),
            ) {
                return Err(corrupt("runs unsorted, overlapping, or adjacent"));
            }
            let c = Container::Run(runs);
            if c.cardinality() != cardinality {
                return Err(corrupt("run lengths != declared cardinality"));
            }
            Ok(c)
        }
    }
}

/// Exactly how many bytes [`encode_set`] appends for `set`.
pub(crate) fn encoded_set_len(set: &ScanSet) -> usize {
    let payloads: usize = set.chunks().map(|(_, c)| c.payload_bytes()).sum();
    SET_HEADER_LEN + set.chunk_count() * DIR_RECORD_LEN + payloads
}

/// Append one scan set to `out` as an entry section (set header +
/// directory + payloads).
pub(crate) fn encode_set(set: &ScanSet, out: &mut Vec<u8>) -> Result<(), FrameError> {
    let chunk_count = u32::try_from(set.chunk_count()).map_err(|_| FrameError::TooLarge {
        section: "chunk_count",
    })?;
    // The set header and directory come first but hold the payloads'
    // checksums: leave a hole for them, encode each payload once, where
    // it stays, and fill the hole last.
    let hole = out.len();
    let dir_len = set.chunk_count() * DIR_RECORD_LEN;
    out.resize(hole + SET_HEADER_LEN + dir_len, 0);
    let mut directory = Vec::with_capacity(dir_len);
    for (key, c) in set.chunks() {
        let start = out.len();
        encode_container(c, out);
        let payload = out.get(start..).unwrap_or_default();
        let payload_len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge {
            section: "chunk payload",
        })?;
        put_u16(&mut directory, key);
        directory.push(c.kind().code());
        directory.push(0); // reserved
        put_u32(&mut directory, c.cardinality());
        put_u32(&mut directory, payload_len);
        put_u32(&mut directory, crc32(payload));
    }
    let header = chunk_count
        .to_le_bytes()
        .into_iter()
        .chain(crc32(&directory).to_le_bytes());
    for (dst, byte) in out.iter_mut().skip(hole).zip(header.chain(directory)) {
        *dst = byte;
    }
    Ok(())
}

/// An entry's parsed set header: the byte length of the chunk directory
/// that follows it, and that directory's CRC-32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetHeader {
    /// `chunk_count × DIR_RECORD_LEN`.
    pub(crate) dir_len: usize,
    /// CRC-32 the directory bytes must have.
    pub(crate) dir_crc: u32,
}

/// Parse the [`SET_HEADER_LEN`] bytes an entry starts with.
pub(crate) fn decode_set_header(bytes: &[u8]) -> Result<SetHeader, FrameError> {
    let mut head = Cursor::new(bytes, "set header");
    let chunk_count = head.u32()? as usize;
    let dir_crc = head.u32()?;
    let dir_len = chunk_count
        .checked_mul(DIR_RECORD_LEN)
        .ok_or(FrameError::TooLarge {
            section: "chunk directory",
        })?;
    Ok(SetHeader { dir_len, dir_crc })
}

/// Parse and verify an entry's set header and chunk directory, without
/// touching payload bytes. Returns the directory with per-chunk payload
/// offsets resolved.
pub(crate) fn decode_set_directory(bytes: &[u8]) -> Result<Vec<ChunkDirEntry>, FrameError> {
    let header = decode_set_header(bytes)?;
    decode_directory(&header, bytes.get(SET_HEADER_LEN..).unwrap_or_default())
}

/// Verify and parse the chunk directory `after_header` starts with (the
/// lazy loader reads just those `dir_len` bytes; anything past them is
/// left alone).
pub(crate) fn decode_directory(
    header: &SetHeader,
    after_header: &[u8],
) -> Result<Vec<ChunkDirEntry>, FrameError> {
    let section = "chunk directory";
    let chunk_count = header.dir_len / DIR_RECORD_LEN;
    let mut rec = Cursor::new(after_header, section).checked(header.dir_len, header.dir_crc)?;
    // `dir_len` bytes were present, so `chunk_count` is no larger than
    // the input allows.
    let mut dir = Vec::with_capacity(chunk_count);
    let mut payload_offset = 0u64;
    for _ in 0..chunk_count {
        let key = rec.u16()?;
        let code = rec.u8()?;
        let _reserved = rec.u8()?;
        let cardinality = rec.u32()?;
        let payload_len = rec.u32()?;
        let payload_crc = rec.u32()?;
        let kind = ContainerKind::from_code(code).ok_or(FrameError::Corrupt {
            section,
            detail: "unknown container type code",
        })?;
        dir.push(ChunkDirEntry {
            key,
            kind,
            cardinality,
            payload_len,
            payload_crc,
            payload_offset,
        });
        payload_offset += u64::from(payload_len);
    }
    if dir
        .windows(2)
        .any(|w| matches!(w, [a, b] if a.key >= b.key))
    {
        return Err(FrameError::Corrupt {
            section,
            detail: "chunk keys unsorted or duplicated",
        });
    }
    Ok(dir)
}

/// Verify one chunk payload's checksum and decode it.
pub(crate) fn decode_chunk(entry: &ChunkDirEntry, payload: &[u8]) -> Result<Container, FrameError> {
    let payload =
        Cursor::new(payload, "chunk payload").checked(payload.len(), entry.payload_crc)?;
    decode_container(entry.kind, entry.cardinality, payload.rest())
}

/// Decode a whole entry back into a [`ScanSet`], verifying every
/// checksum.
pub(crate) fn decode_set(bytes: &[u8]) -> Result<ScanSet, FrameError> {
    let dir = decode_set_directory(bytes)?;
    let payload_base = SET_HEADER_LEN + dir.len() * DIR_RECORD_LEN;
    let mut chunks = Vec::with_capacity(dir.len());
    let payloads = bytes.get(payload_base..).unwrap_or(&[]);
    let mut cur = Cursor::new(payloads, "chunk payload");
    for entry in &dir {
        let payload = cur.take(entry.payload_len as usize)?;
        chunks.push((entry.key, decode_chunk(entry, payload)?));
    }
    cur.finish()?;
    ScanSet::from_chunks(chunks).ok_or(FrameError::Corrupt {
        section: "chunk directory",
        detail: "chunk keys unsorted or duplicated",
    })
}

/// Human-readable description of the on-disk format, derived from the
/// same constants the serializers use. Pinned by the format golden test:
/// any layout change shows up as a golden-file diff.
pub fn describe_format() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "originscan-store on-disk format");
    let _ = writeln!(out, "================================");
    let _ = writeln!(
        out,
        "magic: {:?} | version: {VERSION} | endianness: little",
        std::str::from_utf8(&MAGIC).unwrap_or("OSCS"),
    );
    let _ = writeln!(
        out,
        "checksum: CRC-32 IEEE (reflected, poly 0xEDB88320), empty = {:08x}",
        crc32(&[]),
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "file header ({HEADER_LEN} bytes):");
    let _ = writeln!(
        out,
        "  magic[4] version:u16 flags:u16 entry_count:u32 toc_len:u32 toc_crc:u32"
    );
    let _ = writeln!(out, "toc record (variable):");
    let _ = writeln!(
        out,
        "  proto_len:u8 proto[proto_len] trial:u8 origin:u16 offset:u64 len:u64"
    );
    let _ = writeln!(out, "  ordered by (protocol, trial, origin)");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "entry = set header ({SET_HEADER_LEN} bytes) + directory + payloads:"
    );
    let _ = writeln!(out, "  set header: chunk_count:u32 dir_crc:u32");
    let _ = writeln!(
        out,
        "  directory record ({DIR_RECORD_LEN} bytes): key:u16 kind:u8 reserved:u8 cardinality:u32 payload_len:u32 payload_crc:u32"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "container payloads:");
    let _ = writeln!(
        out,
        "  array  (code {}): cardinality x u16, strictly ascending; max {ARRAY_MAX} elements",
        ContainerKind::Array.code(),
    );
    let _ = writeln!(
        out,
        "  bitmap (code {}): {WORDS} x u64 ({} bytes)",
        ContainerKind::Bitmap.code(),
        WORDS * 8,
    );
    let _ = writeln!(
        out,
        "  run    (code {}): runs x (start:u16, end:u16 inclusive), sorted, non-adjacent",
        ContainerKind::Run.code(),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "canonical container rule: smallest serialization of {{2n array (n <= {ARRAY_MAX}), 4r run, {} bitmap}}; ties prefer array, then run",
        WORDS * 8,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set` as an entry of its own.
    fn encoded(set: &ScanSet) -> Vec<u8> {
        let mut out = Vec::new();
        encode_set(set, &mut out).unwrap();
        out
    }

    /// Array chunk, run chunk, bitmap chunk in one set.
    fn all_kinds_set() -> ScanSet {
        let mut addrs: Vec<u32> = vec![1, 5, 9]; // chunk 0: array
        addrs.extend(0x0001_0000u32..0x0001_8000); // chunk 1: run
        addrs.extend((0..20000u32).map(|v| 0x0002_0000 + v * 3)); // chunk 2: bitmap
        ScanSet::from_sorted(&addrs)
    }

    #[test]
    fn set_roundtrip_all_kinds() {
        let set = all_kinds_set();
        let kinds: Vec<ContainerKind> = set.chunks().map(|(_, c)| c.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                ContainerKind::Array,
                ContainerKind::Run,
                ContainerKind::Bitmap
            ]
        );
        let bytes = encoded(&set);
        let back = decode_set(&bytes).unwrap();
        assert_eq!(back, set);
        // The decoded representation is identical, not just the set.
        let back_kinds: Vec<ContainerKind> = back.chunks().map(|(_, c)| c.kind()).collect();
        assert_eq!(back_kinds, kinds);
        // Re-encoding is byte-identical.
        assert_eq!(encoded(&back), bytes);
    }

    #[test]
    fn encoded_set_len_is_exactly_what_encode_set_appends() {
        // Every other address: an array up to the 4096 cutoff, a bitmap
        // past it.
        let strided = |n: u32| ScanSet::from_sorted(&(0..n).map(|v| v * 2).collect::<Vec<_>>());
        let sets = [
            ScanSet::from_sorted(&[]),
            ScanSet::from_sorted(&[1, 5, 9]),
            ScanSet::from_sorted(&(0..0x8000).collect::<Vec<_>>()),
            strided(20000),
            all_kinds_set(),
            strided(ARRAY_MAX as u32 - 1),
            strided(ARRAY_MAX as u32),
            strided(ARRAY_MAX as u32 + 1),
        ];
        let kinds: Vec<Vec<ContainerKind>> = sets
            .iter()
            .map(|set| set.chunks().map(|(_, c)| c.kind()).collect())
            .collect();
        use ContainerKind::{Array, Bitmap, Run};
        assert_eq!(
            kinds,
            [
                vec![],
                vec![Array],
                vec![Run],
                vec![Bitmap],
                vec![Array, Run, Bitmap],
                vec![Array],
                vec![Array],
                vec![Bitmap]
            ]
        );
        for set in &sets {
            // Appending: what `out` already holds stays as it is.
            let mut out = vec![0xAA; 3];
            encode_set(set, &mut out).unwrap();
            assert_eq!(out.len() - 3, encoded_set_len(set));
            assert_eq!(out[..3], [0xAA; 3]);
            assert_eq!(&decode_set(&out[3..]).unwrap(), set);
        }
    }

    #[test]
    fn directory_is_readable_without_payloads() {
        let set = ScanSet::from_sorted(&[3, 0x0005_0001, 0x0005_0002]);
        let bytes = encoded(&set);
        let dir = decode_set_directory(&bytes).unwrap();
        assert_eq!(dir.len(), 2);
        assert_eq!(dir[0].key, 0);
        assert_eq!(dir[1].key, 5);
        let total: u64 = dir.iter().map(|d| u64::from(d.cardinality)).sum();
        assert_eq!(total, set.cardinality());
    }

    #[test]
    fn flipped_payload_byte_is_checksum_mismatch() {
        let set = ScanSet::from_sorted(&[10, 20, 30]);
        let mut bytes = encoded(&set);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match decode_set(&bytes) {
            Err(FrameError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "chunk payload")
            }
            other => panic!("expected payload checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn flipped_directory_byte_is_checksum_mismatch() {
        let set = ScanSet::from_sorted(&[10, 20, 30]);
        let mut bytes = encoded(&set);
        bytes[SET_HEADER_LEN] ^= 0x01;
        match decode_set_directory(&bytes) {
            Err(FrameError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "chunk directory")
            }
            other => panic!("expected directory checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_entry_is_typed() {
        let set = ScanSet::from_sorted(&(0..100).collect::<Vec<u32>>());
        let bytes = encoded(&set);
        for cut in [1, SET_HEADER_LEN, SET_HEADER_LEN + 4, bytes.len() - 1] {
            match decode_set(&bytes[..cut]) {
                Err(FrameError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_structures_are_corrupt_errors() {
        // Unknown container code.
        let set = ScanSet::from_sorted(&[1, 2, 3]);
        let mut bytes = encoded(&set);
        bytes[SET_HEADER_LEN + 2] = 9; // kind byte of the first record
                                       // Fix the directory CRC so the code check is reached.
        let dir_end = SET_HEADER_LEN + DIR_RECORD_LEN;
        let crc = crc32(&bytes[SET_HEADER_LEN..dir_end]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        match decode_set(&bytes) {
            Err(FrameError::Corrupt { detail, .. }) => {
                assert!(detail.contains("container type"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Unsorted array payload.
        let err = decode_container(ContainerKind::Array, 2, &[5, 0, 1, 0]);
        assert!(matches!(err, Err(FrameError::Corrupt { .. })));
        // Adjacent runs are not canonical.
        let err = decode_container(ContainerKind::Run, 4, &[0, 0, 1, 0, 2, 0, 3, 0]);
        assert!(matches!(err, Err(FrameError::Corrupt { .. })));
        // Cardinality lie on a bitmap.
        let mut payload = vec![0u8; WORDS * 8];
        payload[0] = 0b11;
        let err = decode_container(ContainerKind::Bitmap, 3, &payload);
        assert!(matches!(err, Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn describe_mentions_every_section() {
        let d = describe_format();
        for needle in [
            "magic",
            "toc record",
            "directory record",
            "array",
            "bitmap",
            "run",
            "CRC-32",
        ] {
            assert!(d.contains(needle), "describe() missing {needle}");
        }
    }
}
