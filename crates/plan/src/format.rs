//! The versioned on-disk target-plan format: little-endian, checksummed,
//! deterministic — framed by the same `originscan_store::frame` layer as
//! the scan-set store's format.
//!
//! A plan file is laid out as:
//!
//! ```text
//! header   magic "OSPL" | version u16 | flags u16 | space u64 | seed u64
//!          | strategy_len u8 | strategy bytes | entry_count u32
//!          | entries_crc u32
//! entries  entry_count × { s24 u32, score u32 }   (crc32 = entries_crc)
//! ```
//!
//! Entries are sorted by `s24` strictly ascending (the /24 index, i.e.
//! `addr >> 8`), so a plan's bytes are a pure function of its contents
//! and same-seed builds serialize byte-identically. The checksum is
//! CRC-32 (IEEE, reflected — the frame layer's [`crc32`]). All
//! corruption surfaces as a typed [`FrameError`] (inside
//! [`PlanError::Frame`]), never a panic.

use crate::plan::{PlanEntry, TargetPlan};
use originscan_store::StoreError;
use originscan_store::{crc32, put_u16, put_u32, put_u64, Cursor, FrameError};

/// File magic: "Origin Scan PLan".
pub const MAGIC: [u8; 4] = *b"OSPL";

/// Current plan-format version.
pub const VERSION: u16 = 1;

/// Byte length of one serialized plan entry (`s24 u32 | score u32`).
pub(crate) const ENTRY_LEN: usize = 8;

/// Byte length of the fixed header prefix before the variable-length
/// strategy string (`magic | version | flags | space | seed`).
pub(crate) const HEADER_PREFIX_LEN: usize = 24;

/// Everything that can go wrong building, reading, or writing a plan.
#[derive(Debug)]
pub enum PlanError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The bytes are not a valid plan (bad magic, unsupported version,
    /// truncation, checksum mismatch, unsorted entries, a /24 outside
    /// the declared space, ...), or a value the format cannot represent.
    Frame(FrameError),
    /// A builder input violates the planner's preconditions.
    InvalidInput {
        /// What was wrong with the input.
        what: &'static str,
    },
    /// Reading prior observations out of a scan-set store failed.
    Store(StoreError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Io(e) => write!(f, "plan I/O error: {e}"),
            PlanError::Frame(e) => write!(f, "plan format error: {e}"),
            PlanError::InvalidInput { what } => write!(f, "invalid planner input: {what}"),
            PlanError::Store(e) => write!(f, "plan observation store error: {e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Io(e) => Some(e),
            PlanError::Frame(e) => Some(e),
            PlanError::InvalidInput { .. } => None,
            PlanError::Store(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PlanError {
    fn from(e: std::io::Error) -> Self {
        PlanError::Io(e)
    }
}

impl From<FrameError> for PlanError {
    fn from(e: FrameError) -> Self {
        PlanError::Frame(e)
    }
}

impl From<StoreError> for PlanError {
    fn from(e: StoreError) -> Self {
        PlanError::Store(e)
    }
}

/// Serialize a plan to its canonical byte form.
pub(crate) fn encode_plan(plan: &TargetPlan) -> Result<Vec<u8>, PlanError> {
    let strategy = plan.strategy().as_bytes();
    let strategy_len = u8::try_from(strategy.len()).map_err(|_| FrameError::TooLarge {
        section: "strategy",
    })?;
    let entry_count = u32::try_from(plan.entries().len()).map_err(|_| FrameError::TooLarge {
        section: "entry_count",
    })?;
    let mut entries = Vec::with_capacity(plan.entries().len() * ENTRY_LEN);
    for e in plan.entries() {
        put_u32(&mut entries, e.s24);
        put_u32(&mut entries, e.score);
    }
    let mut out = Vec::with_capacity(HEADER_PREFIX_LEN + 1 + strategy.len() + 8 + entries.len());
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, VERSION);
    put_u16(&mut out, 0); // flags, reserved
    put_u64(&mut out, plan.space());
    put_u64(&mut out, plan.seed());
    out.push(strategy_len);
    out.extend_from_slice(strategy);
    put_u32(&mut out, entry_count);
    put_u32(&mut out, crc32(&entries));
    out.extend_from_slice(&entries);
    Ok(out)
}

/// Decode and fully validate a plan from its byte form.
pub(crate) fn decode_plan(bytes: &[u8]) -> Result<TargetPlan, PlanError> {
    let mut cur = Cursor::new(bytes, "plan header");
    cur.header(MAGIC, VERSION)?;
    let space = cur.u64()?;
    let seed = cur.u64()?;
    let strategy_len = usize::from(cur.u8()?);
    let strategy = std::str::from_utf8(cur.take(strategy_len)?)
        .map_err(|_| FrameError::Corrupt {
            section: "plan header",
            detail: "strategy is not valid UTF-8",
        })?
        .to_string();
    let entry_count = cur.u32()? as usize;
    let entries_crc = cur.u32()?;
    let entries_len = entry_count
        .checked_mul(ENTRY_LEN)
        .ok_or(FrameError::TooLarge {
            section: "entry_count",
        })?;
    let mut cur = Cursor::new(cur.rest(), "plan entries");
    let mut rec = cur.checked(entries_len, entries_crc)?;
    cur.finish()?;
    // `entries_len` bytes were present, so `entry_count` is no larger
    // than the input allows.
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        entries.push(PlanEntry {
            s24: rec.u32()?,
            score: rec.u32()?,
        });
    }
    TargetPlan::from_entries(space, seed, &strategy, entries)
}

/// Human-readable description of the on-disk plan format, derived from
/// the same constants the serializers use. Pinned by the plan-format
/// golden test: any layout change shows up as a golden-file diff.
pub fn describe_format() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "originscan-plan on-disk format");
    let _ = writeln!(out, "==============================");
    let _ = writeln!(
        out,
        "magic: {:?} | version: {VERSION} | endianness: little",
        std::str::from_utf8(&MAGIC).unwrap_or("OSPL"),
    );
    let _ = writeln!(
        out,
        "checksum: CRC-32 IEEE (reflected, poly 0xEDB88320), empty = {:08x}",
        crc32(&[]),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "header (variable, {HEADER_PREFIX_LEN}-byte fixed prefix):"
    );
    let _ = writeln!(out, "  magic[4] version:u16 flags:u16 space:u64 seed:u64");
    let _ = writeln!(
        out,
        "  strategy_len:u8 strategy[strategy_len] entry_count:u32 entries_crc:u32"
    );
    let _ = writeln!(out, "entry record ({ENTRY_LEN} bytes):");
    let _ = writeln!(out, "  s24:u32 score:u32");
    let _ = writeln!(
        out,
        "  ordered by s24 strictly ascending; s24 = addr >> 8 (the /24 index)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "score: fixed-point priority (strategy-specific, integer-only); the"
    );
    let _ = writeln!(
        out,
        "  allowlist semantics ignore it — membership alone decides probing"
    );
    let _ = writeln!(
        out,
        "composition: scan probes exactly plan ∩ ¬blocklist, sharded by the"
    );
    let _ = writeln!(
        out,
        "  cyclic permutation (plan membership tested per address)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TargetPlan {
        let entries = vec![
            PlanEntry { s24: 0, score: 11 },
            PlanEntry { s24: 3, score: 980 },
            PlanEntry {
                s24: 200,
                score: 42,
            },
        ];
        TargetPlan::from_entries(65_536, 7, "observed", entries).unwrap()
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let plan = sample();
        let bytes = encode_plan(&plan).unwrap();
        let back = decode_plan(&bytes).unwrap();
        assert_eq!(back, plan);
        assert_eq!(encode_plan(&back).unwrap(), bytes);
    }

    #[test]
    fn empty_plan_roundtrips() {
        let plan = TargetPlan::from_entries(65_536, 9, "full", Vec::new()).unwrap();
        let bytes = encode_plan(&plan).unwrap();
        let back = decode_plan(&bytes).unwrap();
        assert_eq!(back.planned_s24s(), 0);
        assert_eq!(back, plan);
    }

    /// `decode_plan` reduced to its frame error, for the match sites below.
    fn frame_err(bytes: &[u8]) -> FrameError {
        match decode_plan(bytes) {
            Err(PlanError::Frame(e)) => e,
            other => panic!("expected a frame error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_plan(&sample()).unwrap();
        bytes[0] = b'X';
        match frame_err(&bytes) {
            FrameError::BadMagic { found, expected } => {
                assert_eq!((found[0], expected), (b'X', MAGIC))
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = encode_plan(&sample()).unwrap();
        bytes[4] = 0xFF;
        assert!(matches!(
            frame_err(&bytes),
            FrameError::UnsupportedVersion { .. }
        ));
    }

    #[test]
    fn set_flag_bits_are_corrupt() {
        let mut bytes = encode_plan(&sample()).unwrap();
        bytes[7] = 0x80;
        assert!(matches!(
            frame_err(&bytes),
            FrameError::Corrupt {
                section: "plan header",
                ..
            }
        ));
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let bytes = encode_plan(&sample()).unwrap();
        for cut in [0, 3, 4, 6, 8, 16, 24, 25, 30, bytes.len() - 1] {
            assert!(
                matches!(frame_err(&bytes[..cut]), FrameError::Truncated { .. }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn flipped_entry_byte_is_checksum_mismatch() {
        let mut bytes = encode_plan(&sample()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match frame_err(&bytes) {
            FrameError::ChecksumMismatch { section, .. } => {
                assert_eq!(section, "plan entries")
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = encode_plan(&sample()).unwrap();
        bytes.push(0);
        assert!(matches!(frame_err(&bytes), FrameError::Corrupt { .. }));
    }

    #[test]
    fn unsorted_entries_rejected_after_crc_fixup() {
        // Swap two entries and re-sign the CRC so the structural check
        // (not the checksum) has to catch it.
        let plan = sample();
        let mut bytes = encode_plan(&plan).unwrap();
        let body = bytes.len() - 3 * ENTRY_LEN;
        let (head, tail) = bytes.split_at_mut(body + ENTRY_LEN);
        head[body..body + ENTRY_LEN].swap_with_slice(&mut tail[..ENTRY_LEN]);
        let crc = crc32(&bytes[body..]);
        let crc_at = body - 4;
        bytes[crc_at..body].copy_from_slice(&crc.to_le_bytes());
        match frame_err(&bytes) {
            FrameError::Corrupt { detail, .. } => {
                assert!(detail.contains("ascending"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn describe_mentions_every_section() {
        let d = describe_format();
        for needle in ["magic", "entry record", "s24:u32", "CRC-32", "blocklist"] {
            assert!(d.contains(needle), "describe() missing {needle}");
        }
    }
}
