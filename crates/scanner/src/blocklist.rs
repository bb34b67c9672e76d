//! CIDR blocklists.
//!
//! The paper's methodology §2: *"We also synchronized blocklists by
//! combining the IP ranges that previously requested exclusion from any
//! scan origin"* — 17.8 M addresses (0.5 % of public IPv4) were excluded
//! from every origin's scan. This module provides the shared blocklist
//! structure: parse CIDR entries, merge overlaps, O(log n) membership,
//! which a scan asks only in the /24s a blocked range touches.

use std::fmt;
use std::str::FromStr;

/// Why a blocklist (or one CIDR entry) failed to parse.
///
/// Carries the offending line so operators can fix the exclusion file —
/// the paper's methodology hinges on every origin sharing an identical
/// blocklist, so a silently dropped entry would desynchronize origins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlocklistError {
    /// Entry has no `/` separating address and prefix length.
    MissingSlash {
        /// The offending entry.
        entry: String,
    },
    /// The address part is not a dotted quad.
    BadAddress {
        /// The offending address text.
        addr: String,
    },
    /// The prefix length is not an integer.
    BadPrefixLen {
        /// The offending prefix-length text.
        len: String,
    },
    /// The prefix length exceeds 32.
    PrefixTooLong {
        /// The out-of-range length.
        len: u8,
    },
    /// An entry on `line` (1-based) failed to parse.
    Line {
        /// 1-based line number in the blocklist text.
        line: usize,
        /// The underlying entry error.
        cause: Box<BlocklistError>,
    },
}

impl fmt::Display for BlocklistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlocklistError::MissingSlash { entry } => {
                write!(
                    f,
                    "blocklist entry {entry:?} is missing the '/' prefix separator"
                )
            }
            BlocklistError::BadAddress { addr } => {
                write!(f, "blocklist entry has malformed IPv4 address {addr:?}")
            }
            BlocklistError::BadPrefixLen { len } => {
                write!(f, "blocklist entry has non-numeric prefix length {len:?}")
            }
            BlocklistError::PrefixTooLong { len } => {
                write!(f, "blocklist prefix length /{len} exceeds /32")
            }
            BlocklistError::Line { line, cause } => {
                write!(f, "blocklist line {line}: {cause}")
            }
        }
    }
}

impl std::error::Error for BlocklistError {}

/// An inclusive address interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Range {
    lo: u32,
    hi: u32,
}

/// A set of blocked IPv4 addresses built from CIDR prefixes.
#[derive(Debug, Clone, Default)]
pub struct Blocklist {
    /// Sorted, non-overlapping, non-adjacent ranges.
    ranges: Vec<Range>,
}

/// A parsed CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cidr {
    /// Network base address (host order, masked).
    pub(crate) base: u32,
    /// Prefix length 0..=32.
    pub(crate) len: u8,
}

impl Cidr {
    /// Construct, masking `base` down to the prefix.
    pub fn new(base: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length out of range");
        Self {
            base: base & Self::mask(len),
            len,
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// First address of the prefix.
    pub fn first(&self) -> u32 {
        self.base
    }

    /// Last address of the prefix.
    pub fn last(&self) -> u32 {
        self.base | !Self::mask(self.len)
    }
}

impl FromStr for Cidr {
    type Err = BlocklistError;

    fn from_str(s: &str) -> Result<Self, BlocklistError> {
        let (addr_s, len_s) = s
            .split_once('/')
            .ok_or_else(|| BlocklistError::MissingSlash {
                entry: s.to_string(),
            })?;
        let addr = originscan_wire::ipv4::parse_addr(addr_s).ok_or_else(|| {
            BlocklistError::BadAddress {
                addr: addr_s.to_string(),
            }
        })?;
        let len: u8 = len_s.parse().map_err(|_| BlocklistError::BadPrefixLen {
            len: len_s.to_string(),
        })?;
        if len > 32 {
            return Err(BlocklistError::PrefixTooLong { len });
        }
        Ok(Cidr::new(addr, len))
    }
}

impl Blocklist {
    /// An empty blocklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from CIDR entries, merging overlaps.
    pub fn from_cidrs(cidrs: impl IntoIterator<Item = Cidr>) -> Self {
        let mut bl = Self::new();
        for c in cidrs {
            bl.insert(c);
        }
        bl
    }

    /// Parse one entry per line (comments after `#` and blanks ignored) —
    /// the format ZMap's `--blocklist-file` accepts. Errors carry the
    /// 1-based line number and the malformed entry.
    pub fn parse(text: &str) -> Result<Self, BlocklistError> {
        let mut cidrs = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let cidr: Cidr = line.parse().map_err(|cause| BlocklistError::Line {
                line: idx + 1,
                cause: Box::new(cause),
            })?;
            cidrs.push(cidr);
        }
        Ok(Self::from_cidrs(cidrs))
    }

    /// Insert a prefix, merging with existing ranges.
    pub(crate) fn insert(&mut self, cidr: Cidr) {
        self.insert_range(cidr.first(), cidr.last());
    }

    /// Insert `[lo, hi]`, merging every range it overlaps or touches.
    fn insert_range(&mut self, lo: u32, hi: u32) {
        let start = self.ranges.partition_point(|r| r.hi < lo.saturating_sub(1));
        let end = self
            .ranges
            .partition_point(|r| r.lo <= hi.saturating_add(1));
        let merged = self.ranges.get(start..end).unwrap_or_default();
        let lo = merged.first().map_or(lo, |r| lo.min(r.lo));
        let hi = merged.last().map_or(hi, |r| hi.max(r.hi));
        self.ranges.splice(start..end, [Range { lo, hi }]);
    }

    /// Is `addr` blocked?
    pub fn contains(&self, addr: u32) -> bool {
        let i = self.ranges.partition_point(|r| r.hi < addr);
        self.ranges.get(i).is_some_and(|r| r.lo <= addr)
    }

    /// Clear bit `s24 % 64` of `bits[s24 / 64]` for every /24 a blocked
    /// range touches, in whole or in part (up to the end of `bits`).
    pub(crate) fn clear_touched_s24s(&self, bits: &mut [u64]) {
        for s24 in self.ranges.iter().flat_map(|r| r.lo >> 8..=r.hi >> 8) {
            let Some(word) = bits.get_mut((s24 / 64) as usize) else {
                return;
            };
            *word &= !(1 << (s24 % 64));
        }
    }

    /// Total number of blocked addresses.
    pub fn len(&self) -> u64 {
        self.ranges.iter().map(|r| u64::from(r.hi - r.lo) + 1).sum()
    }

    /// True when nothing is blocked.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Union with another blocklist (the paper's cross-origin
    /// synchronization: any origin's exclusions apply to all).
    pub fn merge(&mut self, other: &Blocklist) {
        for r in &other.ranges {
            self.insert_range(r.lo, r.hi);
        }
    }
}

#[cfg(test)]
impl Cidr {
    /// Number of addresses covered.
    pub(crate) fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_parse_and_bounds() {
        let c: Cidr = "192.168.1.0/24".parse().unwrap();
        assert_eq!(c.first(), 0xc0a80100);
        assert_eq!(c.last(), 0xc0a801ff);
        assert_eq!(c.size(), 256);
        let host: Cidr = "10.0.0.7/32".parse().unwrap();
        assert_eq!(host.first(), host.last());
        let all: Cidr = "0.0.0.0/0".parse().unwrap();
        assert_eq!(all.size(), 1 << 32);
    }

    #[test]
    fn cidr_masks_host_bits() {
        let c = Cidr::new(0xc0a801ff, 24);
        assert_eq!(c.base, 0xc0a80100);
    }

    #[test]
    fn bad_cidrs_rejected() {
        assert_eq!(
            "192.168.1.0".parse::<Cidr>(),
            Err(BlocklistError::MissingSlash {
                entry: "192.168.1.0".into()
            })
        );
        assert_eq!(
            "192.168.1.0/33".parse::<Cidr>(),
            Err(BlocklistError::PrefixTooLong { len: 33 })
        );
        assert_eq!(
            "299.0.0.1/8".parse::<Cidr>(),
            Err(BlocklistError::BadAddress {
                addr: "299.0.0.1".into()
            })
        );
        assert_eq!(
            "x/8".parse::<Cidr>(),
            Err(BlocklistError::BadAddress { addr: "x".into() })
        );
        assert_eq!(
            "1.0.0.0/y".parse::<Cidr>(),
            Err(BlocklistError::BadPrefixLen { len: "y".into() })
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Blocklist::parse("10.0.0.0/8\n# fine\nbogus\n").unwrap_err();
        match &err {
            BlocklistError::Line { line, cause } => {
                assert_eq!(*line, 3);
                assert!(matches!(**cause, BlocklistError::MissingSlash { .. }));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let rendered = err.to_string();
        assert!(rendered.contains("line 3"), "{rendered}");
        assert!(rendered.contains("bogus"), "{rendered}");
    }

    #[test]
    fn membership() {
        let bl = Blocklist::parse("10.0.0.0/8\n192.168.0.0/16 # rfc1918\n").unwrap();
        assert!(bl.contains(0x0a123456));
        assert!(bl.contains(0xc0a80000));
        assert!(!bl.contains(0x08080808));
        assert_eq!(bl.len(), (1 << 24) + (1 << 16));
    }

    #[test]
    fn overlapping_prefixes_merge() {
        let mut bl = Blocklist::new();
        bl.insert(Cidr::new(0x0a000000, 24));
        bl.insert(Cidr::new(0x0a000000, 25)); // subset
        bl.insert(Cidr::new(0x0a000100, 24)); // adjacent
        assert_eq!(bl.len(), 512);
        assert_eq!(bl.ranges.len(), 1, "adjacent ranges coalesce");
    }

    #[test]
    fn merge_unions() {
        let a = Blocklist::parse("1.0.0.0/24").unwrap();
        let mut b = Blocklist::parse("2.0.0.0/24").unwrap();
        b.merge(&a);
        assert!(b.contains(0x01000001) && b.contains(0x02000001));
        assert_eq!(b.len(), 512);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let bl = Blocklist::parse("# header\n\n 5.5.5.0/30 # trailing\n").unwrap();
        assert_eq!(bl.len(), 4);
    }

    #[test]
    fn empty_blocklist() {
        let bl = Blocklist::new();
        assert!(bl.is_empty());
        assert!(!bl.contains(0));
        assert!(!bl.contains(u32::MAX));
    }
}
