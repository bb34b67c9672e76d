//! [`TargetPlan`]: the compressed /24-granular allowlist a scan probes.
//!
//! A plan is the planner's output and the scan engine's input: a sorted
//! list of `(s24, score)` entries plus a bitset over /24 indices for the
//! O(1) membership test the probe loop performs per address. The score
//! is advisory (it records why the /24 was kept and lets downstream
//! consumers rank prefixes); membership alone decides probing.

use crate::format::{decode_plan, encode_plan, PlanError};
use originscan_store::FrameError;
use std::path::Path;

/// One planned /24 with its priority score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEntry {
    /// The /24 index: `addr >> 8`.
    pub s24: u32,
    /// Fixed-point, strategy-specific priority (higher = keep first).
    pub score: u32,
}

/// A deterministic /24-granular target allowlist.
///
/// Invariants (enforced by [`TargetPlan::from_entries`] and the format
/// decoder): entries are sorted by `s24` strictly ascending, every
/// `s24` addresses a /24 inside `space`, and the strategy label is at
/// most 255 bytes. Equal plans serialize to equal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetPlan {
    space: u64,
    seed: u64,
    strategy: String,
    entries: Vec<PlanEntry>,
    /// Bitset over /24 indices; bit set ⇔ the /24 is planned.
    words: Vec<u64>,
}

impl TargetPlan {
    /// Build a plan from already-scored entries, validating every
    /// structural invariant.
    pub fn from_entries(
        space: u64,
        seed: u64,
        strategy: &str,
        entries: Vec<PlanEntry>,
    ) -> Result<TargetPlan, PlanError> {
        if space == 0 {
            return Err(PlanError::InvalidInput {
                what: "plan space must be non-empty",
            });
        }
        if space > 1 << 32 {
            return Err(FrameError::TooLarge { section: "space" }.into());
        }
        if strategy.len() > 255 {
            return Err(FrameError::TooLarge {
                section: "strategy",
            }
            .into());
        }
        let s24_count = space.div_ceil(256);
        if entries
            .windows(2)
            .any(|w| w.first().map(|e| e.s24) >= w.get(1).map(|e| e.s24))
        {
            return Err(FrameError::Corrupt {
                section: "plan entries",
                detail: "entries not strictly ascending by s24",
            }
            .into());
        }
        if entries.iter().any(|e| u64::from(e.s24) >= s24_count) {
            return Err(FrameError::Corrupt {
                section: "plan entries",
                detail: "entry s24 outside the declared space",
            }
            .into());
        }
        let word_count = usize::try_from(s24_count.div_ceil(64))
            .map_err(|_| FrameError::TooLarge { section: "space" })?;
        let mut words = vec![0u64; word_count];
        for e in &entries {
            let idx = (e.s24 / 64) as usize;
            if let Some(w) = words.get_mut(idx) {
                *w |= 1u64 << (e.s24 % 64);
            }
        }
        Ok(TargetPlan {
            space,
            seed,
            strategy: strategy.to_string(),
            entries,
            words,
        })
    }

    /// The address-space size this plan targets (`addresses 0..space`).
    pub fn space(&self) -> u64 {
        self.space
    }

    /// The seed of the experiment the plan was learned from (provenance;
    /// the scan's own seed still controls the permutation).
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The strategy label the builder recorded (e.g. `"observed"`).
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// The planned /24s with scores, sorted by `s24` ascending.
    pub(crate) fn entries(&self) -> &[PlanEntry] {
        &self.entries
    }

    /// Does the plan allow probing `addr`? O(1), probe-loop hot path.
    pub fn allows(&self, addr: u32) -> bool {
        let s24 = addr >> 8;
        match self.words.get((s24 / 64) as usize) {
            Some(w) => w & (1u64 << (s24 % 64)) != 0,
            None => false,
        }
    }

    /// The allowlist as a bitset: bit `s24 % 64` of word `s24 / 64` is
    /// set ⇔ the /24 is planned.
    pub fn s24_words(&self) -> &[u64] {
        &self.words
    }

    /// Number of planned /24s.
    pub fn planned_s24s(&self) -> usize {
        self.entries.len()
    }

    /// Number of addresses the plan admits (the last /24 may be partial
    /// when `space` is not a multiple of 256).
    pub fn planned_addresses(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| {
                let base = u64::from(e.s24) * 256;
                (self.space - base).min(256)
            })
            .sum()
    }

    /// Serialize to the canonical byte form (layout: [`crate::describe_format`]).
    pub fn to_bytes(&self) -> Result<Vec<u8>, PlanError> {
        encode_plan(self)
    }

    /// Decode and fully validate a plan from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<TargetPlan, PlanError> {
        decode_plan(bytes)
    }

    /// Write the plan to `path`; returns the bytes written.
    pub fn write_to(&self, path: &Path) -> Result<u64, PlanError> {
        let bytes = self.to_bytes()?;
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Read and fully validate a plan from `path`.
    pub fn open(path: &Path) -> Result<TargetPlan, PlanError> {
        let bytes = std::fs::read(path)?;
        TargetPlan::from_bytes(&bytes)
    }
}

#[cfg(test)]
impl TargetPlan {
    /// Is the /24 with index `s24` planned?
    pub(crate) fn contains_s24(&self, s24: u32) -> bool {
        match self.words.get((s24 / 64) as usize) {
            Some(w) => w & (1u64 << (s24 % 64)) != 0,
            None => false,
        }
    }

    /// True when the plan admits no address.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_is_per_s24() {
        let plan = TargetPlan::from_entries(
            65_536,
            1,
            "observed",
            vec![
                PlanEntry { s24: 2, score: 5 },
                PlanEntry { s24: 100, score: 9 },
            ],
        )
        .unwrap();
        assert!(plan.allows(2 * 256));
        assert!(plan.allows(2 * 256 + 255));
        assert!(!plan.allows(3 * 256));
        assert!(plan.allows(100 * 256 + 17));
        assert!(plan.contains_s24(100));
        assert!(!plan.contains_s24(99));
        // Addresses beyond the space are never allowed.
        assert!(!plan.allows(u32::MAX));
        assert_eq!(plan.planned_s24s(), 2);
        assert_eq!(plan.planned_addresses(), 512);
    }

    #[test]
    fn partial_last_s24_counts_its_real_size() {
        let plan = TargetPlan::from_entries(
            300,
            1,
            "full",
            vec![
                PlanEntry { s24: 0, score: 0 },
                PlanEntry { s24: 1, score: 0 },
            ],
        )
        .unwrap();
        assert_eq!(plan.planned_addresses(), 256 + 44);
    }

    #[test]
    fn invariants_are_enforced() {
        let dup = vec![
            PlanEntry { s24: 1, score: 0 },
            PlanEntry { s24: 1, score: 0 },
        ];
        assert!(matches!(
            TargetPlan::from_entries(65_536, 1, "x", dup),
            Err(PlanError::Frame(FrameError::Corrupt { .. }))
        ));
        let out = vec![PlanEntry { s24: 256, score: 0 }];
        assert!(matches!(
            TargetPlan::from_entries(65_536, 1, "x", out),
            Err(PlanError::Frame(FrameError::Corrupt { .. }))
        ));
        assert!(matches!(
            TargetPlan::from_entries(0, 1, "x", Vec::new()),
            Err(PlanError::InvalidInput { .. })
        ));
        let long = "s".repeat(256);
        assert!(matches!(
            TargetPlan::from_entries(65_536, 1, &long, Vec::new()),
            Err(PlanError::Frame(FrameError::TooLarge { .. }))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("originscan_plan_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.plan");
        let plan = TargetPlan::from_entries(
            65_536,
            3,
            "density_top_k250000",
            vec![PlanEntry { s24: 7, score: 250 }],
        )
        .unwrap();
        let written = plan.write_to(&path).unwrap();
        assert!(written > 0);
        let back = TargetPlan::open(&path).unwrap();
        assert_eq!(back, plan);
        std::fs::remove_file(&path).ok();
    }
}
