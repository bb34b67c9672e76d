//! [`PlanBuilder`]: learn a [`TargetPlan`] from prior scan sets plus the
//! announced-prefix/AS topology.
//!
//! The builder accumulates *observations* — one scan set per prior
//! trial, each the union of what every origin saw that trial — and then
//! scores every announced /24 with integer-only arithmetic:
//!
//! * `density(s24)` — distinct addresses seen in the /24 across **any**
//!   prior trial (the union);
//! * `churn(s24)` — addresses seen in **some but not all** prior trials
//!   (union minus intersection), the cross-trial instability signal.
//!
//! Strategies turn those scores into an allowlist; every learned
//! strategy drops never-deployed /24s (density 0) outright, which is
//! safe in the simulated Internet because deployment is static per
//! world — churn only toggles liveness inside deployed /24s. Selection
//! order is total (score desc, s24 asc) and all arithmetic is integer,
//! so same-input builds are identical and serialize byte-identically.

use crate::format::PlanError;
use crate::plan::{PlanEntry, TargetPlan};
use originscan_store::frame::FrameError;
use originscan_store::{ScanSet, StoreReader};
use std::collections::BTreeMap;

/// One AS's contiguous run of announced /24s, in planner-neutral form
/// (extracted from `netmodel::World::ases` by the caller, keeping this
/// crate free of simulator dependencies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsSpan {
    /// First /24 index owned by the AS.
    pub first_s24: u32,
    /// Number of /24s owned.
    pub n_s24: u32,
    /// Dense AS index (used for per-AS budgets).
    pub as_index: u32,
}

/// How the builder turns scores into an allowlist.
///
/// `keep_ppm` is a parts-per-million fraction (integer, so plans stay
/// byte-deterministic): the ranked strategies keep
/// `ceil(candidates × keep_ppm / 1_000_000)` /24s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Every announced /24 — the full-sweep baseline.
    Full,
    /// Every /24 with at least one observed responder (never-deployed
    /// exclusion only).
    Observed,
    /// The top `keep_ppm` fraction of observed /24s ranked by
    /// observed-responsive density.
    DensityTopK {
        /// Fraction of observed /24s to keep, in parts per million.
        keep_ppm: u32,
    },
    /// The top `keep_ppm` fraction of observed /24s ranked by
    /// cross-trial churn (density breaks ties).
    ChurnWeighted {
        /// Fraction of observed /24s to keep, in parts per million.
        keep_ppm: u32,
    },
    /// The top `keep_ppm` fraction of observed /24s ranked by a blended
    /// density + 2×churn score.
    Hybrid {
        /// Fraction of observed /24s to keep, in parts per million.
        keep_ppm: u32,
    },
}

impl Strategy {
    /// The label stored in the plan file (and used as the serve tier's
    /// plan-registry key).
    pub fn label(&self) -> String {
        match self {
            Strategy::Full => "full".to_string(),
            Strategy::Observed => "observed".to_string(),
            Strategy::DensityTopK { keep_ppm } => format!("density_top_k{keep_ppm}"),
            Strategy::ChurnWeighted { keep_ppm } => format!("churn_top_k{keep_ppm}"),
            Strategy::Hybrid { keep_ppm } => format!("hybrid_top_k{keep_ppm}"),
        }
    }

    fn keep_ppm(&self) -> Option<u32> {
        match self {
            Strategy::Full | Strategy::Observed => None,
            Strategy::DensityTopK { keep_ppm }
            | Strategy::ChurnWeighted { keep_ppm }
            | Strategy::Hybrid { keep_ppm } => Some(*keep_ppm),
        }
    }
}

/// Accumulates prior observations and topology, then builds plans.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    space: u64,
    seed: u64,
    spans: Vec<AsSpan>,
    trials: Vec<ScanSet>,
    budget_per_as: Option<u32>,
}

impl PlanBuilder {
    /// A builder for `space` addresses; `seed` is recorded in every
    /// built plan as provenance.
    pub fn new(space: u64, seed: u64) -> Result<PlanBuilder, PlanError> {
        if space == 0 {
            return Err(PlanError::InvalidInput {
                what: "plan space must be non-empty",
            });
        }
        if space > 1 << 32 {
            return Err(FrameError::TooLarge { section: "space" }.into());
        }
        Ok(PlanBuilder {
            space,
            seed,
            spans: Vec::new(),
            trials: Vec::new(),
            budget_per_as: None,
        })
    }

    /// Provide the announced-prefix/AS topology. Candidates are
    /// restricted to /24s inside some span, and per-AS budgets key off
    /// the span's `as_index`. Without topology every /24 in the space is
    /// a candidate and budgets are ignored.
    pub fn with_topology(mut self, mut spans: Vec<AsSpan>) -> PlanBuilder {
        spans.sort_by_key(|s| (s.first_s24, s.as_index));
        self.spans = spans;
        self
    }

    /// Cap the number of /24s kept per AS (highest score first). Only
    /// effective once topology is provided.
    pub fn with_budget_per_as(mut self, cap: u32) -> PlanBuilder {
        self.budget_per_as = Some(cap);
        self
    }

    /// Record one prior trial's observations: the union scan set of
    /// every origin's responsive addresses that trial. Trials must be
    /// observed in trial order for churn to mean what it says.
    pub fn observe_trial(&mut self, set: &ScanSet) {
        self.trials.push(set.clone());
    }

    /// Record prior trials straight out of a scan-set store: for each
    /// trial with entries under `protocol`, the union across origins
    /// becomes one observation, in ascending trial order.
    pub fn observe_reader(
        &mut self,
        reader: &StoreReader,
        protocol: &str,
    ) -> Result<(), PlanError> {
        let mut by_trial: BTreeMap<u8, ScanSet> = BTreeMap::new();
        let keys: Vec<_> = reader
            .keys()
            .filter(|k| k.protocol == protocol)
            .cloned()
            .collect();
        for key in keys {
            let set = reader.load(&key)?;
            by_trial
                .entry(key.trial)
                .and_modify(|u| *u = u.or(&set))
                .or_insert(set);
        }
        for (_, set) in by_trial {
            self.trials.push(set);
        }
        Ok(())
    }

    /// Number of observed trials so far.
    pub fn observed_trials(&self) -> usize {
        self.trials.len()
    }

    /// Per-/24 `(density, churn)` counts over the observed trials.
    fn counts(&self) -> Vec<(u32, u32)> {
        let s24_count = usize::try_from(self.space.div_ceil(256)).unwrap_or(usize::MAX);
        let mut counts = vec![(0u32, 0u32); s24_count];
        if self.trials.is_empty() {
            return counts;
        }
        let refs: Vec<&ScanSet> = self.trials.iter().collect();
        let union = ScanSet::union_many(&refs);
        let mut inter = self.trials.first().cloned().unwrap_or_default();
        for set in self.trials.iter().skip(1) {
            inter = inter.and(set);
        }
        for addr in union.iter() {
            if let Some(c) = counts.get_mut((addr >> 8) as usize) {
                c.0 += 1;
                if !inter.contains(addr) {
                    c.1 += 1;
                }
            }
        }
        counts
    }

    /// Is `s24` inside some announced span? (Everything is announced
    /// when no topology was provided.) Returns the owning AS index.
    fn as_of(&self, s24: u32) -> Option<u32> {
        if self.spans.is_empty() {
            return Some(u32::MAX);
        }
        let idx = self.spans.partition_point(|s| s.first_s24 <= s24);
        let span = self.spans.get(idx.checked_sub(1)?)?;
        let offset = s24.checked_sub(span.first_s24)?;
        (offset < span.n_s24).then_some(span.as_index)
    }

    /// Build a plan under `strategy` from everything observed so far.
    pub fn build(&self, strategy: &Strategy) -> Result<TargetPlan, PlanError> {
        if let Some(ppm) = strategy.keep_ppm() {
            if ppm > 1_000_000 {
                return Err(PlanError::InvalidInput {
                    what: "keep_ppm above 1_000_000 (100%)",
                });
            }
        }
        let counts = self.counts();
        // Candidates: (s24, as_index, density, churn), announced only.
        let mut candidates: Vec<(u32, u32, u32, u32)> = Vec::new();
        for (i, &(density, churn)) in counts.iter().enumerate() {
            let s24 = u32::try_from(i).map_err(|_| FrameError::TooLarge { section: "space" })?;
            let Some(as_index) = self.as_of(s24) else {
                continue;
            };
            candidates.push((s24, as_index, density, churn));
        }
        // Strategy-specific score; learned strategies see observed /24s
        // only (never-deployed exclusion).
        let mut scored: Vec<(u32, u32, u32)> = Vec::new(); // (s24, as_index, score)
        for &(s24, as_index, density, churn) in &candidates {
            let density_milli = density.saturating_mul(1000) / 256;
            let churn_milli = churn.saturating_mul(1000) / 256;
            let score = match strategy {
                Strategy::Full => density_milli,
                Strategy::Observed | Strategy::DensityTopK { .. } => {
                    if density == 0 {
                        continue;
                    }
                    density_milli
                }
                Strategy::ChurnWeighted { .. } => {
                    if density == 0 {
                        continue;
                    }
                    // Churn leads; density breaks ties among equally
                    // churny /24s. Bounded by 256 addrs per /24, so the
                    // blend cannot overflow u32.
                    churn_milli
                        .saturating_mul(1000)
                        .saturating_add(density_milli)
                }
                Strategy::Hybrid { .. } => {
                    if density == 0 {
                        continue;
                    }
                    density_milli.saturating_add(churn_milli.saturating_mul(2))
                }
            };
            scored.push((s24, as_index, score));
        }
        // Ranked strategies keep the top fraction by (score desc, s24 asc).
        if let Some(ppm) = strategy.keep_ppm() {
            scored.sort_by(|a, b| (b.2, a.0).cmp(&(a.2, b.0)));
            let keep = (scored.len() as u64)
                .saturating_mul(u64::from(ppm))
                .div_ceil(1_000_000);
            scored.truncate(usize::try_from(keep).unwrap_or(usize::MAX));
        }
        // Per-AS budget: keep the best-scored /24s within each AS.
        if let (Some(cap), false) = (self.budget_per_as, self.spans.is_empty()) {
            scored.sort_by(|a, b| (a.1, b.2, a.0).cmp(&(b.1, a.2, b.0)));
            let mut kept: Vec<(u32, u32, u32)> = Vec::with_capacity(scored.len());
            let mut current_as = None;
            let mut in_as = 0u32;
            for item in scored {
                if current_as != Some(item.1) {
                    current_as = Some(item.1);
                    in_as = 0;
                }
                if in_as < cap {
                    kept.push(item);
                    in_as += 1;
                }
            }
            scored = kept;
        }
        let mut entries: Vec<PlanEntry> = scored
            .iter()
            .map(|&(s24, _, score)| PlanEntry { s24, score })
            .collect();
        entries.sort_by_key(|e| e.s24);
        TargetPlan::from_entries(self.space, self.seed, &strategy.label(), entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two trials over a 4-/24 space:
    /// /24 0: dense and stable (addrs 0..8 both trials)
    /// /24 1: churny (addrs 256..260 trial 0 only, 260..264 trial 1 only)
    /// /24 2: sparse stable (addr 600 both trials)
    /// /24 3: never deployed
    fn builder() -> PlanBuilder {
        let mut b = PlanBuilder::new(1024, 42).unwrap();
        let t0: Vec<u32> = (0..8).chain(256..260).chain([600]).collect();
        let t1: Vec<u32> = (0..8).chain(260..264).chain([600]).collect();
        b.observe_trial(&ScanSet::from_sorted(&t0));
        b.observe_trial(&ScanSet::from_sorted(&t1));
        b
    }

    #[test]
    fn full_keeps_everything_announced() {
        let plan = builder().build(&Strategy::Full).unwrap();
        assert_eq!(plan.planned_s24s(), 4);
        assert_eq!(plan.strategy(), "full");
    }

    #[test]
    fn observed_drops_never_deployed() {
        let plan = builder().build(&Strategy::Observed).unwrap();
        let s24s: Vec<u32> = plan.entries().iter().map(|e| e.s24).collect();
        assert_eq!(s24s, vec![0, 1, 2]);
        assert!(!plan.contains_s24(3));
    }

    #[test]
    fn density_top_k_keeps_the_densest() {
        // keep 1 of 3 observed /24s: /24 1 saw 8 distinct addrs across
        // trials, tying /24 0's 8; tie breaks to the lower s24.
        let plan = builder()
            .build(&Strategy::DensityTopK { keep_ppm: 333_333 })
            .unwrap();
        let s24s: Vec<u32> = plan.entries().iter().map(|e| e.s24).collect();
        assert_eq!(s24s, vec![0]);
    }

    #[test]
    fn churn_ranks_the_churny_s24_first() {
        let plan = builder()
            .build(&Strategy::ChurnWeighted { keep_ppm: 333_333 })
            .unwrap();
        let s24s: Vec<u32> = plan.entries().iter().map(|e| e.s24).collect();
        assert_eq!(s24s, vec![1], "the all-churn /24 must rank first");
    }

    #[test]
    fn per_as_budget_caps_each_as() {
        let spans = vec![
            AsSpan {
                first_s24: 0,
                n_s24: 2,
                as_index: 0,
            },
            AsSpan {
                first_s24: 2,
                n_s24: 2,
                as_index: 1,
            },
        ];
        let b = builder().with_topology(spans).with_budget_per_as(1);
        let plan = b.build(&Strategy::Observed).unwrap();
        let s24s: Vec<u32> = plan.entries().iter().map(|e| e.s24).collect();
        // AS 0 owns /24s {0,1} (both observed) but may keep only its
        // best (densest) one; AS 1 keeps its single observed /24.
        assert_eq!(s24s, vec![0, 2]);
    }

    #[test]
    fn topology_restricts_candidates() {
        let spans = vec![AsSpan {
            first_s24: 0,
            n_s24: 2,
            as_index: 7,
        }];
        let plan = builder()
            .with_topology(spans)
            .build(&Strategy::Full)
            .unwrap();
        let s24s: Vec<u32> = plan.entries().iter().map(|e| e.s24).collect();
        assert_eq!(s24s, vec![0, 1], "unannounced /24s are not candidates");
    }

    #[test]
    fn no_observations_learned_strategies_are_empty() {
        let b = PlanBuilder::new(1024, 1).unwrap();
        assert_eq!(b.observed_trials(), 0);
        let plan = b.build(&Strategy::Observed).unwrap();
        assert!(plan.is_empty());
        let full = b.build(&Strategy::Full).unwrap();
        assert_eq!(full.planned_s24s(), 4);
    }

    #[test]
    fn keep_ppm_is_validated() {
        let b = builder();
        assert!(matches!(
            b.build(&Strategy::DensityTopK {
                keep_ppm: 1_000_001
            }),
            Err(PlanError::InvalidInput { .. })
        ));
    }

    #[test]
    fn same_inputs_build_identical_bytes() {
        let a = builder()
            .build(&Strategy::Hybrid { keep_ppm: 500_000 })
            .unwrap();
        let b = builder()
            .build(&Strategy::Hybrid { keep_ppm: 500_000 })
            .unwrap();
        assert_eq!(a.to_bytes().unwrap(), b.to_bytes().unwrap());
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(Strategy::Full.label(), "full");
        assert_eq!(Strategy::Observed.label(), "observed");
        assert_eq!(
            Strategy::DensityTopK { keep_ppm: 250_000 }.label(),
            "density_top_k250000"
        );
        assert_eq!(
            Strategy::ChurnWeighted { keep_ppm: 250_000 }.label(),
            "churn_top_k250000"
        );
        assert_eq!(
            Strategy::Hybrid { keep_ppm: 250_000 }.label(),
            "hybrid_top_k250000"
        );
    }
}
