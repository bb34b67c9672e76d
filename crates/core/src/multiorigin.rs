//! §7: multi-origin and multi-probe coverage (Figs 15, 17, 18).
//!
//! The paper's remedy for unpredictable transient loss: scan from 2–3
//! sufficiently diverse origins. This module sweeps every k-subset of the
//! single-IP origins, computes union coverage per trial under both probe
//! policies, and summarizes the distributions that make up the paper's
//! box plots.

use crate::matrix::TrialMatrix;
use crate::results::ExperimentResults;
use originscan_netmodel::{OriginId, Protocol};
use originscan_stats::descriptive::FiveNumber;
use originscan_stats::k_subsets;
use originscan_store::{ScanSet, SignatureCounts};

/// Probe policy for coverage computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePolicy {
    /// Host counts if the origin's first probe was answered and L7
    /// completed (simulated single-probe scan).
    Single,
    /// Host counts if any probe was answered and L7 completed (the scan
    /// as actually run).
    Double,
}

/// Union coverage of an origin subset in one trial: a multi-set union
/// popcount over the matrix's per-origin bitmaps — no per-host loop, so
/// the §7 sweep over every k-subset stays cheap at full scale.
pub(crate) fn combo_coverage(matrix: &TrialMatrix, combo: &[usize], policy: ProbePolicy) -> f64 {
    let n = matrix.len();
    if n == 0 {
        return 1.0;
    }
    let sets = match policy {
        ProbePolicy::Single => &matrix.one_probe_sets,
        ProbePolicy::Double => &matrix.seen_sets,
    };
    let members: Vec<&ScanSet> = combo.iter().map(|&oi| &sets[oi]).collect();
    let covered = ScanSet::union_cardinality_many(&members);
    covered as f64 / n as f64
}

/// The coverage distribution over all k-subsets (× trials) of the chosen
/// origin roster — one box of Fig 15/17.
#[derive(Debug, Clone)]
pub struct ComboDistribution {
    /// Coverage samples: one per (subset, trial).
    pub(crate) samples: Vec<f64>,
    /// The best-covering subset (origin labels) and its mean coverage.
    pub best: (Vec<OriginId>, f64),
    /// The worst-covering subset and its mean coverage.
    pub worst: (Vec<OriginId>, f64),
}

impl ComboDistribution {
    /// Five-number summary of the samples.
    pub fn summary(&self) -> FiveNumber {
        FiveNumber::of(&self.samples)
    }

    /// Standard deviation of the samples.
    pub fn std_dev(&self) -> f64 {
        originscan_stats::descriptive::std_dev(&self.samples)
    }
}

/// Sweep all k-subsets of `origins` (indices into the experiment roster).
pub fn combo_sweep(
    results: &ExperimentResults<'_>,
    proto: Protocol,
    origins: &[OriginId],
    k: usize,
    policy: ProbePolicy,
) -> ComboDistribution {
    let roster: Vec<usize> = origins.iter().map(|&o| results.origin_index(o)).collect();
    let trials = results.config().trials;
    let mut samples = Vec::new();
    let mut best: Option<(Vec<OriginId>, f64)> = None;
    let mut worst: Option<(Vec<OriginId>, f64)> = None;
    for subset in k_subsets(roster.len(), k) {
        let combo: Vec<usize> = subset.iter().map(|&i| roster[i]).collect();
        let labels: Vec<OriginId> = subset.iter().map(|&i| origins[i]).collect();
        let mut mean = 0.0;
        for t in 0..trials {
            let c = combo_coverage(results.matrix(proto, t), &combo, policy);
            samples.push(c);
            mean += c;
        }
        mean /= f64::from(trials);
        if best.as_ref().is_none_or(|(_, b)| mean > *b) {
            best = Some((labels.clone(), mean));
        }
        if worst.as_ref().is_none_or(|(_, w)| mean < *w) {
            worst = Some((labels, mean));
        }
    }
    ComboDistribution {
        samples,
        best: best.expect("at least one subset"),
        worst: worst.expect("at least one subset"),
    }
}

/// The single-IP origins the paper's Fig 15 sweeps (US₆₄ excluded).
pub fn single_ip_roster(results: &ExperimentResults<'_>) -> Vec<OriginId> {
    results
        .config()
        .origins
        .iter()
        .copied()
        .filter(|o| o.spec().source_ips == 1)
        .collect()
}

/// Coverage of one *named* subset (e.g. the collocated HE–NTT–TELIA triad
/// of Fig 18), averaged over trials.
pub fn named_combo_coverage(
    results: &ExperimentResults<'_>,
    proto: Protocol,
    origins: &[OriginId],
    policy: ProbePolicy,
) -> f64 {
    let combo: Vec<usize> = origins.iter().map(|&o| results.origin_index(o)).collect();
    let trials = results.config().trials;
    (0..trials)
        .map(|t| combo_coverage(results.matrix(proto, t), &combo, policy))
        .sum::<f64>()
        / f64::from(trials)
}

/// The k-subset of `sets` with the largest union cardinality — the §7
/// "which k origins buy the most coverage" question asked of bitmaps
/// directly, so callers that hold materialized scan sets need no
/// [`TrialMatrix`]. One [`ScanSet::signature_counts`] pass over the
/// sets, then [`best_k_of`] the table.
///
/// `None` when `k` is zero, exceeds `sets.len()`, or there are more
/// than 64 sets.
pub(crate) fn best_k_union(sets: &[&ScanSet], k: usize) -> Option<(Vec<usize>, u64)> {
    best_k_of(&ScanSet::signature_counts(sets)?, sets.len(), k)
}

/// `best_k_union` over the signature table of `n` sets (the serve
/// engine caches the table per `(proto, trial)`): every k-subset's union
/// is a sum over the table's rows, no bitmap is walked.
///
/// Returns the winning member indices (ascending) and the union
/// cardinality. Ties break toward the lexicographically smallest index
/// subset, which `k_subsets` emits first — so the answer is
/// deterministic.
pub fn best_k_of(table: &SignatureCounts, n: usize, k: usize) -> Option<(Vec<usize>, u64)> {
    if k == 0 || k > n || n > 64 {
        return None;
    }
    let mut best: Option<(Vec<usize>, u64)> = None;
    for combo in k_subsets(n, k) {
        let members = combo.iter().fold(0u64, |m, &i| m | 1u64 << i);
        let covered = table.sum(|m| m & members != 0);
        if best.as_ref().is_none_or(|(_, c)| covered > *c) {
            best = Some((combo, covered));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use originscan_netmodel::{World, WorldConfig};

    fn run(world: &World) -> ExperimentResults<'_> {
        let cfg = ExperimentConfig {
            origins: OriginId::MAIN.to_vec(),
            protocols: vec![Protocol::Http],
            trials: 2,
            ..Default::default()
        };
        Experiment::new(world, cfg).run().unwrap()
    }

    #[test]
    fn more_origins_more_coverage() {
        let world = WorldConfig::small(61).build();
        let r = run(&world);
        let roster = single_ip_roster(&r);
        assert_eq!(roster.len(), 6); // US64 excluded
        let mut last_median = 0.0;
        for k in 1..=3 {
            let d = combo_sweep(&r, Protocol::Http, &roster, k, ProbePolicy::Double);
            let med = d.summary().median;
            assert!(med >= last_median, "k={k}: median {med} < {last_median}");
            last_median = med;
        }
        // Three origins reach ≥ 98-99% and low variance (paper: σ = 0.08%).
        let d3 = combo_sweep(&r, Protocol::Http, &roster, 3, ProbePolicy::Double);
        assert!(
            d3.summary().median > 0.97,
            "3-origin median {}",
            d3.summary().median
        );
        let d1 = combo_sweep(&r, Protocol::Http, &roster, 1, ProbePolicy::Double);
        assert!(
            d3.std_dev() < d1.std_dev(),
            "variance must shrink with origins"
        );
    }

    #[test]
    fn single_probe_weaker_than_double() {
        let world = WorldConfig::small(61).build();
        let r = run(&world);
        let roster = single_ip_roster(&r);
        let s = combo_sweep(&r, Protocol::Http, &roster, 1, ProbePolicy::Single);
        let d = combo_sweep(&r, Protocol::Http, &roster, 1, ProbePolicy::Double);
        assert!(s.summary().median < d.summary().median);
    }

    #[test]
    fn two_origins_beat_two_probes() {
        // §7 "Multi-probe scanning": one probe from two origins beats two
        // probes from one origin.
        let world = WorldConfig::small(61).build();
        let r = run(&world);
        let roster = single_ip_roster(&r);
        let two_origins_1p = combo_sweep(&r, Protocol::Http, &roster, 2, ProbePolicy::Single);
        let one_origin_2p = combo_sweep(&r, Protocol::Http, &roster, 1, ProbePolicy::Double);
        assert!(
            two_origins_1p.summary().median > one_origin_2p.summary().median,
            "2 origins 1 probe {} vs 1 origin 2 probes {}",
            two_origins_1p.summary().median,
            one_origin_2p.summary().median
        );
    }

    #[test]
    fn best_k_union_picks_largest_union() {
        let a = ScanSet::from_sorted(&[1, 2, 3]);
        let b = ScanSet::from_sorted(&[3, 4]);
        let c = ScanSet::from_sorted(&[10, 11, 12, 13]);
        let sets = vec![&a, &b, &c];
        // Best pair is {a, c}: |{1,2,3,10,11,12,13}| = 7.
        let (combo, card) = best_k_union(&sets, 2).unwrap();
        assert_eq!(combo, vec![0, 2]);
        assert_eq!(card, 7);
        // k = n degenerates to the full union.
        let (all, full) = best_k_union(&sets, 3).unwrap();
        assert_eq!(all, vec![0, 1, 2]);
        assert_eq!(full, 8);
        // Out-of-range k is refused, not panicked on.
        assert!(best_k_union(&sets, 0).is_none());
        assert!(best_k_union(&sets, 4).is_none());
        // Ties break toward the first (lexicographically smallest) combo.
        let d = ScanSet::from_sorted(&[20, 21, 22]);
        let tied = vec![&a, &d];
        let (combo, _) = best_k_union(&tied, 1).unwrap();
        assert_eq!(combo, vec![0]);
    }

    #[test]
    fn named_combo_matches_sweep_extremes() {
        let world = WorldConfig::small(61).build();
        let r = run(&world);
        let roster = single_ip_roster(&r);
        let d = combo_sweep(&r, Protocol::Http, &roster, 2, ProbePolicy::Double);
        let best_cov = named_combo_coverage(&r, Protocol::Http, &d.best.0, ProbePolicy::Double);
        assert!((best_cov - d.best.1).abs() < 1e-12);
        assert!(d.best.1 >= d.worst.1);
    }
}
