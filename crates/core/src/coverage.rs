//! Coverage tables (Fig 1, Appendix A Table 4) and the §3 significance
//! tests.

use crate::results::ExperimentResults;
use originscan_netmodel::{OriginId, Protocol};
use originscan_stats::mcnemar::{mcnemar_test, McNemarResult, PairedCounts};

/// One row of the Appendix-A ground-truth coverage table.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Trial (or `None` for the mean row).
    pub trial: Option<u8>,
    /// Per-origin coverage fractions, roster order.
    pub fractions: Vec<f64>,
    /// Fraction of ground truth seen by *all* origins (∩).
    pub intersection: f64,
    /// Ground-truth size (∪).
    pub union: usize,
}

/// Build the Appendix-A table for one protocol: one row per trial plus a
/// mean row.
pub fn coverage_table(results: &ExperimentResults<'_>, proto: Protocol) -> Vec<CoverageRow> {
    let cfg = results.config();
    let mut rows = Vec::new();
    for trial in 0..cfg.trials {
        let m = results.matrix(proto, trial);
        let n = m.len().max(1);
        let fractions: Vec<f64> = (0..cfg.origins.len())
            .map(|oi| m.seen_count(oi) as f64 / n as f64)
            .collect();
        // ∩ row: AND-fold of the per-origin bitmaps (vacuously the whole
        // ground truth when the roster is empty).
        let all_seen = match m.seen_sets.split_first() {
            None => m.len(),
            Some((first, rest)) => rest
                .iter()
                .fold(first.clone(), |acc, s| acc.and(s))
                .cardinality() as usize,
        };
        rows.push(CoverageRow {
            trial: Some(trial),
            fractions,
            intersection: all_seen as f64 / n as f64,
            union: m.len(),
        });
    }
    // Mean row.
    let k = rows.len() as f64;
    let mean_frac: Vec<f64> = (0..cfg.origins.len())
        .map(|oi| rows.iter().map(|r| r.fractions[oi]).sum::<f64>() / k)
        .collect();
    rows.push(CoverageRow {
        trial: None,
        fractions: mean_frac,
        intersection: rows.iter().map(|r| r.intersection).sum::<f64>() / k,
        union: (rows.iter().map(|r| r.union).sum::<usize>() as f64 / k).round() as usize,
    });
    rows
}

/// Mean coverage of one origin across trials (a bar of Fig 1).
pub fn mean_coverage(results: &ExperimentResults<'_>, proto: Protocol, origin: OriginId) -> f64 {
    let trials = results.config().trials;
    (0..trials)
        .map(|t| results.coverage(proto, t, origin).fraction())
        .sum::<f64>()
        / f64::from(trials)
}

/// One pairwise McNemar comparison.
#[derive(Debug, Clone)]
pub struct PairwiseTest {
    /// First origin.
    pub a: OriginId,
    /// Second origin.
    pub b: OriginId,
    /// Trial.
    pub trial: u8,
    /// Test result.
    pub result: McNemarResult,
}

/// Run McNemar's test between every origin pair for every trial of one
/// protocol (§3), returning the tests plus the Bonferroni-corrected alpha.
pub fn mcnemar_all_pairs(
    results: &ExperimentResults<'_>,
    proto: Protocol,
    alpha: f64,
) -> (Vec<PairwiseTest>, f64) {
    let cfg = results.config();
    let mut tests = Vec::new();
    for trial in 0..cfg.trials {
        let m = results.matrix(proto, trial);
        for i in 0..cfg.origins.len() {
            for j in i + 1..cfg.origins.len() {
                // Paired counts straight from bitmap cardinalities: no
                // per-host loop. both = |A∩B|, the rest by subtraction.
                let (sa, sb) = (&m.seen_sets[i], &m.seen_sets[j]);
                let both = sa.intersection_cardinality(sb);
                let only_a = sa.cardinality() - both;
                let only_b = sb.cardinality() - both;
                let counts = PairedCounts {
                    both,
                    only_a,
                    only_b,
                    neither: m.len() as u64 - both - only_a - only_b,
                };
                tests.push(PairwiseTest {
                    a: cfg.origins[i],
                    b: cfg.origins[j],
                    trial,
                    result: mcnemar_test(&counts),
                });
            }
        }
    }
    let corrected = originscan_stats::bonferroni(alpha, tests.len().max(1));
    (tests, corrected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use originscan_netmodel::WorldConfig;

    fn run(world: &originscan_netmodel::World) -> ExperimentResults<'_> {
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Japan, OriginId::Us64, OriginId::Censys],
            protocols: vec![Protocol::Http],
            trials: 2,
            ..Default::default()
        };
        Experiment::new(world, cfg).run().unwrap()
    }

    #[test]
    fn table_structure() {
        let world = WorldConfig::tiny(23).build();
        let r = run(&world);
        let rows = coverage_table(&r, Protocol::Http);
        assert_eq!(rows.len(), 3); // 2 trials + mean
        assert!(rows[2].trial.is_none());
        for row in &rows {
            assert_eq!(row.fractions.len(), 3);
            for &f in &row.fractions {
                assert!((0.0..=1.0).contains(&f));
                assert!(row.intersection <= f + 1e-12, "∩ cannot exceed any origin");
            }
        }
    }

    #[test]
    fn censys_mean_coverage_lowest() {
        let world = WorldConfig::small(23).build();
        let r = run(&world);
        let cen = mean_coverage(&r, Protocol::Http, OriginId::Censys);
        let jp = mean_coverage(&r, Protocol::Http, OriginId::Japan);
        let us64 = mean_coverage(&r, Protocol::Http, OriginId::Us64);
        assert!(cen < jp && cen < us64, "CEN {cen}, JP {jp}, US64 {us64}");
        assert!(jp > 0.9, "academic origin coverage {jp}");
    }

    #[test]
    fn mcnemar_finds_significant_differences() {
        let world = WorldConfig::small(23).build();
        let r = run(&world);
        let (tests, corrected) = mcnemar_all_pairs(&r, Protocol::Http, 0.001);
        assert_eq!(tests.len(), 3 * 2); // 3 pairs × 2 trials
        assert!(corrected < 0.001);
        // Censys differs from everyone overwhelmingly.
        let cen_tests = tests
            .iter()
            .filter(|t| t.a == OriginId::Censys || t.b == OriginId::Censys);
        for t in cen_tests {
            assert!(
                t.result.p_value < corrected,
                "{} vs {} trial {}: p = {}",
                t.a,
                t.b,
                t.trial,
                t.result.p_value
            );
        }
    }
}
