//! McNemar's test for paired binary outcomes and the Bonferroni
//! correction.
//!
//! §3 of the paper: *"we compare the number of hosts seen (and not seen) by
//! each pair of origins per protocol using McNemar's test and find
//! statistically significant differences (p < 0.001) between all pairs of
//! scan origins in all trials"*, choosing pairwise McNemar over Cochran's Q
//! and applying a Bonferroni correction. This module provides both
//! pieces.

use crate::dist::chi2_sf;

/// The 2×2 discordant/concordant cell counts for two paired binary
/// classifiers (here: two scan origins observing the same host set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairedCounts {
    /// Hosts seen by both origins.
    pub both: u64,
    /// Hosts seen only by the first origin.
    pub only_a: u64,
    /// Hosts seen only by the second origin.
    pub only_b: u64,
    /// Hosts (in the ground-truth universe) seen by neither.
    pub neither: u64,
}

#[cfg(test)]
impl PairedCounts {
    /// Accumulate one paired observation.
    fn record(&mut self, a: bool, b: bool) {
        match (a, b) {
            (true, true) => self.both += 1,
            (true, false) => self.only_a += 1,
            (false, true) => self.only_b += 1,
            (false, false) => self.neither += 1,
        }
    }

    /// Total paired observations.
    fn total(&self) -> u64 {
        self.both + self.only_a + self.only_b + self.neither
    }
}

/// Result of McNemar's test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McNemarResult {
    /// The chi-square statistic (with continuity correction).
    pub statistic: f64,
    /// Two-sided p-value from the chi-square(1) distribution.
    pub p_value: f64,
    /// Discordant pair count the statistic is based on.
    pub discordant: u64,
}

/// McNemar's chi-square test with Edwards' continuity correction:
/// `(|b - c| - 1)^2 / (b + c)` on the discordant cells.
///
/// With zero discordant pairs the origins are literally indistinguishable
/// and the p-value is 1.
pub fn mcnemar_test(counts: &PairedCounts) -> McNemarResult {
    let b = counts.only_a as f64;
    let c = counts.only_b as f64;
    let discordant = counts.only_a + counts.only_b;
    if discordant == 0 {
        return McNemarResult {
            statistic: 0.0,
            p_value: 1.0,
            discordant,
        };
    }
    let num = ((b - c).abs() - 1.0).max(0.0);
    let statistic = num * num / (b + c);
    McNemarResult {
        statistic,
        p_value: chi2_sf(statistic, 1.0),
        discordant,
    }
}

/// Bonferroni-correct a significance threshold for `m` comparisons.
///
/// Returns the per-comparison alpha. The paper runs one McNemar test per
/// origin pair per protocol per trial and corrects across all of them.
pub fn bonferroni(alpha: f64, m: usize) -> f64 {
    assert!(m > 0);
    alpha / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example() {
        // Classic textbook example: b = 25, c = 5 discordant pairs.
        let counts = PairedCounts {
            both: 100,
            only_a: 25,
            only_b: 5,
            neither: 70,
        };
        let r = mcnemar_test(&counts);
        // (|25-5|-1)^2 / 30 = 361/30 = 12.033..
        assert!((r.statistic - 12.0333333).abs() < 1e-6);
        assert!(r.p_value < 0.001);
        assert_eq!(r.discordant, 30);
    }

    #[test]
    fn symmetric_discordance_not_significant() {
        let counts = PairedCounts {
            both: 1000,
            only_a: 10,
            only_b: 10,
            neither: 0,
        };
        let r = mcnemar_test(&counts);
        assert!(r.p_value > 0.5);
    }

    #[test]
    fn no_discordance_p_one() {
        let counts = PairedCounts {
            both: 50,
            only_a: 0,
            only_b: 0,
            neither: 50,
        };
        assert_eq!(mcnemar_test(&counts).p_value, 1.0);
    }

    #[test]
    fn record_tallies_cells() {
        let mut c = PairedCounts::default();
        c.record(true, true);
        c.record(true, false);
        c.record(false, true);
        c.record(false, false);
        assert_eq!(
            c,
            PairedCounts {
                both: 1,
                only_a: 1,
                only_b: 1,
                neither: 1
            }
        );
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn bonferroni_divides() {
        assert_eq!(bonferroni(0.05, 10), 0.005);
        // 7 origins -> 21 pairs, 3 protocols, 3 trials = 189 tests.
        assert!((bonferroni(0.001, 189) - 5.291005e-6).abs() < 1e-11);
    }
}
