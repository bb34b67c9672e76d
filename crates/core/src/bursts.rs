//! §5.3 burst-outage analysis on the *observed* scan results.
//!
//! The paper detects bursts purely from measurements: per
//! (origin, destination AS) hourly counts of transiently missing hosts,
//! smoothed with a 4-hour rolling window, with > 2σ residuals flagged.
//! This module runs the same detector over the trial matrices: it sees
//! only what the origins observed, never the model's injected bursts.
//! How many of those it recovers is not measured here (ROADMAP item 3).

use crate::classify::{classify, Class};
use crate::matrix::{TrialMatrix, SCAN_HOURS};
use crate::results::Panel;
use originscan_netmodel::World;
use originscan_stats::{burst_mass_fraction, detect_bursts, Burst};
use std::collections::BTreeMap;

/// Rolling window (hours) used for smoothing, per the paper.
pub(crate) const WINDOW_HOURS: usize = 4;

/// Outlier threshold in standard deviations, per the paper.
pub(crate) const SIGMAS: f64 = 2.0;

/// Hourly series of transiently-missed hosts for one (origin, AS, trial).
pub(crate) fn hourly_missing_series(
    world: &World,
    panel: &Panel,
    matrix: &TrialMatrix,
    origin_idx: usize,
    as_index: u32,
) -> Vec<f64> {
    let mut series = vec![0.0f64; usize::from(SCAN_HOURS)];
    let bit = 1u8 << matrix.trial;
    for (i, &addr) in matrix.addrs.iter().enumerate() {
        if world.as_index_of(addr) != as_index {
            continue;
        }
        if matrix.outcomes[origin_idx][i].l7_success() {
            continue;
        }
        // Only transient misses count toward burst analysis.
        if let Ok(u) = panel.addrs.binary_search(&addr) {
            if panel.present[u] & bit != 0 && classify(panel, origin_idx, u) == Class::Transient {
                series[usize::from(matrix.hour[i])] += 1.0;
            }
        }
    }
    series
}

/// Result of the burst sweep for one (origin, trial).
#[derive(Debug, Clone, Default)]
pub struct BurstShare {
    /// Transiently missed hosts in this trial for this origin.
    pub(crate) transient_total: usize,
    /// Of those, hosts lost in hours flagged as bursts.
    pub(crate) in_bursts: usize,
    /// ASes with ≥ 1 detected burst.
    pub(crate) ases_with_bursts: usize,
    /// ASes examined (≥ `min_hosts` ground truth hosts).
    pub(crate) ases_examined: usize,
}

impl BurstShare {
    /// Fraction of transient loss coinciding with bursts (paper: 14–36 %).
    pub fn fraction(&self) -> f64 {
        if self.transient_total == 0 {
            0.0
        } else {
            self.in_bursts as f64 / self.transient_total as f64
        }
    }
}

/// Run the paper's burst detector for one (origin, trial) across all ASes
/// with at least `min_hosts` ground-truth hosts.
pub fn burst_share(
    world: &World,
    panel: &Panel,
    matrix: &TrialMatrix,
    origin_idx: usize,
    min_hosts: usize,
) -> BurstShare {
    // Enumerate ASes present in the matrix.
    let mut as_hosts: BTreeMap<u32, usize> = BTreeMap::new();
    for &addr in &matrix.addrs {
        *as_hosts.entry(world.as_index_of(addr)).or_default() += 1;
    }
    let mut share = BurstShare::default();
    for (&ai, &n) in &as_hosts {
        if n < min_hosts {
            continue;
        }
        share.ases_examined += 1;
        let series = hourly_missing_series(world, panel, matrix, origin_idx, ai);
        let total: f64 = series.iter().sum();
        share.transient_total += total as usize;
        let bursts: Vec<Burst> = detect_bursts(&series, WINDOW_HOURS, SIGMAS);
        if !bursts.is_empty() {
            share.ases_with_bursts += 1;
            share.in_bursts += burst_mass_fraction(&series, &bursts).mul_add(total, 0.0) as usize;
        }
    }
    share
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use crate::results::ExperimentResults;
    use originscan_netmodel::{OriginId, Protocol, WorldConfig};

    fn run(world: &World) -> ExperimentResults<'_> {
        let cfg = ExperimentConfig {
            origins: OriginId::MAIN.to_vec(),
            protocols: vec![Protocol::Https],
            trials: 3,
            ..Default::default()
        };
        Experiment::new(world, cfg).run().unwrap()
    }

    #[test]
    fn series_mass_equals_transient_misses_in_trial() {
        let world = WorldConfig::small(53).build();
        let r = run(&world);
        let panel = r.panel(Protocol::Https);
        let m = r.matrix(Protocol::Https, 0);
        // Sum over all ASes of series mass = per-trial transient misses.
        let mut per_as_total = 0.0;
        let mut ases: Vec<u32> = m.addrs.iter().map(|&a| world.as_index_of(a)).collect();
        ases.sort_unstable();
        ases.dedup();
        for ai in ases {
            per_as_total += hourly_missing_series(&world, &panel, m, 0, ai)
                .iter()
                .sum::<f64>();
        }
        let direct = crate::classify::trial_breakdown(&panel, 0, 0).transient as f64;
        assert_eq!(per_as_total, direct);
    }

    #[test]
    fn burst_share_in_paper_band() {
        let world = WorldConfig::small(53).build();
        let r = run(&world);
        let panel = r.panel(Protocol::Https);
        // Aggregate across origins/trials; paper band is 14–36% per
        // (origin, trial); allow a wider envelope at our scale.
        let mut fracs = Vec::new();
        for t in 0..3u8 {
            let m = r.matrix(Protocol::Https, t);
            for oi in 0..7 {
                let s = burst_share(&world, &panel, m, oi, 8);
                if s.transient_total >= 50 {
                    fracs.push(s.fraction());
                }
            }
        }
        assert!(!fracs.is_empty());
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        assert!((0.03..0.6).contains(&mean), "mean burst share {mean}");
    }

    #[test]
    fn brazil_trial3_mega_burst_detected() {
        let world = WorldConfig::small(53).build();
        let r = run(&world);
        let panel = r.panel(Protocol::Https);
        let m = r.matrix(Protocol::Https, 2);
        let br = panel
            .origins
            .iter()
            .position(|&o| o == OriginId::Brazil)
            .unwrap();
        let s = burst_share(&world, &panel, m, br, 8);
        // The injected hour-14 event should make Brazil's trial-3 burst
        // share clearly nonzero.
        assert!(s.ases_with_bursts > 0, "{s:?}");
        assert!(
            s.fraction() > 0.05,
            "BR trial-3 burst share {}",
            s.fraction()
        );
    }
}
