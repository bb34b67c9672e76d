//! The §5.2 packet-drop estimator and its (weak) relationship to
//! transient host loss (Fig 10).
//!
//! ZMap cannot distinguish an unresponsive host from a dropped probe, so
//! the paper estimates random drop from hosts that answered exactly one
//! of the two back-to-back SYNs — a *lower bound*, since double drops are
//! invisible. The headline negative result: drop estimates correlate only
//! weakly with transient host loss (Spearman ρ = 0.40–0.52), because
//! loss is not i.i.d.

use crate::classify::{classify, Class};
use crate::matrix::TrialMatrix;
use crate::results::Panel;
use originscan_netmodel::World;
use originscan_stats::spearman::{spearman, SpearmanResult};
use std::collections::BTreeMap;

/// Estimated packet-drop rate for one origin in one trial: the fraction
/// of ground-truth hosts that answered exactly one of two probes.
pub fn global_drop_estimate(matrix: &TrialMatrix, origin_idx: usize) -> f64 {
    let n = matrix.len();
    if n == 0 {
        return 0.0;
    }
    let single = matrix.outcomes[origin_idx]
        .iter()
        .filter(|o| o.exactly_one_probe())
        .count();
    single as f64 / n as f64
}

/// Per-AS drop estimates for one origin in one trial:
/// `as_index → (single_probe_hosts, ground_truth_hosts)`.
pub(crate) fn drop_by_as(
    world: &World,
    matrix: &TrialMatrix,
    origin_idx: usize,
) -> BTreeMap<u32, (usize, usize)> {
    let mut m: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    for (i, &addr) in matrix.addrs.iter().enumerate() {
        let e = m.entry(world.as_index_of(addr)).or_default();
        e.1 += 1;
        if matrix.outcomes[origin_idx][i].exactly_one_probe() {
            e.0 += 1;
        }
    }
    m
}

/// §7's correlated-loss evidence: among ground-truth hosts that lost at
/// least one probe from this origin, the fraction that lost *both*
/// (the paper: > 93 %).
pub fn both_lost_fraction(matrix: &TrialMatrix, origin_idx: usize) -> f64 {
    let mut any_lost = 0usize;
    let mut both_lost = 0usize;
    for o in &matrix.outcomes[origin_idx] {
        let answered = (o.0 & 0b11).count_ones();
        if answered < 2 {
            any_lost += 1;
            if answered == 0 {
                both_lost += 1;
            }
        }
    }
    if any_lost == 0 {
        return 1.0;
    }
    both_lost as f64 / any_lost as f64
}

/// Spearman correlation, across ASes, between an origin's per-AS drop
/// estimate and its per-AS transient host-loss rate (§5.2 reports
/// ρ = 0.40–0.52). Only ASes with ≥ `min_hosts` ground-truth hosts enter.
pub fn drop_vs_transient_correlation(
    world: &World,
    panel: &Panel,
    matrices: &[TrialMatrix],
    origin_idx: usize,
    min_hosts: usize,
) -> Option<SpearmanResult> {
    // Per-AS transient rates from the panel.
    let mut hosts_by_as: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for u in 0..panel.len() {
        hosts_by_as
            .entry(world.as_index_of(panel.addrs[u]))
            .or_default()
            .push(u);
    }
    // Per-AS single-probe rates averaged over trials.
    let mut drop_acc: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    for m in matrices.iter().filter(|m| m.protocol == panel.protocol) {
        for (ai, (s, n)) in drop_by_as(world, m, origin_idx) {
            let e = drop_acc.entry(ai).or_default();
            e.0 += s;
            e.1 += n;
        }
    }
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (ai, hosts) in &hosts_by_as {
        if hosts.len() < min_hosts {
            continue;
        }
        let Some(&(s, n)) = drop_acc.get(ai) else {
            continue;
        };
        if n == 0 {
            continue;
        }
        let transient = hosts
            .iter()
            .filter(|&&u| classify(panel, origin_idx, u) == Class::Transient)
            .count();
        xs.push(s as f64 / n as f64);
        ys.push(transient as f64 / hosts.len() as f64);
    }
    spearman(&xs, &ys)
}

/// One point of Fig 10: an origin's (packet-loss estimate, transient
/// host-loss rate) for a specific AS in a specific trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossPoint {
    /// Origin index.
    pub origin_idx: usize,
    /// Trial.
    pub trial: u8,
    /// Estimated per-probe drop rate.
    pub drop_rate: f64,
    /// Transient host-loss rate in the AS.
    pub transient_rate: f64,
}

/// Collect Fig 10's scatter for one named AS.
pub fn loss_points_for_as(
    world: &World,
    panel: &Panel,
    matrices: &[TrialMatrix],
    as_name: &str,
) -> Vec<LossPoint> {
    let asr = match world.as_by_name(as_name) {
        Some(a) => a,
        None => return Vec::new(),
    };
    let hosts: Vec<usize> = (0..panel.len())
        .filter(|&u| world.as_index_of(panel.addrs[u]) == asr.index)
        .collect();
    if hosts.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for m in matrices.iter().filter(|m| m.protocol == panel.protocol) {
        for oi in 0..panel.origins.len() {
            let per_as = drop_by_as(world, m, oi);
            let (s, n) = per_as.get(&asr.index).copied().unwrap_or((0, 0));
            if n == 0 {
                continue;
            }
            // Transient misses of this origin in this trial within the AS.
            let bit = 1u8 << m.trial;
            let missed = hosts
                .iter()
                .filter(|&&u| {
                    panel.present[u] & bit != 0
                        && panel.seen[oi][u] & bit == 0
                        && classify(panel, oi, u) == Class::Transient
                })
                .count();
            let present = hosts
                .iter()
                .filter(|&&u| panel.present[u] & bit != 0)
                .count();
            out.push(LossPoint {
                origin_idx: oi,
                trial: m.trial,
                drop_rate: s as f64 / n as f64,
                transient_rate: if present == 0 {
                    0.0
                } else {
                    missed as f64 / present as f64
                },
            });
        }
    }
    out
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
            protocols: vec![Protocol::Http],
            trials: 3,
            ..Default::default()
        };
        Experiment::new(world, cfg).run().unwrap()
    }

    #[test]
    fn global_drop_in_band() {
        // Paper: 0.44%–1.6% depending on trial and origin. We accept a
        // slightly wider band at reduced scale.
        let world = WorldConfig::small(47).build();
        let r = run(&world);
        for t in 0..3u8 {
            let m = r.matrix(Protocol::Http, t);
            for oi in 0..7 {
                let d = global_drop_estimate(m, oi);
                assert!((0.001..0.06).contains(&d), "origin {oi} trial {t}: {d}");
            }
        }
    }

    #[test]
    fn australia_has_highest_drop() {
        let world = WorldConfig::small(47).build();
        let r = run(&world);
        let mean = |oi: usize| -> f64 {
            (0..3u8)
                .map(|t| global_drop_estimate(r.matrix(Protocol::Http, t), oi))
                .sum::<f64>()
                / 3.0
        };
        let au = mean(0); // roster order: AU first
        for oi in 1..7 {
            assert!(au >= mean(oi) * 0.9, "AU {au} vs origin {oi} {}", mean(oi));
        }
    }

    #[test]
    fn loss_is_correlated_not_iid() {
        // >93% of hosts that lost ≥1 probe lost both (paper §7); we accept
        // anything clearly dominated by double loss.
        let world = WorldConfig::small(47).build();
        let r = run(&world);
        let m = r.matrix(Protocol::Http, 0);
        let mut fracs = Vec::new();
        for oi in 0..7 {
            let f = both_lost_fraction(m, oi);
            assert!(f > 0.55, "origin {oi}: both-lost fraction {f}");
            fracs.push(f);
        }
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        assert!(mean > 0.65, "mean both-lost fraction {mean}");
    }

    #[test]
    fn drop_transient_correlation_weak_but_positive() {
        let world = WorldConfig::small(47).build();
        let r = run(&world);
        let panel = r.panel(Protocol::Http);
        let c = drop_vs_transient_correlation(&world, &panel, r.matrices(), 4, 10)
            .expect("enough ASes");
        assert!(c.rho > 0.0, "rho = {}", c.rho);
        assert!(
            c.rho < 0.9,
            "correlation should be imperfect, rho = {}",
            c.rho
        );
    }

    #[test]
    fn fig10_points_exist_for_named_ases() {
        let world = WorldConfig::small(47).build();
        let r = run(&world);
        let panel = r.panel(Protocol::Http);
        for name in [
            "HZ Alibaba Advertising",
            "Telecom Italia",
            "ABCDE Group Company Limited",
        ] {
            let pts = loss_points_for_as(&world, &panel, r.matrices(), name);
            assert_eq!(pts.len(), 7 * 3, "{name}: {} points", pts.len());
            for p in &pts {
                assert!((0.0..=1.0).contains(&p.drop_rate));
                assert!((0.0..=1.0).contains(&p.transient_rate));
            }
        }
    }

    #[test]
    fn germany_ti_drop_far_exceeds_brazil() {
        let world = WorldConfig::small(47).build();
        let r = run(&world);
        let panel = r.panel(Protocol::Http);
        let pts = loss_points_for_as(&world, &panel, r.matrices(), "Telecom Italia");
        let de = panel
            .origins
            .iter()
            .position(|&o| o == OriginId::Germany)
            .unwrap();
        let br = panel
            .origins
            .iter()
            .position(|&o| o == OriginId::Brazil)
            .unwrap();
        let mean = |oi: usize| {
            let v: Vec<f64> = pts
                .iter()
                .filter(|p| p.origin_idx == oi)
                .map(|p| p.drop_rate)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(de) > 10.0 * mean(br),
            "DE {} vs BR {}",
            mean(de),
            mean(br)
        );
    }
}
