//! Country-level long-term inaccessibility (Table 2, Appendix B Table 5)
//! and the §4.4 host-count correlation.

use crate::classify::{classify, Class};
use crate::results::Panel;
use originscan_netmodel::Country;
use originscan_netmodel::World;
use originscan_stats::spearman::{spearman, SpearmanResult};
use std::collections::BTreeMap;

/// Long-term inaccessibility statistics for one country.
#[derive(Debug, Clone)]
pub struct CountryStats {
    /// The country.
    pub country: Country,
    /// Ground-truth hosts geolocating there (union across trials).
    pub hosts: usize,
    /// Per-origin: percentage of the country's hosts long-term
    /// inaccessible from that origin.
    pub inaccessible_pct: Vec<f64>,
    /// Per-origin: how many ASes make up the majority of that origin's
    /// long-term-inaccessible hosts in this country (the red/orange/yellow
    /// color coding of Table 2; 0 when nothing is inaccessible).
    pub majority_ases: Vec<usize>,
}

/// Compute per-country long-term inaccessibility for every origin.
pub fn country_stats(world: &World, panel: &Panel) -> Vec<CountryStats> {
    // Bucket hosts by country once.
    let mut hosts_by_cc: BTreeMap<Country, Vec<usize>> = BTreeMap::new();
    for u in 0..panel.len() {
        hosts_by_cc
            .entry(world.country_of(panel.addrs[u]))
            .or_default()
            .push(u);
    }
    let n_origins = panel.origins.len();
    let mut out = Vec::new();
    for (country, hosts) in hosts_by_cc {
        let mut inaccessible_pct = Vec::with_capacity(n_origins);
        let mut majority_ases = Vec::with_capacity(n_origins);
        for oi in 0..n_origins {
            let lost: Vec<usize> = hosts
                .iter()
                .copied()
                .filter(|&u| classify(panel, oi, u) == Class::LongTerm)
                .collect();
            inaccessible_pct.push(100.0 * lost.len() as f64 / hosts.len() as f64);
            majority_ases.push(ases_for_majority(world, panel, &lost));
        }
        out.push(CountryStats {
            country,
            hosts: hosts.len(),
            inaccessible_pct,
            majority_ases,
        });
    }
    out.sort_by_key(|s| std::cmp::Reverse(s.hosts));
    out
}

/// Smallest number of ASes that together hold > 50 % of the given hosts.
fn ases_for_majority(world: &World, panel: &Panel, hosts: &[usize]) -> usize {
    if hosts.is_empty() {
        return 0;
    }
    let mut per_as: BTreeMap<u32, usize> = BTreeMap::new();
    for &u in hosts {
        *per_as.entry(world.as_index_of(panel.addrs[u])).or_default() += 1;
    }
    let mut counts: Vec<usize> = per_as.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let half = hosts.len() as f64 / 2.0;
    let mut acc = 0usize;
    for (i, c) in counts.iter().enumerate() {
        acc += c;
        if acc as f64 > half {
            return i + 1;
        }
    }
    counts.len()
}

/// §4.4: Spearman rank correlation between a country's total host count
/// and its long-term-inaccessible host count, aggregated over origins
/// (the paper reports ρ = 0.92, p < 0.001).
pub fn host_count_vs_inaccessible(stats: &[CountryStats]) -> Option<SpearmanResult> {
    let xs: Vec<f64> = stats.iter().map(|s| s.hosts as f64).collect();
    let ys: Vec<f64> = stats
        .iter()
        .map(|s| {
            // Total inaccessible host count across origins (avg pct × hosts).
            let mean_pct = s.inaccessible_pct.iter().sum::<f64>() / s.inaccessible_pct.len() as f64;
            mean_pct / 100.0 * s.hosts as f64
        })
        .collect();
    spearman(&xs, &ys)
}

/// Countries where some origin misses more than `threshold_pct` percent
/// of hosts (the paper: 50 countries > 10 %, 19 countries > 25 %).
pub fn countries_above(stats: &[CountryStats], threshold_pct: f64) -> Vec<&CountryStats> {
    stats
        .iter()
        .filter(|s| s.inaccessible_pct.iter().any(|&p| p > threshold_pct))
        .collect()
}

/// Tiered country selection for the Table 2 layout: countries bucketed by
/// host count, top `per_tier` per tier by worst-origin inaccessibility.
pub fn tiered_table<'a>(
    stats: &'a [CountryStats],
    tiers: &[usize],
    per_tier: usize,
) -> Vec<Vec<&'a CountryStats>> {
    let mut out = Vec::new();
    let mut upper = usize::MAX;
    for &lower in tiers {
        let mut bucket: Vec<&CountryStats> = stats
            .iter()
            .filter(|s| s.hosts >= lower && s.hosts < upper)
            .collect();
        bucket.sort_by(|a, b| {
            let wa = a.inaccessible_pct.iter().cloned().fold(0.0, f64::max);
            let wb = b.inaccessible_pct.iter().cloned().fold(0.0, f64::max);
            wb.partial_cmp(&wa).expect("no NaN")
        });
        bucket.truncate(per_tier);
        out.push(bucket);
        upper = lower;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use originscan_netmodel::{OriginId, Protocol, WorldConfig};

    fn setup(world: &World) -> Panel {
        let cfg = ExperimentConfig {
            origins: OriginId::MAIN.to_vec(),
            protocols: vec![Protocol::Http],
            trials: 3,
            ..Default::default()
        };
        Experiment::new(world, cfg)
            .run()
            .unwrap()
            .panel(Protocol::Http)
    }

    #[test]
    fn stats_cover_all_hosts() {
        let world = WorldConfig::small(37).build();
        let p = setup(&world);
        let stats = country_stats(&world, &p);
        let total: usize = stats.iter().map(|s| s.hosts).sum();
        assert_eq!(total, p.len());
        // Sorted by size descending.
        assert!(stats.windows(2).all(|w| w[0].hosts >= w[1].hosts));
    }

    #[test]
    fn bangladesh_and_south_africa_hit_for_censys() {
        // Table 2's flagship: DXTL blocking Censys blacks out large parts
        // of BD and ZA; the damage is dominated by a single AS.
        let world = WorldConfig::small(37).build();
        let p = setup(&world);
        let stats = country_stats(&world, &p);
        let cen = p
            .origins
            .iter()
            .position(|&o| o == OriginId::Censys)
            .unwrap();
        let jp = p
            .origins
            .iter()
            .position(|&o| o == OriginId::Japan)
            .unwrap();
        for cc in [Country::new("BD"), Country::new("ZA")] {
            let s = stats
                .iter()
                .find(|s| s.country == cc)
                .unwrap_or_else(|| panic!("{cc}"));
            assert!(
                s.inaccessible_pct[cen] > 15.0,
                "{cc}: Censys only misses {:.1}%",
                s.inaccessible_pct[cen]
            );
            assert!(
                s.inaccessible_pct[cen] > 4.0 * s.inaccessible_pct[jp].max(0.5),
                "{cc}: Censys {:.1}% vs Japan {:.1}%",
                s.inaccessible_pct[cen],
                s.inaccessible_pct[jp]
            );
            assert_eq!(s.majority_ases[cen], 1, "{cc} should be dominated by DXTL");
        }
    }

    #[test]
    fn rank_correlation_strong() {
        let world = WorldConfig::small(37).build();
        let p = setup(&world);
        let stats = country_stats(&world, &p);
        let r = host_count_vs_inaccessible(&stats).unwrap();
        // Paper: rho = 0.92. Any strongly positive value reproduces the
        // qualitative claim.
        assert!(r.rho > 0.6, "rho = {}", r.rho);
        assert!(r.p_value < 0.001);
    }

    #[test]
    fn threshold_filter_and_tiers() {
        let world = WorldConfig::small(37).build();
        let p = setup(&world);
        let stats = country_stats(&world, &p);
        let over10 = countries_above(&stats, 10.0);
        let over25 = countries_above(&stats, 25.0);
        assert!(over25.len() <= over10.len());
        assert!(!over10.is_empty(), "some country must lose >10% somewhere");
        let tiers = tiered_table(&stats, &[1000, 100, 10, 1], 5);
        assert_eq!(tiers.len(), 4);
        for bucket in &tiers {
            assert!(bucket.len() <= 5);
        }
    }
}
