//! Exclusive accessibility and inaccessibility (Table 1, Figs 3, 6, 7, 8).
//!
//! * Fig 3 / Fig 8: for hosts that are long-term (resp. transiently)
//!   inaccessible from ≥ 1 origin, from *how many* origins are they
//!   missed?
//! * Table 1: of the hosts exclusively (in)accessible from a single
//!   origin, which origin is it?
//! * Fig 6 / Fig 7: where (country / AS) do the exclusively accessible
//!   hosts live?

use crate::classify::{classify, Class};
use crate::results::Panel;
use originscan_netmodel::geo::Country;
use originscan_netmodel::World;
use originscan_store::ScanSet;
use std::collections::BTreeMap;

/// Histogram over "number of origins missing the host" for hosts of the
/// given class (Fig 3 uses `Class::LongTerm`, Fig 8 `Class::Transient`).
///
/// Index `k` holds the number of hosts missed (with that class) by
/// exactly `k+1` origins.
pub fn miss_overlap_histogram(panel: &Panel, class: Class) -> Vec<usize> {
    let n_origins = panel.origins.len();
    let mut hist = vec![0usize; n_origins];
    for u in 0..panel.len() {
        let missing = (0..n_origins)
            .filter(|&oi| classify(panel, oi, u) == class)
            .count();
        if missing > 0 {
            hist[missing - 1] += 1;
        }
    }
    hist
}

/// Per-origin counts of exclusively accessible / exclusively long-term
/// inaccessible hosts (the two halves of Table 1).
#[derive(Debug, Clone)]
pub struct ExclusiveCounts {
    /// `exclusive_accessible[oi]`: hosts only this origin ever saw.
    pub exclusive_accessible: Vec<usize>,
    /// `exclusive_inaccessible[oi]`: hosts long-term missed by only this
    /// origin.
    pub exclusive_inaccessible: Vec<usize>,
}

impl ExclusiveCounts {
    /// Table-1 style percentages (each column normalized by its total).
    pub fn percentages(&self) -> (Vec<f64>, Vec<f64>) {
        let norm = |v: &[usize]| {
            let total: usize = v.iter().sum();
            v.iter()
                .map(|&x| {
                    if total == 0 {
                        0.0
                    } else {
                        100.0 * x as f64 / total as f64
                    }
                })
                .collect()
        };
        (
            norm(&self.exclusive_accessible),
            norm(&self.exclusive_inaccessible),
        )
    }
}

/// Addresses in `sets[origin_idx]` and no other set — the bitmap kernel
/// behind both halves of Table 1: `own ∖ ⋃(others)`.
fn exclusive_set(sets: &[ScanSet], origin_idx: usize) -> ScanSet {
    let others: Vec<&ScanSet> = sets
        .iter()
        .enumerate()
        .filter(|&(oi, _)| oi != origin_idx)
        .map(|(_, s)| s)
        .collect();
    sets[origin_idx].andnot(&ScanSet::union_many(&others))
}

/// Compute Table 1's inputs — ANDNOT popcounts over the panel's bitmaps.
pub fn exclusive_counts(panel: &Panel) -> ExclusiveCounts {
    let n = panel.origins.len();
    ExclusiveCounts {
        // Exclusively accessible: only this origin ever saw the host.
        exclusive_accessible: (0..n)
            .map(|oi| exclusive_set(&panel.ever_seen_sets, oi).cardinality() as usize)
            .collect(),
        // Exclusively long-term inaccessible: only this origin long-term
        // misses it.
        exclusive_inaccessible: (0..n)
            .map(|oi| exclusive_set(&panel.longterm_sets, oi).cardinality() as usize)
            .collect(),
    }
}

/// Hosts exclusively accessible from `origin_idx`, as union indices
/// (ascending — the bitmap yields addresses sorted, and the union list is
/// sorted too, so the index mapping preserves the old iteration order).
pub fn exclusive_hosts(panel: &Panel, origin_idx: usize) -> Vec<usize> {
    exclusive_set(&panel.ever_seen_sets, origin_idx)
        .iter()
        .filter_map(|addr| panel.addrs.binary_search(&addr).ok())
        .collect()
}

/// Fig 6 cell: exclusively accessible hosts of one origin, bucketed by
/// destination country. Returns `(country, count)` sorted descending.
pub fn exclusive_by_country(
    world: &World,
    panel: &Panel,
    origin_idx: usize,
) -> Vec<(Country, usize)> {
    let mut counts: BTreeMap<Country, usize> = BTreeMap::new();
    for u in exclusive_hosts(panel, origin_idx) {
        *counts.entry(world.country_of(panel.addrs[u])).or_default() += 1;
    }
    let mut v: Vec<(Country, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Fig 7: exclusively accessible hosts of one origin bucketed by AS name,
/// `(as_name, count)` sorted descending.
pub fn exclusive_by_as(world: &World, panel: &Panel, origin_idx: usize) -> Vec<(String, usize)> {
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for u in exclusive_hosts(panel, origin_idx) {
        *counts.entry(world.as_index_of(panel.addrs[u])).or_default() += 1;
    }
    let mut v: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(ai, c)| (world.ases[ai as usize].name.clone(), c))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Fraction of a country's hosts that are exclusively accessible from an
/// origin *in* that country (the dark-green cells of Fig 6).
pub fn within_country_exclusive_fraction(world: &World, panel: &Panel, origin_idx: usize) -> f64 {
    let origin_cc = panel.origins[origin_idx].spec().country;
    let total_in_cc = (0..panel.len())
        .filter(|&u| world.country_of(panel.addrs[u]) == origin_cc)
        .count();
    if total_in_cc == 0 {
        return 0.0;
    }
    let excl_in_cc = exclusive_hosts(panel, origin_idx)
        .into_iter()
        .filter(|&u| world.country_of(panel.addrs[u]) == origin_cc)
        .count();
    excl_in_cc as f64 / total_in_cc as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use originscan_netmodel::{geo, OriginId, Protocol, WorldConfig};

    fn panel(world: &World) -> Panel {
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
    fn histogram_mass_bounded_by_hosts() {
        let world = WorldConfig::tiny(29).build();
        let p = panel(&world);
        let hist = miss_overlap_histogram(&p, Class::LongTerm);
        assert_eq!(hist.len(), 7);
        assert!(hist.iter().sum::<usize>() <= p.len());
    }

    #[test]
    fn censys_dominates_exclusive_inaccessible() {
        let world = WorldConfig::small(29).build();
        let p = panel(&world);
        let ex = exclusive_counts(&p);
        let cen = p
            .origins
            .iter()
            .position(|&o| o == OriginId::Censys)
            .unwrap();
        let (_, inacc_pct) = ex.percentages();
        // Table 1: Censys holds 83% of exclusively inaccessible HTTP hosts.
        assert!(
            inacc_pct[cen] > 50.0,
            "Censys share of exclusive inaccessibility: {}",
            inacc_pct[cen]
        );
    }

    #[test]
    fn us64_leads_exclusive_accessible() {
        let world = WorldConfig::small(29).build();
        let p = panel(&world);
        let ex = exclusive_counts(&p);
        let us64 = p.origins.iter().position(|&o| o == OriginId::Us64).unwrap();
        let max = *ex.exclusive_accessible.iter().max().unwrap();
        assert_eq!(
            ex.exclusive_accessible[us64], max,
            "US64 should see the most exclusive hosts: {:?}",
            ex.exclusive_accessible
        );
    }

    #[test]
    fn australia_exclusive_hosts_include_webcentral() {
        let world = WorldConfig::small(29).build();
        let p = panel(&world);
        let au = p
            .origins
            .iter()
            .position(|&o| o == OriginId::Australia)
            .unwrap();
        let by_as = exclusive_by_as(&world, &p, au);
        assert!(!by_as.is_empty());
        let top: &str = &by_as[0].0;
        assert_eq!(top, "WebCentral", "AU exclusives dominated by {top}");
        let frac = within_country_exclusive_fraction(&world, &p, au);
        assert!(frac > 0.001, "within-AU exclusive fraction {frac}");
    }

    #[test]
    fn japan_exclusive_hosts_span_bekkoame_and_gateway() {
        let world = WorldConfig::small(29).build();
        let p = panel(&world);
        let jp = p
            .origins
            .iter()
            .position(|&o| o == OriginId::Japan)
            .unwrap();
        let by_as = exclusive_by_as(&world, &p, jp);
        let names: Vec<&str> = by_as.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"Bekkoame Internet") || names.contains(&"NTT Communications"),
            "JP exclusives: {names:?}"
        );
        // Gateway Inc geolocates to the US → JP's exclusive-country list
        // should include the US (the paper's curiosity).
        let by_cc = exclusive_by_country(&world, &p, jp);
        assert!(by_cc.iter().any(|&(c, _)| c == geo::US), "{by_cc:?}");
    }

    #[test]
    fn exclusive_sets_disjoint_across_origins() {
        let world = WorldConfig::tiny(29).build();
        let p = panel(&world);
        #[expect(clippy::disallowed_types, reason = "membership check only in a test")]
        let mut seen = std::collections::HashSet::new();
        for oi in 0..p.origins.len() {
            for u in exclusive_hosts(&p, oi) {
                assert!(seen.insert(u), "host {u} exclusive to two origins");
            }
        }
    }
}
