//! The §3 missing-host taxonomy: transient vs long-term vs unknown, and
//! host-level vs network-level.
//!
//! * **Transiently inaccessible** (origin, host): the host was missed by
//!   the origin in some trial while another origin reached it, *and* the
//!   origin reached it in a different trial.
//! * **Long-term inaccessible**: missed by the origin in every trial the
//!   host appeared in (≥ 2 trials).
//! * **Unknown**: the host appeared in only one trial, so a miss cannot
//!   be distinguished from churn.
//!
//! The network split aggregates by /24: a /24 with ≥ 2 ground-truth hosts
//! whose hosts behave *consistently* for an origin counts as a single
//! network-level unit; anything else is host-level.

use crate::results::Panel;
use originscan_netmodel::World;
use std::collections::BTreeMap;

/// Per-(origin, host) accessibility class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Seen in every trial the host was present.
    Accessible,
    /// Missed somewhere, seen somewhere else.
    Transient,
    /// Never seen although present in ≥ 2 trials.
    LongTerm,
    /// Present in only one trial and missed there.
    Unknown,
}

/// Classify one (origin, union-host) pair.
pub(crate) fn classify(panel: &Panel, origin_idx: usize, u: usize) -> Class {
    let present = panel.present_trials(u);
    let seen = panel.seen_trials(origin_idx, u);
    debug_assert!(present > 0);
    if seen == present {
        Class::Accessible
    } else if present == 1 {
        Class::Unknown
    } else if seen == 0 {
        Class::LongTerm
    } else {
        Class::Transient
    }
}

/// Aggregate classification counts for one origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Fully accessible hosts.
    pub(crate) accessible: usize,
    /// Transiently missed hosts.
    pub transient: usize,
    /// Long-term inaccessible hosts.
    pub long_term: usize,
    /// Unknown (single-trial) missed hosts.
    pub unknown: usize,
}

#[cfg(test)]
impl ClassCounts {
    /// Total union hosts.
    pub(crate) fn total(&self) -> usize {
        self.accessible + self.transient + self.long_term + self.unknown
    }
}

/// Count classes for every origin.
pub fn class_counts(panel: &Panel) -> Vec<ClassCounts> {
    let mut out = vec![ClassCounts::default(); panel.origins.len()];
    for (oi, counts) in out.iter_mut().enumerate() {
        for u in 0..panel.len() {
            match classify(panel, oi, u) {
                Class::Accessible => counts.accessible += 1,
                Class::Transient => counts.transient += 1,
                Class::LongTerm => counts.long_term += 1,
                Class::Unknown => counts.unknown += 1,
            }
        }
    }
    out
}

/// The host/network breakdown of missing hosts (Fig 2's bar segments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostNetworkSplit {
    /// Missing hosts living in /24s that miss *consistently* (network
    /// units with ≥ 2 ground-truth hosts, all same class).
    pub network_hosts: usize,
    /// Missing hosts attributable to individual-host behaviour.
    pub individual_hosts: usize,
}

/// Split one origin's hosts of class `class` into network- vs host-level.
pub fn host_network_split(
    world: &World,
    panel: &Panel,
    origin_idx: usize,
    class: Class,
) -> HostNetworkSplit {
    // Group union hosts by /24.
    let mut by_s24: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for u in 0..panel.len() {
        by_s24
            .entry(world.s24_of(panel.addrs[u]))
            .or_default()
            .push(u);
    }
    let mut split = HostNetworkSplit::default();
    for (_, hosts) in by_s24 {
        let classes: Vec<Class> = hosts
            .iter()
            .map(|&u| classify(panel, origin_idx, u))
            .collect();
        let matching = classes.iter().filter(|&&c| c == class).count();
        if matching == 0 {
            continue;
        }
        let consistent = hosts.len() >= 2 && classes.iter().all(|&c| c == classes[0]);
        if consistent {
            split.network_hosts += matching;
        } else {
            split.individual_hosts += matching;
        }
    }
    split
}

/// Per-trial missing-host breakdown (one bar of Fig 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialBreakdown {
    /// Hosts missed in this trial that are transient overall.
    pub transient: usize,
    /// Hosts missed in this trial that are long-term inaccessible.
    pub long_term: usize,
    /// Hosts missed in this trial that are unknown.
    pub unknown: usize,
}

impl TrialBreakdown {
    /// All hosts this origin missed in the trial.
    pub fn total(&self) -> usize {
        self.transient + self.long_term + self.unknown
    }
}

/// Breakdown of the hosts `origin` missed in `trial` (present in that
/// trial's ground truth but not seen by the origin).
pub fn trial_breakdown(panel: &Panel, origin_idx: usize, trial: u8) -> TrialBreakdown {
    let bit = 1u8 << trial;
    let mut out = TrialBreakdown::default();
    for u in 0..panel.len() {
        if panel.present[u] & bit == 0 || panel.seen[origin_idx][u] & bit != 0 {
            continue;
        }
        match classify(panel, origin_idx, u) {
            Class::Accessible => unreachable!("missed in a trial yet fully accessible"),
            Class::Transient => out.transient += 1,
            Class::LongTerm => out.long_term += 1,
            Class::Unknown => out.unknown += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use originscan_netmodel::{OriginId, Protocol, WorldConfig};

    fn make_panel(world: &World) -> Panel {
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Australia, OriginId::Us1, OriginId::Censys],
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
    fn classes_partition_hosts() {
        let world = WorldConfig::tiny(17).build();
        let panel = make_panel(&world);
        let counts = class_counts(&panel);
        for c in &counts {
            assert_eq!(c.total(), panel.len());
        }
        // Every class occurs somewhere in a 3-origin tiny world.
        let any_transient = counts.iter().any(|c| c.transient > 0);
        let any_longterm = counts.iter().any(|c| c.long_term > 0);
        let any_unknown = counts.iter().any(|c| c.unknown > 0);
        assert!(any_transient && any_longterm && any_unknown);
    }

    #[test]
    fn censys_has_more_longterm_than_us() {
        let world = WorldConfig::small(17).build();
        let panel = make_panel(&world);
        let counts = class_counts(&panel);
        // roster order: AU, US1, CEN
        assert!(
            counts[2].long_term > counts[1].long_term * 2,
            "CEN {} vs US1 {}",
            counts[2].long_term,
            counts[1].long_term
        );
    }

    #[test]
    fn trial_breakdowns_consistent_with_class_counts() {
        let world = WorldConfig::tiny(17).build();
        let panel = make_panel(&world);
        for oi in 0..3 {
            for t in 0..3u8 {
                let b = trial_breakdown(&panel, oi, t);
                // Long-term hosts present in trial t are missed there by
                // definition; breakdown totals never exceed union size.
                assert!(b.total() <= panel.len());
            }
            // A long-term host is missed in every trial it is present, so
            // summing long_term across trials ≥ the class count.
            let per_trial: usize = (0..3u8)
                .map(|t| trial_breakdown(&panel, oi, t).long_term)
                .sum();
            let classes = class_counts(&panel);
            assert!(per_trial >= classes[oi].long_term);
        }
    }

    #[test]
    fn split_totals_match_class_counts() {
        let world = WorldConfig::tiny(17).build();
        let panel = make_panel(&world);
        let counts = class_counts(&panel);
        for (oi, c) in counts.iter().enumerate() {
            let s = host_network_split(&world, &panel, oi, Class::Transient);
            assert_eq!(s.network_hosts + s.individual_hosts, c.transient);
        }
    }

    #[test]
    fn transient_mostly_individual_hosts() {
        // §3: 49.7% of missing hosts are transient individual hosts vs
        // 1.9% transient networks — transient loss hits hosts, not /24s.
        let world = WorldConfig::small(17).build();
        let panel = make_panel(&world);
        let s = host_network_split(&world, &panel, 0, Class::Transient);
        assert!(
            s.individual_hosts > s.network_hosts * 5,
            "individual {} vs network {}",
            s.individual_hosts,
            s.network_hosts
        );
    }
}
