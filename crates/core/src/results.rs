//! Experiment results: the trial matrices plus cross-trial panels.

use crate::experiment::{ExperimentConfig, RunStatus};
use crate::matrix::TrialMatrix;
use originscan_netmodel::{OriginId, Protocol, World};
use originscan_store::{ScanSet, ScanSetStore, StoreKey};
use originscan_telemetry::TelemetrySnapshot;

/// All data produced by one experiment.
#[derive(Debug)]
pub struct ExperimentResults<'w> {
    world: &'w World,
    cfg: ExperimentConfig,
    matrices: Vec<TrialMatrix>,
    telemetry: TelemetrySnapshot,
}

/// Coverage of one origin in one trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Ground-truth hosts the origin completed L7 with.
    pub(crate) seen: usize,
    /// Size of the trial's ground truth.
    pub(crate) ground_truth: usize,
}

impl Coverage {
    /// Seen fraction (1.0 for an empty ground truth).
    pub fn fraction(&self) -> f64 {
        if self.ground_truth == 0 {
            1.0
        } else {
            self.seen as f64 / self.ground_truth as f64
        }
    }
}

impl<'w> ExperimentResults<'w> {
    pub(crate) fn new(
        world: &'w World,
        cfg: ExperimentConfig,
        matrices: Vec<TrialMatrix>,
        telemetry: TelemetrySnapshot,
    ) -> Self {
        Self {
            world,
            cfg,
            matrices,
            telemetry,
        }
    }

    /// The world scanned.
    pub(crate) fn world(&self) -> &'w World {
        self.world
    }

    /// The configuration used.
    pub(crate) fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// The experiment's telemetry: every scan's events (keyed to
    /// simulated time) plus the full metrics registry, canonically
    /// ordered. Byte-identical across same-seed runs.
    pub fn telemetry(&self) -> &TelemetrySnapshot {
        &self.telemetry
    }

    /// All matrices, ordered by (protocol, trial).
    pub fn matrices(&self) -> &[TrialMatrix] {
        &self.matrices
    }

    /// The matrix for one (protocol, trial), if it was scanned.
    pub(crate) fn try_matrix(&self, proto: Protocol, trial: u8) -> Option<&TrialMatrix> {
        self.matrices
            .iter()
            .find(|m| m.protocol == proto && m.trial == trial)
    }

    /// The matrix for one (protocol, trial).
    ///
    /// # Panics
    /// If that (protocol, trial) was not part of the experiment; use
    /// `Self::try_matrix` when the pair is not known to exist.
    pub fn matrix(&self, proto: Protocol, trial: u8) -> &TrialMatrix {
        match self.try_matrix(proto, trial) {
            Some(m) => m,
            None => panic!("no such (protocol, trial) in this experiment"),
        }
    }

    /// Index of an origin in the roster, if it took part.
    pub(crate) fn try_origin_index(&self, origin: OriginId) -> Option<usize> {
        self.cfg.origins.iter().position(|&o| o == origin)
    }

    /// Index of an origin in the roster.
    ///
    /// # Panics
    /// If the origin was not part of the experiment; use
    /// `Self::try_origin_index` when membership is uncertain.
    pub fn origin_index(&self, origin: OriginId) -> usize {
        match self.try_origin_index(origin) {
            Some(i) => i,
            None => panic!("origin not part of this experiment"),
        }
    }

    /// Every run that was not a clean first-attempt completion, in
    /// (protocol, trial, origin) order. Empty for a fault-free experiment.
    pub fn disrupted_runs(&self) -> Vec<(Protocol, u8, OriginId, RunStatus)> {
        let mut out = Vec::new();
        for m in &self.matrices {
            for (oi, &status) in m.statuses.iter().enumerate() {
                if !status.is_clean() {
                    if let Some(&origin) = self.cfg.origins.get(oi) {
                        out.push((m.protocol, m.trial, origin, status));
                    }
                }
            }
        }
        out
    }

    /// Coverage (2-probe, i.e. as scanned) of `origin` in one trial.
    pub fn coverage(&self, proto: Protocol, trial: u8, origin: OriginId) -> Coverage {
        let m = self.matrix(proto, trial);
        Coverage {
            seen: m.seen_count(self.origin_index(origin)),
            ground_truth: m.len(),
        }
    }

    /// Coverage under the simulated single-probe scan.
    pub fn coverage_one_probe(&self, proto: Protocol, trial: u8, origin: OriginId) -> Coverage {
        let m = self.matrix(proto, trial);
        Coverage {
            seen: m.seen_count_one_probe(self.origin_index(origin)),
            ground_truth: m.len(),
        }
    }

    /// Build the cross-trial panel for one protocol.
    pub fn panel(&self, proto: Protocol) -> Panel {
        let trials: Vec<&TrialMatrix> = self
            .matrices
            .iter()
            .filter(|m| m.protocol == proto)
            .collect();
        assert!(!trials.is_empty(), "protocol not scanned");
        Panel::build(proto, &self.cfg.origins, &trials)
    }

    /// Collect every per-origin L7-success bitmap into a persistable
    /// [`ScanSetStore`], one entry per `(protocol, trial, origin)`.
    /// Entry order (and therefore the serialized bytes) is canonical and
    /// byte-identical across same-seed runs.
    pub fn scan_set_store(&self) -> ScanSetStore {
        let mut store = ScanSetStore::new();
        for m in &self.matrices {
            for (oi, set) in m.seen_sets.iter().enumerate() {
                store.insert(
                    StoreKey::new(m.protocol.name(), m.trial, oi as u16),
                    set.clone(),
                );
            }
        }
        store
    }
}

/// Cross-trial union view for one protocol: who was present when, and who
/// saw whom. This is the substrate for the §3 missing-host taxonomy.
#[derive(Debug)]
pub struct Panel {
    /// Protocol.
    pub(crate) protocol: Protocol,
    /// Origin roster (same order as the experiment).
    pub origins: Vec<OriginId>,
    /// Number of trials.
    pub(crate) trials: u8,
    /// Union of ground-truth addresses across trials, sorted.
    pub(crate) addrs: Vec<u32>,
    /// Bit `t` set ⇔ host was in trial `t`'s ground truth.
    pub(crate) present: Vec<u8>,
    /// `seen[origin][host]`: bit `t` set ⇔ origin completed L7 in trial t.
    pub(crate) seen: Vec<Vec<u8>>,
    /// `ever_seen_sets[origin]`: addresses the origin completed L7 with in
    /// at least one trial (compressed bitmap).
    pub(crate) ever_seen_sets: Vec<ScanSet>,
    /// `longterm_sets[origin]`: addresses long-term inaccessible from the
    /// origin — present in ≥ 2 trials, never seen by it
    /// (present in ≥ 2 trials ∖ `ever_seen_sets[origin]`).
    pub(crate) longterm_sets: Vec<ScanSet>,
}

impl Panel {
    fn build(protocol: Protocol, origins: &[OriginId], trials: &[&TrialMatrix]) -> Panel {
        let mut union: Vec<u32> = Vec::new();
        for m in trials {
            union.extend_from_slice(&m.addrs);
        }
        union.sort_unstable();
        union.dedup();

        // The sorted union doubles as the index (binary search): no hash
        // map, hence no iteration-order hazard anywhere in the build.
        let n = union.len();
        let mut present = vec![0u8; n];
        let mut seen = vec![vec![0u8; n]; origins.len()];
        for (t, m) in trials.iter().enumerate() {
            for (pos, &addr) in m.addrs.iter().enumerate() {
                let Ok(u) = union.binary_search(&addr) else {
                    continue; // unreachable: the union contains every addr
                };
                present[u] |= 1 << t;
                for (oi, col) in m.outcomes.iter().enumerate() {
                    if col[pos].l7_success() {
                        seen[oi][u] |= 1 << t;
                    }
                }
            }
        }

        // Bitmap views: scanning union indices ascending yields sorted
        // addresses, so each set builds in one pass.
        let collect_set = |pred: &dyn Fn(usize) -> bool| -> ScanSet {
            ScanSet::from_sorted(
                &(0..n)
                    .filter(|&u| pred(u))
                    .map(|u| union[u])
                    .collect::<Vec<u32>>(),
            )
        };
        let ever_seen_sets: Vec<ScanSet> = (0..origins.len())
            .map(|oi| collect_set(&|u| seen[oi][u] != 0))
            .collect();
        let multi_present_set = collect_set(&|u| present[u].count_ones() >= 2);
        let longterm_sets: Vec<ScanSet> = ever_seen_sets
            .iter()
            .map(|ever| multi_present_set.andnot(ever))
            .collect();
        Panel {
            protocol,
            origins: origins.to_vec(),
            trials: trials.len() as u8,
            addrs: union,
            present,
            seen,
            ever_seen_sets,
            longterm_sets,
        }
    }

    /// Number of union hosts.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Trials in which host `u` was present (bit count).
    pub(crate) fn present_trials(&self, u: usize) -> u32 {
        u32::from(self.present[u]).count_ones()
    }

    /// Trials in which `origin` saw host `u` while it was present.
    pub(crate) fn seen_trials(&self, origin_idx: usize, u: usize) -> u32 {
        u32::from(self.seen[origin_idx][u] & self.present[u]).count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use originscan_netmodel::WorldConfig;

    fn results(world: &World) -> ExperimentResults<'_> {
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Japan, OriginId::Censys],
            protocols: vec![Protocol::Http],
            trials: 3,
            ..Default::default()
        };
        Experiment::new(world, cfg).run().unwrap()
    }

    #[test]
    fn coverage_bounds() {
        let world = WorldConfig::tiny(13).build();
        let r = results(&world);
        for t in 0..3 {
            for &o in &[OriginId::Us1, OriginId::Japan, OriginId::Censys] {
                let c = r.coverage(Protocol::Http, t, o);
                assert!(c.seen <= c.ground_truth);
                assert!(c.fraction() > 0.5, "{o} trial {t}: {}", c.fraction());
                let c1 = r.coverage_one_probe(Protocol::Http, t, o);
                assert!(c1.seen <= c.seen, "1-probe can never beat 2-probe");
            }
        }
    }

    #[test]
    fn panel_consistent_with_matrices() {
        let world = WorldConfig::tiny(13).build();
        let r = results(&world);
        let p = r.panel(Protocol::Http);
        assert_eq!(p.trials, 3);
        // Every trial's GT count equals the presence bits.
        for t in 0..3u8 {
            let m = r.matrix(Protocol::Http, t);
            let present_t = (0..p.len())
                .filter(|&u| p.present[u] & (1 << t) != 0)
                .count();
            assert_eq!(present_t, m.len());
            // Seen counts match.
            for (oi, _) in p.origins.iter().enumerate() {
                let seen_t = (0..p.len())
                    .filter(|&u| p.seen[oi][u] & (1 << t) != 0)
                    .count();
                assert_eq!(seen_t, m.seen_count(oi));
            }
        }
        // seen implies present.
        for oi in 0..p.origins.len() {
            for u in 0..p.len() {
                assert_eq!(p.seen[oi][u] & !p.present[u], 0, "seen without presence");
            }
        }
    }

    #[test]
    fn union_contains_churn() {
        // With churn, the union across trials should exceed any single
        // trial's ground truth.
        let world = WorldConfig::tiny(13).build();
        let r = results(&world);
        let p = r.panel(Protocol::Http);
        let max_trial = (0..3)
            .map(|t| r.matrix(Protocol::Http, t).len())
            .max()
            .unwrap();
        assert!(
            p.len() > max_trial,
            "union {} vs max trial {max_trial}",
            p.len()
        );
    }
}
