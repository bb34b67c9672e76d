//! The per-trial ground-truth matrix.
//!
//! §2 "Limitations": *ground truth* for a trial is the set of hosts that
//! completed an application-layer handshake with **any** origin in that
//! trial. [`TrialMatrix`] stores that host list (sorted), each host's scan
//! hour (the same for every origin, because the scanners share a seed),
//! and the packed outcome of every origin's attempt.

use crate::experiment::{OriginRun, RunStatus};
use crate::outcome::HostOutcome;
use originscan_netmodel::{OriginId, Protocol, World};
use originscan_store::ScanSet;

/// Hour grid of the paper's burst analysis (21-hour trials).
pub(crate) const SCAN_HOURS: u8 = 21;

/// Condensed results of one (protocol, trial) across all origins.
#[derive(Debug, Clone)]
pub struct TrialMatrix {
    /// Protocol scanned.
    pub protocol: Protocol,
    /// Trial index (0-based).
    pub trial: u8,
    /// Ground-truth addresses, sorted ascending.
    pub addrs: Vec<u32>,
    /// Scan hour (0..21) of each ground-truth host.
    pub hour: Vec<u8>,
    /// `outcomes[origin][host_idx]`, aligned with the experiment's origin
    /// roster and `addrs`.
    pub outcomes: Vec<Vec<HostOutcome>>,
    /// Per-origin supervised run status, aligned with the roster. Failed
    /// origins contribute nothing to ground truth and read all-MISSED.
    pub statuses: Vec<RunStatus>,
    /// Ground truth as a compressed bitmap (same members as `addrs`).
    pub(crate) gt_set: ScanSet,
    /// Per-origin L7-success sets, aligned with the roster.
    pub seen_sets: Vec<ScanSet>,
    /// Per-origin single-probe success sets, aligned with the roster.
    pub(crate) one_probe_sets: Vec<ScanSet>,
}

impl TrialMatrix {
    /// Condense supervised runs into a matrix, tolerating partial origin
    /// sets: a run without output (terminal failure) is excluded from the
    /// ground-truth union and its outcome row stays all-MISSED.
    pub(crate) fn build_supervised(
        _world: &World,
        protocol: Protocol,
        trial: u8,
        origins: &[OriginId],
        runs: &[OriginRun],
        duration_s: f64,
    ) -> TrialMatrix {
        debug_assert_eq!(origins.len(), runs.len());
        // `zip` below keeps indices aligned even if the caller hands us a
        // short run list, so a length mismatch cannot mis-attribute rows.
        let n = origins.len().min(runs.len());
        let statuses: Vec<RunStatus> = runs
            .iter()
            .map(|r| r.status)
            .chain(std::iter::repeat(RunStatus::Completed))
            .take(origins.len())
            .collect();
        // Ground truth: union of L7-successful addresses of surviving runs.
        let mut gt: Vec<u32> = Vec::new();
        for run in runs.iter().take(n) {
            if let Some(out) = &run.output {
                gt.extend(
                    out.records
                        .iter()
                        .filter(|r| r.l7_success())
                        .map(|r| r.addr),
                );
            }
        }
        gt.sort_unstable();
        gt.dedup();
        let gt_set = ScanSet::from_sorted(&gt);

        // Scan hour per host: identical across origins (shared seed), so
        // take it from whichever origin recorded a response first. The
        // sorted ground-truth list doubles as the index (binary search),
        // so no hash map — and no iteration-order hazard — is involved.
        let mut hour = vec![u8::MAX; gt.len()];
        let mut outcomes = vec![vec![HostOutcome::MISSED; gt.len()]; origins.len()];
        for (oi, run) in runs.iter().enumerate().take(n) {
            let Some(out) = &run.output else { continue };
            for r in &out.records {
                if let Ok(i) = gt.binary_search(&r.addr) {
                    outcomes[oi][i] = HostOutcome::from_record(r);
                    if hour[i] == u8::MAX {
                        let h = (r.response_time_s / duration_s * f64::from(SCAN_HOURS))
                            .floor()
                            .min(f64::from(SCAN_HOURS - 1)) as u8;
                        hour[i] = h;
                    }
                }
            }
        }
        // Hosts only reached by origins whose record lacked a timestamped
        // response never happen (being in GT means someone succeeded), but
        // guard anyway.
        for h in &mut hour {
            if *h == u8::MAX {
                *h = 0;
            }
        }
        // Per-origin success sets: built in ascending host-index order, so
        // the addresses arrive pre-sorted and the bitmaps build in one pass.
        let seen_sets: Vec<ScanSet> = outcomes
            .iter()
            .map(|row| {
                ScanSet::from_sorted(
                    &row.iter()
                        .enumerate()
                        .filter(|(_, o)| o.l7_success())
                        .map(|(i, _)| gt[i])
                        .collect::<Vec<u32>>(),
                )
            })
            .collect();
        let one_probe_sets: Vec<ScanSet> = outcomes
            .iter()
            .map(|row| {
                ScanSet::from_sorted(
                    &row.iter()
                        .enumerate()
                        .filter(|(_, o)| o.one_probe_success())
                        .map(|(i, _)| gt[i])
                        .collect::<Vec<u32>>(),
                )
            })
            .collect();
        TrialMatrix {
            protocol,
            trial,
            addrs: gt,
            hour,
            outcomes,
            statuses,
            gt_set,
            seen_sets,
            one_probe_sets,
        }
    }

    /// True when every origin in this trial completed cleanly.
    pub fn all_clean(&self) -> bool {
        self.statuses.iter().all(RunStatus::is_clean)
    }

    /// Number of ground-truth hosts.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when the trial saw no hosts at all.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Index of `addr` in the ground-truth list, answered by the bitmap's
    /// rank kernel (`rank(addr) - 1` when the address is a member).
    pub fn index_of(&self, addr: u32) -> Option<usize> {
        if self.gt_set.contains(addr) {
            Some((self.gt_set.rank(addr) - 1) as usize)
        } else {
            None
        }
    }

    /// Hosts an origin completed the L7 handshake with (bitmap popcount).
    pub fn seen_count(&self, origin_idx: usize) -> usize {
        self.seen_sets[origin_idx].cardinality() as usize
    }

    /// Hosts an origin would have seen with a single-probe scan.
    pub(crate) fn seen_count_one_probe(&self, origin_idx: usize) -> usize {
        self.one_probe_sets[origin_idx].cardinality() as usize
    }

    /// Iterate `(host_idx, addr, outcome)` for one origin.
    pub fn iter_origin(
        &self,
        origin_idx: usize,
    ) -> impl Iterator<Item = (usize, u32, HostOutcome)> + '_ {
        self.outcomes[origin_idx]
            .iter()
            .enumerate()
            .map(move |(i, &o)| (i, self.addrs[i], o))
    }
}

#[cfg(test)]
impl TrialMatrix {
    /// Condense raw scan outputs into a matrix (every origin completed).
    pub(crate) fn build(
        world: &World,
        protocol: Protocol,
        trial: u8,
        origins: &[OriginId],
        outputs: &[originscan_scanner::engine::ScanOutput],
        duration_s: f64,
    ) -> TrialMatrix {
        let runs: Vec<OriginRun> = outputs
            .iter()
            .map(|out| OriginRun {
                status: RunStatus::Completed,
                attempts: 1,
                sim_backoff_s: 0.0,
                output: Some(out.clone()),
            })
            .collect();
        Self::build_supervised(world, protocol, trial, origins, &runs, duration_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_netmodel::WorldConfig;
    use originscan_scanner::engine::{HostScanRecord, ScanOutput, ScanSummary};
    use originscan_scanner::zgrab::{L7Detail, L7Outcome};

    fn rec(addr: u32, mask: u8, ok: bool, t: f64) -> HostScanRecord {
        HostScanRecord {
            addr,
            synack_mask: mask,
            got_rst: false,
            response_time_s: t,
            l7: if ok {
                L7Outcome::Success(L7Detail::Http { code: 200 })
            } else {
                L7Outcome::Timeout
            },
            l7_attempts: 1,
        }
    }

    fn output(records: Vec<HostScanRecord>) -> ScanOutput {
        ScanOutput {
            records,
            summary: ScanSummary::default(),
        }
    }

    #[test]
    fn ground_truth_is_union_of_l7_successes() {
        let world = WorldConfig::tiny(1).build();
        let o1 = output(vec![
            rec(10, 0b11, true, 100.0),
            rec(20, 0b01, false, 200.0),
        ]);
        let o2 = output(vec![rec(20, 0b11, true, 210.0), rec(30, 0b11, true, 300.0)]);
        let m = TrialMatrix::build(
            &world,
            Protocol::Http,
            0,
            &[OriginId::Us1, OriginId::Japan],
            &[o1, o2],
            75_600.0,
        );
        assert_eq!(m.addrs, vec![10, 20, 30]);
        // Origin 0 saw 10; L4-responded to 20 but failed L7; missed 30.
        assert_eq!(m.seen_count(0), 1);
        assert_eq!(m.seen_count(1), 2);
        let o0_20 = m.outcomes[0][m.index_of(20).unwrap()];
        assert!(o0_20.l4_responsive() && !o0_20.l7_success());
        let o0_30 = m.outcomes[0][m.index_of(30).unwrap()];
        assert_eq!(o0_30, HostOutcome::MISSED);
    }

    #[test]
    fn hours_derived_from_response_time() {
        let world = WorldConfig::tiny(1).build();
        let dur = 75_600.0;
        let o1 = output(vec![
            rec(5, 0b11, true, 0.0),
            rec(6, 0b11, true, dur * 0.5),
            rec(7, 0b11, true, dur * 0.999),
        ]);
        let m = TrialMatrix::build(&world, Protocol::Http, 0, &[OriginId::Us1], &[o1], dur);
        assert_eq!(m.hour, vec![0, 10, 20]);
    }

    #[test]
    fn failed_origin_excluded_from_ground_truth() {
        use crate::experiment::FailCause;
        let world = WorldConfig::tiny(1).build();
        let ok = OriginRun {
            status: RunStatus::Completed,
            attempts: 1,
            sim_backoff_s: 0.0,
            output: Some(output(vec![rec(10, 0b11, true, 100.0)])),
        };
        let dead = OriginRun {
            status: RunStatus::Failed {
                cause: FailCause::Killed,
            },
            attempts: 3,
            sim_backoff_s: 180.0,
            output: None,
        };
        let m = TrialMatrix::build_supervised(
            &world,
            Protocol::Http,
            0,
            &[OriginId::Us1, OriginId::Japan],
            &[ok, dead],
            75_600.0,
        );
        assert_eq!(m.addrs, vec![10]);
        assert_eq!(m.seen_count(0), 1);
        assert_eq!(m.seen_count(1), 0, "failed origin reads all-MISSED");
        assert!(!m.all_clean());
        assert!(m.statuses[0].is_clean());
    }

    #[test]
    fn empty_outputs_empty_matrix() {
        let world = WorldConfig::tiny(1).build();
        let m = TrialMatrix::build(
            &world,
            Protocol::Ssh,
            1,
            &[OriginId::Us1],
            &[output(vec![])],
            75_600.0,
        );
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
