//! First-class scan diffing.
//!
//! The paper's method reduces to comparing scans: same trial across
//! origins (origin bias), same origin across trials (churn + transients).
//! This module diffs two scan-record sets under the paper's ground-truth
//! rule (the universe is the union of L7-completed hosts), runs McNemar's
//! test on the paired outcomes, and — when a [`World`] is available —
//! attributes each side's exclusive hosts to ASes.

use originscan_netmodel::World;
use originscan_scanner::engine::HostScanRecord;
use originscan_stats::mcnemar::{mcnemar_test, McNemarResult, PairedCounts};
use originscan_store::ScanSet;
use std::collections::BTreeMap;

/// Result of diffing two scans.
#[derive(Debug, Clone)]
pub struct ScanDiff {
    /// Hosts completing L7 in both scans.
    pub(crate) both: usize,
    /// Hosts only the first scan completed.
    pub only_a: Vec<u32>,
    /// Hosts only the second scan completed.
    pub only_b: Vec<u32>,
    /// McNemar's test over the paired outcomes.
    pub(crate) mcnemar: McNemarResult,
}

impl ScanDiff {
    /// Size of the shared universe (union of successes).
    pub(crate) fn universe(&self) -> usize {
        self.both + self.only_a.len() + self.only_b.len()
    }

    /// Coverage of the universe by side A (resp. B).
    pub(crate) fn coverage(&self) -> (f64, f64) {
        let n = self.universe().max(1) as f64;
        (
            (self.both + self.only_a.len()) as f64 / n,
            (self.both + self.only_b.len()) as f64 / n,
        )
    }
}

/// Diff two scans by their L7-successful host sets, using the compressed
/// bitmap kernels: `both` is an intersection popcount, the exclusive
/// lists come from ANDNOT (yielded in ascending address order, exactly as
/// the old sorted-set walk produced them).
pub fn diff_records(a: &[HostScanRecord], b: &[HostScanRecord]) -> ScanDiff {
    let sa: ScanSet = a
        .iter()
        .filter(|r| r.l7_success())
        .map(|r| r.addr)
        .collect();
    let sb: ScanSet = b
        .iter()
        .filter(|r| r.l7_success())
        .map(|r| r.addr)
        .collect();
    let both = sa.intersection_cardinality(&sb);
    let only_a = sa.andnot(&sb).to_vec();
    let only_b = sb.andnot(&sa).to_vec();
    // The universe here is the union itself, so `neither` is always 0 —
    // matching the old walk, which only visited union members.
    let counts = PairedCounts {
        both,
        only_a: only_a.len() as u64,
        only_b: only_b.len() as u64,
        neither: 0,
    };
    ScanDiff {
        both: both as usize,
        only_a,
        only_b,
        mcnemar: mcnemar_test(&counts),
    }
}

/// Attribute a host list to ASes: `(as_name, count)`, descending.
pub(crate) fn by_as(world: &World, hosts: &[u32]) -> Vec<(String, usize)> {
    let mut m: BTreeMap<u32, usize> = BTreeMap::new();
    for &h in hosts {
        *m.entry(world.as_index_of(h)).or_default() += 1;
    }
    let mut v: Vec<(String, usize)> = m
        .into_iter()
        .map(|(ai, c)| (world.ases[ai as usize].name.clone(), c))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v
}

/// Render a human-readable diff report.
pub fn render_diff(diff: &ScanDiff, label_a: &str, label_b: &str, world: Option<&World>) -> String {
    use crate::report::{count, pct, Table};
    use std::fmt::Write as _;
    let mut out = String::new();
    let (ca, cb) = diff.coverage();
    let _ = writeln!(
        out,
        "universe {} hosts | {label_a}: {} ({}) | {label_b}: {} ({}) | shared {}",
        count(diff.universe()),
        count(diff.both + diff.only_a.len()),
        pct(ca),
        count(diff.both + diff.only_b.len()),
        pct(cb),
        count(diff.both),
    );
    let _ = writeln!(
        out,
        "McNemar: χ² = {:.2}, p = {:.3e} over {} discordant hosts{}",
        diff.mcnemar.statistic,
        diff.mcnemar.p_value,
        count(diff.mcnemar.discordant as usize),
        if diff.mcnemar.p_value < 0.001 {
            " — significantly different views"
        } else {
            ""
        },
    );
    if let Some(world) = world {
        for (label, hosts) in [(label_a, &diff.only_a), (label_b, &diff.only_b)] {
            if hosts.is_empty() {
                continue;
            }
            let mut t = Table::new(["AS", "hosts"]);
            for (name, c) in by_as(world, hosts).into_iter().take(8) {
                t.row([name, c.to_string()]);
            }
            let _ = writeln!(out, "\nhosts only {label} reached, by AS:\n{}", t.render());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_netmodel::{OriginId, Protocol, SimNet, WorldConfig};
    use originscan_scanner::engine::{run_scan, ScanConfig};
    use originscan_scanner::zgrab::{L7Detail, L7Outcome};

    fn rec(addr: u32, ok: bool) -> HostScanRecord {
        HostScanRecord {
            addr,
            synack_mask: 0b11,
            got_rst: false,
            response_time_s: 0.0,
            l7: if ok {
                L7Outcome::Success(L7Detail::Http { code: 200 })
            } else {
                L7Outcome::Timeout
            },
            l7_attempts: 1,
        }
    }

    #[test]
    fn basic_partition() {
        let a = vec![rec(1, true), rec(2, true), rec(3, false), rec(4, true)];
        let b = vec![rec(2, true), rec(3, true), rec(5, true)];
        let d = diff_records(&a, &b);
        assert_eq!(d.both, 1); // addr 2
        assert_eq!(d.only_a, vec![1, 4]);
        assert_eq!(d.only_b, vec![3, 5]);
        assert_eq!(d.universe(), 5);
        let (ca, cb) = d.coverage();
        assert!((ca - 0.6).abs() < 1e-12);
        assert!((cb - 0.6).abs() < 1e-12);
    }

    #[test]
    fn identical_scans_not_significant() {
        let a = vec![rec(1, true), rec(2, true)];
        let d = diff_records(&a, &a.clone());
        assert_eq!(d.mcnemar.p_value, 1.0);
        assert!(d.only_a.is_empty() && d.only_b.is_empty());
    }

    #[test]
    fn two_origin_diff_finds_censys_blocking() {
        let world = WorldConfig::tiny(31).build();
        let origins = [OriginId::Japan, OriginId::Censys];
        let net = SimNet::new(&world, &origins, 75_600.0);
        let scan = |idx: u16| {
            let mut cfg = ScanConfig::new(world.space(), Protocol::Http, 9);
            cfg.origin = idx;
            cfg.concurrent_origins = 2;
            run_scan(&net, &cfg).unwrap()
        };
        let jp = scan(0);
        let cen = scan(1);
        let d = diff_records(&jp.records, &cen.records);
        // Japan sees clearly more than Censys; the diff is significant.
        assert!(
            d.only_a.len() * 2 > d.only_b.len() * 3,
            "{} vs {}",
            d.only_a.len(),
            d.only_b.len()
        );
        assert!(d.mcnemar.p_value < 0.001);
        // AS attribution names a known Censys blocker among the top rows.
        let top: Vec<String> = by_as(&world, &d.only_a)
            .into_iter()
            .take(6)
            .map(|(n, _)| n)
            .collect();
        assert!(
            top.iter()
                .any(|n| n.contains("DXTL") || n.contains("Enzu") || n == "EGI Hosting"),
            "top ASes: {top:?}"
        );
        // Rendering mentions both the universe and the attribution.
        let text = render_diff(&d, "JP", "CEN", Some(&world));
        assert!(text.contains("universe"));
        assert!(text.contains("only JP reached"));
    }
}
