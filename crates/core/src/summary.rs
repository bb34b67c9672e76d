//! One-call full report: every headline analysis of the paper rendered
//! as text, for humans who want the whole picture at once.

use crate::classify::{class_counts, trial_breakdown};
use crate::coverage::{coverage_table, mcnemar_all_pairs};
use crate::exclusivity::exclusive_counts;
use crate::multiorigin::{combo_sweep, single_ip_roster, ProbePolicy};
use crate::packetloss::{both_lost_fraction, global_drop_estimate};
use crate::report::{count, pct, pct2, Table};
use crate::results::ExperimentResults;
use crate::ssh::ssh_miss_breakdown;
use crate::transient::origin_stability;
use originscan_netmodel::Protocol;
use originscan_stats::wilson95;
use std::fmt::Write as _;

/// Render the full report for an experiment's results.
///
/// Sections mirror the paper: coverage (§3), missing-host taxonomy (§3),
/// exclusivity (§4), packet loss (§5.2), origin stability (§5.1), SSH
/// behaviour (§6, when SSH was scanned), and multi-origin guidance (§7).
pub fn full_report(results: &ExperimentResults<'_>) -> String {
    let mut out = String::new();
    let cfg = results.config();
    let world = results.world();
    let _ = writeln!(
        out,
        "originscan report — {} origins, {} protocols, {} trials, world of {} addresses\n",
        cfg.origins.len(),
        cfg.protocols.len(),
        cfg.trials,
        count(world.space() as usize),
    );

    // Run health: surface any origin that did not complete cleanly so a
    // reader knows which columns rest on degraded or absent data.
    let disrupted = results.disrupted_runs();
    if disrupted.is_empty() {
        let _ = writeln!(out, "run health: all origin scans completed cleanly\n");
    } else {
        let _ = writeln!(
            out,
            "run health: {} disrupted origin scan(s):",
            disrupted.len()
        );
        for (proto, trial, origin, status) in &disrupted {
            let _ = writeln!(out, "  {proto} trial {} {origin}: {status}", trial + 1);
        }
        let _ = writeln!(out);
    }

    for &proto in &cfg.protocols {
        let _ = writeln!(out, "== {proto} ==\n");

        // Coverage with Wilson intervals on the mean row.
        let rows = coverage_table(results, proto);
        let mut t = Table::new(
            ["trial"]
                .into_iter()
                .map(String::from)
                .chain(cfg.origins.iter().map(|o| o.to_string()))
                .chain(["∪".to_string()]),
        );
        for row in &rows {
            let label = row.trial.map_or("μ".into(), |x| (x + 1).to_string());
            t.row(
                [label]
                    .into_iter()
                    .chain(row.fractions.iter().map(|&f| pct(f)))
                    .chain([count(row.union)]),
            );
        }
        let _ = writeln!(out, "coverage of ground truth (2 probes):\n{}", t.render());
        // 95% interval on the final trial's coverage for the first origin,
        // to convey sampling error at this scale.
        if let Some(row) = rows.first() {
            let n = row.union as u64;
            let seen = (row.fractions[0] * n as f64).round() as u64;
            let ci = wilson95(seen.min(n), n);
            let _ = writeln!(
                out,
                "(sampling error at this scale: {} trial-1 coverage {} with 95% CI ±{})\n",
                cfg.origins[0],
                pct(ci.estimate),
                pct2(ci.half_width()),
            );
        }

        // Taxonomy.
        let panel = results.panel(proto);
        let counts = class_counts(&panel);
        let mut t = Table::new(["origin", "transient", "long-term", "unknown", "missed t1"]);
        for (oi, o) in cfg.origins.iter().enumerate() {
            let b = trial_breakdown(&panel, oi, 0);
            t.row([
                o.to_string(),
                count(counts[oi].transient),
                count(counts[oi].long_term),
                count(counts[oi].unknown),
                count(b.total()),
            ]);
        }
        let _ = writeln!(
            out,
            "missing-host taxonomy (union across trials):\n{}",
            t.render()
        );

        // Exclusivity.
        let (acc, inacc) = exclusive_counts(&panel).percentages();
        let mut t = Table::new(
            ["share of"]
                .into_iter()
                .map(String::from)
                .chain(cfg.origins.iter().map(|o| o.to_string())),
        );
        t.row(
            ["exclusively accessible".to_string()]
                .into_iter()
                .chain(acc.iter().map(|v| format!("{v:.1}%"))),
        );
        t.row(
            ["exclusively inaccessible".to_string()]
                .into_iter()
                .chain(inacc.iter().map(|v| format!("{v:.1}%"))),
        );
        let _ = writeln!(out, "exclusivity (Table 1 style):\n{}", t.render());

        // Packet loss.
        let m = results.matrix(proto, 0);
        let mut t = Table::new(["origin", "drop estimate (t1)", "both-lost share"]);
        for (oi, o) in cfg.origins.iter().enumerate() {
            t.row([
                o.to_string(),
                pct2(global_drop_estimate(m, oi)),
                pct(both_lost_fraction(m, oi)),
            ]);
        }
        let _ = writeln!(out, "packet-loss estimator (§5.2):\n{}", t.render());

        // Stability.
        if cfg.trials >= 2 {
            let st = origin_stability(world, &panel, 10);
            let _ = writeln!(
                out,
                "origin stability over {} ASes: consistent best {}, consistent worst {}, best-flips-to-worst {}\n",
                st.ases, st.consistent_best, st.consistent_worst, st.best_flips_to_worst
            );
        }

        // Significance.
        let (tests, alpha) = mcnemar_all_pairs(results, proto, 0.001);
        let sig = tests.iter().filter(|t| t.result.p_value < alpha).count();
        let _ = writeln!(
            out,
            "McNemar: {sig}/{} origin-pair comparisons significant at corrected α = {alpha:.2e}\n",
            tests.len()
        );

        // SSH mechanisms.
        if proto == Protocol::Ssh {
            let b = ssh_miss_breakdown(world, m, 0);
            let _ = writeln!(
                out,
                "SSH miss causes ({} trial 1): Alibaba temporal {}, probabilistic {}, other {}\n",
                cfg.origins[0],
                count(b.temporal_blocking),
                count(b.probabilistic_blocking),
                count(b.other)
            );
        }

        // Multi-origin guidance.
        let roster = single_ip_roster(results);
        if roster.len() >= 3 {
            let d1 = combo_sweep(results, proto, &roster, 1, ProbePolicy::Double);
            let d3 = combo_sweep(results, proto, &roster, 3, ProbePolicy::Double);
            let _ = writeln!(
                out,
                "multi-origin: median 1-origin coverage {} → 3-origin {} (σ {} → {}); best triad {}\n",
                pct(d1.summary().median),
                pct(d3.summary().median),
                pct2(d1.std_dev()),
                pct2(d3.std_dev()),
                d3.best.0.iter().map(|o| o.to_string()).collect::<Vec<_>>().join("-"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use originscan_netmodel::{OriginId, WorldConfig};

    #[test]
    fn report_renders_all_sections() {
        let world = WorldConfig::tiny(3).build();
        let cfg = ExperimentConfig {
            origins: vec![
                OriginId::Australia,
                OriginId::Japan,
                OriginId::Us1,
                OriginId::Censys,
            ],
            protocols: vec![Protocol::Http, Protocol::Ssh],
            trials: 2,
            ..Default::default()
        };
        let results = Experiment::new(&world, cfg).run().unwrap();
        let report = full_report(&results);
        for needle in [
            "== HTTP ==",
            "== SSH ==",
            "coverage of ground truth",
            "missing-host taxonomy",
            "exclusivity",
            "packet-loss estimator",
            "origin stability",
            "McNemar",
            "SSH miss causes",
            "multi-origin",
            "95% CI",
            "run health: all origin scans completed cleanly",
        ] {
            assert!(
                report.contains(needle),
                "missing section {needle:?}\n{report}"
            );
        }
    }

    #[test]
    fn report_flags_disrupted_runs() {
        use originscan_netmodel::FaultPlan;
        let world = WorldConfig::tiny(3).build();
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Japan],
            protocols: vec![Protocol::Http],
            trials: 1,
            faults: Some(FaultPlan::new(4).outage(1, 0, 0.2, 0.5)),
            ..Default::default()
        };
        let results = Experiment::new(&world, cfg).run().unwrap();
        let report = full_report(&results);
        assert!(
            report.contains("run health: 1 disrupted origin scan(s):"),
            "{report}"
        );
        assert!(report.contains("degraded (vantage outage)"), "{report}");
    }
}
