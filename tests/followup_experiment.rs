//! The §7 follow-up experiment (Appendix A Table 4b, Fig 18): fresh
//! Censys ranges recover coverage, and a collocated Tier-1 triad is the
//! worst triad.

use originscan::core::coverage::mean_coverage;
use originscan::core::multiorigin::{named_combo_coverage, single_ip_roster, ProbePolicy};
use originscan::core::{Experiment, ExperimentConfig};
use originscan::netmodel::{OriginId, Protocol, WorldConfig};
use originscan::stats::k_subsets;

#[test]
fn follow_up_reproduces_fig18_and_censys_recovery() {
    let world = WorldConfig::small(777).build();

    // Main-run Censys for the before/after comparison. Ground truth is
    // only meaningful with multiple origins, so Censys is measured in a
    // multi-origin context.
    let main_cfg = ExperimentConfig {
        origins: vec![OriginId::Japan, OriginId::Us1, OriginId::Censys],
        protocols: vec![Protocol::Http],
        trials: 2,
        ..ExperimentConfig::default()
    };
    let main = Experiment::new(&world, main_cfg).run().unwrap();

    let follow = Experiment::new(&world, ExperimentConfig::follow_up(0xF011))
        .run()
        .unwrap();

    // Censys with fresh ranges sees clearly more than old Censys
    // (paper: > 5.5 percentage points more HTTP coverage).
    let fresh = mean_coverage(&follow, Protocol::Http, OriginId::CensysFresh);
    let old = mean_coverage(&main, Protocol::Http, OriginId::Censys);
    assert!(
        fresh - old > 0.02,
        "fresh ranges should recover coverage: old {old}, fresh {fresh}"
    );

    // Every origin in the follow-up is a credible scanner.
    for &o in &OriginId::FOLLOW_UP {
        let c = mean_coverage(&follow, Protocol::Http, o);
        assert!(c > 0.9, "{o}: {c}");
    }

    // Fig 18: the collocated HE-NTT-TELIA triad is the worst triad (or
    // within noise of it) among all 3-subsets of the single-IP roster.
    let roster = single_ip_roster(&follow);
    let collocated = [
        OriginId::HurricaneElectric,
        OriginId::NttTransit,
        OriginId::Telia,
    ];
    let colo_cov = named_combo_coverage(&follow, Protocol::Http, &collocated, ProbePolicy::Single);
    let mut covs: Vec<(Vec<OriginId>, f64)> = Vec::new();
    for subset in k_subsets(roster.len(), 3) {
        let triad: Vec<OriginId> = subset.iter().map(|&i| roster[i]).collect();
        let c = named_combo_coverage(&follow, Protocol::Http, &triad, ProbePolicy::Single);
        covs.push((triad, c));
    }
    covs.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    // The collocated triad must rank in the bottom quartile of triads.
    let rank = covs
        .iter()
        .position(|(t, _)| {
            t.contains(&collocated[0]) && t.contains(&collocated[1]) && t.contains(&collocated[2])
        })
        .expect("collocated triad present");
    assert!(
        rank * 4 <= covs.len(),
        "collocated triad ranked {rank} of {} (cov {colo_cov:.4}, worst {:.4}, best {:.4})",
        covs.len(),
        covs[0].1,
        covs[covs.len() - 1].1
    );
    // ... yet still provides high absolute coverage with low spread across
    // triads (σ = 0.1% in the paper; we just bound the range).
    let spread = covs[covs.len() - 1].1 - covs[0].1;
    assert!(colo_cov > 0.93, "collocated triad coverage {colo_cov}");
    assert!(spread < 0.05, "triad coverage spread {spread}");
}
