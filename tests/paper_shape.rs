//! End-to-end integration test: the paper's headline *qualitative*
//! results must hold on the simulated Internet.
//!
//! One full experiment (7 origins × 3 protocols × 3 trials) is run once
//! and every section's claim is checked against it.

use originscan::core::classify::{class_counts, host_network_split, Class};
use originscan::core::coverage::{mcnemar_all_pairs, mean_coverage};
use originscan::core::multiorigin::{combo_sweep, single_ip_roster, ProbePolicy};
use originscan::core::ssh_miss_breakdown;
use originscan::core::{both_lost_fraction, global_drop_estimate};
use originscan::core::{exclusive_counts, miss_overlap_histogram};
use originscan::core::{Experiment, ExperimentConfig};
use originscan::netmodel::{OriginId, Protocol, WorldConfig};

fn origin_idx(results: &originscan::core::ExperimentResults<'_>, o: OriginId) -> usize {
    results.origin_index(o)
}

#[test]
fn headline_results_reproduce() {
    let world = WorldConfig::small(2020).build();
    let cfg = ExperimentConfig {
        origins: OriginId::MAIN.to_vec(),
        protocols: originscan::scanner::probe::PAPER_PROTOCOLS.to_vec(),
        trials: 3,
        probes: 2,
        ..ExperimentConfig::default()
    };
    let results = Experiment::new(&world, cfg).run().unwrap();

    // --- §3 / Fig 1: coverage ordering -------------------------------
    // Academic origins see ~97% of HTTP(S); Censys materially less; no
    // origin reaches 100%; SSH coverage trails HTTP(S) by a wide margin.
    for proto in [Protocol::Http, Protocol::Https] {
        for &o in &OriginId::MAIN {
            let c = mean_coverage(&results, proto, o);
            assert!(c < 1.0, "{o} {proto}: full coverage is impossible");
            if o != OriginId::Censys {
                assert!(c > 0.90, "{o} {proto}: coverage {c}");
            }
        }
        let cen = mean_coverage(&results, proto, OriginId::Censys);
        let academics = [OriginId::Australia, OriginId::Japan, OriginId::Us1];
        for a in academics {
            assert!(
                cen < mean_coverage(&results, proto, a),
                "{proto}: Censys {cen} should trail {a}"
            );
        }
    }
    let ssh_cov = mean_coverage(&results, Protocol::Ssh, OriginId::Japan);
    let http_cov = mean_coverage(&results, Protocol::Http, OriginId::Japan);
    assert!(
        http_cov - ssh_cov > 0.04,
        "SSH coverage ({ssh_cov}) should trail HTTP ({http_cov}) clearly"
    );

    // --- §3: all origin pairs statistically different ------------------
    let (tests, alpha) = mcnemar_all_pairs(&results, Protocol::Http, 0.001);
    let significant = tests.iter().filter(|t| t.p_value < alpha).count();
    // At full scale every pair is significant (58M paired hosts); at our
    // reduced scale a few near-identical academic pairs fall below the
    // Bonferroni bar, so require a strong majority.
    assert!(
        significant * 10 >= tests.len() * 7,
        "only {significant}/{} HTTP origin pairs significant",
        tests.len()
    );

    // --- §3 / Fig 2: taxonomy ------------------------------------------
    let panel_http = results.panel(Protocol::Http);
    let counts = class_counts(&panel_http);
    // Transient misses nearly always hit individual hosts, not /24s.
    let jp = origin_idx(&results, OriginId::Japan);
    let split = host_network_split(&world, &panel_http, jp, Class::Transient);
    assert!(split.individual_hosts > split.network_hosts * 3);

    // --- §4 / Table 1: exclusivity --------------------------------------
    let ex = exclusive_counts(&panel_http);
    let cen = origin_idx(&results, OriginId::Censys);
    let us64 = origin_idx(&results, OriginId::Us64);
    let max_inacc = *ex.exclusive_inaccessible.iter().max().unwrap();
    assert_eq!(
        ex.exclusive_inaccessible[cen], max_inacc,
        "Censys must dominate exclusive inaccessibility: {:?}",
        ex.exclusive_inaccessible
    );
    let max_acc = *ex.exclusive_accessible.iter().max().unwrap();
    assert_eq!(
        ex.exclusive_accessible[us64], max_acc,
        "US64 must dominate exclusive accessibility: {:?}",
        ex.exclusive_accessible
    );
    // Censys's long-term losses dwarf the academics'.
    for &o in &[OriginId::Australia, OriginId::Japan, OriginId::Us1] {
        let oi = origin_idx(&results, o);
        assert!(
            counts[cen].long_term > 2 * counts[oi].long_term,
            "CEN {} vs {o} {}",
            counts[cen].long_term,
            counts[oi].long_term
        );
    }
    // Fresh origins (BR, JP) lose more long-term than the US subnet.
    let br = origin_idx(&results, OriginId::Brazil);
    let us1 = origin_idx(&results, OriginId::Us1);
    assert!(
        counts[br].long_term > counts[us1].long_term,
        "BR {} vs US1 {}",
        counts[br].long_term,
        counts[us1].long_term
    );

    // --- Fig 3: about half of long-term-missing hosts are exclusive -----
    let hist = miss_overlap_histogram(&panel_http, Class::LongTerm);
    let total: usize = hist.iter().sum();
    assert!(total > 0);
    assert!(
        hist[0] * 5 > total,
        "single-origin long-term misses should be a major share: {hist:?}"
    );

    // --- §5.2: loss is correlated, not i.i.d. ---------------------------
    let m = results.matrix(Protocol::Http, 0);
    for oi in 0..7 {
        let f = both_lost_fraction(m, oi);
        assert!(f > 0.55, "origin {oi}: both-lost fraction {f}");
        let d = global_drop_estimate(m, oi);
        assert!(
            (0.0005..0.08).contains(&d),
            "origin {oi}: drop estimate {d}"
        );
    }

    // --- §6 / Fig 14: SSH mechanisms ------------------------------------
    let mssh = results.matrix(Protocol::Ssh, 1);
    let b = ssh_miss_breakdown(&world, mssh, origin_idx(&results, OriginId::Japan));
    assert!(b.probabilistic_blocking > 0, "{b:?}");
    assert!(b.temporal_blocking > 0, "{b:?}");

    // SSH missing hosts are less often exclusive to one origin than HTTP
    // (Fig 3 vs Fig 8 structure; MaxStartups hits everyone).
    let panel_ssh = results.panel(Protocol::Ssh);
    let ssh_hist = miss_overlap_histogram(&panel_ssh, Class::Transient);
    let multi: usize = ssh_hist[1..].iter().sum();
    assert!(
        multi > ssh_hist[0] / 4,
        "SSH transient misses overlap: {ssh_hist:?}"
    );

    // --- §7 / Fig 15: multi-origin scanning -----------------------------
    let roster = single_ip_roster(&results);
    let d1 = combo_sweep(&results, Protocol::Http, &roster, 1, ProbePolicy::Double);
    let d2 = combo_sweep(&results, Protocol::Http, &roster, 2, ProbePolicy::Double);
    let d3 = combo_sweep(&results, Protocol::Http, &roster, 3, ProbePolicy::Double);
    assert!(d2.summary().median > d1.summary().median);
    assert!(d3.summary().median >= d2.summary().median);
    assert!(
        d3.summary().median > 0.97,
        "3 origins: {}",
        d3.summary().median
    );
    assert!(d3.std_dev() < d1.std_dev());
    // One probe from two origins beats two probes from one origin.
    let two_1p = combo_sweep(&results, Protocol::Http, &roster, 2, ProbePolicy::Single);
    assert!(two_1p.summary().median > d1.summary().median);
}
