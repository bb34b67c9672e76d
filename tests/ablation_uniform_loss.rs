//! Ablation: the 2012 i.i.d.-loss assumption vs the paper's correlated
//! reality (§7, "Multi-probe scanning").
//!
//! Under uniform random drop, a second back-to-back probe recovers almost
//! every loss (the original ZMap estimate). Under correlated loss, the
//! second probe barely helps — the basis for recommending extra *origins*
//! instead of extra probes. The `WorldConfig::uniform_loss` flag swaps the
//! loss model so both regimes can be measured with identical pipelines.

use originscan::core::both_lost_fraction;
use originscan::core::{Experiment, ExperimentConfig};
use originscan::netmodel::{OriginId, Protocol, WorldConfig};

fn run(uniform: bool) -> (f64, f64, f64) {
    let mut wc = WorldConfig::small(404);
    wc.uniform_loss = uniform;
    let world = wc.build();
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Japan],
        protocols: vec![Protocol::Http],
        trials: 1,
        ..ExperimentConfig::default()
    };
    let r = Experiment::new(&world, cfg).run().unwrap();
    let one = r
        .coverage_one_probe(Protocol::Http, 0, OriginId::Us1)
        .fraction();
    let two = r.coverage(Protocol::Http, 0, OriginId::Us1).fraction();
    let both = both_lost_fraction(r.matrix(Protocol::Http, 0), 0);
    (one, two, both)
}

#[test]
fn second_probe_only_helps_under_iid_loss() {
    let (one_c, two_c, both_c) = run(false);
    let (one_u, two_u, both_u) = run(true);

    // Correlated regime: when one probe is lost, the second almost always
    // is too, so the second probe closes little of the gap.
    assert!(both_c > 0.6, "correlated both-lost {both_c}");
    let gap_closed_c = (two_c - one_c) / (1.0 - one_c);
    // Uniform regime: single losses dominate; the second probe recovers
    // most of what the first missed.
    assert!(
        both_u < both_c,
        "uniform both-lost {both_u} vs correlated {both_c}"
    );
    let gap_closed_u = (two_u - one_u) / (1.0 - one_u);
    assert!(
        gap_closed_u > gap_closed_c,
        "2nd probe should help more under iid: {gap_closed_u} vs {gap_closed_c}"
    );
}
