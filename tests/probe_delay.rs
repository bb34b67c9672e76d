//! The §7 delayed-probe mitigation: separating the two probes in time
//! recovers hosts that correlated loss would otherwise hide.

use originscan::core::both_lost_fraction;
use originscan::core::{Experiment, ExperimentConfig};
use originscan::netmodel::{OriginId, Protocol, WorldConfig};

fn coverage_with_delay(world: &originscan::netmodel::World, delay_s: f64) -> (f64, f64) {
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Japan],
        protocols: vec![Protocol::Http],
        trials: 1,
        probes: 2,
        probe_delay_s: delay_s,
        ..ExperimentConfig::default()
    };
    let r = Experiment::new(world, cfg).run().unwrap();
    let cov = r.coverage(Protocol::Http, 0, OriginId::Us1).fraction();
    let both = both_lost_fraction(r.matrix(Protocol::Http, 0), 0);
    (cov, both)
}

#[test]
fn delayed_probes_escape_correlated_loss() {
    let world = WorldConfig::small(808).build();
    let (cov0, both0) = coverage_with_delay(&world, 0.0);
    let (cov4h, both4h) = coverage_with_delay(&world, 4.0 * 3600.0);
    // Delay improves coverage...
    assert!(
        cov4h > cov0,
        "4h-delayed probes should beat back-to-back: {cov4h} vs {cov0}"
    );
    // ...because the second probe lands in a fresh transient-state window:
    // the both-lost fraction collapses toward the i.i.d. level.
    assert!(
        both4h < both0 - 0.1,
        "delay should break probe-loss correlation: {both4h} vs {both0}"
    );
}
