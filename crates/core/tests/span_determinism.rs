//! What an experiment's span trace holds.
//!
//! Library code times spans on the simulated clock, so the span JSONL is
//! part of the same-seed byte contract; its bytes are rows of the root
//! `pipeline_golden` test. These tests pin what the trace covers and how
//! it nests. (Serve's wall-clock request traces never reach a hub;
//! `crates/serve` pins their *structure* only.)

use originscan_core::experiment::{Experiment, ExperimentConfig};
use originscan_netmodel::{OriginId, Protocol, WorldConfig};

fn run_spans() -> String {
    let world = WorldConfig::tiny(7).build();
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Germany],
        protocols: vec![Protocol::Http],
        trials: 2,
        ..Default::default()
    };
    let results = Experiment::new(&world, cfg).run().expect("experiment");
    results.telemetry().spans_jsonl()
}

#[test]
fn spans_cover_supervisor_and_scan_phases() {
    let jsonl = run_spans();
    for name in [
        "\"name\":\"supervise\"",
        "\"name\":\"attempt\"",
        "\"name\":\"scan\"",
        "\"name\":\"probe\"",
        "\"name\":\"permute\"",
    ] {
        assert!(jsonl.contains(name), "missing span {name} in:\n{jsonl}");
    }
    // Every hub-recorded span is sim-clocked; wall clocks are confined
    // to the serve trace ring and never appear here.
    for line in jsonl.lines() {
        assert!(
            line.contains("\"clock\":\"sim\""),
            "non-sim span reached the hub: {line}"
        );
    }
}

#[test]
fn experiment_profile_nests_probe_under_scan() {
    let world = WorldConfig::tiny(7).build();
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Us1],
        protocols: vec![Protocol::Http],
        trials: 1,
        ..Default::default()
    };
    let results = Experiment::new(&world, cfg).run().expect("experiment");
    let profile = results.telemetry().profile();
    let scan = profile.node("scan").expect("scan node");
    let probe = profile.node("scan/probe").expect("probe under scan");
    assert!(scan.total_s > 0.0);
    assert!(probe.total_s <= scan.total_s * (1.0 + 1e-9));
    // The probe loop dominates a clean scan: the flame tree should
    // attribute nearly all scan time to it.
    assert!(
        probe.total_s >= scan.total_s * 0.5,
        "probe {probe:?} vs scan {scan:?}"
    );
}
