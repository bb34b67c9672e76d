//! Per-module determinism: every registered probe module's full
//! pipeline — experiment, archived scan-set store bytes, telemetry
//! JSONL, rendered sweep report — is a pure function of
//! (world seed, config). This is the acceptance gate for new modules:
//! ICMP echo and DNS-over-UDP must reproduce byte-identically through
//! the same permutation core the TCP trio uses.

use originscan::core::sweep_modules;
use originscan::core::ExperimentConfig;
use originscan::netmodel::{OriginId, WorldConfig};
use originscan::scanner::probe::modules;

fn base() -> ExperimentConfig {
    ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Germany, OriginId::Japan],
        trials: 2,
        ..ExperimentConfig::default()
    }
}

#[test]
fn per_module_pipeline_is_byte_identical() {
    let world = WorldConfig::tiny(91).build();
    let a = sweep_modules(&world, &base()).unwrap();
    let b = sweep_modules(&world, &base()).unwrap();
    assert_eq!(a.runs().len(), modules().len());
    for (ra, rb) in a.runs().iter().zip(b.runs()) {
        assert_eq!(ra.name(), rb.name());
        // Archived scan sets: same seed, same bytes on disk.
        let store_a = ra.results.scan_set_store();
        let store_b = rb.results.scan_set_store();
        assert_eq!(
            store_a.to_bytes().unwrap(),
            store_b.to_bytes().unwrap(),
            "{}: store bytes drifted between same-seed runs",
            ra.name()
        );
        // The store keyspace is the module's stable name.
        assert!(!store_a.is_empty(), "{}: empty store", ra.name());
        assert!(
            store_a.keys().all(|k| k.protocol == ra.name()),
            "{}: store keys must carry the module name",
            ra.name()
        );
        // Telemetry: event stream and span trace JSONL, byte for byte.
        let ta = ra.results.telemetry();
        let tb = rb.results.telemetry();
        assert_eq!(
            ta.events_jsonl(),
            tb.events_jsonl(),
            "{}: telemetry events drifted",
            ra.name()
        );
        assert_eq!(
            ta.to_jsonl(),
            tb.to_jsonl(),
            "{}: span traces drifted",
            ra.name()
        );
    }
    // The rendered per-module report (coverage, best-k, cross-module
    // diffs) is part of the contract too.
    assert_eq!(a.render(), b.render());
}

#[test]
fn stateless_modules_run_end_to_end_through_the_sweep() {
    let world = WorldConfig::tiny(92).build();
    let sweep = sweep_modules(&world, &base()).unwrap();
    for name in ["ICMP", "DNS"] {
        let run = sweep.get(name).unwrap();
        let cov = sweep
            .coverage()
            .into_iter()
            .find(|c| c.module == name)
            .unwrap();
        assert!(cov.union > 0, "{name}: saw no hosts");
        assert!(
            cov.fractions.iter().all(|&f| f > 0.5),
            "{name}: implausibly low coverage {:?}",
            cov.fractions
        );
        // Stateless modules never open follow-up connections.
        let m = run.results.matrix(run.module.protocol(), 0);
        assert!(!m.is_empty(), "{name}: empty trial matrix");
    }
    // The cross-module diff keyed by names includes the new modules.
    let diffs = sweep.diffs();
    assert!(diffs.iter().any(|d| d.b == "ICMP" && d.both > 0));
    assert!(diffs.iter().any(|d| d.b == "DNS"));
}
