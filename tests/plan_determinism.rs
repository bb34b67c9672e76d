//! End-to-end guarantees of the target planner, asserted from prior-scan
//! store files all the way to `.osplan` bytes:
//!
//! 1. **Determinism** — two from-scratch pipeline runs (same-seed world →
//!    experiment → store file → `PlanBuilder` → plan file) produce
//!    byte-identical plans, for every strategy.
//! 2. **Corruption on disk** — a damaged plan file does not pass
//!    `TargetPlan::open`. (Every single-bit flip and every truncation,
//!    for this format and the store's, is `tests/format_corruption.rs`.)

use originscan::core::experiment::{Experiment, ExperimentConfig};
use originscan::core::frontier::as_spans;
use originscan::netmodel::{OriginId, Protocol, World, WorldConfig};
use originscan::plan::{PlanBuilder, Strategy, TargetPlan};
use originscan::store::StoreReader;

fn temp_path(name: &str, ext: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "originscan_plan_det_{}_{name}.{ext}",
        std::process::id()
    ));
    p
}

/// The whole pipeline from nothing: build the world, run the prior
/// trials, persist the store, learn the plan from the *file*, and return
/// the plan's serialized bytes.
fn plan_bytes_from_scratch(tag: &str, strategy: &Strategy) -> Vec<u8> {
    let mut wc = WorldConfig::tiny(2026);
    wc.density_scale = 0.1;
    let world: World = wc.build();
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Germany],
        protocols: vec![Protocol::Http],
        trials: 2,
        ..ExperimentConfig::default()
    };
    let results = Experiment::new(&world, cfg).run().unwrap();
    let store_path = temp_path(tag, "oscs");
    results.scan_set_store().write_to(&store_path).unwrap();

    let reader = StoreReader::open(&store_path).unwrap();
    let mut builder = PlanBuilder::new(world.space(), 2026)
        .unwrap()
        .with_topology(as_spans(&world));
    builder.observe_reader(&reader, "HTTP").unwrap();
    let plan = builder.build(strategy).unwrap();

    let plan_path = temp_path(tag, "osplan");
    plan.write_to(&plan_path).unwrap();
    let bytes = std::fs::read(&plan_path).unwrap();
    // The file decodes back to the same plan it came from.
    assert_eq!(TargetPlan::open(&plan_path).unwrap(), plan);
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&plan_path).ok();
    bytes
}

#[test]
fn same_seed_pipelines_write_identical_plans() {
    for (i, strategy) in [
        Strategy::Observed,
        Strategy::DensityTopK { keep_ppm: 250_000 },
        Strategy::ChurnWeighted { keep_ppm: 250_000 },
        Strategy::Hybrid { keep_ppm: 500_000 },
    ]
    .iter()
    .enumerate()
    {
        let a = plan_bytes_from_scratch(&format!("a{i}"), strategy);
        let b = plan_bytes_from_scratch(&format!("b{i}"), strategy);
        assert_eq!(
            a, b,
            "strategy {strategy:?}: two from-scratch runs must write \
             byte-identical plan files"
        );
        assert!(!a.is_empty());
    }
}

#[test]
fn corrupted_file_on_disk_is_rejected_through_open() {
    let bytes = plan_bytes_from_scratch("disk", &Strategy::Observed);
    let path = temp_path("disk_corrupt", "osplan");
    // Flip a byte in the middle of the entries section (past the fixed
    // header prefix), guaranteeing a checksum mismatch through `open`.
    let mut corrupt = bytes.clone();
    let mid = bytes.len() - 4;
    corrupt[mid] ^= 0xff;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(
        TargetPlan::open(&path).is_err(),
        "entries corruption must not pass open()"
    );
    std::fs::remove_file(&path).ok();
}
