//! Target-planner frontier gate: what footprint reduction buys on a
//! fixed sparse world.
//!
//! Runs the `core::frontier` sweep — plans learned from two full prior
//! trials, evaluated on a held-out trial — and gates the planner's core
//! promise: **some strategy reaches ≥95% of full-sweep coverage with
//! ≤50% of the probes**. On a realistically sparse world most /24s are
//! never deployed, deployment is stable across trials, and the
//! observed-deployment plan skips the dead space at almost no recall
//! cost. Writes `BENCH_plan.json` for the CI conformance gate: recall and
//! probe fractions are seed-determined (tight tolerance); wall time is
//! printed, not recorded.
//!
//! Like the kernel benches this ignores `ORIGINSCAN_SCALE`: the fixed
//! sparse tiny world keeps the gated counters comparable across runs.

// Bench-harness timing is the one legitimate wall-clock consumer
// [det-wall-clock]; results never feed analyses.
#![allow(clippy::disallowed_methods)]

use originscan_bench::header;
use originscan_bench::record::{BenchRecord, Dir};
use originscan_core::frontier::{sweep_frontier, FrontierConfig};
use originscan_netmodel::WorldConfig;
use std::time::Instant;

fn main() {
    header(
        "perf plan",
        "topology-aware planner: probes-vs-coverage frontier gate",
    );
    // Sparse deployment: most /24s stay empty, as on the real Internet.
    let mut wc = WorldConfig::tiny(41);
    wc.density_scale = 0.05;
    let world = wc.build();
    let cfg = FrontierConfig {
        seed: 41,
        ..FrontierConfig::default()
    };

    let t = Instant::now();
    let sweep = sweep_frontier(&world, &cfg).expect("frontier sweep");
    let wall_s = t.elapsed().as_secs_f64().max(1e-9);
    print!("{}", sweep.render());

    let mut rec = BenchRecord::new("plan");
    rec.param("space", world.space());
    rec.param("seed", 41);
    rec.param("density_scale", "0.05");
    rec.param("strategies", sweep.points.len());
    rec.metric(
        "baseline_found",
        sweep.baseline_found as f64,
        Dir::Higher,
        Some(0.02),
    );

    for p in &sweep.points {
        rec.metric(
            &format!("{}_recall", p.strategy),
            p.recall,
            Dir::Higher,
            Some(0.02),
        );
        rec.metric(
            &format!("{}_probes_frac", p.strategy),
            p.probes_frac,
            Dir::Lower,
            Some(0.02),
        );
    }

    // The gate: footprint reduction without losing the population.
    let winner = sweep
        .cheapest_with_recall(0.95)
        .expect("no strategy reached 95% recall");
    println!(
        "cheapest ≥95% recall: '{}' at {:.1}% of full-sweep probes ({:.1}% recall)",
        winner.strategy,
        100.0 * winner.probes_frac,
        100.0 * winner.recall,
    );
    assert!(
        winner.probes_frac <= 0.5,
        "planner gate: ≥95% recall must cost ≤50% of probes, got {:.1}%",
        100.0 * winner.probes_frac,
    );
    rec.metric("gate_recall", winner.recall, Dir::Higher, Some(0.02));
    rec.metric(
        "gate_probes_frac",
        winner.probes_frac,
        Dir::Lower,
        Some(0.02),
    );

    let total_probes: u64 =
        sweep.baseline_probes * 3 + sweep.points.iter().map(|p| p.probes_sent).sum::<u64>();
    println!(
        "wall: {:.1} ms for {} probes ({:.0} probes/s)",
        wall_s * 1e3,
        total_probes,
        total_probes as f64 / wall_s
    );

    let path = rec.write().expect("write BENCH_plan.json");
    println!("record: {}", path.display());
    println!("\nperf_plan: OK");
}
