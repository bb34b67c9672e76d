//! Per-probe-module scan throughput through the full network model.
//!
//! One single-origin scan per registered module over a fixed tiny world:
//! the paper's TCP trio pays for ZGrab follow-up connections, while the
//! stateless ICMP/DNS modules classify replies inline, so their probe
//! loops should clear at least the trio's throughput. Prints throughput
//! per module and writes `BENCH_modules.json` for the CI conformance
//! gate: each module's positive-result count (tight tolerance — same
//! seed, same world, same count, so drift means a semantic change).
//!
//! Like the kernel benches this ignores `ORIGINSCAN_SCALE`: the fixed
//! tiny world keeps the gated counters comparable across runs.

// Bench-harness timing is the one legitimate wall-clock consumer
// [det-wall-clock]; results never feed analyses.
#![allow(clippy::disallowed_methods)]

use originscan_bench::header;
use originscan_bench::record::{BenchRecord, Dir};
use originscan_core::experiment::TRIAL_DURATION_S;
use originscan_netmodel::{OriginId, SimNet, WorldConfig};
use originscan_scanner::engine::{run_scan, ScanConfig};
use originscan_scanner::probe::modules;
use std::time::Instant;

fn main() {
    header(
        "perf modules",
        "per-probe-module scan throughput and result counts",
    );
    let world = WorldConfig::tiny(7).build();
    let origins = [OriginId::Us1];
    let net = SimNet::new(&world, &origins, TRIAL_DURATION_S);

    let mut rec = BenchRecord::new("modules");
    rec.param("space", world.space());
    rec.param("modules", modules().len());
    rec.param("seed", 99);

    println!(
        "{:>6} {:>14} {:>12} {:>10} {:>9}",
        "module", "wire id", "probes/s", "positives", "wall ms"
    );
    for m in modules() {
        let cfg = ScanConfig::new(world.space(), m.protocol(), 99);
        let t = Instant::now();
        let out = run_scan(&net, &cfg).expect("scan");
        let wall_s = t.elapsed().as_secs_f64().max(1e-9);
        let pps = out.summary.probes_sent as f64 / wall_s;
        let positives = out.summary.l7_successes;
        println!(
            "{:>6} {:>14} {:>12.0} {:>10} {:>9.1}",
            m.name(),
            m.wire_name(),
            pps,
            positives,
            wall_s * 1e3,
        );
        rec.metric(
            &format!("{}_positives", m.name().to_ascii_lowercase()),
            positives as f64,
            Dir::Higher,
            Some(0.02),
        );
        assert!(positives > 0, "{}: scan found nobody", m.name());
    }

    let path = rec.write().expect("write BENCH_modules.json");
    println!("record: {}", path.display());
    println!("\nperf_modules: OK");
}
