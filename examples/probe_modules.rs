//! Probe-module sweep: run every registered scan module — the paper's
//! TCP trio plus ICMP echo and DNS-over-UDP — through the same
//! multi-origin experiment and print the per-module comparison.
//!
//! ```sh
//! cargo run --release --example probe_modules            # tiny, fast
//! cargo run --release --example probe_modules -- small   # the bench scale
//! ```

use originscan::core::sweep_modules;
use originscan::core::ExperimentConfig;
use originscan::netmodel::{OriginId, WorldConfig};
use originscan::scanner::probe::modules;

fn main() {
    let scale = std::env::args().nth(1).unwrap_or_else(|| "tiny".into());
    let world = match scale.as_str() {
        "small" => WorldConfig::small(2020).build(),
        "medium" => WorldConfig::medium(2020).build(),
        _ => WorldConfig::tiny(2020).build(),
    };
    let base = ExperimentConfig {
        origins: OriginId::MAIN.to_vec(),
        trials: 3,
        ..ExperimentConfig::default()
    };
    eprintln!(
        "running {} modules × {} origins × {} trials over {} addresses...",
        modules().len(),
        base.origins.len(),
        base.trials,
        world.space()
    );
    let sweep = sweep_modules(&world, &base).expect("sweep");
    print!("{}", sweep.render());

    // Per-module archive sizes: the store keyspace is module names.
    for run in sweep.runs() {
        let store = run.results.scan_set_store();
        let bytes = store.to_bytes().expect("encode store").len();
        eprintln!(
            "{:>5}: {} scan sets archived in {} bytes",
            run.name(),
            store.len(),
            bytes
        );
    }
}
