//! Quickstart: run a small synchronized two-origin HTTP experiment and
//! look at what each vantage point missed.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use originscan::core::classify::{class_counts, trial_breakdown};
use originscan::core::coverage::{coverage_table, mcnemar_all_pairs};
use originscan::core::{count, pct, Table};
use originscan::core::{Experiment, ExperimentConfig};
use originscan::netmodel::{OriginId, Protocol, WorldConfig};

fn main() {
    // A 2^20-address world (4,096 /24s), deterministic from the seed.
    let world = WorldConfig::small(42).build();
    println!(
        "world: {} addresses, {} ASes, {} HTTP hosts deployed\n",
        world.space(),
        world.ases.len(),
        count(world.host_count(Protocol::Http)),
    );

    let origins = vec![OriginId::Us1, OriginId::Japan, OriginId::Censys];
    let cfg = ExperimentConfig {
        origins: origins.clone(),
        protocols: vec![Protocol::Http],
        trials: 3,
        probes: 2,
        ..ExperimentConfig::default()
    };
    let results = Experiment::new(&world, cfg).run().unwrap();

    // Coverage per origin per trial (the Appendix A table).
    let mut t = Table::new(
        ["trial"]
            .into_iter()
            .map(String::from)
            .chain(origins.iter().map(|o| o.to_string())),
    );
    for row in coverage_table(&results, Protocol::Http) {
        let label = row
            .trial
            .map_or("mean".to_string(), |t| format!("{}", t + 1));
        t.row(
            [label]
                .into_iter()
                .chain(row.fractions.iter().map(|&f| pct(f))),
        );
    }
    println!("HTTP coverage of ground truth:\n{}", t.render());

    // Why are hosts missing? (Fig 2 style breakdown.)
    let panel = results.panel(Protocol::Http);
    let counts = class_counts(&panel);
    let mut t = Table::new(["origin", "transient", "long-term", "unknown"]);
    for (oi, o) in origins.iter().enumerate() {
        t.row([
            o.to_string(),
            count(counts[oi].transient),
            count(counts[oi].long_term),
            count(counts[oi].unknown),
        ]);
    }
    println!(
        "missing-host classification (union across trials):\n{}",
        t.render()
    );

    // Per-trial misses for the first origin.
    let b = trial_breakdown(&panel, 0, 0);
    println!(
        "{} missed {} hosts in trial 1 ({} transient, {} long-term, {} unknown)",
        origins[0],
        count(b.total()),
        count(b.transient),
        count(b.long_term),
        count(b.unknown)
    );

    // Are the origins statistically different? (§3)
    let (tests, alpha) = mcnemar_all_pairs(&results, Protocol::Http, 0.001);
    let significant = tests.iter().filter(|t| t.p_value < alpha).count();
    println!(
        "\nMcNemar: {significant}/{} origin-pair comparisons significant at Bonferroni-corrected α = {alpha:.2e}",
        tests.len()
    );
}
