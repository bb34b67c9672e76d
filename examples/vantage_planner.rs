//! Vantage planner: pick the 2–3 origins that maximize coverage (§7).
//!
//! The paper's operational advice is that *any* sufficiently diverse 2–3
//! origins reach 98–99 % of hosts — and that the best combination is not
//! the combination of individually best origins. This tool sweeps every
//! pair and triad and prints the distribution plus the winner, then
//! contrasts multi-origin scanning with multi-probe scanning.
//!
//! ```sh
//! cargo run --release --example vantage_planner [http|https|ssh]
//! ```

use originscan::core::multiorigin::{
    combo_sweep, single_ip_roster, ComboDistribution, ProbePolicy,
};
use originscan::core::{pct2, Table};
use originscan::core::{Experiment, ExperimentConfig};
use originscan::netmodel::{OriginId, Protocol, WorldConfig};

fn describe(label: &str, d: &ComboDistribution) -> Vec<String> {
    let s = d.summary();
    vec![
        label.to_string(),
        pct2(s.min),
        pct2(s.median),
        pct2(s.max),
        format!("{:.3}%", d.std_dev() * 100.0),
        format!(
            "{} ({})",
            d.best
                .0
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join("-"),
            pct2(d.best.1)
        ),
    ]
}

fn main() {
    let proto = match std::env::args().nth(1).as_deref() {
        Some("https") => Protocol::Https,
        Some("ssh") => Protocol::Ssh,
        _ => Protocol::Http,
    };
    let world = WorldConfig::small(23).build();
    let cfg = ExperimentConfig {
        origins: OriginId::MAIN.to_vec(),
        protocols: vec![proto],
        trials: 3,
        ..ExperimentConfig::default()
    };
    println!("sweeping origin combinations for {proto}...\n");
    let results = Experiment::new(&world, cfg).run().unwrap();
    let roster = single_ip_roster(&results);

    let mut t = Table::new(["combo", "min", "median", "max", "σ", "best combo"]);
    for k in 1..=3 {
        for (policy, pl) in [(ProbePolicy::Single, "1p"), (ProbePolicy::Double, "2p")] {
            let d = combo_sweep(&results, proto, &roster, k, policy);
            t.row(describe(&format!("{k} origin(s), {pl}"), &d));
        }
    }
    println!("{}", t.render());

    let d2_1p = combo_sweep(&results, proto, &roster, 2, ProbePolicy::Single);
    let d1_2p = combo_sweep(&results, proto, &roster, 1, ProbePolicy::Double);
    println!(
        "one probe from two origins ({}) beats two probes from one ({}) — §7's headline.",
        pct2(d2_1p.summary().median),
        pct2(d1_2p.summary().median),
    );
    let d3 = combo_sweep(&results, proto, &roster, 3, ProbePolicy::Single);
    println!(
        "recommendation: any diverse triad gives ~{} coverage (spread {} … {}).",
        pct2(d3.summary().median),
        pct2(d3.summary().min),
        pct2(d3.summary().max),
    );
}
