//! Country-bias audit: for a protocol, which countries' host populations
//! depend most on where you scan from? (§4.4 / Table 2 as a tool.)
//!
//! A researcher planning a country-focused study runs this before picking
//! a vantage point: it flags countries where a single origin's view is
//! badly skewed and names the dominant AS behind the skew.
//!
//! ```sh
//! cargo run --release --example country_bias_audit [http|https|ssh]
//! ```

use originscan::core::{count, Table};
use originscan::core::{countries_above, country_stats, host_count_vs_inaccessible};
use originscan::core::{Experiment, ExperimentConfig};
use originscan::netmodel::{OriginId, Protocol, WorldConfig};

fn main() {
    let proto = match std::env::args().nth(1).as_deref() {
        Some("https") => Protocol::Https,
        Some("ssh") => Protocol::Ssh,
        _ => Protocol::Http,
    };
    let world = WorldConfig::small(7).build();
    let cfg = ExperimentConfig {
        origins: OriginId::MAIN.to_vec(),
        protocols: vec![proto],
        trials: 3,
        ..ExperimentConfig::default()
    };
    println!(
        "scanning {proto} from {} origins, 3 trials...",
        cfg.origins.len()
    );
    let results = Experiment::new(&world, cfg).run().unwrap();
    let panel = results.panel(proto);
    let stats = country_stats(&world, &panel);

    if let Some(r) = host_count_vs_inaccessible(&stats) {
        println!(
            "\nSpearman (country host count vs inaccessible hosts): ρ = {:.2}, p = {:.1e}",
            r.rho, r.p_value
        );
    }

    let flagged = countries_above(&stats, 10.0);
    println!(
        "\n{} countries have >10% of their {proto} hosts long-term inaccessible from some origin:\n",
        flagged.len()
    );
    let mut t = Table::new(
        ["country", "hosts"]
            .into_iter()
            .map(String::from)
            .chain(OriginId::MAIN.iter().map(|o| o.to_string()))
            .chain(["dominant ASes".to_string()]),
    );
    for s in flagged.iter().take(20) {
        let worst_origin = s
            .inaccessible_pct
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        t.row(
            [s.country.code().to_string(), count(s.hosts)]
                .into_iter()
                .chain(s.inaccessible_pct.iter().map(|p| format!("{p:.1}")))
                .chain([format!("{}", s.majority_ases[worst_origin])]),
        );
    }
    println!("{}", t.render());
    println!("(per-origin columns: % of the country's hosts long-term inaccessible;");
    println!(" 'dominant ASes' = how many ASes hold the majority of the worst origin's losses)");
}
