//! Diagnostic: why each origin missed each ground-truth host it missed
//! in trial 1, as `SimNet` decided it at the start of the host's scan
//! hour (`originscan_bench::miss_counts`). One column per
//! `netmodel::Cause` variant, in the order `SimNet` consults them:
//! `absent`, `closed` (ground truth holds neither); the reputation and
//! geographic walls, `_l4` silencing the SYN and `_l7` stalling the
//! connection (`rep_l4`, `rep_l7`, `geo_l4`, `geo_l7`); the rate IDS
//! (`ids`), a persistent path (`persist`), an outage (`burst`), a flaky
//! host (`flaky`); `reached`, a host the net answers then (its probes,
//! sent later in that hour, met a cause this hour-start ask cannot see,
//! or were dropped; each table's legend line says so); and after a
//! recorded SYN-ACK, L7
//! flakiness (`l7flaky`), Alibaba's reset (`alibaba`) and `MaxStartups`
//! (`maxstart`). Compare the mix against the paper's §3–§6 narrative when
//! tuning model parameters.
//!
//! ```sh
//! cargo run -p originscan-bench --bin calibrate --release [tiny|small|medium|full]
//! ```

use originscan_bench::{miss_counts, Scale, MISS_COLUMNS, REACHED_LEGEND};
use originscan_core::experiment::{Experiment, ExperimentConfig, TRIAL_DURATION_S};
use originscan_core::Table;
use originscan_netmodel::{OriginId, SimNet};
use originscan_scanner::probe::PAPER_PROTOCOLS;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .map_or(Ok(Scale::Tiny), |name| name.parse());
    let world = match scale {
        Ok(scale) => scale.world_config().build(),
        Err(e) => {
            eprintln!("calibrate: {e}");
            std::process::exit(2);
        }
    };
    let cfg = ExperimentConfig {
        origins: OriginId::MAIN.to_vec(),
        protocols: PAPER_PROTOCOLS.to_vec(),
        trials: 3,
        ..Default::default()
    };
    let r = Experiment::new(&world, cfg).run().unwrap();
    // The same roster and duration the scans above ran against.
    let net = SimNet::new(&world, &OriginId::MAIN, TRIAL_DURATION_S);
    for proto in PAPER_PROTOCOLS {
        let m = r.matrix(proto, 0);
        println!("\n{proto} ground truth (trial 1): {} hosts", m.len());
        let mut t = Table::new(["origin"].into_iter().chain(MISS_COLUMNS));
        for (origin, row) in OriginId::MAIN.iter().zip(miss_counts(&net, m)) {
            let counts = row.map(|n| n.to_string());
            t.row([origin.to_string()].into_iter().chain(counts));
        }
        println!("{}{REACHED_LEGEND}", t.render());
    }
}
