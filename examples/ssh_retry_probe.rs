//! SSH retry probe: demonstrate §6's two SSH-specific loss mechanisms and
//! the mitigation the paper recommends.
//!
//! 1. OpenSSH `MaxStartups` refuses unauthenticated connections
//!    probabilistically — immediate retries recover most hosts (Fig 13).
//! 2. Alibaba's network-wide scan detection RSTs every SSH connection
//!    after a (non-deterministic) point in the scan (Fig 12).
//!
//! ```sh
//! cargo run --release --example ssh_retry_probe
//! ```

use originscan::core::Table;
use originscan::core::{hourly_rst_fraction, retry_sweep, ssh_miss_breakdown};
use originscan::core::{Experiment, ExperimentConfig};
use originscan::netmodel::{OriginId, Protocol, WorldConfig};

fn main() {
    let world = WorldConfig::small(11).build();

    // --- Fig 13: the retry sweep over MaxStartups-heavy networks --------
    println!("retry sweep (fraction of responding SSH hosts completing the handshake):\n");
    let mut t = Table::new(
        ["AS"]
            .into_iter()
            .map(String::from)
            .chain((0..=8).map(|k| format!("r={k}"))),
    );
    for as_name in ["EGI Hosting", "Psychz Networks", "Comcast"] {
        if let Some(sweep) = retry_sweep(&world, OriginId::Us1, as_name, 8, 0) {
            t.row(
                [as_name.to_string()]
                    .into_iter()
                    .chain(sweep.success_fraction.iter().map(|f| format!("{:.2}", f))),
            );
        }
    }
    println!("{}", t.render());

    // --- Fig 12: Alibaba's temporal blocking -----------------------------
    println!("Alibaba hourly RST-after-handshake fraction (trial 1, single-IP origin vs US64):\n");
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Japan, OriginId::Us64],
        protocols: vec![Protocol::Ssh],
        trials: 1,
        ..ExperimentConfig::default()
    };
    let results = Experiment::new(&world, cfg).run().unwrap();
    let m = results.matrix(Protocol::Ssh, 0);
    let jp = hourly_rst_fraction(&world, m, 0, "HZ Alibaba Advertising");
    let us64 = hourly_rst_fraction(&world, m, 1, "HZ Alibaba Advertising");
    let mut t = Table::new(["hour", "JP (1 IP)", "US64 (64 IPs)"]);
    for h in 0..21 {
        t.row([
            format!("{h:02}"),
            format!("{:.2}", jp[h]),
            format!("{:.2}", us64[h]),
        ]);
    }
    println!("{}", t.render());

    // --- Fig 14: what actually loses SSH hosts ---------------------------
    let b = ssh_miss_breakdown(&world, m, 0);
    println!("Japan's missed SSH hosts in trial 1 by cause:");
    println!("  Alibaba temporal blocking : {}", b.temporal_blocking);
    println!(
        "  probabilistic (MaxStartups): {}",
        b.probabilistic_blocking
    );
    println!("  transient / other          : {}", b.other);
}
