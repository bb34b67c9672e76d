//! Diagnostic: attribute every missed ground-truth host to the first
//! model cause that explains it (blocking, IDS, persistent path failure,
//! burst, correlated flakiness, L7-stage failure, double probe drop).
//!
//! This is the calibration loop's main tool: compare the attribution mix
//! against the paper's §3–§6 narrative when tuning model parameters.
//!
//! ```sh
//! cargo run -p originscan-bench --bin calibrate --release [tiny|small|medium|full]
//! ```

use originscan_bench::Scale;
use originscan_core::experiment::{Experiment, ExperimentConfig, TRIAL_DURATION_S};
use originscan_core::report::Table;
use originscan_netmodel::policy::{self, Block};
use originscan_netmodel::{burst, path, OriginId, SimNet};
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
    // The same path state the scans above ran against.
    let net = SimNet::new(&world, &OriginId::MAIN, TRIAL_DURATION_S);
    for proto in PAPER_PROTOCOLS {
        let m = r.matrix(proto, 0);
        println!("\n{proto} ground truth (trial 1): {} hosts", m.len());
        let mut t = Table::new([
            "origin", "blocked", "ids", "persist", "burst", "flaky", "l7flaky", "drop2", "other",
        ]);
        for (oi, origin) in OriginId::MAIN.iter().enumerate() {
            let mut c = [0usize; 8];
            for (i, &addr) in m.addrs.iter().enumerate() {
                if m.outcomes[oi][i].l7_success() {
                    continue;
                }
                let asr = world.as_of(addr);
                let time = f64::from(m.hour[i]) / 21.0 * TRIAL_DURATION_S;
                let state = net.path_state(oi as u16, asr, proto, 0);
                let p = state.params;
                let cause = if policy::block_status(&world, *origin, asr, addr, proto, 0)
                    != Block::None
                {
                    0
                } else if policy::ids::blocked(
                    &world,
                    *origin,
                    asr,
                    proto,
                    0,
                    time,
                    TRIAL_DURATION_S,
                ) {
                    1
                } else if path::host_persistent_unreachable(&world, *origin, addr, p.persistent_f) {
                    2
                } else if burst::in_burst(
                    &world,
                    state.bursts(),
                    *origin,
                    addr,
                    asr.index,
                    0,
                    time,
                    TRIAL_DURATION_S,
                ) {
                    3
                } else if path::host_flaky(&world, *origin, addr, proto, 0, time, state.flaky_half)
                {
                    4
                } else if path::l7_flaky(&world, *origin, addr, proto, 0, p.flaky_q) {
                    5
                } else if (0..2)
                    .all(|pi| path::probe_drops(&world, *origin, addr, proto, 0, pi, p.drop_p))
                {
                    6
                } else {
                    7 // MaxStartups/Alibaba refusals land here for SSH
                };
                c[cause] += 1;
            }
            t.row(
                [origin.to_string()]
                    .into_iter()
                    .chain(c.iter().map(|x| x.to_string())),
            );
        }
        println!("{}", t.render());
    }
}
