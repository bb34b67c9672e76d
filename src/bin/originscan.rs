//! The `originscan` command-line tool: run the study, dump scan records,
//! or inspect the simulated Internet. See `originscan help`.

use originscan::cli::{parse, Command, RunArgs, USAGE};
use originscan::core::diff::{diff_records, render};
use originscan::core::experiment::{Experiment, ExperimentConfig};
use originscan::core::summary::full_report;
use originscan::netmodel::{SimNet, World};
use originscan::plan::TargetPlan;
use originscan::scanner::engine::{run_scan, ScanConfig};
use originscan::scanner::output::from_csv_all;
use originscan::scanner::output::to_csv_all;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Inventory { scale, seed }) => {
            let world = scale.config(seed).build();
            print!("{}", world.inventory_tsv());
            ExitCode::SUCCESS
        }
        Ok(Command::Report(run)) => {
            let world = run.scale.config(run.seed).build();
            match Experiment::new(&world, experiment_config(&run)).run() {
                Ok(results) => {
                    print!("{}", full_report(&results));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(Command::Scan(run)) => {
            let plan = match &run.plan {
                None => None,
                Some(path) => match TargetPlan::open(std::path::Path::new(path)) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        eprintln!("error: cannot load plan {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let world = run.scale.config(run.seed).build();
            match scan_to_csv(&world, &run, plan) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(Command::Diff { a, b, scale, seed }) => {
            let (ra, rb) = match (std::fs::read_to_string(&a), std::fs::read_to_string(&b)) {
                (Ok(x), Ok(y)) => (from_csv_all(&x), from_csv_all(&y)),
                (Err(e), _) => {
                    eprintln!("error: cannot read {a}: {e}");
                    return ExitCode::FAILURE;
                }
                (_, Err(e)) => {
                    eprintln!("error: cannot read {b}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let world = scale.config(seed).build();
            let d = diff_records(&ra, &rb);
            print!("{}", render(&d, &a, &b, Some(&world)));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn experiment_config(run: &RunArgs) -> ExperimentConfig {
    ExperimentConfig {
        origins: run.origins.clone(),
        protocols: run.protocols.clone(),
        trials: run.trials,
        probes: run.probes,
        probe_delay_s: run.probe_delay_s,
        ..ExperimentConfig::default()
    }
}

/// Scan each requested protocol once from the first origin and emit CSV.
fn scan_to_csv(
    world: &World,
    run: &RunArgs,
    plan: Option<TargetPlan>,
) -> Result<(), originscan::scanner::error::ScanError> {
    let net = SimNet::new(world, &run.origins, 21.0 * 3600.0);
    for &proto in &run.protocols {
        let mut cfg = ScanConfig::new(world.space(), proto, run.seed);
        cfg.probes = run.probes;
        cfg.probe_delay_s = run.probe_delay_s;
        cfg.concurrent_origins = run.origins.len() as u8;
        cfg.plan = plan.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "the tool's own speed (ZMap's `send: … p/s avg`), on stderr only"
        )]
        let started = std::time::Instant::now();
        let out = run_scan(&net, &cfg)?;
        let wall_s = started.elapsed().as_secs_f64();
        eprintln!(
            "# {} {proto}: {} probes sent, {} responsive ({} plan-skipped), {} completed L7; \
             {wall_s:.3} s, {:.2} Mp/s avg",
            run.origins[0],
            out.summary.probes_sent,
            out.records.len(),
            out.summary.plan_skipped,
            out.summary.l7_successes,
            out.summary.probes_sent as f64 / wall_s.max(1e-9) / 1e6
        );
        print!("{}", to_csv_all(&out.records));
    }
    Ok(())
}
