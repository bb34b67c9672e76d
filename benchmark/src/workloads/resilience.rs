//! `resilience`: the same engine loop, used the hard way.
//!
//! One pass runs an HTTP 7-origin × 2-trial experiment under a fault
//! plan (two crashes that resume from checkpoints, an outage window, a
//! pipeline stall, reply corruption and duplication), then the
//! scanner-vs-defender sweep (baseline and adaptive politeness against
//! all four aggression profiles, two six-hour trials). Fault hook,
//! checkpoint resume, the adaptive controller and `DefenderNet` do work
//! here that no other workload reaches; a gain for the open-loop path
//! that costs the supervised or adaptive path shows here.

use crate::harness::{fnv, Ctx, PassOut, Workload};
use crate::inputs::build_world;
use crate::spans::Spans;
use crate::workloads::probes_sent;
use originscan_core::adversarial::{AdversarialConfig, AdversarialSweep, PolitenessProfile};
use originscan_core::experiment::{Experiment, ExperimentConfig, RunStatus};
use originscan_core::summary::full_report;
use originscan_netmodel::{AggressionProfile, FaultPlan, Protocol, World};
use originscan_telemetry::metrics::names;
use std::time::Instant;

pub struct Resilience {
    world: World,
    faulted: ExperimentConfig,
    sweep: AdversarialConfig,
}

/// Crashes and stalls lose no data, so those origins must come back
/// `Resumed`/`Completed`; outage and tampering degrade; nobody fails.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .crash(1, 0, 0.45, 1)
        .crash(4, 1, 0.70, 2)
        .outage(2, 0, 0.40, 0.60)
        .stall(3, 1, 0.50, 600.0)
        .corrupt_replies(5, 0, 0.05)
        .duplicate_replies(6, 1, 0.05)
}

impl Workload for Resilience {
    const NAME: &'static str = "resilience";

    fn setup(ctx: &Ctx) -> Resilience {
        Resilience {
            world: build_world(ctx.seeds.world, ctx.scale.resilience_s24),
            faulted: ExperimentConfig {
                protocols: vec![Protocol::Http],
                trials: 2,
                base_seed: ctx.seeds.scan,
                faults: Some(fault_plan(ctx.seeds.fault)),
                ..ExperimentConfig::default()
            },
            sweep: AdversarialConfig {
                duration_s: 6.0 * 3600.0,
                base_seed: ctx.seeds.scan,
                politeness: vec![PolitenessProfile::baseline(), PolitenessProfile::adaptive()],
                aggression: AggressionProfile::roster().to_vec(),
                ..AdversarialConfig::default()
            },
        }
    }

    fn pass(&mut self, spans: &Spans) -> PassOut {
        let mut out = PassOut::default();
        let _pass = spans.span("bench:pass");

        let scans = (self.faulted.origins.len() * usize::from(self.faulted.trials)) as u64;
        let t = Instant::now();
        let faulted = spans.time("core.experiment:run_faulted", || {
            Experiment::new(&self.world, self.faulted.clone()).run()
        });
        out.work_s += t.elapsed().as_secs_f64();
        out.ops += scans;
        match faulted {
            Ok(results) => {
                let snapshot = results.telemetry();
                out.work += probes_sent(snapshot);
                let retries: u64 = snapshot
                    .counters
                    .iter()
                    .filter(|c| c.name == names::SUP_RETRIES)
                    .map(|c| c.value)
                    .sum();
                // Three injected kills (1 + 2), each answered by a retry.
                out.check(retries == 3);
                let disrupted = results.disrupted_runs();
                out.failed += disrupted
                    .iter()
                    .filter(|(_, _, _, status)| matches!(status, RunStatus::Failed { .. }))
                    .count() as u64;
                // Two crashed, one dark, two tampered; a zero-loss stall
                // leaves its origin clean.
                out.check(disrupted.len() == 5);
                let report = spans.time("core.report:full_report", || full_report(&results));
                out.digest ^= fnv(report.as_bytes());
                out.extra.push(("core.experiment.retries", retries as f64));
            }
            Err(_) => out.failed += scans,
        }

        let cells = (self.sweep.politeness.len() * self.sweep.aggression.len()) as u64;
        let t = Instant::now();
        let sweep = spans.time("core.adversarial:sweep", || {
            AdversarialSweep::new(&self.world, self.sweep.clone()).run()
        });
        out.work_s += t.elapsed().as_secs_f64();
        out.ops += cells;
        match sweep {
            Ok(results) => {
                out.work += probes_sent(results.telemetry());
                out.digest ^= fnv(results.matrix_tsv().as_bytes()).rotate_left(3);
                // The undefended column is each row's own reference.
                let off_ok = (0..self.sweep.politeness.len())
                    .all(|pi| (results.cell(pi, 0).mean_coverage() - 1.0).abs() < 1e-9);
                out.check(off_ok);
            }
            Err(_) => out.failed += cells,
        }
        out
    }
}
