//! `study`: the paper's pipeline, one number for the whole thing.
//!
//! One pass builds nothing in advance: seven origins × three trials ×
//! HTTP/HTTPS/SSH under the default supervisor (checkpoints every 1024
//! addresses, telemetry on), the scan sets persisted and reopened, a
//! target plan learned from the store, the full report rendered, and the
//! 468-query analyst mix answered in-process from the fresh store. The
//! scan loop is ~95 % of the pass, so engine, netmodel and checkpoint
//! changes show here and store or serve changes should not.

use crate::harness::{fnv, Ctx, PassOut, Workload};
use crate::inputs::{build_world, query_mix};
use crate::spans::Spans;
use crate::workloads::{file_digest, observed_plan, probes_sent};
use originscan_core::experiment::{Experiment, ExperimentConfig};
use originscan_core::summary::full_report;
use originscan_netmodel::World;
use originscan_scanner::probe::PAPER_PROTOCOLS;
use originscan_serve::QueryEngine;
use originscan_store::StoreReader;
use std::path::PathBuf;
use std::time::Instant;

pub struct Study {
    world: World,
    cfg: ExperimentConfig,
    queries: Vec<String>,
    store_path: PathBuf,
    plan_seed: u64,
}

impl Workload for Study {
    const NAME: &'static str = "study";

    fn setup(ctx: &Ctx) -> Study {
        let world = build_world(ctx.seeds.world, ctx.scale.study_s24);
        let queries = query_mix(
            &PAPER_PROTOCOLS,
            world.space(),
            "observed",
            ctx.seeds.queries,
        );
        Study {
            world,
            cfg: ExperimentConfig {
                base_seed: ctx.seeds.scan,
                ..ExperimentConfig::default()
            },
            queries,
            store_path: ctx.dir.join("study.oscs"),
            plan_seed: ctx.seeds.scan,
        }
    }

    fn pass(&mut self, spans: &Spans) -> PassOut {
        let mut out = PassOut::default();
        let _pass = spans.span("bench:pass");
        let cfg = &self.cfg;
        let scans = (cfg.origins.len() * cfg.protocols.len() * usize::from(cfg.trials)) as u64;

        let t = Instant::now();
        let results = spans.time("core.experiment:run", || {
            Experiment::new(&self.world, cfg.clone()).run()
        });
        out.work_s = t.elapsed().as_secs_f64();
        out.ops += scans;
        let Ok(results) = results else {
            out.failed += scans;
            return out;
        };
        out.work = probes_sent(results.telemetry());
        out.failed += results.disrupted_runs().len() as u64;
        // Open-loop scans with no blocklist and no plan: every address
        // of the space gets every probe.
        out.check(out.work == self.world.space() * u64::from(cfg.probes) * scans);

        let store = spans.time("core.results:scan_set_store", || results.scan_set_store());
        let written = spans.time("store:write_to", || store.write_to(&self.store_path));
        let reader = spans.time("store:open", || StoreReader::open(&self.store_path));
        out.ops += 2;
        let (Ok(file_bytes), Ok(reader)) = (written, reader) else {
            out.failed += 1;
            return out;
        };
        let plan = spans.time("plan:observe_build", || {
            observed_plan(&self.world, &reader, self.plan_seed)
        });
        let plan_bytes = spans.time("plan:encode", || {
            plan.as_ref().and_then(|p| p.to_bytes().ok())
        });
        out.ops += 1;
        let (Some(plan), Some(plan_bytes)) = (plan, plan_bytes) else {
            out.failed += 1;
            return out;
        };
        let report = spans.time("core.report:full_report", || full_report(&results));
        out.ops += 1;

        let engine = spans.time("serve.engine:open", || {
            let mut e = QueryEngine::from_readers(vec![reader]);
            e.register_plan("observed", plan);
            e
        });
        let mut digest = fnv(report.as_bytes()) ^ fnv(&plan_bytes).rotate_left(1);
        {
            let _g = spans.span("serve.engine:query_mix");
            for q in &self.queries {
                out.ops += 1;
                match engine.execute_text_traced(q, spans.tracer()).0 {
                    Ok(body) => digest = digest.rotate_left(5) ^ fnv(body.as_bytes()),
                    Err(_) => out.failed += 1,
                }
            }
        }

        let checking = Instant::now();
        {
            let _g = spans.span("bench:check");
            digest ^= file_digest(&self.store_path).rotate_left(2);
            out.digest = digest;
        }
        let members: u64 = store.iter().map(|(_, s)| s.cardinality()).sum();
        out.extra.push((
            "store.bytes_per_host",
            file_bytes as f64 / members.max(1) as f64,
        ));
        out.extra.push(("core.experiment.scans", scans as f64));
        out.extra.push(("core.experiment.probes", out.work as f64));
        out.check_s = checking.elapsed().as_secs_f64();
        out
    }
}
