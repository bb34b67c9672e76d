//! `scan_single`: the CLI `scan` path — one origin, bare `run_scan`, no
//! supervisor, checkpoints, telemetry or threads.
//!
//! One pass scans the world once per registered module, then HTTP three
//! more ways (wire self-check on, under a plan of the denser half, shard
//! 0 of 4), then renders the HTTP scan as CSV and as a scan set. It
//! isolates permutation → probe encode/validate → netmodel reply: a
//! checkpoint or telemetry optimisation must show no change here, a
//! probe-template or netmodel change must.

use crate::harness::{fnv, Ctx, PassOut, Workload};
use crate::inputs::{build_world, SplitMix};
use crate::spans::Spans;
use originscan_core::experiment::TRIAL_DURATION_S;
use originscan_core::frontier::as_spans;
use originscan_netmodel::{OriginId, Protocol, SimNet, World};
use originscan_plan::{PlanBuilder, Strategy, TargetPlan};
use originscan_scanner::blocklist::{Blocklist, Cidr};
use originscan_scanner::engine::{run_scan, ScanConfig, ScanOutput};
use originscan_scanner::output::{from_csv_all, to_csv_all, to_scan_set};
use originscan_scanner::probe::modules;
use originscan_store::ScanSet;
use std::time::Instant;

const ORIGIN: [OriginId; 1] = [OriginId::Us1];

pub struct ScanSingle {
    world: World,
    scan_seed: u64,
    blocklist: Blocklist,
    plan: TargetPlan,
    /// The CSV round trip is checked once, on the warm-up pass.
    csv_checked: bool,
}

/// The denser half of the /24s that deploy an HTTP host, as a plan.
/// (At these densities every /24 deploys one, so the plain observed
/// plan would skip nothing.)
pub fn denser_half_plan(world: &World, seed: u64) -> TargetPlan {
    let mut builder = PlanBuilder::new(world.space(), seed)
        .expect("world space is a valid plan space")
        .with_topology(as_spans(world));
    builder.observe_trial(&ScanSet::from_sorted(world.hosts(Protocol::Http)));
    builder
        .build(&Strategy::DensityTopK { keep_ppm: 500_000 })
        .expect("half is a valid share to keep")
}

/// Three small prefixes drawn from the seed: the synchronized exclusion
/// list every real scan carries.
pub fn seeded_blocklist(space: u64, seed: u64) -> Blocklist {
    let mut rng = SplitMix(seed);
    Blocklist::from_cidrs((0..3).map(|i| {
        let base = u32::try_from(rng.below(space)).unwrap_or(0);
        Cidr::new(base, 24 - i)
    }))
}

/// The accounting every open-loop scan must satisfy: each address of the
/// shard was probed, blocked, or skipped by the plan, and each probed
/// address got every probe.
pub fn conserves(out: &ScanOutput, cfg: &ScanConfig) -> bool {
    let s = &out.summary;
    let sent_ok = s.probes_sent == u64::from(cfg.probes) * s.addresses_probed;
    let covered = s.addresses_probed + s.blocked + s.plan_skipped;
    let space_ok = if cfg.shard == (0, 1) {
        covered == cfg.space
    } else {
        covered <= cfg.space
    };
    sent_ok && space_ok
}

impl ScanSingle {
    fn config(&self, protocol: Protocol) -> ScanConfig {
        let mut cfg = ScanConfig::new(self.world.space(), protocol, self.scan_seed);
        cfg.blocklist = self.blocklist.clone();
        cfg
    }
}

impl Workload for ScanSingle {
    const NAME: &'static str = "scan_single";

    fn setup(ctx: &Ctx) -> ScanSingle {
        let world = build_world(ctx.seeds.world, ctx.scale.scan_s24);
        let blocklist = seeded_blocklist(world.space(), ctx.seeds.queries);
        let plan = denser_half_plan(&world, ctx.seeds.scan);
        ScanSingle {
            world,
            scan_seed: ctx.seeds.scan,
            blocklist,
            plan,
            csv_checked: false,
        }
    }

    fn pass(&mut self, spans: &Spans) -> PassOut {
        let mut out = PassOut::default();
        let _pass = spans.span("bench:pass");
        let net = spans.time("netmodel:simnet_new", || {
            SimNet::new(&self.world, &ORIGIN, TRIAL_DURATION_S)
        });

        let mut scans: Vec<(&'static str, ScanConfig)> = modules()
            .iter()
            .map(|m| ("scanner.engine:run_scan", self.config(m.protocol())))
            .collect();
        let mut wire = self.config(Protocol::Http);
        wire.wire_check = true;
        scans.push(("scanner.engine:run_scan_wirecheck", wire));
        let mut planned = self.config(Protocol::Http);
        planned.plan = Some(self.plan.clone());
        scans.push(("scanner.engine:run_scan_planned", planned));
        let mut sharded = self.config(Protocol::Http);
        sharded.shard = (0, 4);
        scans.push(("scanner.engine:run_scan_sharded", sharded));

        let mut http: Option<ScanOutput> = None;
        let (mut sent, mut useful, mut invalid) = (0u64, 0u64, 0u64);
        for (span, cfg) in &scans {
            let t = Instant::now();
            let result = spans.time(span, || run_scan(&net, cfg));
            out.work_s += t.elapsed().as_secs_f64();
            out.ops += 1;
            let Ok(scan) = result else {
                out.failed += 1;
                continue;
            };
            out.check(conserves(&scan, cfg));
            out.work += scan.summary.probes_sent;
            sent += scan.summary.probes_sent;
            useful += scan.summary.synacks;
            invalid += scan.summary.validation_failures;
            out.digest = out.digest.rotate_left(7)
                ^ scan.summary.l7_successes
                ^ (scan.records.len() as u64) << 32;
            if http.is_none() && cfg.protocol == Protocol::Http {
                http = Some(scan);
            }
        }

        let Some(http) = http else {
            out.failed += 1;
            return out;
        };
        let csv = spans.time("scanner.output:to_csv_all", || to_csv_all(&http.records));
        let set = spans.time("scanner.output:to_scan_set", || to_scan_set(&http.records));
        out.ops += 2;

        let checking = Instant::now();
        {
            let _g = spans.span("bench:check");
            out.digest ^= fnv(csv.as_bytes()) ^ set.cardinality().rotate_left(17);
            out.check(set.cardinality() == http.summary.l7_successes);
            if !self.csv_checked {
                self.csv_checked = true;
                out.check(from_csv_all(&csv) == http.records);
            }
        }
        out.extra.push((
            "scanner.engine.hit_ratio",
            useful as f64 / sent.max(1) as f64,
        ));
        out.extra.push((
            "scanner.engine.invalid_ratio",
            invalid as f64 / sent.max(1) as f64,
        ));
        out.check_s = checking.elapsed().as_secs_f64();
        out
    }
}
