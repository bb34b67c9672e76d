//! Golden digests of the pipeline's byte surfaces.
//!
//! Every determinism suite in this repository compares run A to run B of
//! the *same* build, so a refactor that changes the bytes consistently
//! passes all of them. This test pins FNV-1a digests of the store bytes,
//! the three telemetry JSONL surfaces and the rendered report/CSV for
//! three tiny-world scenarios that between them reach every engine path:
//! fault hook, checkpoint resume, adaptive controller, plan, shard and
//! blocklist filters — plus every probe module's bare single-origin scan
//! (count and CSV), the planner's probes-vs-coverage frontier and the
//! net's reply to every origin, trial and scan time at every host. To
//! accept an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test pipeline_golden
//! ```

use originscan::core::adversarial::{PolitenessProfile, TRIAL_SPAN_MULT};
use originscan::core::experiment::{
    supervise_scan, Experiment, ExperimentConfig, OriginRun, RunStatus, SupervisorPolicy,
};
use originscan::core::frontier::{sweep_frontier_on, FrontierConfig};
use originscan::core::summary::full_report;
use originscan::netmodel::{
    AggressionProfile, DefenderNet, FaultPlan, OriginId, Protocol, SimNet, WorldConfig,
};
use originscan::plan::{PlanEntry, TargetPlan};
use originscan::scanner::engine::{run_scan, ScanConfig};
use originscan::scanner::output::{to_csv_all, to_scan_set};
use originscan::scanner::probe::{modules, PAPER_PROTOCOLS};
use originscan::scanner::rate_for_duration;
use originscan::scanner::target::{
    CloseKind, IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, SynReply, UdpReply,
};
use originscan::scanner::Blocklist;
use originscan::serve::query::fnv1a64;
use originscan::store::{ScanSetStore, StoreKey};
use originscan::telemetry::metrics::names;
use originscan::telemetry::{Scope, Telemetry, TelemetrySnapshot};
use originscan::wire::icmp::IcmpEcho;
use originscan::wire::tcp::TcpHeader;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/pipeline_digests.txt"
);

/// Compressed trials so per-AS probe rates trip the tiny world's
/// defenders (same figure as `tests/adversarial_determinism.rs`).
const ADAPTIVE_DUR_S: f64 = 6.0 * 3600.0;
const DUR_S: f64 = 21.0 * 3600.0;

fn digest_lines(out: &mut String, scenario: &str, surfaces: &[(&str, &[u8])]) {
    for (surface, bytes) in surfaces {
        let _ = writeln!(
            out,
            "{scenario}.{surface} {:016x} {}",
            fnv1a64(bytes),
            bytes.len()
        );
    }
}

fn telemetry_lines(out: &mut String, scenario: &str, t: &TelemetrySnapshot) {
    digest_lines(
        out,
        scenario,
        &[
            ("events_jsonl", t.events_jsonl().as_bytes()),
            ("metrics_jsonl", t.metrics_jsonl().as_bytes()),
            ("spans_jsonl", t.spans_jsonl().as_bytes()),
        ],
    );
}

/// Store bytes and CSV of one supervised single-origin scan.
fn single_scan_lines(out: &mut String, scenario: &str, cfg: &ScanConfig, run: &OriginRun) {
    let records = &run.output.as_ref().expect("scan produced output").records;
    let mut store = ScanSetStore::new();
    store.insert(
        StoreKey::new(cfg.protocol.name(), cfg.trial, cfg.origin),
        to_scan_set(records),
    );
    digest_lines(
        out,
        scenario,
        &[
            ("store", &store.to_bytes().unwrap()),
            ("csv", to_csv_all(records).as_bytes()),
        ],
    );
}

/// The faulted experiment of `tests/telemetry_determinism.rs`: outage,
/// crash + checkpoint resume, stall and reply tampering at once.
fn faulted_experiment(out: &mut String) {
    let plan = FaultPlan::new(11)
        .outage(1, 0, 0.4, 0.6)
        .crash(2, 0, 0.5, 1)
        .stall(0, 1, 0.3, 45.0)
        .corrupt_replies(1, 0, 0.02)
        .duplicate_replies(1, 0, 0.02);
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Germany, OriginId::Japan],
        protocols: vec![Protocol::Http, Protocol::Ssh],
        trials: 2,
        faults: Some(plan),
        ..Default::default()
    };
    let world = WorldConfig::tiny(29).build();
    let r = Experiment::new(&world, cfg).run().unwrap();
    let t = r.telemetry();
    assert!(t.counter(Scope::new("HTTP", 0, 2), names::FAULT_KILLS) > 0);
    assert!(t.counter(Scope::new("SSH", 1, 0), names::FAULT_STALLS) > 0);
    digest_lines(
        out,
        "faulted_experiment",
        &[("store", &r.scan_set_store().to_bytes().unwrap())],
    );
    telemetry_lines(out, "faulted_experiment", t);
    digest_lines(
        out,
        "faulted_experiment",
        &[("full_report", full_report(&r).as_bytes())],
    );
}

/// An adaptive scan against an aggressive defender swarm, killed once
/// while backed off (the main pass ends early here: most of the space is
/// deferred to the unsupervised tail pass) and resumed from its last
/// periodic checkpoint.
fn adaptive_kill_resume(out: &mut String) {
    let world = WorldConfig::tiny(41).build();
    let net = SimNet::new(&world, &[OriginId::Us1], ADAPTIVE_DUR_S);
    let hub = Telemetry::new();
    let defender = DefenderNet::new(
        &net,
        &world,
        AggressionProfile::aggressive(),
        ADAPTIVE_DUR_S * TRIAL_SPAN_MULT,
    )
    .with_telemetry(&hub);
    let p = PolitenessProfile::adaptive();
    let space = world.space();
    let mut cfg = ScanConfig::new(space, Protocol::Http, 99);
    cfg.rate_pps = rate_for_duration(space * 2, ADAPTIVE_DUR_S);
    cfg.adapt = p.adapt.clone();
    cfg.source_ips = (0..p.source_ips)
        .map(|i| 0x0a00_0100 + u32::from(i))
        .collect();
    let plan = FaultPlan::new(0).crash(0, 0, 0.25, 1);
    let hook = plan.hook(ADAPTIVE_DUR_S);
    let run = supervise_scan(
        &defender,
        &cfg,
        Some(&hook),
        &SupervisorPolicy::default(),
        Some(&hub),
    );
    assert_eq!(run.status, RunStatus::Resumed { retries: 1 });
    let scope = Scope::new("HTTP", 0, 0);
    defender.flush_trial_metrics(scope);
    let t = hub.snapshot();
    // The controller really engaged, so the checkpoint carried live
    // pacer/controller state across the kill.
    assert!(t.counter(scope, names::ADAPT_BACKOFFS) > 0);
    assert!(t.counter(scope, names::ADAPT_DEFERRED_ADDRESSES) > 0);
    single_scan_lines(out, "adaptive_kill_resume", &cfg, &run);
    telemetry_lines(out, "adaptive_kill_resume", &t);
}

/// A planned + sharded + blocklisted scan under the default supervisor
/// (checkpoints and telemetry on, no faults).
fn planned_sharded_blocklisted(out: &mut String) {
    let world = WorldConfig::tiny(7).build();
    let net = SimNet::new(&world, &[OriginId::Us1, OriginId::Japan], DUR_S);
    let space = world.space();
    let mut cfg = ScanConfig::new(space, Protocol::Http, 2020);
    cfg.origin = 1;
    cfg.trial = 1;
    cfg.concurrent_origins = 2;
    cfg.rate_pps = rate_for_duration(space * 2, DUR_S);
    cfg.shard = (1, 3);
    cfg.blocklist = Blocklist::parse("0.0.16.0/20\n0.0.200.0/24").unwrap();
    // Two of every three /24s, with a score that varies per entry.
    let entries = (0..(space >> 8) as u32)
        .filter(|s24| s24 % 3 != 0)
        .map(|s24| PlanEntry {
            s24,
            score: 1 + s24 % 7,
        })
        .collect();
    cfg.plan = Some(TargetPlan::from_entries(space, 2020, "observed", entries).unwrap());
    let hub = Telemetry::new();
    let run = supervise_scan(&net, &cfg, None, &SupervisorPolicy::default(), Some(&hub));
    assert_eq!(run.status, RunStatus::Completed);
    let s = run.output.as_ref().unwrap().summary;
    assert!(s.plan_skipped > 0 && s.blocked > 0 && s.l7_successes > 0);
    single_scan_lines(out, "planned_sharded_blocklisted", &cfg, &run);
    telemetry_lines(out, "planned_sharded_blocklisted", &hub.snapshot());
}

/// A `SimNet` behind a wrapper that forwards every probe and leaves
/// `Network::order_free` at its default: a bare `run_scan` spreads over
/// the cores against the net itself and steps through this, one address
/// after another on one thread. It deliberately leaves `Network::silent`
/// at its default too, so every burst is built and delivered through it:
/// against the net itself, the engine skips the silent ones.
struct Stepped<'a>(&'a SimNet<'a>);

impl Network for Stepped<'_> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        self.0.syn(ctx, probe)
    }
    fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply {
        self.0.l7(ctx, request)
    }
    fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        self.0.icmp(ctx, probe)
    }
    fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
        self.0.udp(ctx, payload)
    }
    fn syn_burst(&self, ctx: &ProbeCtx, probe: &TcpHeader, times: &[f64], out: &mut [SynReply]) {
        self.0.syn_burst(ctx, probe, times, out);
    }
    fn icmp_burst(&self, ctx: &ProbeCtx, probe: &IcmpEcho, times: &[f64], out: &mut [IcmpReply]) {
        self.0.icmp_burst(ctx, probe, times, out);
    }
    fn udp_burst(&self, ctx: &ProbeCtx, payload: &[u8], times: &[f64], out: &mut [UdpReply]) {
        self.0.udp_burst(ctx, payload, times, out);
    }
}

/// The rows `lines` writes with bare `run_scan`s: once with the scans
/// fanned out (through `net`) and once stepped (through [`Stepped`]),
/// which must agree — so the golden file pins both loops.
fn both_loops(out: &mut String, net: &SimNet<'_>, lines: impl Fn(&mut String, &dyn Network)) {
    assert!(net.order_free() && !Stepped(net).order_free());
    let (mut fanned, mut stepped) = (String::new(), String::new());
    lines(&mut fanned, net);
    lines(&mut stepped, &Stepped(net));
    assert_eq!(fanned, stepped, "the fanned scan and the step loop differ");
    out.push_str(&fanned);
}

/// One bare `run_scan` per registered probe module (the CLI `scan` path:
/// no supervisor, checkpoints or telemetry): the positive-result count
/// and every address and detail behind it. The only place the stateless
/// ICMP/DNS modules' scan results are pinned.
fn every_module_single_origin(out: &mut String) {
    let world = WorldConfig::tiny(7).build();
    let net = SimNet::new(&world, &[OriginId::Us1], DUR_S);
    both_loops(out, &net, |out, net| {
        for m in modules() {
            let cfg = ScanConfig::new(world.space(), m.protocol(), 99);
            let scan = run_scan(net, &cfg).unwrap();
            let scenario = format!("every_module_single_origin.{}", m.name());
            let _ = writeln!(out, "{scenario}.l7_successes {}", scan.summary.l7_successes);
            let csv = to_csv_all(&scan.records);
            digest_lines(out, &scenario, &[("csv", csv.as_bytes())]);
        }
    });
}

/// The planner's promise on a sparse world (most /24s never deployed, as
/// on the real Internet): plans learned from two full trials, evaluated
/// on a held-out one, reach ≥ 95 % of full-sweep coverage with ≤ 50 % of
/// the probes. The rendered table's integer /24, probe and found columns
/// pin every strategy's point.
fn planner_frontier(out: &mut String) {
    let mut wc = WorldConfig::tiny(41);
    wc.density_scale = 0.05;
    let world = wc.build();
    let cfg = FrontierConfig {
        seed: 41,
        ..FrontierConfig::default()
    };
    let net = SimNet::new(
        &world,
        &cfg.origins,
        originscan::core::experiment::TRIAL_DURATION_S,
    );
    both_loops(out, &net, |out, net| {
        let sweep = sweep_frontier_on(net, &world, &cfg).unwrap();
        assert!(sweep
            .cheapest_with_recall(0.95)
            .is_some_and(|p| p.probes_frac <= 0.5));
        let render = sweep.render();
        digest_lines(out, "planner_frontier", &[("render", render.as_bytes())]);
    });
}

/// The destination-side decisions behind every reply: for each host of
/// the paper's TCP trio, each main and follow-up origin, trial 0–2 and
/// three send times, one byte naming the SYN reply and, after a SYN-ACK,
/// the first application attempt's reply. Reputation and geographic
/// walls, the rate IDS, Alibaba's SSH reset and `MaxStartups` all show
/// here, asked through the `Network` trait alone.
fn policy_decisions(out: &mut String) {
    let world = WorldConfig::tiny(8).build();
    let follow_up = OriginId::FOLLOW_UP
        .into_iter()
        .filter(|o| !OriginId::MAIN.contains(o));
    let origins: Vec<OriginId> = OriginId::MAIN.into_iter().chain(follow_up).collect();
    let sim = SimNet::new(&world, &origins, DUR_S);
    let net: &dyn Network = &sim;
    let mut kinds = Vec::new();
    for protocol in PAPER_PROTOCOLS {
        let dport = match protocol {
            Protocol::Http => 80,
            Protocol::Https => 443,
            _ => 22,
        };
        let probe = TcpHeader::syn_probe(40_000, dport, 1);
        for &dst in world.hosts(protocol) {
            for origin in 0..origins.len() as u16 {
                for trial in 0..3 {
                    for frac in [0.05, 0.5, 0.95] {
                        let time_s = frac * DUR_S;
                        let ctx = ProbeCtx {
                            origin,
                            src_ip: 0x0a00_0001,
                            dst,
                            protocol,
                            time_s,
                            probe_idx: 0,
                            trial,
                        };
                        let kind = match net.syn(&ctx, &probe) {
                            SynReply::Silent => 0,
                            SynReply::Rst(_) => 1,
                            SynReply::SynAck(_) => {
                                let l7 = L7Ctx {
                                    origin,
                                    src_ip: ctx.src_ip,
                                    dst,
                                    protocol,
                                    time_s,
                                    trial,
                                    attempt: 0,
                                    concurrent_origins: 1,
                                };
                                match net.l7(&l7, &[]) {
                                    L7Reply::Data(_) => 2,
                                    L7Reply::ConnClosed(CloseKind::Rst) => 3,
                                    L7Reply::ConnClosed(CloseKind::FinAck) => 4,
                                    L7Reply::Timeout => 5,
                                }
                            }
                        };
                        kinds.push(kind);
                    }
                }
            }
        }
    }
    digest_lines(out, "policy_decisions", &[("replies", &kinds)]);
}

/// The replies `policy_decisions` does not reach, over the same world,
/// origins, trials and send times: one byte per ICMP echo and per DNS
/// query sent to each host of every module (so closed ports and routers
/// answer too), and per SSH host, after a SYN-ACK, the reply kind of
/// application attempts 1 and 2, where `MaxStartups` draws again.
fn reply_projections(out: &mut String) {
    let world = WorldConfig::tiny(8).build();
    let follow_up = OriginId::FOLLOW_UP
        .into_iter()
        .filter(|o| !OriginId::MAIN.contains(o));
    let origins: Vec<OriginId> = OriginId::MAIN.into_iter().chain(follow_up).collect();
    let sim = SimNet::new(&world, &origins, DUR_S);
    let net: &dyn Network = &sim;
    let hosts: Vec<u32> = modules()
        .iter()
        .flat_map(|m| world.hosts(m.protocol()).iter().copied())
        .collect();
    let mut kinds = Vec::new();
    let ctx = |origin, dst, protocol, trial, time_s| ProbeCtx {
        origin,
        src_ip: 0x0a00_0001,
        dst,
        protocol,
        time_s,
        probe_idx: 0,
        trial,
    };
    let syn = TcpHeader::syn_probe(40_000, 22, 1);
    let echo = IcmpEcho::request(7, 1);
    let query = originscan::wire::dns::a_query(7, "origin-scan.example.com").unwrap();
    for origin in 0..origins.len() as u16 {
        for trial in 0..3 {
            for frac in [0.05, 0.5, 0.95] {
                let time_s = frac * DUR_S;
                for &dst in &hosts {
                    kinds.push(
                        match net.icmp(&ctx(origin, dst, Protocol::Icmp, trial, time_s), &echo) {
                            IcmpReply::Silent => 0,
                            IcmpReply::Unreachable { .. } => 1,
                            IcmpReply::EchoReply { .. } => 2,
                        },
                    );
                    kinds.push(
                        match net.udp(&ctx(origin, dst, Protocol::Dns, trial, time_s), &query) {
                            UdpReply::Silent => 0,
                            UdpReply::PortUnreachable => 1,
                            // 2 + the response's RCODE.
                            UdpReply::Data(resp) => 2 + resp.get(3).map_or(0x0f, |b| b & 0x0f),
                        },
                    );
                }
                for &dst in world.hosts(Protocol::Ssh) {
                    let probe = ctx(origin, dst, Protocol::Ssh, trial, time_s);
                    if !matches!(net.syn(&probe, &syn), SynReply::SynAck(_)) {
                        kinds.push(0);
                        continue;
                    }
                    for attempt in [1, 2] {
                        let l7 = L7Ctx {
                            origin,
                            src_ip: probe.src_ip,
                            dst,
                            protocol: Protocol::Ssh,
                            time_s,
                            trial,
                            attempt,
                            concurrent_origins: OriginId::MAIN.len() as u8,
                        };
                        kinds.push(match net.l7(&l7, &[]) {
                            L7Reply::Data(_) => 2,
                            L7Reply::ConnClosed(CloseKind::Rst) => 3,
                            L7Reply::ConnClosed(CloseKind::FinAck) => 4,
                            L7Reply::Timeout => 5,
                        });
                    }
                }
            }
        }
    }
    digest_lines(out, "reply_projections", &[("replies", &kinds)]);
}

/// Supervised and adaptive scans step through the net itself, where the
/// engine skips every burst `SimNet` calls silent, and through
/// [`Stepped`], where it delivers them all: the records, summary and
/// telemetry must not tell the two apart.
#[test]
fn skipping_silent_bursts_leaves_no_trace() {
    let world = WorldConfig::tiny(7).build();
    let net = SimNet::new(&world, &[OriginId::Us1, OriginId::Japan], DUR_S);
    let space = world.space();
    let mut cfg = ScanConfig::new(space, Protocol::Http, 2020);
    cfg.rate_pps = rate_for_duration(space * 2, DUR_S);
    let mut adaptive = cfg.clone();
    let p = PolitenessProfile::adaptive();
    adaptive.adapt = p.adapt.clone();
    adaptive.source_ips = (0..p.source_ips)
        .map(|i| 0x0a00_0100 + u32::from(i))
        .collect();
    let plan = FaultPlan::new(0).crash(0, 0, 0.5, 1);
    let hook = plan.hook(DUR_S);
    let policy = SupervisorPolicy {
        checkpoint_every: 64,
        ..SupervisorPolicy::default()
    };
    let run = |net: &dyn Network, cfg: &ScanConfig, killed: bool| {
        let hub = Telemetry::new();
        let hook = killed.then_some(&hook as _);
        let run = supervise_scan(net, cfg, hook, &policy, Some(&hub));
        let t = hub.snapshot();
        let jsonl = [t.events_jsonl(), t.metrics_jsonl(), t.spans_jsonl()];
        (run.status, run.output.unwrap(), jsonl)
    };
    for (cfg, killed) in [(&cfg, true), (&adaptive, false)] {
        let fast = run(&net, cfg, killed);
        assert_eq!(fast, run(&Stepped(&net), cfg, killed));
        let status = if killed {
            RunStatus::Resumed { retries: 1 }
        } else {
            RunStatus::Completed
        };
        assert_eq!(fast.0, status);
        assert!(!fast.1.records.is_empty());
    }
}

#[test]
fn pipeline_bytes_match_golden_digests() {
    let mut actual = String::new();
    faulted_experiment(&mut actual);
    adaptive_kill_resume(&mut actual);
    planned_sharded_blocklisted(&mut actual);
    every_module_single_origin(&mut actual);
    planner_frontier(&mut actual);
    policy_decisions(&mut actual);
    reply_projections(&mut actual);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing tests/golden/pipeline_digests.txt — run with UPDATE_GOLDEN=1 to generate");
    assert_eq!(
        actual, expected,
        "pipeline bytes drifted from the golden digests; if the change to \
         store/telemetry/report bytes is intentional, rerun with \
         UPDATE_GOLDEN=1 and review the diff"
    );
}
