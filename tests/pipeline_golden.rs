//! Golden digests of the pipeline's byte surfaces: the one place where
//! same-seed byte identity is checked.
//!
//! Each row runs one tiny-world scenario and writes the FNV-1a digest and
//! length of each byte surface it makes (store, CSV, telemetry JSONL,
//! report, plan file, query answers) to `tests/golden/pipeline_digests.txt`.
//! Between them the rows reach every engine path, sweep, file format and
//! the query server. Against a checked-in file a byte change fails even
//! when every run makes it, which comparing run A with run B cannot see;
//! CI runs this test fanned over the cores and again on one core. Each row
//! asserts that its scenario ran (faults fired, defenders engaged, stores
//! non-empty) and carries the scenario's non-byte checks. To add a row,
//! write a function that builds the scenario, asserts that, and calls
//! `digest_lines` per surface; call it last in
//! `pipeline_bytes_match_golden_digests`; then accept it and check that
//! the diff only adds lines:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test pipeline_golden
//! git diff tests/golden/pipeline_digests.txt
//! ```

use originscan::core::adversarial::{
    AdversarialConfig, AdversarialSweep, CellStatus, PolitenessProfile, TRIAL_SPAN_MULT,
};
use originscan::core::experiment::{
    supervise_scan, Experiment, ExperimentConfig, OriginRun, RunStatus, SupervisorPolicy,
};
use originscan::core::frontier::{as_spans, sweep_frontier_on, FrontierConfig};
use originscan::core::summary::full_report;
use originscan::core::{sweep_modules, ExperimentResults};
use originscan::netmodel::{
    AggressionProfile, DefenderNet, FaultPlan, OriginId, Protocol, SimNet, World, WorldConfig,
};
use originscan::plan::{PlanBuilder, PlanEntry, Strategy, TargetPlan};
use originscan::scanner::engine::{run_scan, ScanConfig};
use originscan::scanner::output::{to_csv_all, to_scan_set};
use originscan::scanner::probe::{modules, PAPER_PROTOCOLS};
use originscan::scanner::rate_for_duration;
use originscan::scanner::target::{
    CloseKind, IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, SynReply, UdpReply,
};
use originscan::scanner::Blocklist;
use originscan::serve::query::fnv1a64;
use originscan::serve::{QueryEngine, Server, ServerConfig};
use originscan::store::{ScanSetStore, StoreKey, StoreReader};
use originscan::telemetry::metrics::names;
use originscan::telemetry::{Scope, Telemetry, TelemetrySnapshot};
use originscan::wire::icmp::IcmpEcho;
use originscan::wire::tcp::TcpHeader;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/pipeline_digests.txt"
);

/// Compressed trials so per-AS probe rates trip the tiny world's
/// defenders.
const ADAPTIVE_DUR_S: f64 = 6.0 * 3600.0;
const DUR_S: f64 = 21.0 * 3600.0;

/// An adaptive HTTP scan of the whole space, paced to `dur_s`, with the
/// adaptive politeness profile's controller and source addresses.
fn adaptive_cfg(space: u64, seed: u64, dur_s: f64) -> ScanConfig {
    let p = PolitenessProfile::adaptive();
    let mut cfg = ScanConfig::new(space, Protocol::Http, seed);
    cfg.rate_pps = rate_for_duration(space * 2, dur_s);
    cfg.adapt = p.adapt;
    cfg.source_ips = (0..p.source_ips)
        .map(|i| 0x0a00_0100 + u32::from(i))
        .collect();
    cfg
}

/// One line per surface: `scenario.surface digest length`. No row pins
/// an empty stream.
fn digest_lines(out: &mut String, scenario: &str, surfaces: &[(&str, &[u8])]) {
    for (surface, bytes) in surfaces {
        assert!(!bytes.is_empty(), "{scenario}.{surface} is empty");
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

/// A faulted experiment: outage, crash + checkpoint resume, stall and
/// reply tampering at once.
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
    // Every fault fired, so the digests cover the faulted paths.
    let (http_de, http_jp) = (Scope::new("HTTP", 0, 1), Scope::new("HTTP", 0, 2));
    assert!(t.counter(http_de, names::FAULT_OUTAGE_SILENCED) > 0);
    assert!(t.counter(http_jp, names::FAULT_KILLS) > 0);
    assert!(t.counter(Scope::new("SSH", 1, 0), names::FAULT_STALLS) > 0);
    assert!(t.counter(http_de, names::FAULT_REPLIES_CORRUPTED) > 0);
    digest_lines(
        out,
        "faulted_experiment",
        &[("store", &r.scan_set_store().to_bytes().unwrap())],
    );
    telemetry_lines(out, "faulted_experiment", t);
    digest_lines(
        out,
        "faulted_experiment",
        &[
            ("full_report", full_report(&r).as_bytes()),
            ("render_summary", t.render_summary().as_bytes()),
            ("matrices", &matrix_bytes(&r)),
        ],
    );
}

/// Every trial matrix's ground-truth addresses, scan hours, packed
/// per-origin outcomes and run statuses, as bytes.
fn matrix_bytes(r: &ExperimentResults<'_>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for m in r.matrices() {
        bytes.extend(m.addrs.iter().flat_map(|a| a.to_le_bytes()));
        bytes.extend_from_slice(&m.hour);
        for row in &m.outcomes {
            bytes.extend(row.iter().map(|o| o.0));
        }
        for status in &m.statuses {
            bytes.extend(format!("{status}\n").bytes());
        }
    }
    bytes
}

/// A clean three-origin experiment over two protocols: its store, trial
/// matrices and report. Returns the store bytes for [`served_queries`].
/// Two properties of the same configuration are asserted beside it, each
/// on its own world: roster order and the scan seed.
fn clean_experiment(out: &mut String) -> Vec<u8> {
    roster_order_changes_no_observation();
    scan_seed_changes_hours_not_ground_truth_much();
    let world = WorldConfig::tiny(77).build();
    let r = Experiment::new(&world, clean_cfg()).run().unwrap();
    assert!(r.matrices().iter().all(|m| m.all_clean() && !m.is_empty()));
    let store = r.scan_set_store().to_bytes().unwrap();
    digest_lines(
        out,
        "clean_experiment",
        &[
            ("store", &store),
            ("matrices", &matrix_bytes(&r)),
            ("full_report", full_report(&r).as_bytes()),
        ],
    );
    store
}

fn clean_cfg() -> ExperimentConfig {
    ExperimentConfig {
        origins: vec![OriginId::Australia, OriginId::Us64, OriginId::Censys],
        protocols: vec![Protocol::Http, Protocol::Ssh],
        trials: 2,
        ..ExperimentConfig::default()
    }
}

/// The same origin observes the same outcomes whatever its index in the
/// roster: no cross-origin state leaks between scans.
fn roster_order_changes_no_observation() {
    let world = WorldConfig::tiny(80).build();
    let run = |origins| {
        let cfg = ExperimentConfig {
            origins,
            protocols: vec![Protocol::Https],
            trials: 1,
            ..ExperimentConfig::default()
        };
        Experiment::new(&world, cfg).run().unwrap()
    };
    let a = run(vec![OriginId::Japan, OriginId::Censys]);
    let b = run(vec![OriginId::Censys, OriginId::Japan]);
    let (ma, mb) = (a.matrix(Protocol::Https, 0), b.matrix(Protocol::Https, 0));
    assert!(!ma.is_empty());
    assert_eq!(ma.addrs, mb.addrs, "roster order moved ground truth");
    assert_eq!(ma.outcomes[0], mb.outcomes[1], "Japan's view is stable");
    assert_eq!(ma.outcomes[1], mb.outcomes[0], "Censys's view is stable");
}

/// A different scan seed permutes the scan order (different hours) over
/// the same hosts, so ground truth stays within a few percent.
fn scan_seed_changes_hours_not_ground_truth_much() {
    let world = WorldConfig::tiny(79).build();
    let run = |base_seed| {
        let cfg = ExperimentConfig {
            base_seed,
            ..clean_cfg()
        };
        Experiment::new(&world, cfg).run().unwrap()
    };
    let (a, b) = (run(1), run(2));
    let (ma, mb) = (a.matrix(Protocol::Http, 0), b.matrix(Protocol::Http, 0));
    // The hours of the hosts both runs found.
    let hours: Vec<(u8, u8)> = (ma.addrs.iter().zip(&ma.hour))
        .filter_map(|(&addr, &h)| mb.index_of(addr).map(|j| (h, mb.hour[j])))
        .collect();
    let common = hours.len();
    let differing = hours.iter().filter(|(a, b)| a != b).count();
    assert!(common > 100);
    assert!(differing * 10 > common * 8, "{differing}/{common} differ");
    // Ground-truth sizes are within a few percent of each other.
    let (na, nb) = (ma.len(), mb.len());
    let ratio = na as f64 / nb as f64;
    assert!((0.9..1.1).contains(&ratio), "GT sizes {na} vs {nb}");
}

/// An adaptive scan against an aggressive defender swarm, killed once
/// while backed off (the main pass ends early here: most of the space is
/// deferred to the unsupervised tail pass) and resumed from its last
/// periodic checkpoint.
fn adaptive_kill_resume(out: &mut String, world: &World) {
    let net = SimNet::new(world, &[OriginId::Us1], ADAPTIVE_DUR_S);
    let hub = Telemetry::new();
    let defender = DefenderNet::new(
        &net,
        world,
        AggressionProfile::aggressive(),
        ADAPTIVE_DUR_S * TRIAL_SPAN_MULT,
    )
    .with_telemetry(&hub);
    let cfg = adaptive_cfg(world.space(), 99, ADAPTIVE_DUR_S);
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
/// after another on one thread. It deliberately leaves `Network::audible`
/// at its default too, so every burst is built and delivered through it:
/// against the net itself, the engine skips those outside the set.
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
        assert!(render.contains("strategy") && render.contains("observed"));
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

/// Every probe module's experiment through the module sweep: each
/// module's store, events, metrics and spans, and the rendered sweep
/// report; and the ICMP and DNS modules' coverage.
fn module_sweep(out: &mut String) {
    let world = WorldConfig::tiny(91).build();
    let sweep = sweep_modules(&world, &module_cfg()).unwrap();
    assert_eq!(sweep.runs().len(), modules().len());
    for run in sweep.runs() {
        let name = run.name();
        let store = run.results.scan_set_store();
        assert!(!store.is_empty(), "{name}: empty store");
        assert!(
            store.keys().all(|k| k.protocol == name),
            "{name}: store keys must carry the module name"
        );
        let scenario = format!("module_sweep.{name}");
        digest_lines(out, &scenario, &[("store", &store.to_bytes().unwrap())]);
        telemetry_lines(out, &scenario, run.results.telemetry());
    }
    let render = sweep.render();
    digest_lines(out, "module_sweep", &[("render", render.as_bytes())]);
    // ICMP and DNS run end to end through the sweep: every origin sees
    // most of the union, and the cross-module diffs name both modules.
    for name in ["ICMP", "DNS"] {
        let run = sweep.get(name).unwrap();
        let cov = sweep
            .coverage()
            .into_iter()
            .find(|c| c.module == name)
            .unwrap();
        assert!(cov.union > 0, "{name}: saw no hosts");
        assert!(
            cov.fractions.iter().all(|&f| f > 0.5),
            "{name}: implausibly low coverage {:?}",
            cov.fractions
        );
        let m = run.results.matrix(run.module.protocol(), 0);
        assert!(!m.is_empty(), "{name}: empty trial matrix");
    }
    let diffs = sweep.diffs();
    assert!(diffs.iter().any(|d| d.b == "ICMP" && d.both > 0));
    assert!(diffs.iter().any(|d| d.b == "DNS"));
}

fn module_cfg() -> ExperimentConfig {
    ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Germany, OriginId::Japan],
        trials: 2,
        ..ExperimentConfig::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "originscan_pipeline_golden_{}_{name}",
        std::process::id()
    ))
}

/// The planner from files: one experiment writes its store file, and each
/// strategy's plan is learned from that file and written to its own. The
/// plan files' bytes are the surfaces; a damaged one does not open.
fn plan_from_store(out: &mut String) {
    let mut wc = WorldConfig::tiny(2026);
    wc.density_scale = 0.1;
    let world = wc.build();
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Germany],
        protocols: vec![Protocol::Http],
        trials: 2,
        ..ExperimentConfig::default()
    };
    let results = Experiment::new(&world, cfg).run().unwrap();
    let store_path = temp_path("plan_from_store.oscs");
    results.scan_set_store().write_to(&store_path).unwrap();
    let reader = StoreReader::open(&store_path).unwrap();
    let mut builder = PlanBuilder::new(world.space(), 2026)
        .unwrap()
        .with_topology(as_spans(&world));
    builder.observe_reader(&reader, "HTTP").unwrap();
    let plan_path = temp_path("plan_from_store.osplan");
    for strategy in [
        Strategy::Observed,
        Strategy::DensityTopK { keep_ppm: 250_000 },
        Strategy::ChurnWeighted { keep_ppm: 250_000 },
        Strategy::Hybrid { keep_ppm: 500_000 },
    ] {
        let plan = builder.build(&strategy).unwrap();
        assert!(plan.planned_s24s() > 0, "{strategy:?}: empty plan");
        plan.write_to(&plan_path).unwrap();
        let bytes = std::fs::read(&plan_path).unwrap();
        // The file decodes back to the plan it came from...
        assert_eq!(TargetPlan::open(&plan_path).unwrap(), plan);
        if strategy == Strategy::Observed {
            // ...and a flipped byte in its entries section does not.
            let mut corrupt = bytes.clone();
            corrupt[bytes.len() - 4] ^= 0xff;
            std::fs::write(&plan_path, &corrupt).unwrap();
            assert!(
                TargetPlan::open(&plan_path).is_err(),
                "entries corruption must not pass open()"
            );
        }
        let scenario = format!("plan_from_store.{}", plan.strategy());
        digest_lines(out, &scenario, &[("osplan", &bytes)]);
    }
    std::fs::remove_file(&store_path).ok();
    std::fs::remove_file(&plan_path).ok();
}

/// The politeness × aggression sweep, 2 × 2, with compressed trials so
/// the tiny world's defenders trip: the matrix TSV, the rendered table
/// and the sweep's telemetry. The adaptive scanner must degrade
/// gracefully where the open-loop baseline collapses.
fn adversarial_sweep(out: &mut String, world: &World) {
    let cfg = AdversarialConfig {
        trials: 2,
        duration_s: ADAPTIVE_DUR_S,
        politeness: vec![PolitenessProfile::baseline(), PolitenessProfile::adaptive()],
        aggression: vec![AggressionProfile::off(), AggressionProfile::aggressive()],
        ..AdversarialConfig::default()
    };
    let r = AdversarialSweep::new(world, cfg).run().unwrap();
    let baseline = r.cell(0, 1);
    let adaptive = r.cell(1, 1);
    assert!(baseline.defense.detections > 0);
    // The open-loop baseline is detected until the reputation store
    // lists it; its coverage collapses.
    assert_eq!(baseline.status, CellStatus::Listed);
    assert!(
        baseline.mean_coverage() < 0.5,
        "baseline kept {:.3}",
        baseline.mean_coverage()
    );
    // The adaptive scanner reacts (backoff, rotation, deferral) and
    // keeps strictly more coverage than the baseline.
    assert!(adaptive.backoffs > 0, "no backoff engaged");
    assert!(adaptive.rotations > 0, "no source rotation");
    assert!(
        adaptive.mean_coverage() > baseline.mean_coverage(),
        "adaptive {:.4} must beat baseline {:.4}",
        adaptive.mean_coverage(),
        baseline.mean_coverage()
    );
    // The detection → block → backoff sequence is in the adaptive cell's
    // timeline (origin index = row-major cell index: baseline×off=0,
    // baseline×aggr=1, adaptive×off=2, adaptive×aggr=3).
    let t = r.telemetry();
    let events: Vec<&str> = t
        .events_for(Scope::new("HTTP", 0, 3))
        .map(|e| e.kind.name())
        .collect();
    let first = |name: &str| events.iter().position(|&n| n == name);
    let detected = first("scan_detected").expect("a detection in the timeline");
    let blocked = first("block_started").expect("a block in the timeline");
    let backoff = first("backoff_engaged").expect("a backoff in the timeline");
    assert!(detected <= blocked, "detection precedes its block");
    assert!(blocked < backoff, "the scanner reacts after being blocked");
    let jsonl = t.events_jsonl();
    for kind in [
        "scan_detected",
        "block_started",
        "backoff_engaged",
        "source_rotated",
        "origin_listed",
    ] {
        assert!(jsonl.contains(kind), "{kind} missing from JSONL");
    }
    digest_lines(
        out,
        "adversarial_sweep",
        &[
            ("matrix_tsv", r.matrix_tsv().as_bytes()),
            ("render", r.render().as_bytes()),
        ],
    );
    telemetry_lines(out, "adversarial_sweep", t);
}

/// A network that panics the first time a chosen address is probed.
struct PanicOnce<N> {
    inner: N,
    addr: u32,
    armed: AtomicBool,
}

impl<N: Network> Network for PanicOnce<N> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        if ctx.dst == self.addr && self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected panic at {:#x}", self.addr);
        }
        self.inner.syn(ctx, probe)
    }
    fn l7(&self, ctx: &L7Ctx, req: &[u8]) -> L7Reply {
        self.inner.l7(ctx, req)
    }
}

/// A stateless blocking front: every even /24 answers RSTs, a tarpit
/// without memory. A resumed scan replays the span since its last
/// checkpoint, and only a memoryless network guarantees the replay sees
/// the same replies (a stateful `DefenderNet`'s detectors would diverge).
struct RstBand<'a>(&'a SimNet<'a>);

impl Network for RstBand<'_> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        if (ctx.dst >> 8).is_multiple_of(2) {
            SynReply::Rst(TcpHeader::rst_reply(probe))
        } else {
            self.0.syn(ctx, probe)
        }
    }
    fn l7(&self, ctx: &L7Ctx, req: &[u8]) -> L7Reply {
        self.0.l7(ctx, req)
    }
}

/// An adaptive scan driven by RST saturation, once uninterrupted and
/// once panicked mid-scan and resumed from a periodic checkpoint (the
/// re-rated pacer plus the controller's state): the two outputs must be
/// equal, and the uninterrupted run's CSV is the surface.
fn rst_band_resume(out: &mut String, world: &World) {
    let net = SimNet::new(world, &[OriginId::Us1], ADAPTIVE_DUR_S);
    let cfg = adaptive_cfg(world.space(), 99, ADAPTIVE_DUR_S);
    let policy = SupervisorPolicy::default();
    let clean = supervise_scan(&RstBand(&net), &cfg, None, &policy, None);
    assert_eq!(clean.status, RunStatus::Completed);
    let records = &clean.output.as_ref().unwrap().records;
    // The RSTs drove the controller, so the checkpoints carried live
    // pacer and controller state, not defaults.
    assert!(records.iter().any(|rec| rec.got_rst), "no RSTs observed");
    let panicky = PanicOnce {
        inner: RstBand(&net),
        addr: records[records.len() / 2].addr,
        armed: AtomicBool::new(true),
    };
    let resumed = supervise_scan(&panicky, &cfg, None, &policy, None);
    assert_eq!(resumed.status, RunStatus::Resumed { retries: 1 });
    assert_eq!(resumed.output, clean.output, "resumed scan differs");
    let csv = to_csv_all(records);
    digest_lines(out, "rst_band_resume", &[("csv", csv.as_bytes())]);
}

/// One query's response body over HTTP (`POST /query`).
fn http_query(addr: SocketAddr, query: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    let _ = s.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{query}",
        query.len()
    );
    s.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read");
    let (_, body) = response.split_once("\r\n\r\n").expect("a body");
    body.to_string()
}

/// Queries of every kind over [`clean_experiment`]'s store file. Each is
/// answered twice by one engine (cold, then from its caches) and once by
/// a fresh engine behind a `Server`, over HTTP: all three must agree, and
/// the answers are the surface.
fn served_queries(out: &mut String, store: &[u8]) {
    const QUERIES: &[&str] = &[
        "coverage proto=HTTP trial=0 origins=0,1",
        "coverage proto=HTTP trial=1 origins=0,1,2",
        "union proto=HTTP trial=0 origins=1,2",
        "diff proto=HTTP trial=0 a=0 b=2",
        "exclusive proto=HTTP trial=1 origin=1",
        "best-k proto=HTTP trial=0 k=2",
        "rank proto=HTTP trial=0 origin=0 addr=40000",
        "member proto=HTTP trial=0 origin=0 addr=40000",
    ];
    let path = temp_path("served_queries.oscs");
    std::fs::write(&path, store).unwrap();
    let engine = || QueryEngine::from_readers(vec![StoreReader::open(&path).unwrap()]);
    let direct = engine();
    let server = Server::start(Arc::new(engine()), None, ServerConfig::default()).unwrap();
    let mut answers = String::new();
    for q in QUERIES {
        let cold = direct.execute_text(q).expect(q);
        assert!(!cold.is_empty(), "{q}: empty body");
        assert_eq!(direct.execute_text(q).expect(q), cold, "{q}: warm answer");
        assert_eq!(http_query(server.local_addr(), q), *cold, "{q}: over HTTP");
        let _ = writeln!(answers, "{q}\n{cold}");
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
    digest_lines(out, "served_queries", &[("responses", answers.as_bytes())]);
}

/// Supervised and adaptive scans step through the net itself, where the
/// engine skips every burst outside `SimNet`'s audible set, and through
/// [`Stepped`], where it delivers them all: the records, summary and
/// telemetry must not tell the two apart.
#[test]
fn skipping_silent_bursts_leaves_no_trace() {
    let world = WorldConfig::tiny(7).build();
    let net = SimNet::new(&world, &[OriginId::Us1, OriginId::Japan], DUR_S);
    let space = world.space();
    let mut cfg = ScanConfig::new(space, Protocol::Http, 2020);
    cfg.rate_pps = rate_for_duration(space * 2, DUR_S);
    let adaptive = adaptive_cfg(space, 2020, DUR_S);
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
    // The adaptive scenarios' world.
    let world41 = WorldConfig::tiny(41).build();
    adaptive_kill_resume(&mut actual, &world41);
    planned_sharded_blocklisted(&mut actual);
    every_module_single_origin(&mut actual);
    planner_frontier(&mut actual);
    policy_decisions(&mut actual);
    reply_projections(&mut actual);
    let store = clean_experiment(&mut actual);
    module_sweep(&mut actual);
    plan_from_store(&mut actual);
    adversarial_sweep(&mut actual, &world41);
    rst_band_resume(&mut actual, &world41);
    served_queries(&mut actual, &store);
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
