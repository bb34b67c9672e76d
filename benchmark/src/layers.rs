//! The layer probes ("lab"): each layer's public functions timed one at
//! a time on a small fixture of their own, so a change to one layer
//! moves one group of numbers. They run at the end of every traced run
//! and read the same whichever workload the run was for.
//!
//! Each probe names, in `benchmark/README.md`, the end-to-end metric it
//! should move and the workload it should move it on.

use crate::harness::Ctx;
use crate::inputs::{build_world, synthetic_views, SplitMix};
use crate::metrics::Metrics;
use crate::workloads::scan_single::{denser_half_plan, seeded_blocklist};
use originscan_core::adversarial::PolitenessProfile;
use originscan_core::classify::class_counts;
use originscan_core::coverage::coverage_table;
use originscan_core::experiment::{
    supervise_scan, Experiment, ExperimentConfig, SupervisorPolicy, TRIAL_DURATION_S,
};
use originscan_core::multiorigin::{combo_sweep, single_ip_roster, ProbePolicy};
use originscan_netmodel::{AggressionProfile, DefenderNet, FaultPlan, OriginId, Protocol, SimNet};
use originscan_scanner::cyclic::Cycle;
use originscan_scanner::engine::{run_scan, FaultHook, ScanConfig};
use originscan_scanner::output::{to_csv_all, to_scan_set};
use originscan_scanner::probe::{module_for, modules, ProbeShot, DNS_PROBE_QNAME};
use originscan_scanner::target::{
    IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, SynReply, UdpReply,
};
use originscan_scanner::zgrab;
use originscan_serve::{Query, QueryEngine};
use originscan_stats::mcnemar::{mcnemar_test, PairedCounts};
use originscan_stats::spearman::spearman;
use originscan_store::{ScanSet, ScanSetStore, StoreKey, StoreReader};
use originscan_telemetry::{EventKind, MetricBatch, Scope, Telemetry, Tracer};
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::ipv4::Ipv4Header;
use originscan_wire::tcp::TcpHeader;
use originscan_wire::validation::Validator;
use originscan_wire::{checksum, dns};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time one timed batch aims for; a probe is the best of three.
const BATCH: Duration = Duration::from_millis(6);
const REPS: usize = 3;
const SRC_IP: u32 = 0x0a00_0001;

/// Seconds per call of `f`: batches sized to [`BATCH`], best of
/// [`REPS`]. The minimum is the least disturbed reading a noisy machine
/// gives for a fixed piece of work.
fn secs_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut n: u64 = 1;
    let per_call = loop {
        let t = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed >= BATCH / 4 || n >= 1 << 26 {
            break elapsed.as_secs_f64() / n as f64;
        }
        n *= 4;
    };
    let n = ((BATCH.as_secs_f64() / per_call.max(1e-12)) as u64).clamp(1, 1 << 28);
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / n as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seconds of one call of a long-running `f`: best of `reps`.
fn secs_once<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Cycles through a slice forever.
struct Ring<'a, T> {
    items: &'a [T],
    next: usize,
}

impl<'a, T> Ring<'a, T> {
    fn new(items: &'a [T]) -> Ring<'a, T> {
        assert!(!items.is_empty(), "a probe needs at least one input");
        Ring { items, next: 0 }
    }

    fn next(&mut self) -> &'a T {
        let item = &self.items[self.next];
        self.next = (self.next + 1) % self.items.len();
        item
    }
}

/// A network that answers every probe positively from canned data, so
/// `ProbeModule::deliver` costs encode + validate and nothing else.
#[derive(Debug)]
struct Canned;

impl Network for Canned {
    fn syn(&self, _ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 0x1234_5678))
    }
    fn l7(&self, _ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        L7Reply::Timeout
    }
    fn icmp(&self, _ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        let reply = IcmpEcho::reply_to(probe);
        IcmpReply::EchoReply {
            ident: reply.ident,
            seq: reply.seq,
        }
    }
    fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
        match dns::build_response(payload, dns::RCODE_NOERROR, &[ctx.dst]) {
            Ok(bytes) => UdpReply::Data(bytes),
            Err(_) => UdpReply::Silent,
        }
    }
}

fn probe_ctx(dst: u32, protocol: Protocol) -> ProbeCtx {
    ProbeCtx {
        origin: 0,
        src_ip: SRC_IP,
        dst,
        protocol,
        time_s: f64::from(dst % 75_000),
        probe_idx: 0,
        trial: 0,
    }
}

pub fn probe_all(ctx: &Ctx, m: &mut Metrics) {
    let seed = ctx.seeds.scan;
    let mut rng = SplitMix(ctx.seeds.queries);

    // A noisy machine shows here first: a bare permutation walk, no
    // memory traffic, nothing the program's layers can change.
    let cycle = Cycle::new(1 << 20, seed);
    let walk = secs_once(REPS, || cycle.iter().take(1 << 18).fold(0u64, |a, x| a ^ x));
    m.set("bench.calib_steps_per_s", (1 << 18) as f64 / walk);

    // ---- netmodel ----------------------------------------------------
    let s24 = ctx.scale.lab_s24;
    m.set(
        "netmodel.world_build_ms",
        secs_once(REPS, || build_world(ctx.seeds.world, s24)) * 1e3,
    );
    let world = build_world(ctx.seeds.world, s24);
    let space = world.space();
    let origins = [OriginId::Us1];
    m.set(
        "netmodel.simnet_new_ns",
        secs_per_call(|| SimNet::new(&world, &origins, TRIAL_DURATION_S)) * 1e9,
    );
    let net = SimNet::new(&world, &origins, TRIAL_DURATION_S);
    // A fair sample of the space (about one address in twenty hosts a
    // service) and a sample of HTTP hosts only.
    let uniform: Vec<u32> = (0..4096).map(|_| rng.below(space) as u32).collect();
    let http_hosts = world.hosts(Protocol::Http);
    let hosts: Vec<u32> = (0..1024)
        .map(|_| http_hosts[rng.below(http_hosts.len() as u64) as usize])
        .collect();
    let validator = Validator::from_seed(seed);
    let syn_for =
        |dst: u32| TcpHeader::syn_probe(40_000, 80, validator.probe_seq(SRC_IP, dst, 40_000, 80));

    let mut ring = Ring::new(&uniform);
    m.set(
        "netmodel.syn_ns",
        secs_per_call(|| {
            let dst = *ring.next();
            net.syn(&probe_ctx(dst, Protocol::Http), &syn_for(dst))
        }) * 1e9,
    );
    let mut ring = Ring::new(&hosts);
    m.set(
        "netmodel.l7_ns",
        secs_per_call(|| {
            let dst = *ring.next();
            let l7 = L7Ctx {
                origin: 0,
                src_ip: SRC_IP,
                dst,
                protocol: Protocol::Http,
                time_s: 100.0,
                trial: 0,
                attempt: 0,
                concurrent_origins: 1,
            };
            net.l7(&l7, &zgrab::http::request(&l7))
        }) * 1e9,
    );
    let mut ring = Ring::new(&uniform);
    m.set(
        "netmodel.icmp_ns",
        secs_per_call(|| {
            let dst = *ring.next();
            net.icmp(
                &probe_ctx(dst, Protocol::Icmp),
                &IcmpEcho::request(7, dst as u16),
            )
        }) * 1e9,
    );
    let dns_query = dns::a_query(0x4242, DNS_PROBE_QNAME).expect("the probe qname is valid");
    let mut ring = Ring::new(&uniform);
    m.set(
        "netmodel.udp_ns",
        secs_per_call(|| {
            let dst = *ring.next();
            net.udp(&probe_ctx(dst, Protocol::Dns), &dns_query)
        }) * 1e9,
    );
    let defender = DefenderNet::new(
        &net,
        &world,
        AggressionProfile::aggressive(),
        TRIAL_DURATION_S * 8.0,
    );
    let mut ring = Ring::new(&uniform);
    m.set(
        "netmodel.defender_syn_ns",
        secs_per_call(|| {
            let dst = *ring.next();
            defender.syn(&probe_ctx(dst, Protocol::Http), &syn_for(dst))
        }) * 1e9,
    );

    // ---- scanner: permutation, blocklist, probe modules ---------------
    let cycle = Cycle::new(space, seed);
    let steps = space.min(1 << 18);
    m.set(
        "scanner.cyclic.steps_per_s",
        steps as f64
            / secs_once(REPS, || {
                cycle.iter().take(steps as usize).fold(0u64, |a, x| a ^ x)
            }),
    );
    m.set(
        "scanner.cyclic.shard_steps_per_s",
        (steps / 4) as f64
            / secs_once(REPS, || {
                cycle
                    .iter_shard(0, 4)
                    .take(steps as usize / 4)
                    .fold(0u64, |a, x| a ^ x)
            }),
    );
    let blocklist = seeded_blocklist(space, ctx.seeds.queries);
    let mut ring = Ring::new(&uniform);
    m.set(
        "scanner.blocklist.contains_ns",
        secs_per_call(|| blocklist.contains(*ring.next())) * 1e9,
    );
    for (protocol, wire_check, metric) in [
        (Protocol::Http, false, "scanner.probe.tcp_deliver_ns"),
        (Protocol::Icmp, false, "scanner.probe.icmp_deliver_ns"),
        (Protocol::Dns, false, "scanner.probe.dns_deliver_ns"),
        (Protocol::Http, true, "scanner.probe.tcp_wirecheck_ns"),
    ] {
        let module = module_for(protocol);
        let shot = ProbeShot {
            validator: &validator,
            sport: 40_000,
            dport: module.port(),
            wire_check,
        };
        let mut ring = Ring::new(&uniform);
        m.set(
            metric,
            secs_per_call(|| module.deliver(&Canned, &shot, &probe_ctx(*ring.next(), protocol)))
                * 1e9,
        );
    }
    let http_module = module_for(Protocol::Http);
    let shot = ProbeShot {
        validator: &validator,
        sport: 40_000,
        dport: http_module.port(),
        wire_check: false,
    };
    let mut ring = Ring::new(&uniform);
    let deliver_simnet_ns = secs_per_call(|| {
        http_module.deliver(&net, &shot, &probe_ctx(*ring.next(), Protocol::Http))
    }) * 1e9;

    // ---- scanner: the engine loop --------------------------------------
    let scan_cfg = |protocol: Protocol| {
        let mut c = ScanConfig::new(space, protocol, seed);
        c.blocklist = blocklist.clone();
        c
    };
    let pps = |net: &dyn Network, cfg: &ScanConfig| {
        let mut sent = 0u64;
        let secs = secs_once(2, || {
            sent = run_scan(net, cfg)
                .map(|o| o.summary.probes_sent)
                .unwrap_or(0);
        });
        sent as f64 / secs
    };
    for module in modules() {
        let metric = format!(
            "scanner.engine.{}_probes_per_s",
            module.name().to_ascii_lowercase()
        );
        m.set(&metric, pps(&net, &scan_cfg(module.protocol())));
    }
    let http_pps = m.get("scanner.engine.http_probes_per_s").unwrap_or(0.0);
    m.set(
        "scanner.engine.overhead_ns_per_probe",
        1e9 / http_pps.max(1.0) - deliver_simnet_ns,
    );
    let mut cfg = scan_cfg(Protocol::Http);
    cfg.wire_check = true;
    m.set("scanner.engine.wirecheck_probes_per_s", pps(&net, &cfg));
    let plan = denser_half_plan(&world, seed);
    let mut cfg = scan_cfg(Protocol::Http);
    cfg.plan = Some(plan.clone());
    m.set("scanner.engine.planned_probes_per_s", pps(&net, &cfg));
    let mut cfg = scan_cfg(Protocol::Http);
    cfg.shard = (0, 4);
    m.set("scanner.engine.sharded_probes_per_s", pps(&net, &cfg));

    let http_cfg = scan_cfg(Protocol::Http);
    let supervised = |hook: Option<&dyn FaultHook>, every: u64, hub: Option<&Telemetry>| {
        let policy = SupervisorPolicy {
            checkpoint_every: every,
            ..SupervisorPolicy::default()
        };
        let mut sent = 0u64;
        let secs = secs_once(2, || {
            let run = supervise_scan(&net, &http_cfg, hook, &policy, hub);
            sent = run.output.map_or(0, |o| o.summary.probes_sent);
        });
        (secs, sent)
    };
    let every = SupervisorPolicy::default().checkpoint_every;
    let (plain_s, _) = supervised(None, 0, None);
    let (checkpointed_s, sent) = supervised(None, every, None);
    let hub = Telemetry::new();
    let (observed_s, _) = supervised(None, every, Some(&hub));
    m.set(
        "scanner.engine.supervised_probes_per_s",
        sent as f64 / checkpointed_s,
    );
    m.set(
        "scanner.engine.checkpoint_overhead_ratio",
        checkpointed_s / plain_s,
    );
    m.set(
        "scanner.engine.telemetry_overhead_ratio",
        observed_s / checkpointed_s,
    );
    // Killed once at the half-way mark, resumed from the last checkpoint.
    let crash = FaultPlan::new(ctx.seeds.fault).crash(0, 0, 0.5, 1);
    let hook = crash.hook(TRIAL_DURATION_S);
    m.set(
        "scanner.engine.resume_s",
        supervised(Some(&hook), every, None).0,
    );
    let mut cfg = scan_cfg(Protocol::Http);
    let adaptive = PolitenessProfile::adaptive();
    cfg.adapt = adaptive.adapt;
    cfg.source_ips = (0..adaptive.source_ips)
        .map(|i| 0x0a00_0100 + u32::from(i))
        .collect();
    let mut sent = 0u64;
    let secs = secs_once(2, || {
        // A fresh swarm each time: defender state is part of the work.
        let defender = DefenderNet::new(
            &net,
            &world,
            AggressionProfile::aggressive(),
            TRIAL_DURATION_S * 8.0,
        );
        sent = run_scan(&defender, &cfg)
            .map(|o| o.summary.probes_sent)
            .unwrap_or(0);
    });
    m.set("scanner.engine.adaptive_probes_per_s", sent as f64 / secs);

    if let Ok(scan) = run_scan(&net, &http_cfg) {
        let csv_len = to_csv_all(&scan.records).len();
        m.set(
            "scanner.output.csv_mb_per_s",
            csv_len as f64 / 1e6 / secs_once(REPS, || to_csv_all(&scan.records)),
        );
        m.set(
            "scanner.output.scanset_ms",
            secs_once(REPS, || to_scan_set(&scan.records)) * 1e3,
        );
    }

    wire_probes(m, &validator, &uniform);
    core_probes(ctx, m);
    stats_probes(m, &mut rng);
    store_and_serve_probes(ctx, m, &mut rng);
    m.set("plan.planned_s24s", plan.planned_s24s() as f64);
    let mut ring = Ring::new(&uniform);
    m.set(
        "plan.allows_ns",
        secs_per_call(|| plan.allows(*ring.next())) * 1e9,
    );
    telemetry_probes(m);
}

fn wire_probes(m: &mut Metrics, validator: &Validator, addrs: &[u32]) {
    let mut ring = Ring::new(addrs);
    m.set(
        "wire.validator_seq_ns",
        secs_per_call(|| validator.probe_seq(SRC_IP, *ring.next(), 40_000, 80)) * 1e9,
    );
    let dst = addrs[0];
    let probe = TcpHeader::syn_probe(40_000, 80, validator.probe_seq(SRC_IP, dst, 40_000, 80));
    let reply = TcpHeader::syn_ack_reply(&probe, 99);
    m.set(
        "wire.validator_check_ns",
        secs_per_call(|| validator.check_reply(black_box(&reply), SRC_IP, dst)) * 1e9,
    );
    let ip = Ipv4Header::for_tcp(SRC_IP, dst, probe.wire_len());
    m.set(
        "wire.tcp_emit_ns",
        secs_per_call(|| black_box(&probe).emit(&ip)) * 1e9,
    );
    let bytes = probe.emit(&ip);
    m.set(
        "wire.tcp_parse_ns",
        secs_per_call(|| TcpHeader::parse(black_box(&bytes), &ip)) * 1e9,
    );
    let frame: Vec<u8> = (0..1500u32).map(|i| (i * 31) as u8).collect();
    m.set(
        "wire.checksum_mb_per_s",
        1500.0 / 1e6 / secs_per_call(|| checksum::checksum(black_box(&frame))),
    );
    m.set(
        "wire.icmp_roundtrip_ns",
        secs_per_call(|| {
            let bytes = IcmpEcho::request(7, black_box(11)).emit();
            IcmpEcho::parse(&bytes)
        }) * 1e9,
    );
    m.set(
        "wire.dns_roundtrip_ns",
        secs_per_call(|| {
            let response = dns::a_query(black_box(0x4242), DNS_PROBE_QNAME)
                .and_then(|q| dns::build_response(&q, dns::RCODE_NOERROR, &[dst]));
            response.and_then(|r| dns::parse_response(&r))
        }) * 1e9,
    );
}

/// The report's analyses and the telemetry snapshot, on one small study.
fn core_probes(ctx: &Ctx, m: &mut Metrics) {
    let world = build_world(ctx.seeds.world, ctx.scale.lab_s24.min(128));
    let cfg = ExperimentConfig {
        base_seed: ctx.seeds.scan,
        ..ExperimentConfig::default()
    };
    let Ok(results) = Experiment::new(&world, cfg).run() else {
        return;
    };
    m.set(
        "core.report.coverage_ms",
        secs_once(REPS, || coverage_table(&results, Protocol::Http)) * 1e3,
    );
    let panel = results.panel(Protocol::Http);
    m.set(
        "core.report.classify_ms",
        secs_once(REPS, || class_counts(&panel)) * 1e3,
    );
    let roster = single_ip_roster(&results);
    m.set(
        "core.report.multiorigin_ms",
        secs_once(REPS, || {
            combo_sweep(&results, Protocol::Http, &roster, 3, ProbePolicy::Double)
        }) * 1e3,
    );
    let snapshot = results.telemetry();
    let jsonl_len = snapshot.to_jsonl().len();
    m.set(
        "telemetry.snapshot_jsonl_mb_per_s",
        jsonl_len as f64 / 1e6 / secs_once(REPS, || snapshot.to_jsonl()),
    );
}

fn stats_probes(m: &mut Metrics, rng: &mut SplitMix) {
    let counts = PairedCounts {
        both: 40_000,
        only_a: 1_200,
        only_b: 900,
        neither: 300,
    };
    m.set(
        "stats.mcnemar_ns",
        secs_per_call(|| mcnemar_test(black_box(&counts))) * 1e9,
    );
    let xs: Vec<f64> = (0..256).map(|_| rng.below(1000) as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + rng.below(200) as f64).collect();
    m.set(
        "stats.spearman_us",
        secs_per_call(|| spearman(&xs, &ys)) * 1e6,
    );
}

/// Store format and kernels, then the query engine over the same file.
fn store_and_serve_probes(ctx: &Ctx, m: &mut Metrics, rng: &mut SplitMix) {
    let world = build_world(ctx.seeds.world, ctx.scale.store_s24.min(2048));
    let space = world.space();
    let protocols = [Protocol::Http, Protocol::Icmp, Protocol::Dns];
    let views = synthetic_views(&world, &protocols, ctx.seeds.views, true);
    let store = &views.store;
    let key = |proto: Protocol, origin: u16| StoreKey::new(proto.name(), 0, origin);
    let origin_sets = |proto: Protocol| -> Vec<&ScanSet> {
        (0..crate::inputs::ORIGINS)
            .filter_map(|o| store.get(&key(proto, o)))
            .collect()
    };
    let icmp = origin_sets(Protocol::Icmp);
    let http = origin_sets(Protocol::Http);
    if icmp.len() < 2 || http.len() < 2 {
        return;
    }
    let addrs: Vec<u32> = (0..1024).map(|_| rng.below(space) as u32).collect();

    let members = icmp[0].to_vec();
    m.set(
        "store.from_sorted_ms",
        secs_once(REPS, || ScanSet::from_sorted(&members)) * 1e3,
    );
    let Ok(bytes) = store.to_bytes() else { return };
    let mb = bytes.len() as f64 / 1e6;
    m.set(
        "store.encode_mb_per_s",
        mb / secs_once(REPS, || store.to_bytes()),
    );
    m.set(
        "store.decode_mb_per_s",
        mb / secs_once(REPS, || ScanSetStore::from_bytes(&bytes)),
    );
    let path = ctx.dir.join("lab.oscs");
    if store.write_to(&path).is_err() {
        return;
    }
    m.set(
        "store.open_us",
        secs_per_call(|| StoreReader::open(&path)) * 1e6,
    );
    let Ok(reader) = StoreReader::open(&path) else {
        return;
    };
    let keys: Vec<StoreKey> = reader.keys().cloned().collect();
    m.set(
        "store.load_mb_per_s",
        mb / secs_once(REPS, || {
            keys.iter().filter_map(|k| reader.load(k).ok()).count()
        }),
    );
    if let Ok(lazy) = reader.lazy(&key(Protocol::Icmp, 0)) {
        let mut ring = Ring::new(&addrs);
        m.set(
            "store.lazy_rank_ns",
            secs_per_call(|| lazy.rank(*ring.next())) * 1e9,
        );
    }
    m.set(
        "store.materialize_ms",
        secs_once(REPS, || {
            reader
                .lazy(&key(Protocol::Icmp, 0))
                .and_then(|l| l.materialize())
        }) * 1e3,
    );
    m.set(
        "store.union_many_ms",
        secs_once(REPS, || ScanSet::union_many(&icmp)) * 1e3,
    );
    m.set(
        "store.and_card_ms",
        secs_once(REPS, || icmp[0].intersection_cardinality(icmp[1])) * 1e3,
    );
    m.set(
        "store.andnot_ms",
        secs_once(REPS, || http[0].andnot(http[1])) * 1e3,
    );
    m.set(
        "store.exclusive_ms",
        secs_once(REPS, || http[0].andnot(&ScanSet::union_many(&http[1..]))) * 1e3,
    );
    let mut ring = Ring::new(&addrs);
    m.set(
        "store.contains_ns",
        secs_per_call(|| icmp[0].contains(*ring.next())) * 1e9,
    );
    let mut ring = Ring::new(&addrs);
    m.set(
        "store.rank_ns",
        secs_per_call(|| icmp[0].rank(*ring.next())) * 1e9,
    );
    let card = icmp[0].cardinality().max(1);
    let mut ring = Ring::new(&addrs);
    m.set(
        "store.select_ns",
        secs_per_call(|| icmp[0].select(u64::from(*ring.next()) % card)) * 1e9,
    );

    // ---- serve: parser and engine, in-process --------------------------
    let all = "0,1,2,3,4,5,6";
    let text = format!("coverage proto=HTTP trial=0 origins={all}");
    m.set(
        "serve.query.parse_ns",
        secs_per_call(|| Query::parse(black_box(&text))) * 1e9,
    );
    if let Ok(q) = Query::parse(&text) {
        m.set(
            "serve.query.canonical_ns",
            secs_per_call(|| q.canonical()) * 1e9,
        );
    }
    m.set(
        "serve.engine.open_us",
        secs_per_call(|| QueryEngine::open(&[path.as_path()])) * 1e6,
    );
    let Ok(mut engine) = QueryEngine::open(&[path.as_path()]) else {
        return;
    };
    engine.register_plan("observed", denser_half_plan(&world, ctx.seeds.scan));
    let _ = engine.execute_text(&text);
    m.set(
        "serve.engine.memo_hit_ns",
        secs_per_call(|| engine.execute_text(&text)) * 1e9,
    );
    // One query after `clear_caches()`: the plan misses and every set
    // it needs loads from the file.
    let cold = |query: &str| {
        secs_once(5, || {
            engine.clear_caches();
            engine.execute_text(query)
        }) * 1e6
    };
    let addr = addrs[0];
    for (metric, query) in [
        ("serve.engine.cold_coverage_us", text.clone()),
        (
            "serve.engine.cold_diff_us",
            "diff proto=HTTP trial=0 a=0 b=1".to_string(),
        ),
        (
            "serve.engine.cold_exclusive_us",
            "exclusive proto=HTTP trial=0 origin=0".to_string(),
        ),
        (
            "serve.engine.cold_bestk_us",
            "best-k proto=HTTP trial=0 k=3".to_string(),
        ),
        (
            "serve.engine.cold_rank_us",
            format!("rank proto=HTTP trial=0 origin=0 addr={addr}"),
        ),
        (
            "serve.engine.cold_recall_us",
            format!("recall proto=HTTP trial=0 origins={all} plan=observed"),
        ),
    ] {
        m.set(metric, cold(&query));
    }
    // Sets resident, plan not yet memoised: kernels without loads.
    m.set(
        "serve.engine.setwarm_bestk_us",
        (0..5)
            .map(|_| {
                engine.clear_caches();
                let _ = engine.execute_text(&text);
                let t = Instant::now();
                let _ = black_box(engine.execute_text("best-k proto=HTTP trial=0 k=3"));
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
            * 1e6,
    );
    // Two threads asking cold questions of one engine: what a query
    // costs when it has to wait for the reader lock.
    let cold_queries: Vec<String> = (0..crate::inputs::ORIGINS)
        .flat_map(|o| {
            [
                format!("coverage proto=ICMP trial=0 origins={o}"),
                format!("exclusive proto=ICMP trial=0 origin={o}"),
            ]
        })
        .collect();
    let contended = secs_once(REPS, || {
        engine.clear_caches();
        std::thread::scope(|s| {
            for half in cold_queries.chunks(cold_queries.len() / 2) {
                let engine = &engine;
                s.spawn(move || {
                    for q in half {
                        let _ = black_box(engine.execute_text(q));
                    }
                });
            }
        });
    });
    m.set(
        "serve.engine.contended_cold_us",
        contended * 1e6 / (cold_queries.len() / 2) as f64,
    );
    let _ = std::fs::remove_file(&path);
}

fn telemetry_probes(m: &mut Metrics) {
    let scope = Scope::new("HTTP", 0, 0);
    let kind = EventKind::CheckpointSaved {
        steps: 1024,
        addresses_probed: 1024,
    };
    // A hub grows with every event; a fresh one per batch keeps the
    // probe at the cost of an emit, not of a large reallocation.
    m.set(
        "telemetry.emit_ns",
        (0..REPS)
            .map(|_| {
                let hub = Telemetry::new();
                let t = Instant::now();
                for i in 0..20_000u32 {
                    hub.emit(scope, f64::from(i), kind);
                }
                t.elapsed().as_secs_f64() / 20_000.0
            })
            .fold(f64::INFINITY, f64::min)
            * 1e9,
    );
    m.set(
        "telemetry.span_ns",
        (0..REPS)
            .map(|_| {
                let tracer = Tracer::sim();
                let t = Instant::now();
                for _ in 0..20_000 {
                    drop(tracer.span("probe"));
                }
                t.elapsed().as_secs_f64() / 20_000.0
            })
            .fold(f64::INFINITY, f64::min)
            * 1e9,
    );
    let hub = Telemetry::new();
    m.set(
        "telemetry.flush_us",
        secs_per_call(|| {
            let mut batch = MetricBatch::new();
            batch.add("scan.probes_sent", 2048);
            batch.add("scan.synacks", 100);
            batch.set_gauge("scan.duration_s", 75_600.0);
            hub.flush(scope, batch);
        }) * 1e6,
    );
}
