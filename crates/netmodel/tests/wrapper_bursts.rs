//! A burst through `DefenderNet` or `FaultyNet` is the trait's provided
//! loop over the wrapper's scalar probes: the same replies, the same
//! defender state, and the same telemetry bytes in the hub, whether the
//! wrapper gates the burst under one lock, forwards it whole, or steps it
//! probe by probe.

use originscan_netmodel::{
    AggressionProfile, DefenderNet, FaultPlan, FaultyNet, OriginId, SimNet, World, WorldConfig,
};
use originscan_scanner::engine::{run_scan_session, ScanConfig, ScanOutput, ScanSession};
use originscan_scanner::probe::modules;
use originscan_scanner::rate_for_duration;
use originscan_scanner::target::{
    IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, SynReply, UdpReply,
};
use originscan_scanner::AdaptivePolicy;
use originscan_scanner::{Blocklist, Cidr, Protocol, MAX_PROBES};
use originscan_telemetry::{Scope, Telemetry, TelemetrySnapshot};
use originscan_wire::dns;
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::tcp::TcpHeader;
use std::sync::Mutex;

/// Compressed trials, so per-AS probe rates reach the detectors' trip
/// range at tiny-world scale (as in the adversarial sweep).
const DUR_S: f64 = 6.0 * 3600.0;
/// The sweep's global-clock span per trial.
const SPAN_S: f64 = DUR_S * 8.0;

/// Only the scalar probes, so the bursts are the trait's provided loop.
struct ScalarOnly<'a, N: Network + ?Sized>(&'a N);

impl<N: Network + ?Sized> Network for ScalarOnly<'_, N> {
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
}

/// Everything a defended run leaves behind that the two paths must share.
#[derive(Debug, PartialEq)]
struct Trace {
    outputs: Vec<ScanOutput>,
    stats: originscan_netmodel::DefenseStats,
    listed: bool,
    detections: u32,
    events: String,
    metrics: String,
}

fn jsonl(hub: &Telemetry) -> (String, String) {
    let snap: TelemetrySnapshot = hub.snapshot();
    (snap.events_jsonl(), snap.metrics_jsonl())
}

/// One defended axis point: two trials on one swarm, scanned through
/// the defender's own bursts (`bursts`) or through the provided loop.
struct Axis {
    profile: AggressionProfile,
    protocol: Protocol,
    probes: u8,
    delay_s: f64,
    pool: u8,
    seed: u64,
}

impl Axis {
    fn config(&self, world: &World, trial: u8) -> ScanConfig {
        let space = world.space();
        let mut cfg = ScanConfig::new(space, self.protocol, self.seed + u64::from(trial));
        cfg.trial = trial;
        cfg.probes = self.probes;
        cfg.probe_delay_s = self.delay_s;
        cfg.rate_pps = rate_for_duration(space * u64::from(self.probes), DUR_S);
        cfg.concurrent_origins = 1;
        cfg.source_ips = (0..self.pool).map(|i| 0x0a00_0100 + u32::from(i)).collect();
        // A pool of eight is the adaptive scanner's: its controller reads
        // every reply, so a wrong one would also move its clock.
        if self.pool > 1 {
            cfg.adapt = Some(AdaptivePolicy {
                backoff_factor: 0.25,
                recovery_windows: 16,
                ..AdaptivePolicy::default()
            });
        }
        cfg
    }

    fn run(&self, world: &World, net: &SimNet<'_>, bursts: bool) -> Trace {
        let hub = Telemetry::new();
        let defender = DefenderNet::new(net, world, self.profile, SPAN_S).with_telemetry(&hub);
        let scalar = ScalarOnly(&defender);
        let through: &dyn Network = if bursts { &defender } else { &scalar };
        let mut outputs = Vec::new();
        for trial in 0..2 {
            let session = ScanSession {
                telemetry: Some(&hub),
                ..ScanSession::default()
            };
            let out = run_scan_session(through, &self.config(world, trial), session).unwrap();
            defender.flush_trial_metrics(Scope::new(self.protocol.name(), trial, 0));
            outputs.push(out);
        }
        let (events, metrics) = jsonl(&hub);
        Trace {
            outputs,
            stats: defender.stats(),
            listed: defender.is_listed(0),
            detections: defender.origin_detections(0),
            events,
            metrics,
        }
    }
}

/// Every aggression profile × probes ∈ {1, 2, 8} × probe delay ∈ {0,
/// 900 s} × source pools of 1 and 8, two trials on one swarm, the probe
/// module cycling through all five.
#[test]
fn defended_bursts_are_the_provided_loop_over_scalar_probes() {
    let world = WorldConfig::tiny(41).build();
    let net = SimNet::new(&world, &[OriginId::Us1], DUR_S);
    let modules = modules();
    let (mut listed, mut detected, mut n) = (false, false, 0usize);
    for profile in AggressionProfile::roster() {
        for probes in [1u8, 2, 8] {
            for delay_s in [0.0, 900.0] {
                for pool in [1u8, 8] {
                    let protocol = modules[n % modules.len()].protocol();
                    n += 1;
                    let axis = Axis {
                        profile,
                        protocol,
                        probes,
                        delay_s,
                        pool,
                        seed: 7,
                    };
                    let got = axis.run(&world, &net, true);
                    let want = axis.run(&world, &net, false);
                    let at = (profile.name, protocol, probes, delay_s, pool);
                    assert!(got == want, "{at:?}: the burst path differs");
                    listed |= got.listed;
                    detected |= got.stats.detections > 0;
                }
            }
        }
    }
    // The equality covered detections and a reputation-listed origin,
    // not only clean streams.
    assert!(detected && listed, "detected {detected}, listed {listed}");
}

/// The first address of AS `i`'s first /24.
fn as_base(world: &World, i: usize) -> u32 {
    world.ases[i].first_slash24 * 256
}

fn burst_ctx(dst: u32, src_ip: u32, protocol: Protocol) -> ProbeCtx {
    ProbeCtx {
        origin: 0,
        src_ip,
        dst,
        protocol,
        time_s: f64::NAN,
        probe_idx: 0,
        trial: 0,
    }
}

/// Replies of every flavour to one burst.
#[derive(Debug, PartialEq)]
struct Replies {
    syn: [SynReply; MAX_PROBES],
    icmp: [IcmpReply; MAX_PROBES],
    udp: [UdpReply; MAX_PROBES],
}

fn send<N: Network + ?Sized>(net: &N, ctx: &ProbeCtx, times: &[f64]) -> Replies {
    let mut r = Replies {
        syn: [SynReply::Silent; MAX_PROBES],
        icmp: [IcmpReply::Silent; MAX_PROBES],
        udp: [const { UdpReply::Silent }; MAX_PROBES],
    };
    let syn = TcpHeader::syn_probe(40_000, 80, ctx.dst);
    let echo = IcmpEcho::request(7, ctx.dst as u16);
    match ctx.protocol {
        Protocol::Icmp => net.icmp_burst(ctx, &echo, times, &mut r.icmp),
        Protocol::Dns => {
            let query = dns::a_query(ctx.dst as u16, "origin-scan.example.com").unwrap();
            net.udp_burst(ctx, &query, times, &mut r.udp);
        }
        _ => net.syn_burst(ctx, &syn, times, &mut r.syn),
    }
    r
}

/// Bursts of two hammered into one AS until its detector trips on a
/// burst's first probe (the second is then inside the block) and, from an
/// odd start, on a burst's second probe; then on to other ASes until the
/// reputation store lists the origin. Every burst's replies, and the
/// swarm and hub after it, match the provided loop's.
#[test]
fn a_burst_that_trips_the_detector_matches_the_provided_loop() {
    let world = WorldConfig::tiny(41).build();
    let net = SimNet::new(&world, &[OriginId::Us1], DUR_S);
    for profile in [
        AggressionProfile::aggressive(),
        AggressionProfile::paranoid(),
    ] {
        for protocol in [Protocol::Http, Protocol::Icmp, Protocol::Dns] {
            let (hub_a, hub_b) = (Telemetry::new(), Telemetry::new());
            let a = DefenderNet::new(&net, &world, profile, SPAN_S).with_telemetry(&hub_a);
            let b = DefenderNet::new(&net, &world, profile, SPAN_S).with_telemetry(&hub_b);
            let b = ScalarOnly(&b);
            let mut t = 0.0;
            let (mut first_trips, mut second_trips) = (false, false);
            for as_i in 0..world.ases.len() {
                // Source 1 starts even, source 2 one probe in.
                for (src_ip, lead) in [(1u32, 0u32), (2, 1)] {
                    let base = as_base(&world, as_i);
                    if lead == 1 {
                        let ctx = burst_ctx(base, src_ip, protocol);
                        assert_eq!(send(&a, &ctx, &[t]), send(&b, &ctx, &[t]));
                    }
                    for k in 0..=profile.window_probes / 2 {
                        let ctx = burst_ctx(base + k % 256, src_ip, protocol);
                        let times = [t, t + 0.5];
                        let before = a.stats();
                        let got = send(&a, &ctx, &times);
                        assert_eq!(got, send(&b, &ctx, &times), "{} {protocol:?}", profile.name);
                        assert_eq!(a.stats(), b.0.stats());
                        assert_eq!(jsonl(&hub_a), jsonl(&hub_b));
                        // A trip that does not also list the origin: probe
                        // 0 tripping blocks both, probe 1 tripping one.
                        let after = a.stats();
                        if after.detections > before.detections && after.listings == before.listings
                        {
                            let blocked = after.blocked_probes - before.blocked_probes;
                            first_trips |= blocked == 2;
                            second_trips |= blocked == 1;
                        }
                        t += 1.0;
                    }
                }
                if a.is_listed(0) {
                    break;
                }
            }
            assert!(
                first_trips && second_trips,
                "{}: {first_trips} {second_trips}",
                profile.name
            );
            assert!(a.is_listed(0) && b.0.is_listed(0));
            assert_eq!(a.origin_detections(0), b.0.origin_detections(0));
            // Listed: every later burst is a reputation drop, both ways.
            let ctx = burst_ctx(as_base(&world, 0), 9, protocol);
            assert_eq!(send(&a, &ctx, &[t, t]), send(&b, &ctx, &[t, t]));
            assert_eq!(jsonl(&hub_a), jsonl(&hub_b));
        }
    }
}

/// A burst longer than `MAX_PROBES` (the engine never sends one) still
/// passes every probe through the detector: the 9th probe of the burst
/// that trips it is blocked and counted, as in the provided loop.
#[test]
fn a_burst_past_max_probes_gates_every_probe() {
    let world = WorldConfig::tiny(41).build();
    let net = SimNet::new(&world, &[OriginId::Us1], DUR_S);
    let profile = AggressionProfile::aggressive();
    let (hub_a, hub_b) = (Telemetry::new(), Telemetry::new());
    let a = DefenderNet::new(&net, &world, profile, SPAN_S).with_telemetry(&hub_a);
    let b = DefenderNet::new(&net, &world, profile, SPAN_S).with_telemetry(&hub_b);
    let b = ScalarOnly(&b);
    let base = as_base(&world, 0);
    let mut tripped = false;
    for k in 0..profile.window_probes / 8 + 2 {
        let ctx = burst_ctx(base + k, 1, Protocol::Http);
        let times: Vec<f64> = (0..=MAX_PROBES)
            .map(|i| f64::from(k) + i as f64 * 0.1)
            .collect();
        let probe = TcpHeader::syn_probe(40_000, 80, ctx.dst);
        let mut got = vec![SynReply::Silent; times.len()];
        let mut want = got.clone();
        let before = a.stats();
        a.syn_burst(&ctx, &probe, &times, &mut got);
        b.syn_burst(&ctx, &probe, &times, &mut want);
        assert_eq!(got, want, "burst {k}");
        assert_eq!(a.stats(), b.0.stats(), "burst {k}");
        assert_eq!(jsonl(&hub_a), jsonl(&hub_b));
        if a.stats().detections > before.detections {
            // The burst that trips the detector: its last probe is refused.
            assert_eq!(
                got.last(),
                Some(&SynReply::Rst(TcpHeader::rst_reply(&probe)))
            );
            tripped = true;
        }
    }
    assert!(tripped);
}

/// One call the inner double saw.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    /// A scalar SYN, with how many events the hub held when it arrived.
    Syn { probe_idx: u8, events: usize },
    /// A whole burst.
    Burst,
}

/// A `SimNet` that is not order-free and logs the order of its calls,
/// with the hub's event count at each, so a wrapper that gated a whole
/// burst before the first inner call would show.
struct Logged<'a> {
    net: &'a SimNet<'a>,
    hub: &'a Telemetry,
    log: Mutex<Vec<Call>>,
}

impl Logged<'_> {
    fn push(&self, call: Call) {
        self.log.lock().unwrap().push(call);
    }
}

impl Network for Logged<'_> {
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        let events = self.hub.snapshot().events.len();
        self.push(Call::Syn {
            probe_idx: ctx.probe_idx,
            events,
        });
        self.net.syn(ctx, probe)
    }
    fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply {
        self.net.l7(ctx, request)
    }
    fn syn_burst(&self, ctx: &ProbeCtx, probe: &TcpHeader, times: &[f64], out: &mut [SynReply]) {
        self.push(Call::Burst);
        self.net.syn_burst(ctx, probe, times, out);
    }
}

#[test]
fn a_defender_over_a_stateful_net_takes_the_interleaved_loop() {
    let world = WorldConfig::tiny(41).build();
    let net = SimNet::new(&world, &[OriginId::Us1], DUR_S);
    let profile = AggressionProfile::aggressive();
    let run = |bursts: bool| {
        let hub = Telemetry::new();
        let inner = Logged {
            net: &net,
            hub: &hub,
            log: Mutex::new(Vec::new()),
        };
        let defender = DefenderNet::new(&inner, &world, profile, SPAN_S).with_telemetry(&hub);
        let base = as_base(&world, 0);
        let mut replies = Vec::new();
        // One probe, then bursts of three: the detector trips on a
        // burst's third probe, after its first two reached the inner net.
        for k in 0..profile.window_probes {
            let ctx = burst_ctx(base + k, 1, Protocol::Http);
            let t = f64::from(k);
            let times = if k == 0 {
                &[t][..]
            } else {
                &[t, t + 0.5, t + 0.75][..]
            };
            replies.push(if bursts {
                send(&defender, &ctx, times)
            } else {
                send(&ScalarOnly(&defender), &ctx, times)
            });
        }
        assert!(defender.stats().detections > 0);
        let log = inner.log.lock().unwrap().clone();
        (replies, log, jsonl(&hub))
    };
    let (got, want) = (run(true), run(false));
    assert!(
        !got.1.contains(&Call::Burst),
        "the inner net saw a whole burst"
    );
    assert_eq!(got, want);
}

/// Untouched, outage, corrupt and duplicate scopes, each an origin of one
/// plan, every probe module at one, two and eight probes an address.
#[test]
fn faulted_bursts_are_the_provided_loop_over_scalar_probes() {
    let world = WorldConfig::tiny(7).build();
    let origins = [
        OriginId::Us1,
        OriginId::Germany,
        OriginId::Japan,
        OriginId::Brazil,
    ];
    let net = SimNet::new(&world, &origins, DUR_S);
    let plan = FaultPlan::new(5)
        .outage(1, 0, 0.25, 0.75)
        .corrupt_replies(2, 0, 0.3)
        .duplicate_replies(3, 0, 0.3);
    for m in modules() {
        for probes in [1u8, 2, 8] {
            let run = |bursts: bool| {
                let hub = Telemetry::new();
                let faulty = FaultyNet::new(&net, &plan, DUR_S).with_telemetry(&hub);
                let scalar = ScalarOnly(&faulty);
                let through: &dyn Network = if bursts { &faulty } else { &scalar };
                let outputs: Vec<ScanOutput> = (0..origins.len() as u16)
                    .map(|origin| {
                        let space = world.space();
                        let mut cfg = ScanConfig::new(space, m.protocol(), 11);
                        cfg.origin = origin;
                        cfg.probes = probes;
                        cfg.concurrent_origins = origins.len() as u8;
                        cfg.rate_pps = rate_for_duration(space * u64::from(probes), DUR_S);
                        let session = ScanSession {
                            telemetry: Some(&hub),
                            ..ScanSession::default()
                        };
                        run_scan_session(through, &cfg, session).unwrap()
                    })
                    .collect();
                (outputs, jsonl(&hub))
            };
            let got = run(true);
            assert!(
                got == run(false),
                "{} × {probes}: the burst path differs",
                m.name()
            );
            // The untouched origin's scan is the clean one, through bursts.
            let mut clean = ScanConfig::new(world.space(), m.protocol(), 11);
            clean.probes = probes;
            clean.concurrent_origins = origins.len() as u8;
            clean.rate_pps = rate_for_duration(world.space() * u64::from(probes), DUR_S);
            let bare = run_scan_session(&ScalarOnly(&net), &clean, ScanSession::default());
            assert_eq!(got.0[0].records, bare.unwrap().records);
        }
    }
}

/// `FaultyNet` passes `SimNet`'s `silent` through only where it forwards
/// every probe verbatim; outage and tamper scopes see every probe.
#[test]
fn faulty_net_is_silent_only_where_the_plan_is_absent() {
    let world = WorldConfig::tiny(7).build();
    let origins = [
        OriginId::Us1,
        OriginId::Germany,
        OriginId::Japan,
        OriginId::Brazil,
    ];
    let net = SimNet::new(&world, &origins, DUR_S);
    let plan = FaultPlan::new(5)
        .outage(1, 0, 0.25, 0.75)
        .corrupt_replies(2, 0, 0.3)
        .duplicate_replies(3, 0, 0.3)
        .crash(0, 1, 0.5, 1)
        .stall(0, 1, 0.3, 45.0);
    let faulty = FaultyNet::new(&net, &plan, DUR_S);
    let mut silent = 0;
    for dst in 0..world.space() as u32 {
        for m in modules() {
            for (origin, trial) in [(0, 0), (0, 1), (1, 0), (2, 0), (3, 0), (1, 1)] {
                let ctx = ProbeCtx {
                    origin,
                    trial,
                    ..burst_ctx(dst, 1, m.protocol())
                };
                // Crashes and stalls act through the hook, not the net.
                let untouched = trial == 1 || origin == 0;
                let ask = |n: &dyn Network| n.silent(origin, ctx.protocol, trial, dst);
                let want = untouched && ask(&net);
                assert_eq!(ask(&faulty), want, "{ctx:?}");
                silent += u32::from(ask(&net) && !untouched);
            }
        }
    }
    assert!(silent > 0, "no touched scope asked about a silent address");
}

/// An undefended `DefenderNet` is its inner net: at every address, module,
/// origin and trial it answers `silent` and `order_free` as `SimNet` does.
#[test]
fn an_undefended_net_is_silent_and_order_free_as_its_inner_net() {
    let world = WorldConfig::tiny(7).build();
    let origins = [OriginId::Us1, OriginId::Germany, OriginId::Japan];
    let net = SimNet::new(&world, &origins, DUR_S);
    let defender = DefenderNet::new(&net, &world, AggressionProfile::off(), SPAN_S);
    assert!(net.order_free());
    assert_eq!(defender.order_free(), net.order_free());
    let mut silent = 0u32;
    for dst in 0..world.space() as u32 {
        for m in modules() {
            for origin in 0..origins.len() as u16 {
                for trial in 0..3 {
                    let ask = |n: &dyn Network| n.silent(origin, m.protocol(), trial, dst);
                    assert_eq!(ask(&defender), ask(&net), "{dst} {origin} {trial}");
                    silent += u32::from(ask(&net));
                }
            }
        }
    }
    assert!(silent > 0, "no address was silent");
    let guarded = DefenderNet::new(&net, &world, AggressionProfile::lenient(), SPAN_S);
    assert!(!guarded.order_free());
}

/// A defender counts probes to unused addresses: through it, no address
/// is silent, and a source that probed only addresses `SimNet` calls
/// silent is still detected and listed.
#[test]
fn a_defender_sees_and_lists_probes_to_silent_addresses() {
    let world = WorldConfig::tiny(41).build();
    let net = SimNet::new(&world, &[OriginId::Us1], DUR_S);
    let profile = AggressionProfile::aggressive();
    let defender = DefenderNet::new(&net, &world, profile, SPAN_S);
    let space = world.space() as u32;
    let is_silent = |dst| net.silent(0, Protocol::Http, 0, dst);
    let dst = (0..space).find(|&dst| is_silent(dst)).unwrap();
    assert!(!defender.silent(0, Protocol::Http, 0, dst));
    // Blocklist every address that could answer: the scan probes only
    // silent ones.
    let axis = Axis {
        profile,
        protocol: Protocol::Http,
        probes: 2,
        delay_s: 0.0,
        pool: 1,
        seed: 7,
    };
    let mut cfg = axis.config(&world, 0);
    let answering = (0..space).filter(|&dst| !is_silent(dst));
    cfg.blocklist = Blocklist::from_cidrs(answering.map(|dst| Cidr::new(dst, 32)));
    let out = run_scan_session(&defender, &cfg, ScanSession::default()).unwrap();
    // Whatever answered was the defender refusing: no host SYN-ACKed.
    assert!(out.summary.blocked > 0 && out.summary.synacks == 0);
    assert!(defender.stats().detections > 0);
    assert!(defender.is_listed(0));
}

#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The defended sweep's axes, drawn: world and scan seeds, the
        /// profile, the module, probes, delay and pool.
        #[test]
        fn defended_bursts_match_the_provided_loop(
            world_seed in 0u64..1_000,
            seed: u64,
            profile in 0usize..4,
            module in 0usize..5,
            probes in 0usize..3,
            delayed: bool,
            wide: bool,
        ) {
            let world = WorldConfig::tiny(world_seed).build();
            let net = SimNet::new(&world, &[OriginId::Us1], DUR_S);
            let axis = Axis {
                profile: AggressionProfile::roster()[profile],
                protocol: modules()[module].protocol(),
                probes: [1, 2, 8][probes],
                delay_s: if delayed { 900.0 } else { 0.0 },
                pool: if wide { 8 } else { 1 },
                seed,
            };
            prop_assert!(axis.run(&world, &net, true) == axis.run(&world, &net, false));
        }
    }
}
