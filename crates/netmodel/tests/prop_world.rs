//! Property tests: world-generation invariants must hold for every seed.
// Gated: runs only with `--features proptest` (vendored shim; see
// third_party/proptest). The default offline build skips these suites.
#![cfg(feature = "proptest")]

use originscan_netmodel::policy::{ids, reputation};
use originscan_netmodel::proto_key;
use originscan_netmodel::Tag;
use originscan_netmodel::{
    events_for, flaky_half, path_params, Cause, OriginId, Protocol, SimNet, WorldConfig,
};
use originscan_scanner::target::{
    IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, SynReply, UdpReply,
};
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::{dns, TcpHeader};
use proptest::prelude::*;

/// Trials the path-state table is asked about: the study's three, two
/// past them, and the last a `u8` can name.
const TRIALS: [u8; 6] = [0, 1, 2, 7, 8, 255];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The /24 space is fully allocated to ASes, contiguously.
    #[test]
    fn space_fully_allocated(seed: u64) {
        let w = WorldConfig::tiny(seed).build();
        let mut next = 0u32;
        for a in &w.ases {
            prop_assert_eq!(a.first_slash24, next);
            next += a.n_slash24;
        }
        prop_assert_eq!(next, w.config.slash24s);
    }

    /// Host lists are sorted, deduplicated, and inside the space.
    #[test]
    fn host_lists_well_formed(seed: u64) {
        let w = WorldConfig::tiny(seed).build();
        for p in originscan_scanner::probe::modules().iter().map(|m| m.protocol()) {
            let hosts = w.hosts(p);
            prop_assert!(hosts.windows(2).all(|x| x[0] < x[1]));
            prop_assert!(hosts.iter().all(|&h| u64::from(h) < w.space()));
            for &h in hosts.iter().step_by(7) {
                prop_assert!(w.is_host(p, h));
            }
        }
    }

    /// A host's long-term wall, and the layer it acts at, are a function
    /// of its identity: the same at every send time, from fresh nets.
    #[test]
    fn blocking_is_a_function_of_identity(seed: u64, addr_salt in 0u32..1000) {
        let w = WorldConfig::tiny(seed).build();
        let hosts = w.hosts(Protocol::Https);
        let addr = hosts[addr_salt as usize % hosts.len()];
        let wall = |c: Cause| matches!(c, Cause::ReputationWall { .. } | Cause::GeoWall { .. });
        for o in [OriginId::Censys, OriginId::Brazil, OriginId::Us64] {
            let a = SimNet::new(&w, &[o], 75_600.0).cause(0, Protocol::Https, 0, addr, 0.0);
            let b = SimNet::new(&w, &[o], 75_600.0).cause(0, Protocol::Https, 0, addr, 75_000.0);
            prop_assert_eq!(wall(a), wall(b));
            if wall(a) {
                prop_assert_eq!(a, b);
            }
        }
    }

    /// US1 and US64 share address space: a reputation or geographic wall
    /// that hits one hits the other at the same layer (their differences
    /// come from IDS evasion and path randomness, not static blocking;
    /// `SimNet::cause` asks the walls before the IDS).
    #[test]
    fn us1_us64_share_static_blocking(seed: u64) {
        let w = WorldConfig::tiny(seed).build();
        let us1 = SimNet::new(&w, &[OriginId::Us1], 75_600.0);
        let us64 = SimNet::new(&w, &[OriginId::Us64], 75_600.0);
        let wall = |c: Cause| matches!(c, Cause::ReputationWall { .. } | Cause::GeoWall { .. });
        for &addr in w.hosts(Protocol::Http) {
            for time_s in [0.0, 75_000.0] {
                let a = us1.cause(0, Protocol::Http, 1, addr, time_s);
                let b = us64.cause(0, Protocol::Http, 1, addr, time_s);
                prop_assert_eq!(wall(a), wall(b), "{}: {:?} {:?}", addr, a, b);
                if wall(a) {
                    prop_assert_eq!(a, b);
                }
            }
        }
    }

    /// Censys never sees DXTL; everyone who is not Censys-reputation does
    /// (modulo the independent per-host channel).
    #[test]
    fn dxtl_invariant(seed: u64) {
        let w = WorldConfig::tiny(seed).build();
        let dxtl = w.as_by_name("DXTL Tseung Kwan O Service").unwrap();
        let lo = dxtl.first_slash24 * 256;
        let blocked = (lo..lo + 256)
            .filter(|&a| reputation::blocks(&w, OriginId::Censys, dxtl, a, Protocol::Http, 0))
            .count();
        prop_assert!(blocked >= 255, "{blocked}/256 blocked");
    }

    /// A net that has been answering for a while says what a net built
    /// for the one question says, through every entry point, and what it
    /// stored for the path is the direct derivation.
    #[test]
    fn long_lived_net_answers_like_a_fresh_one(
        seed: u64,
        asks in proptest::collection::vec(
            (
                (0u16..7, 0usize..5, 0usize..6),
                any::<u32>(),
                0.0f64..75_600.0,
                0u8..2,
                0u8..4,
            ),
            64..256,
        ),
    ) {
        let w = WorldConfig::tiny(seed).build();
        let modules = originscan_scanner::probe::modules();
        let warm = SimNet::new(&w, &OriginId::MAIN, 75_600.0);
        for ((origin, proto, trial), pick, time_s, probe_idx, attempt) in asks {
            let protocol = modules[proto].protocol();
            let trial = TRIALS[trial];
            // Mostly deployed hosts: an empty address never reaches the
            // path state.
            let hosts = w.hosts(protocol);
            let dst = if pick % 8 == 0 {
                pick % w.space() as u32
            } else {
                hosts[pick as usize % hosts.len()]
            };
            let ctx = ProbeCtx {
                origin,
                src_ip: 0x0a00_0001,
                dst,
                protocol,
                time_s,
                probe_idx,
                trial,
            };
            let l7 = L7Ctx {
                origin,
                src_ip: ctx.src_ip,
                dst,
                protocol,
                time_s,
                trial,
                attempt,
                concurrent_origins: 7,
            };
            let syn = TcpHeader::syn_probe(40_000, 80, pick);
            let echo = IcmpEcho::request(7, pick as u16);
            let query = dns::a_query(pick as u16, "origin-scan.example.com").unwrap();
            let fresh = SimNet::new(&w, &OriginId::MAIN, 75_600.0);
            prop_assert_eq!(warm.syn(&ctx, &syn), fresh.syn(&ctx, &syn));
            prop_assert_eq!(warm.icmp(&ctx, &echo), fresh.icmp(&ctx, &echo));
            prop_assert_eq!(warm.udp(&ctx, &query), fresh.udp(&ctx, &query));
            prop_assert_eq!(warm.l7(&l7, b""), fresh.l7(&l7, b""));

            let asr = w.as_of(dst);
            let o = OriginId::MAIN[usize::from(origin)];
            let params = path_params(&w, o, asr, protocol, trial);
            let stored = warm.path_state(origin, asr, protocol, trial);
            prop_assert_eq!(stored.params, params);
            prop_assert_eq!(stored.flaky_half, flaky_half(params.flaky_q));
            prop_assert_eq!(stored.bursts(), events_for(&w, asr.index, protocol, trial));
            prop_assert_eq!(stored.ids, ids::detection(&w, o, asr, protocol, trial));
            prop_assert_eq!(
                stored.wall.blocks(&w, o, asr, dst, protocol),
                reputation::blocks(&w, o, asr, dst, protocol, trial)
            );
        }
    }

    /// A burst through `SimNet`'s overrides is the provided loop over its
    /// scalar probes: same replies for back-to-back probes and for probes
    /// spread over hours (flakiness and outage windows end in between).
    #[test]
    fn bursts_are_the_provided_loop_over_scalar_probes(
        seed: u64,
        asks in proptest::collection::vec(
            (
                (0u16..7, 0usize..5, 0usize..6),
                any::<u32>(),
                proptest::collection::vec(0.0f64..75_600.0, 1..9),
                any::<bool>(),
                0u8..2,
            ),
            32..128,
        ),
    ) {
        /// Only the scalar probes, so the bursts are the trait's own.
        struct ScalarOnly<'a>(&'a SimNet<'a>);
        impl Network for ScalarOnly<'_> {
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
        const N: usize = originscan_scanner::MAX_PROBES;
        let w = WorldConfig::tiny(seed).build();
        let modules = originscan_scanner::probe::modules();
        let net = SimNet::new(&w, &OriginId::MAIN, 75_600.0);
        let scalar = ScalarOnly(&net);
        for ((origin, proto, trial), pick, mut times, back_to_back, probe_idx) in asks {
            if back_to_back {
                let first = times[0];
                times.fill(first);
            }
            let protocol = modules[proto].protocol();
            let hosts = w.hosts(protocol);
            let dst = if pick % 8 == 0 {
                pick % w.space() as u32
            } else {
                hosts[pick as usize % hosts.len()]
            };
            let ctx = ProbeCtx {
                origin,
                src_ip: 0x0a00_0001,
                dst,
                protocol,
                time_s: f64::NAN,
                probe_idx,
                trial: TRIALS[trial],
            };
            let syn = TcpHeader::syn_probe(40_000, 80, pick);
            let (mut got, mut want) = ([SynReply::Silent; N], [SynReply::Silent; N]);
            net.syn_burst(&ctx, &syn, &times, &mut got);
            scalar.syn_burst(&ctx, &syn, &times, &mut want);
            prop_assert_eq!(got, want);
            let echo = IcmpEcho::request(7, pick as u16);
            let (mut got, mut want) = ([IcmpReply::Silent; N], [IcmpReply::Silent; N]);
            net.icmp_burst(&ctx, &echo, &times, &mut got);
            scalar.icmp_burst(&ctx, &echo, &times, &mut want);
            prop_assert_eq!(got, want);
            let query = dns::a_query(pick as u16, "origin-scan.example.com").unwrap();
            let mut got = [const { UdpReply::Silent }; N];
            let mut want = [const { UdpReply::Silent }; N];
            net.udp_burst(&ctx, &query, &times, &mut got);
            scalar.udp_burst(&ctx, &query, &times, &mut want);
            prop_assert_eq!(got, want);
        }
    }

    /// In any world, a burst of the probed protocol to an address whose
    /// audible bit is clear gets no reply, at any send times.
    #[test]
    fn inaudible_addresses_answer_no_burst(
        seed: u64,
        density in 0.05f64..2.0,
        asks in proptest::collection::vec(
            (
                (0u16..7, 0usize..5, 0usize..6),
                any::<u32>(),
                proptest::collection::vec(0.0f64..75_600.0, 1..9),
            ),
            256..1024,
        ),
    ) {
        const N: usize = originscan_scanner::MAX_PROBES;
        let mut wc = WorldConfig::tiny(seed);
        wc.density_scale = density;
        let w = wc.build();
        let modules = originscan_scanner::probe::modules();
        let net = SimNet::new(&w, &OriginId::MAIN, 75_600.0);
        for ((origin, proto, trial), pick, times) in asks {
            let dst = pick % w.space() as u32;
            let protocol = modules[proto].protocol();
            let ctx = ProbeCtx {
                origin,
                src_ip: 0x0a00_0001,
                dst,
                protocol,
                time_s: f64::NAN,
                probe_idx: 0,
                trial: TRIALS[trial],
            };
            if net.audible(origin, protocol, ctx.trial).unwrap().contains(dst) {
                continue;
            }
            match protocol {
                Protocol::Icmp => {
                    let echo = IcmpEcho::request(7, pick as u16);
                    let mut got = [IcmpReply::Unreachable { code: 0 }; N];
                    net.icmp_burst(&ctx, &echo, &times, &mut got);
                    prop_assert!(got[..times.len()].iter().all(|r| *r == IcmpReply::Silent));
                }
                Protocol::Dns => {
                    let query = dns::a_query(pick as u16, "origin-scan.example.com").unwrap();
                    let mut got = [const { UdpReply::PortUnreachable }; N];
                    net.udp_burst(&ctx, &query, &times, &mut got);
                    prop_assert!(got[..times.len()].iter().all(|r| *r == UdpReply::Silent));
                }
                _ => {
                    let syn = TcpHeader::syn_probe(40_000, 80, pick);
                    let mut got = [SynReply::SynAck(syn); N];
                    net.syn_burst(&ctx, &syn, &times, &mut got);
                    prop_assert!(got[..times.len()].iter().all(|r| *r == SynReply::Silent));
                }
            }
        }
    }

    /// In any world, a clear audible bit is the model's definition of an
    /// address nothing answers: no live host of the protocol this trial, no
    /// closed-port RST (20 %) from a live machine of another trio
    /// protocol, and for ICMP no host-unreachable from the last-hop
    /// router (15 %).
    #[test]
    fn audible_is_the_reference_definition(
        seed: u64,
        asks in proptest::collection::vec((0usize..5, 0usize..6, any::<u32>()), 512..2048),
    ) {
        let w = WorldConfig::tiny(seed).build();
        let modules = originscan_scanner::probe::modules();
        let net = SimNet::new(&w, &OriginId::MAIN, 75_600.0);
        let trio = [Protocol::Http, Protocol::Https, Protocol::Ssh];
        let draw = |words: &[u64], p: f64| w.det().bernoulli(Tag::ClosedPort, words, p);
        for (proto, trial, pick) in asks {
            let (protocol, trial) = (modules[proto].protocol(), TRIALS[trial]);
            // Mostly machines of some kind, where the cases differ.
            let dst = if pick % 4 == 0 {
                pick % w.space() as u32
            } else {
                let machines = w.hosts(Protocol::Icmp);
                machines[pick as usize % machines.len()]
            };
            let live = w.is_host(protocol, dst) && w.alive(protocol, dst, trial);
            let closed = !w.is_host(protocol, dst)
                && trio
                    .into_iter()
                    .any(|p| p != protocol && w.is_host(p, dst) && w.alive(p, dst, trial))
                && draw(&[u64::from(dst), proto_key(protocol)], 0.20);
            let router = protocol == Protocol::Icmp && draw(&[2, u64::from(dst), 1], 0.15);
            prop_assert_eq!(
                !net.audible(0, protocol, trial).unwrap().contains(dst),
                !live && !closed && !router,
                "{} trial {} at {}", protocol, trial, dst
            );
        }
    }

    /// Worlds with different seeds differ somewhere observable.
    #[test]
    fn seeds_matter(seed in 0u64..1_000_000) {
        let a = WorldConfig::tiny(seed).build();
        let b = WorldConfig::tiny(seed + 1).build();
        prop_assert_ne!(a.hosts(Protocol::Http), b.hosts(Protocol::Http));
    }
}
