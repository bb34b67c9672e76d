//! The probe-module plugin layer.
//!
//! Real ZMap is a table of pluggable probe modules — TCP SYN, ICMP
//! echo, DNS, raw UDP payloads — sharing one permutation/pacing core.
//! This module reproduces that shape: a [`ProbeModule`] owns probe
//! construction, reply classification, and stateless validation for one
//! scan scenario, while the engine keeps everything scenario-agnostic
//! (address permutation, pacing, counters, checkpointing, the adaptive
//! controller).
//!
//! # Determinism obligations
//!
//! A module's [`deliver_burst`](ProbeModule::deliver_burst) must be a
//! pure function of the probe context, the send times and the network:
//! no interior state, no clocks, no randomness of its own. All validation state is derived from the
//! engine-owned [`Validator`] (ZMap's stateless MAC scheme), so a module
//! never needs per-target memory. This is what keeps whole experiments
//! byte-reproducible under the same seed.
//!
//! # Adding a module
//!
//! Implement [`ProbeModule`] on a unit struct, give it a stable
//! [`name`](ProbeModule::name) (the store/telemetry protocol key) and
//! [`wire_name`](ProbeModule::wire_name) (the ZMap-style module id),
//! add a [`Protocol`] variant, and register the instance in
//! [`modules`]. Everything downstream — per-module sweeps in `core`,
//! store keys, `serve` queries, telemetry scopes — picks the module up
//! from the registry.

use crate::error::{ScanError, MAX_PROBES};
use crate::target::{IcmpReply, Network, ProbeCtx, Protocol, SynReply, UdpReply};
use crate::zgrab::L7Detail;
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::ipv4::{PROTO_ICMP, PROTO_UDP};
use originscan_wire::validation::Validator;
use originscan_wire::{dns, udp, Ipv4Header, TcpHeader};
use std::sync::OnceLock;

/// The qname every DNS probe asks for (an A record, recursion desired).
pub const DNS_PROBE_QNAME: &str = "origin-scan.example.com";

/// The protocols of the paper's study: the TCP trio whose origin-bias
/// results the reproduction targets. Use this where the *paper's
/// roster* is really meant; iterate [`modules`] for every registered
/// probe module.
pub const PAPER_PROTOCOLS: [Protocol; 3] = [Protocol::Http, Protocol::Https, Protocol::Ssh];

/// How a probe module classified one delivered probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeVerdict {
    /// A validated positive reply (SYN-ACK, echo reply, DNS response).
    /// Stateless modules attach the terminal application detail here;
    /// stateful modules return `None` and let the ZGrab follow-up run.
    Positive(Option<L7Detail>),
    /// A validated negative reply (RST, ICMP unreachable): something is
    /// there, but not the scanned service.
    Negative,
    /// A reply arrived but failed stateless validation (spoofed or
    /// corrupted) — counted, never recorded.
    Invalid,
    /// No reply.
    Silent,
}

/// How a probe module classified one address's burst of probes: bit `i`
/// of a mask is probe `i` of the burst, and a probe in no mask was
/// [`ProbeVerdict::Silent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstVerdict {
    /// Probes that were [`ProbeVerdict::Positive`].
    pub(crate) positive: u8,
    /// Probes that were [`ProbeVerdict::Negative`].
    pub(crate) negative: u8,
    /// Probes that were [`ProbeVerdict::Invalid`].
    pub(crate) invalid: u8,
    /// The application detail of the first positive probe that has one.
    pub(crate) detail: Option<L7Detail>,
}

impl BurstVerdict {
    /// Classify the first `sent` replies of a burst, in probe order.
    fn fold<R>(
        replies: &[R; MAX_PROBES],
        sent: usize,
        mut classify: impl FnMut(&R) -> Result<ProbeVerdict, ScanError>,
    ) -> Result<Self, ScanError> {
        let mut v = Self::default();
        for (reply, i) in replies.iter().take(sent).zip(0u32..) {
            let bit = 1u8 << i;
            match classify(reply)? {
                ProbeVerdict::Positive(d) => {
                    v.positive |= bit;
                    v.detail = v.detail.or(d);
                }
                ProbeVerdict::Negative => v.negative |= bit,
                ProbeVerdict::Invalid => v.invalid |= bit,
                ProbeVerdict::Silent => {}
            }
        }
        Ok(v)
    }
}

/// Engine-owned state for one address's probes: the validator plus the
/// flow metadata the engine derived from the address hash.
#[derive(Debug)]
pub struct ProbeShot<'a> {
    /// The scan's stateless validator (seeded per scan).
    pub validator: &'a Validator,
    /// Source port chosen for this flow.
    pub sport: u16,
    /// Destination port (the module's [`ProbeModule::port`]).
    pub dport: u16,
    /// Whether to round-trip probe/reply bytes through the wire codecs
    /// as a self-check.
    pub wire_check: bool,
}

/// One pluggable scan scenario: probe construction, reply
/// classification, and wire metadata.
pub trait ProbeModule: Sync + std::fmt::Debug {
    /// Stable display name — the store/telemetry/serve protocol key
    /// ("HTTP", "ICMP", ...).
    fn name(&self) -> &'static str;

    /// ZMap-style wire module id ("tcp_synscan", "icmp_echoscan", ...),
    /// used as the span marker in traces.
    fn wire_name(&self) -> &'static str;

    /// The protocol this module scans.
    fn protocol(&self) -> Protocol;

    /// Destination port probed (0 where the protocol has none).
    fn port(&self) -> u16;

    /// True when a positive probe reply is already the terminal
    /// application result (no ZGrab follow-up connection).
    fn stateless(&self) -> bool;

    /// Build this module's probe for `ctx` once, deliver it to `net`
    /// `times.len()` times (at most [`MAX_PROBES`]; probe `i` leaves at
    /// `times[i]` as `ctx.probe_idx + i`, `ctx.time_s` is not read), and
    /// classify each reply.
    fn deliver_burst(
        &self,
        net: &dyn Network,
        shot: &ProbeShot<'_>,
        ctx: &ProbeCtx,
        times: &[f64],
    ) -> Result<BurstVerdict, ScanError>;

    /// One probe, sent at `ctx.time_s`: a burst of one.
    fn deliver(
        &self,
        net: &dyn Network,
        shot: &ProbeShot<'_>,
        ctx: &ProbeCtx,
    ) -> Result<ProbeVerdict, ScanError> {
        let v = self.deliver_burst(net, shot, ctx, &[ctx.time_s])?;
        Ok(if v.positive != 0 {
            ProbeVerdict::Positive(v.detail)
        } else if v.negative != 0 {
            ProbeVerdict::Negative
        } else if v.invalid != 0 {
            ProbeVerdict::Invalid
        } else {
            ProbeVerdict::Silent
        })
    }
}

/// The codec self-check of a burst's probe to `dst`, when `shot` asks for
/// it: one round trip, `ok`, per burst, every probe of a burst being the
/// same bytes (ROADMAP item 11 deletes the option).
fn check_probe(shot: &ProbeShot<'_>, dst: u32, ok: impl Fn() -> bool) -> Result<(), ScanError> {
    #[cfg(test)]
    tests::ROUND_TRIPS.with(|n| n.set(n.get() + u64::from(shot.wire_check)));
    if shot.wire_check && !ok() {
        return Err(ScanError::WireCheck { addr: dst });
    }
    Ok(())
}

/// Round-trip a TCP header through its byte encoding as a codec
/// self-check; `false` means the encoding was lossy.
pub(crate) fn tcp_wire_roundtrip(h: &TcpHeader, src: u32, dst: u32) -> bool {
    let ip = Ipv4Header::for_tcp(src, dst, h.wire_len());
    ip_wire_roundtrip(&ip) && matches!(TcpHeader::parse(&h.emit(&ip), &ip), Ok(r) if &r == h)
}

/// Round-trip an IPv4 header through its byte encoding.
fn ip_wire_roundtrip(ip: &Ipv4Header) -> bool {
    Ipv4Header::parse(&ip.emit()).is_ok_and(|reparsed| reparsed == *ip)
}

/// The TCP SYN module backing the paper's HTTP/HTTPS/SSH scans.
#[derive(Debug)]
struct TcpSynModule {
    name: &'static str,
    protocol: Protocol,
    port: u16,
}

impl ProbeModule for TcpSynModule {
    fn name(&self) -> &'static str {
        self.name
    }
    fn wire_name(&self) -> &'static str {
        "tcp_synscan"
    }
    fn protocol(&self) -> Protocol {
        self.protocol
    }
    fn port(&self) -> u16 {
        self.port
    }
    fn stateless(&self) -> bool {
        false
    }

    fn deliver_burst(
        &self,
        net: &dyn Network,
        shot: &ProbeShot<'_>,
        ctx: &ProbeCtx,
        times: &[f64],
    ) -> Result<BurstVerdict, ScanError> {
        let seq = shot
            .validator
            .probe_seq(ctx.src_ip, ctx.dst, shot.sport, shot.dport);
        let probe = TcpHeader::syn_probe(shot.sport, shot.dport, seq);
        check_probe(shot, ctx.dst, || {
            tcp_wire_roundtrip(&probe, ctx.src_ip, ctx.dst)
        })?;
        let mut replies = [SynReply::Silent; MAX_PROBES];
        net.syn_burst(ctx, &probe, times, &mut replies);
        BurstVerdict::fold(&replies, times.len(), |reply| {
            Ok(match reply {
                SynReply::SynAck(h) => {
                    if shot.validator.check_reply(h, ctx.src_ip, ctx.dst) {
                        if shot.wire_check && !tcp_wire_roundtrip(h, ctx.dst, ctx.src_ip) {
                            return Err(ScanError::WireCheck { addr: ctx.dst });
                        }
                        ProbeVerdict::Positive(None)
                    } else {
                        ProbeVerdict::Invalid
                    }
                }
                SynReply::Rst(h) => {
                    if shot.validator.check_reply(h, ctx.src_ip, ctx.dst) {
                        ProbeVerdict::Negative
                    } else {
                        ProbeVerdict::Invalid
                    }
                }
                SynReply::Silent => ProbeVerdict::Silent,
            })
        })
    }
}

/// ICMP echo (ping): the validation MAC rides in identifier/sequence
/// and the reply must mirror both.
#[derive(Debug)]
struct IcmpEchoModule;

impl ProbeModule for IcmpEchoModule {
    fn name(&self) -> &'static str {
        "ICMP"
    }
    fn wire_name(&self) -> &'static str {
        "icmp_echoscan"
    }
    fn protocol(&self) -> Protocol {
        Protocol::Icmp
    }
    fn port(&self) -> u16 {
        0
    }
    fn stateless(&self) -> bool {
        true
    }

    #[expect(clippy::cast_possible_truncation, reason = "the MAC's 16-bit halves")]
    fn deliver_burst(
        &self,
        net: &dyn Network,
        shot: &ProbeShot<'_>,
        ctx: &ProbeCtx,
        times: &[f64],
    ) -> Result<BurstVerdict, ScanError> {
        // No ports on ICMP: the MAC binds only the address pair, split
        // across the two 16-bit echo fields.
        let mac = shot.validator.probe_seq(ctx.src_ip, ctx.dst, 0, 0);
        let (ident, seq) = ((mac >> 16) as u16, mac as u16);
        let probe = IcmpEcho::request(ident, seq);
        check_probe(shot, ctx.dst, || {
            icmp_wire_roundtrip(&probe, ctx.src_ip, ctx.dst)
        })?;
        let mut replies = [IcmpReply::Silent; MAX_PROBES];
        net.icmp_burst(ctx, &probe, times, &mut replies);
        BurstVerdict::fold(&replies, times.len(), |reply| {
            Ok(match *reply {
                IcmpReply::EchoReply { ident: ri, seq: rs } => {
                    if (ri, rs) == (ident, seq) {
                        ProbeVerdict::Positive(Some(L7Detail::Icmp))
                    } else {
                        ProbeVerdict::Invalid
                    }
                }
                IcmpReply::Unreachable { .. } => ProbeVerdict::Negative,
                IcmpReply::Silent => ProbeVerdict::Silent,
            })
        })
    }
}

/// Round-trip an ICMP echo message (and its IP header) through the wire
/// codecs.
fn icmp_wire_roundtrip(probe: &IcmpEcho, src: u32, dst: u32) -> bool {
    let bytes = probe.emit();
    let ip = Ipv4Header::for_proto(PROTO_ICMP, src, dst, bytes.len());
    ip_wire_roundtrip(&ip) && matches!(IcmpEcho::parse(&bytes), Ok(r) if &r == probe)
}

/// Upper bound on the encoded probe query (41 bytes for
/// [`DNS_PROBE_QNAME`]): the size of the per-probe stack buffer.
const DNS_QUERY_BUF: usize = 64;

/// The probe's A-query for transaction id `txid`, written into `buf`:
/// a copy of the query encoded once per process with the two txid bytes
/// patched — every other byte is the same for every target. `None` if
/// the fixed qname does not encode or outgrows the buffer.
fn dns_query(txid: u16, buf: &mut [u8; DNS_QUERY_BUF]) -> Option<&[u8]> {
    static TEMPLATE: OnceLock<Option<Vec<u8>>> = OnceLock::new();
    let template = TEMPLATE
        .get_or_init(|| dns::a_query(0, DNS_PROBE_QNAME).ok())
        .as_deref()?;
    let query = buf.get_mut(..template.len())?;
    query.copy_from_slice(template);
    *query.first_chunk_mut()? = txid.to_be_bytes();
    Some(query)
}

/// DNS A-query over UDP/53: the validation MAC rides in the transaction
/// id and the response must mirror it.
#[derive(Debug)]
struct DnsUdpModule;

impl ProbeModule for DnsUdpModule {
    fn name(&self) -> &'static str {
        "DNS"
    }
    fn wire_name(&self) -> &'static str {
        "dns_udpscan"
    }
    fn protocol(&self) -> Protocol {
        Protocol::Dns
    }
    fn port(&self) -> u16 {
        53
    }
    fn stateless(&self) -> bool {
        true
    }

    #[expect(clippy::cast_possible_truncation, reason = "txid = low 16 MAC bits")]
    fn deliver_burst(
        &self,
        net: &dyn Network,
        shot: &ProbeShot<'_>,
        ctx: &ProbeCtx,
        times: &[f64],
    ) -> Result<BurstVerdict, ScanError> {
        let txid = shot
            .validator
            .probe_seq(ctx.src_ip, ctx.dst, shot.sport, shot.dport) as u16;
        let mut buf = [0u8; DNS_QUERY_BUF];
        let Some(query) = dns_query(txid, &mut buf) else {
            // The fixed probe qname always encodes; treat a failure like
            // any other codec self-check violation.
            return Err(ScanError::WireCheck { addr: ctx.dst });
        };
        check_probe(shot, ctx.dst, || udp_wire_roundtrip(query, shot, ctx))?;
        let mut replies = [const { UdpReply::Silent }; MAX_PROBES];
        net.udp_burst(ctx, query, times, &mut replies);
        BurstVerdict::fold(&replies, times.len(), |reply| {
            Ok(match reply {
                UdpReply::Data(bytes) => match dns::parse_response(bytes) {
                    Ok(r) if r.txid == txid => ProbeVerdict::Positive(Some(L7Detail::Dns {
                        rcode: r.rcode,
                        answers: u8::try_from(r.answers).unwrap_or(u8::MAX),
                    })),
                    _ => ProbeVerdict::Invalid,
                },
                UdpReply::PortUnreachable => ProbeVerdict::Negative,
                UdpReply::Silent => ProbeVerdict::Silent,
            })
        })
    }
}

/// Round-trip a UDP-encapsulated payload through the wire codecs.
fn udp_wire_roundtrip(payload: &[u8], shot: &ProbeShot<'_>, ctx: &ProbeCtx) -> bool {
    let len = udp::HEADER_LEN + payload.len();
    let ip = Ipv4Header::for_proto(PROTO_UDP, ctx.src_ip, ctx.dst, len);
    let datagram = udp::emit_datagram(shot.sport, shot.dport, payload, &ip);
    ip_wire_roundtrip(&ip)
        && matches!(udp::parse_datagram(&datagram, &ip), Ok((h, body))
            if (h.src_port, h.dst_port) == (shot.sport, shot.dport) && body == payload)
}

static HTTP_MODULE: TcpSynModule = TcpSynModule {
    name: "HTTP",
    protocol: Protocol::Http,
    port: 80,
};
static HTTPS_MODULE: TcpSynModule = TcpSynModule {
    name: "HTTPS",
    protocol: Protocol::Https,
    port: 443,
};
static SSH_MODULE: TcpSynModule = TcpSynModule {
    name: "SSH",
    protocol: Protocol::Ssh,
    port: 22,
};
static ICMP_MODULE: IcmpEchoModule = IcmpEchoModule;
static DNS_MODULE: DnsUdpModule = DnsUdpModule;

static MODULES: [&dyn ProbeModule; 5] = [
    &HTTP_MODULE,
    &HTTPS_MODULE,
    &SSH_MODULE,
    &ICMP_MODULE,
    &DNS_MODULE,
];

/// Every registered probe module, paper protocols first.
pub fn modules() -> &'static [&'static dyn ProbeModule] {
    &MODULES
}

/// The module scanning `protocol`.
pub fn module_for(protocol: Protocol) -> &'static dyn ProbeModule {
    match protocol {
        Protocol::Http => &HTTP_MODULE,
        Protocol::Https => &HTTPS_MODULE,
        Protocol::Ssh => &SSH_MODULE,
        Protocol::Icmp => &ICMP_MODULE,
        Protocol::Dns => &DNS_MODULE,
    }
}

/// Look a module up by its stable name ("HTTP", "ICMP", ...); `None`
/// for unregistered names.
pub fn by_name(name: &str) -> Option<&'static dyn ProbeModule> {
    modules().iter().copied().find(|m| m.name() == name)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// Probe round trips `check_probe` made on this thread.
        pub(crate) static ROUND_TRIPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn registry_is_consistent() {
        let names: Vec<&str> = modules().iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["HTTP", "HTTPS", "SSH", "ICMP", "DNS"]);
        for m in modules() {
            assert_eq!(module_for(m.protocol()).name(), m.name());
            assert_eq!(by_name(m.name()).map(|x| x.name()), Some(m.name()));
            assert_eq!(m.protocol().name(), m.name());
        }
        assert!(by_name("GOPHER").is_none());
        assert!(by_name("http").is_none(), "names are case-sensitive keys");
    }

    #[test]
    fn paper_roster_is_the_stateful_tcp_trio() {
        for p in PAPER_PROTOCOLS {
            let m = module_for(p);
            assert!(!m.stateless());
            assert_eq!(m.wire_name(), "tcp_synscan");
        }
        assert!(module_for(Protocol::Icmp).stateless());
        assert!(module_for(Protocol::Dns).stateless());
    }

    #[test]
    fn wire_names_are_zmap_style() {
        let wire: Vec<&str> = modules().iter().map(|m| m.wire_name()).collect();
        assert_eq!(
            wire,
            vec![
                "tcp_synscan",
                "tcp_synscan",
                "tcp_synscan",
                "icmp_echoscan",
                "dns_udpscan"
            ]
        );
    }

    /// A network answering every module positively with validated
    /// replies, so module delivery can be exercised end to end.
    #[derive(Debug)]
    struct EchoAllNet;

    impl Network for EchoAllNet {
        fn syn(&self, _ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7))
        }
        fn l7(&self, _ctx: &crate::target::L7Ctx, _request: &[u8]) -> crate::target::L7Reply {
            crate::target::L7Reply::Timeout
        }
        fn icmp(&self, _ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
            IcmpReply::EchoReply {
                ident: probe.ident,
                seq: probe.seq,
            }
        }
        fn udp(&self, _ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
            match dns::build_response(payload, dns::RCODE_NOERROR, &[0x01010101]) {
                Ok(resp) => UdpReply::Data(resp),
                Err(_) => UdpReply::Silent,
            }
        }
    }

    fn shot<'a>(validator: &'a Validator, m: &dyn ProbeModule) -> ProbeShot<'a> {
        ProbeShot {
            validator,
            sport: 40000,
            dport: m.port(),
            wire_check: true,
        }
    }

    fn ctx(m: &dyn ProbeModule) -> ProbeCtx {
        ProbeCtx {
            origin: 0,
            src_ip: 0x0a000001,
            dst: 0x08080808,
            protocol: m.protocol(),
            time_s: 1.0,
            probe_idx: 0,
            trial: 0,
        }
    }

    #[test]
    fn every_module_delivers_a_validated_positive() {
        let validator = Validator::from_seed(42);
        let net = EchoAllNet;
        for m in modules() {
            let verdict = m
                .deliver(&net, &shot(&validator, *m), &ctx(*m))
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            match verdict {
                ProbeVerdict::Positive(detail) => {
                    assert_eq!(detail.is_some(), m.stateless(), "{}", m.name());
                }
                v => panic!("{}: expected positive, got {v:?}", m.name()),
            }
        }
    }

    #[test]
    fn patched_dns_template_is_the_encoded_query() {
        for txid in [0u16, 1, 0x00ff, 0xff00, 0x4242, u16::MAX] {
            let mut buf = [0xaau8; DNS_QUERY_BUF];
            let expect = dns::a_query(txid, DNS_PROBE_QNAME).unwrap();
            assert_eq!(dns_query(txid, &mut buf), Some(expect.as_slice()));
        }
    }

    /// A network that mirrors *wrong* validation state back.
    #[derive(Debug)]
    struct SpoofNet;

    impl Network for SpoofNet {
        fn syn(&self, _ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            let mut h = TcpHeader::syn_ack_reply(probe, 7);
            h.ack = h.ack.wrapping_add(1); // no longer seq+1
            SynReply::SynAck(h)
        }
        fn l7(&self, _ctx: &crate::target::L7Ctx, _request: &[u8]) -> crate::target::L7Reply {
            crate::target::L7Reply::Timeout
        }
        fn icmp(&self, _ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
            IcmpReply::EchoReply {
                ident: probe.ident.wrapping_add(1),
                seq: probe.seq,
            }
        }
        fn udp(&self, _ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
            let Ok(mut q) = dns::parse_query(payload) else {
                return UdpReply::Silent;
            };
            q.txid = q.txid.wrapping_add(1);
            let Ok(spoofed) = dns::a_query(q.txid, &q.qname) else {
                return UdpReply::Silent;
            };
            match dns::build_response(&spoofed, 0, &[]) {
                Ok(resp) => UdpReply::Data(resp),
                Err(_) => UdpReply::Silent,
            }
        }
    }

    #[test]
    fn spoofed_replies_are_invalid_for_every_module() {
        let validator = Validator::from_seed(7);
        for m in modules() {
            let verdict = m
                .deliver(&SpoofNet, &shot(&validator, *m), &ctx(*m))
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert_eq!(verdict, ProbeVerdict::Invalid, "{}", m.name());
        }
    }

    /// A network that refuses every probe with a validated negative.
    #[derive(Debug)]
    struct RefuseNet;

    impl Network for RefuseNet {
        fn syn(&self, _ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            SynReply::Rst(TcpHeader::rst_reply(probe))
        }
        fn l7(&self, _ctx: &crate::target::L7Ctx, _r: &[u8]) -> crate::target::L7Reply {
            crate::target::L7Reply::Timeout
        }
        fn icmp(&self, _ctx: &ProbeCtx, _probe: &IcmpEcho) -> IcmpReply {
            IcmpReply::Unreachable {
                code: originscan_wire::icmp::CODE_PORT_UNREACHABLE,
            }
        }
        fn udp(&self, _ctx: &ProbeCtx, _payload: &[u8]) -> UdpReply {
            UdpReply::PortUnreachable
        }
    }

    #[test]
    fn negative_replies_classify_as_negative() {
        let validator = Validator::from_seed(9);
        for m in modules() {
            let verdict = m
                .deliver(&RefuseNet, &shot(&validator, *m), &ctx(*m))
                .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert_eq!(verdict, ProbeVerdict::Negative, "{}", m.name());
        }
    }

    /// A network whose answer turns with the probe: accept, refuse,
    /// spoof or stay silent by address + probe index + send second.
    #[derive(Debug)]
    struct TurningNet;

    impl TurningNet {
        fn pick<'a>(&self, ctx: &ProbeCtx) -> Option<&'a dyn Network> {
            let turn = ctx.dst + u32::from(ctx.probe_idx) + ctx.time_s as u32;
            [
                Some(&EchoAllNet as &dyn Network),
                Some(&RefuseNet as &dyn Network),
                Some(&SpoofNet as &dyn Network),
                None,
            ][turn as usize % 4]
        }
    }

    impl Network for TurningNet {
        fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            self.pick(ctx)
                .map_or(SynReply::Silent, |net| net.syn(ctx, probe))
        }
        fn l7(&self, _ctx: &crate::target::L7Ctx, _r: &[u8]) -> crate::target::L7Reply {
            crate::target::L7Reply::Timeout
        }
        fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
            self.pick(ctx)
                .map_or(IcmpReply::Silent, |net| net.icmp(ctx, probe))
        }
        fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
            self.pick(ctx)
                .map_or(UdpReply::Silent, |net| net.udp(ctx, payload))
        }
    }

    #[test]
    fn a_burst_is_its_probes_delivered_one_by_one() {
        let validator = Validator::from_seed(11);
        let nets: [&dyn Network; 4] = [&SpoofNet, &RefuseNet, &EchoAllNet, &TurningNet];
        let mut seen = BurstVerdict::default();
        for m in modules() {
            let shot = shot(&validator, *m);
            for (net, n, dst) in nets
                .iter()
                .flat_map(|net| (1..=MAX_PROBES).map(move |n| (*net, n)))
                .flat_map(|(net, n)| (0..4).map(move |dst| (net, n, dst)))
            {
                let ctx = ProbeCtx {
                    dst,
                    time_s: f64::NAN, // a burst must not read it
                    probe_idx: 1,
                    ..ctx(*m)
                };
                let times: Vec<f64> = (0..n).map(|i| 3.0 + (i / 2) as f64).collect();
                let mut want = BurstVerdict::default();
                for (&time_s, i) in times.iter().zip(0u8..) {
                    let one = ProbeCtx {
                        time_s,
                        probe_idx: ctx.probe_idx + i,
                        ..ctx
                    };
                    match m.deliver(net, &shot, &one).unwrap() {
                        ProbeVerdict::Positive(d) => {
                            want.positive |= 1 << i;
                            want.detail = want.detail.or(d);
                        }
                        ProbeVerdict::Negative => want.negative |= 1 << i,
                        ProbeVerdict::Invalid => want.invalid |= 1 << i,
                        ProbeVerdict::Silent => {}
                    }
                }
                let got = m.deliver_burst(net, &shot, &ctx, &times).unwrap();
                assert_eq!(got, want, "{} × {n} to {dst}", m.name());
                seen.positive |= got.positive;
                seen.negative |= got.negative;
                seen.invalid |= got.invalid;
            }
        }
        // Every probe of a full burst was, somewhere, each kind of answer.
        assert_eq!(
            (seen.positive, seen.negative, seen.invalid),
            (255, 255, 255)
        );
    }
}
