//! `SimNet`: the simulated Internet as seen through a scanner's NIC.
//!
//! Implements [`originscan_scanner::target::Network`] for a [`World`].
//! The order in which the mechanisms decide a host's fate lives in one
//! function, [`SimNet::cause`]: host existence and churn → closed port →
//! reputation wall → geographic wall → temporal blocking (IDS) →
//! persistent path failure → burst outages → correlated transient
//! flakiness, else reachable. [`SimNet::l7_cause`] continues it after the
//! handshake: L7 flakiness → Alibaba's RST → `MaxStartups`. Both return a
//! [`Cause`], and every reply (SYN, ICMP, UDP, L7) is a projection of it;
//! only independent per-probe drop is drawn per probe, inside the
//! projection of a reachable cause. The keys exclude the probe index, so
//! both probes and the L7 connection agree on the host's fate. A served
//! handshake is protocol-correct bytes from the `originscan-wire` codecs.
//!
//! # Each decision once per its key
//!
//! Much of that derivation does not depend on the address, the origin or
//! the send time, and a scan would otherwise pay for it at every address
//! and again in `l7`. So a `SimNet` owns a table of write-once slots,
//! each filled the first time a probe needs it and read without a lock
//! afterwards:
//!
//! * per (protocol, trial), the **answer set**: one bit per address of
//!   the world, set where a live host of the protocol stands or where a
//!   live machine of another trio protocol answers the closed port with a
//!   RST. Every other address is `Absent` at every send time, and a
//!   host's cause starts from its bit. [`Network::audible`] lends it to a
//!   scan, but for ICMP: an echo to an absent address can still meet the
//!   last-hop router's unreachable ([`router_answers`]), so ICMP lends a
//!   second set, the answer set plus those addresses. It stays apart
//!   because [`SimNet::cause`] reads the answer set to decide `Absent`;
//! * per (origin, destination AS, protocol, trial), the [`PathState`]
//!   ([`path::path_state`]): loss parameters, burst events, and the
//!   AS-level halves of the reputation wall and the IDS.
//!
//! Nothing is allocated for a (trial), an (origin, protocol) or an AS no
//! probe has touched, which keeps [`SimNet::new`] cheap.
//!
//! The net is shared by an experiment's scan threads, so which thread
//! fills a slot — and in what order slots fill — varies from run to run.
//! That cannot reach any output: the stored value is a pure function of
//! the slot's key and the world seed, so every thread would have written
//! the same bytes, and a reader never sees a slot half-written.

use crate::asn::AsRecord;
use crate::burst;
use crate::host::{self, Protocol};
use crate::origin::OriginId;
use crate::path::{self, PathParams, PathState};
use crate::policy::{self, alibaba, geo_restrict, maxstartups};
use crate::rng::Tag;
use crate::world::{proto_slot, World, PROTO_SLOTS};
use originscan_scanner::probe::PAPER_PROTOCOLS;
use originscan_scanner::target::{
    Audible, CloseKind, IcmpReply, L7Ctx, L7Reply, Line, Network, ProbeCtx, SynReply, UdpReply,
};
use originscan_wire::dns;
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::tcp::TcpHeader;
use std::sync::OnceLock;

/// A fixed-length row of write-once slots, each filled on first use.
#[derive(Debug)]
struct Slots<T> {
    row: Box<[OnceLock<T>]>,
}

impl<T> Slots<T> {
    fn new(len: usize) -> Self {
        Self {
            row: (0..len).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The value in slot `i`, computing it with `fill` if this is the
    /// first use. Callers racing on an empty slot all get the one value
    /// that was stored.
    #[expect(
        clippy::indexing_slicing,
        reason = "rows are sized to their key range: 256 trials, PROTO_SLOTS, origins × PROTO_SLOTS, ASes"
    )]
    fn get_or_fill(&self, i: usize, fill: impl FnOnce() -> T) -> &T {
        self.row[i].get_or_init(fill)
    }
}

/// What a `SimNet` stores for one trial.
#[derive(Debug)]
struct TrialTable {
    /// The answer set by protocol slot ([`answer_set`]).
    answers: Slots<Box<[Line]>>,
    /// ICMP's audible set ([`icmp_audible`]).
    icmp: OnceLock<Box<[Line]>>,
    /// [`PathState`] by (origin index, protocol), then AS index.
    paths: Slots<Slots<PathState>>,
}

/// The simulated network an experiment scans.
pub struct SimNet<'w> {
    world: &'w World,
    /// Maps the scanner's opaque `ctx.origin` index to an origin.
    origins: &'w [OriginId],
    /// Simulated scan duration (time normalization for temporal models).
    duration_s: f64,
    /// What is stored per trial; see the module docs.
    trials: Slots<TrialTable>,
}

impl std::fmt::Debug for SimNet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The table is a cache of derived values, and thousands of slots.
        f.debug_struct("SimNet")
            .field("origins", &self.origins)
            .field("duration_s", &self.duration_s)
            .finish_non_exhaustive()
    }
}

/// Probability that an address hosting a *different* protocol's service
/// answers this port with a RST (machine up, port closed).
const CLOSED_PORT_RST_P: f64 = 0.20;

/// Probability the last-hop router answers an ICMP echo to a missing
/// machine with a host-unreachable message (most absences are silent).
const ROUTER_UNREACHABLE_P: f64 = 0.15;

/// ICMP destination-unreachable code for "host unreachable".
const CODE_HOST_UNREACHABLE: u8 = 1;

/// Does a live machine at `addr` without a `proto` service answer that
/// port with a RST? Deliberately asked only of the paper's TCP trio (the
/// keyed draws feed the byte-reproducible trio scans).
fn closes_port(w: &World, addr: u32, proto: Protocol) -> bool {
    w.det().bernoulli(
        Tag::ClosedPort,
        &[u64::from(addr), host::proto_key(proto)],
        CLOSED_PORT_RST_P,
    )
}

/// Does the last-hop router answer an ICMP echo to `dst` when no live
/// machine does? Keyed by the address alone, on the world's
/// [`router_key`](World::router_key) stream.
fn router_answers(w: &World, dst: u32) -> bool {
    w.router_key().bernoulli(
        &[u64::from(dst), host::proto_key(Protocol::Icmp)],
        ROUTER_UNREACHABLE_P,
    )
}

/// The addresses that can answer `proto` at all in `trial`, one bit each
/// over the world's space: a host of `proto` that is alive, or a machine
/// of another trio protocol that is alive and answers the closed port
/// ([`closes_port`]). Built from the host lists, so it costs the world's
/// trio machines, not its space.
fn answer_set(w: &World, proto: Protocol, trial: u8) -> Box<[Line]> {
    let mut lines = Line::zeroed(w.space());
    let mut set = |addr: u32| Line::set(&mut lines, addr);
    for &addr in w.hosts(proto) {
        if w.alive(proto, addr, trial) {
            set(addr);
        }
    }
    for other in PAPER_PROTOCOLS.into_iter().filter(|&p| p != proto) {
        for &addr in w.hosts(other) {
            // The cheaper, rarer draw first.
            if !w.is_host(proto, addr) && closes_port(w, addr, proto) && w.alive(other, addr, trial)
            {
                set(addr);
            }
        }
    }
    lines.into_boxed_slice()
}

/// ICMP's audible set: its answer set, plus every address of the set's
/// lines outside it whose last-hop router answers ([`router_answers`]).
/// One pass over the lines, a router draw per absent address.
fn icmp_audible(w: &World, answers: &[Line]) -> Box<[Line]> {
    let mut lines = answers.to_vec();
    for (line, base) in lines.iter_mut().zip((0u32..).step_by(1024)) {
        for (word, at) in line.0.iter_mut().zip((base..).step_by(64)) {
            let absent = !*word;
            for bit in (0..64).filter(|bit| absent >> bit & 1 != 0) {
                if router_answers(w, at + bit) {
                    *word |= 1 << bit;
                }
            }
        }
    }
    lines.into_boxed_slice()
}

impl<'w> SimNet<'w> {
    /// Wrap a world for scanning by the given origin roster.
    pub fn new(world: &'w World, origins: &'w [OriginId], duration_s: f64) -> Self {
        assert!(!origins.is_empty());
        assert!(duration_s > 0.0);
        Self {
            world,
            origins,
            duration_s,
            trials: Slots::new(usize::from(u8::MAX) + 1),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`idx` is a `ScanConfig.origin` from the roster this net was built with"
    )]
    fn origin(&self, idx: u16) -> OriginId {
        self.origins[usize::from(idx)]
    }

    fn trial(&self, trial: u8) -> &TrialTable {
        self.trials.get_or_fill(usize::from(trial), || TrialTable {
            answers: Slots::new(PROTO_SLOTS),
            icmp: OnceLock::new(),
            paths: Slots::new(self.origins.len() * PROTO_SLOTS),
        })
    }

    /// The (protocol, trial) answer set ([`answer_set`]), built on first
    /// use.
    fn answer_set(&self, proto: Protocol, trial: u8) -> &[Line] {
        self.trial(trial)
            .answers
            .get_or_fill(proto_slot(proto), || answer_set(self.world, proto, trial))
    }

    /// Can `addr` answer `proto` at all in `trial`: is its bit in the
    /// answer set? An address outside the world cannot.
    fn answers(&self, proto: Protocol, trial: u8, addr: u32) -> bool {
        self.answer_set(proto, trial)
            .get((addr / 1024) as usize)
            .and_then(|line| line.0.get((addr / 64 % 16) as usize))
            .is_some_and(|word| word & (1 << (addr % 64)) != 0)
    }

    /// The path state from origin number `origin` (an index into this
    /// net's roster) into `asr` for one (protocol, trial): computed by
    /// `path::path_state` on first use, then served from the table.
    pub fn path_state(
        &self,
        origin: u16,
        asr: &AsRecord,
        proto: Protocol,
        trial: u8,
    ) -> &PathState {
        let w = self.world;
        self.trial(trial)
            .paths
            .get_or_fill(
                usize::from(origin) * PROTO_SLOTS + proto_slot(proto),
                || Slots::new(w.ases.len()),
            )
            .get_or_fill(asr.index as usize, || {
                path::path_state(w, self.origin(origin), asr, proto, trial)
            })
    }

    /// Why a probe from origin number `origin` to `addr` for `proto`,
    /// sent at `time_s` of `trial`, meets the reply it does: the first
    /// mechanism of the module's order that decides the host's fate, or
    /// [`Cause::Reachable`] with the path's loss rates. Never one of the
    /// L7-stage causes; [`SimNet::l7_cause`] continues from here.
    pub fn cause(&self, origin: u16, proto: Protocol, trial: u8, addr: u32, time_s: f64) -> Cause {
        if !self.answers(proto, trial, addr) {
            return Cause::Absent;
        }
        let w = self.world;
        if !w.is_host(proto, addr) {
            // The machine runs another service: closed port.
            return Cause::ClosedPort;
        }
        let o = self.origin(origin);
        let asr = w.as_of(addr);
        let path = self.path_state(origin, asr, proto, trial);
        let l7 = || policy::filtered_at_l7(w, addr);
        if path.wall.blocks(w, o, asr, addr, proto) {
            return Cause::ReputationWall { l7: l7() };
        }
        if geo_restrict::blocks(w, o, asr, addr) {
            return Cause::GeoWall { l7: l7() };
        }
        if path.ids.blocked_at(time_s, self.duration_s) {
            return Cause::Ids;
        }
        let PathParams {
            drop_p,
            flaky_q,
            persistent_f,
        } = path.params;
        if path::host_persistent_unreachable(w, o, addr, persistent_f) {
            return Cause::PersistentPath;
        }
        if burst::in_burst(
            w,
            path.bursts(),
            o,
            addr,
            asr.index,
            trial,
            time_s,
            self.duration_s,
        ) {
            return Cause::Burst;
        }
        if path::host_flaky(w, o, addr, proto, trial, time_s, path.flaky_half) {
            return Cause::FlakyHost;
        }
        Cause::Reachable { drop_p, flaky_q }
    }

    /// What the application handshake of `ctx` meets: [`SimNet::cause`]
    /// at `ctx.time_s`, then, for a reachable host, L7 flakiness (a state
    /// for the whole scan, so it comes before the per-attempt mechanisms
    /// and retries cannot flip a host between failure categories),
    /// Alibaba's SSH reset and the `MaxStartups` draw of this attempt.
    pub fn l7_cause(&self, ctx: &L7Ctx) -> Cause {
        let (w, addr, proto, t) = (self.world, ctx.dst, ctx.protocol, ctx.trial);
        let cause = self.cause(ctx.origin, proto, t, addr, ctx.time_s);
        let Cause::Reachable { flaky_q, .. } = cause else {
            return cause;
        };
        let (o, asr) = (self.origin(ctx.origin), w.as_of(addr));
        if path::l7_flaky(w, o, addr, proto, t, flaky_q) {
            Cause::L7Flaky
        } else if proto == Protocol::Ssh
            && alibaba::rst_after_handshake(w, o, asr, t, ctx.time_s, self.duration_s)
        {
            Cause::AlibabaRst
        } else if proto == Protocol::Ssh
            && maxstartups::refuses(w, o, asr, addr, t, ctx.attempt, ctx.concurrent_origins)
        {
            Cause::MaxStartups
        } else {
            cause
        }
    }

    /// The cause behind each probe of a burst: derived for the first and
    /// again only where a probe's send time differs from the one before
    /// it (a `probe_delay_s`, or a batch boundary or rate change between
    /// two probes).
    fn burst_causes<'a>(
        &'a self,
        ctx: &'a ProbeCtx,
        proto: Protocol,
        times: &'a [f64],
    ) -> impl Iterator<Item = Cause> + 'a {
        let mut last: Option<(u64, Cause)> = None;
        times.iter().map(move |&t| match last {
            Some((bits, cause)) if bits == t.to_bits() => cause,
            _ => {
                let cause = self.cause(ctx.origin, proto, ctx.trial, ctx.dst, t);
                last = Some((t.to_bits(), cause));
                cause
            }
        })
    }

    /// What the resolver at `addr` sends back for `payload`, if both
    /// legs deliver.
    fn resolver_response(&self, addr: u32, payload: &[u8]) -> UdpReply {
        let w = self.world;
        // A resolver ignores datagrams that do not parse as a
        // single-question query.
        if dns::parse_query(payload).is_err() {
            return UdpReply::Silent;
        }
        // Resolver behaviour is a per-host attribute: most answer the A
        // query, some return NXDOMAIN, closed resolvers refuse outside
        // their client networks.
        let u = w.det().uniform(Tag::ServerAttr, &[u64::from(addr), 53, 0]);
        let answers: Vec<u32>;
        let rcode = if u < 0.70 {
            let n = 1 + w.det().below(Tag::ServerAttr, &[u64::from(addr), 53, 1], 2);
            answers = (0..n)
                .map(|i| w.det().hash(Tag::ServerAttr, &[u64::from(addr), 53, 2 + i]) as u32)
                .collect();
            dns::RCODE_NOERROR
        } else if u < 0.85 {
            answers = Vec::new();
            dns::RCODE_NXDOMAIN
        } else {
            answers = Vec::new();
            dns::RCODE_REFUSED
        };
        match dns::build_response(payload, rcode, &answers) {
            Ok(resp) => UdpReply::Data(resp),
            Err(_) => UdpReply::Silent,
        }
    }
}

/// Why `SimNet` answers as it does: the mechanism that decides a host's
/// fate for one (origin, protocol, trial) at one send time, named in the
/// order [`SimNet::cause`] and [`SimNet::l7_cause`] consult them. A wall
/// with `l7` set lets the TCP handshake (and ping) through and stalls
/// the application connection; every other cause before `Reachable`
/// silences the probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cause {
    /// No live machine answers this protocol at the address this trial.
    Absent,
    /// Machine up, this port closed: a TCP probe meets a RST.
    ClosedPort,
    /// The AS's reputation blocklist filters the origin (§4).
    ReputationWall {
        /// The filter acts above TCP.
        l7: bool,
    },
    /// A geographic allow or deny list filters the origin (§4).
    GeoWall {
        /// The filter acts above TCP.
        l7: bool,
    },
    /// The AS's rate IDS has detected the origin (§4.3).
    Ids,
    /// The host is persistently unreachable from the origin (§4.2).
    PersistentPath,
    /// Inside one of the AS's hour-scale outages (§5.3).
    Burst,
    /// Transiently unreachable in this flakiness window (§5).
    FlakyHost,
    /// Reachable, each probe subject to independent drop.
    Reachable {
        /// Per-probe independent drop probability.
        drop_p: f64,
        /// The path's flakiness level (reused for L7-stage failures).
        flaky_q: f64,
    },
    /// The handshake completes, then the application exchange fails for
    /// the whole scan (§6).
    L7Flaky,
    /// Alibaba resets SSH connections right after the handshake (§6).
    AlibabaRst,
    /// sshd's `MaxStartups` refuses this attempt (§6).
    MaxStartups,
}

impl Cause {
    /// The drop rate of a SYN or an echo request that the machine
    /// answers, or `None` where it answers neither: an L7 wall acts above
    /// the transport and drops nothing; a reachable host loses probes
    /// independently.
    fn answered_drop_p(self) -> Option<f64> {
        match self {
            Cause::Reachable { drop_p, .. } => Some(drop_p),
            Cause::ReputationWall { l7: true } | Cause::GeoWall { l7: true } => Some(0.0),
            _ => None,
        }
    }
}

// One probe's reply, a projection of the cause at its send time: the
// rules of the scalar probes and of the bursts alike. What does not
// depend on the probe index beyond the cause — the ISN, the router's
// answer, the resolver's response — sits in an `Option` the caller keeps
// for the burst, filled by the first probe that needs it; only the drop
// draws are per probe. Each rule has its two callers and is inlined into
// both: out of line, every probe's reply goes back through a stack slot.
impl SimNet<'_> {
    #[inline(always)]
    fn syn_reply(
        &self,
        ctx: &ProbeCtx,
        probe: &TcpHeader,
        cause: Cause,
        probe_idx: u8,
        isn: &mut Option<u32>,
    ) -> SynReply {
        let (w, o) = (self.world, self.origin(ctx.origin));
        if cause == Cause::ClosedPort {
            return SynReply::Rst(TcpHeader::rst_reply(probe));
        }
        let Some(drop_p) = cause.answered_drop_p() else {
            return SynReply::Silent;
        };
        // The probe (or its reply) can still drop independently.
        if path::probe_drops(w, o, ctx.dst, ctx.protocol, ctx.trial, probe_idx, drop_p) {
            return SynReply::Silent;
        }
        let isn = *isn.get_or_insert_with(|| {
            w.det().hash(
                Tag::ServerAttr,
                &[99, u64::from(ctx.dst), u64::from(ctx.trial)],
            ) as u32
        });
        SynReply::SynAck(TcpHeader::syn_ack_reply(probe, isn))
    }

    /// Does a stateless probe drop? ICMP and UDP have no retransmission,
    /// so they lose packets on both legs: the request and, independently
    /// and origin-biased, the reply.
    #[inline(always)]
    fn stateless_drops(&self, ctx: &ProbeCtx, proto: Protocol, probe_idx: u8, drop_p: f64) -> bool {
        let (w, o, t) = (self.world, self.origin(ctx.origin), ctx.trial);
        path::probe_drops(w, o, ctx.dst, proto, t, probe_idx, drop_p)
            || path::stateless_reply_drops(w, o, ctx.dst, proto, t, probe_idx, drop_p)
    }

    #[inline(always)]
    fn icmp_reply(
        &self,
        ctx: &ProbeCtx,
        probe: &IcmpEcho,
        cause: Cause,
        probe_idx: u8,
        router: &mut Option<bool>,
    ) -> IcmpReply {
        if matches!(cause, Cause::Absent | Cause::ClosedPort) {
            // The last-hop router answers for a fraction of missing
            // machines; the rest time out silently.
            let answers = *router.get_or_insert_with(|| router_answers(self.world, ctx.dst));
            return if answers {
                IcmpReply::Unreachable {
                    code: CODE_HOST_UNREACHABLE,
                }
            } else {
                IcmpReply::Silent
            };
        }
        // An L7 filter acts above the transport: the machine still
        // answers ping, just like it still completes TCP handshakes.
        let Some(drop_p) = cause.answered_drop_p() else {
            return IcmpReply::Silent;
        };
        if self.stateless_drops(ctx, Protocol::Icmp, probe_idx, drop_p) {
            return IcmpReply::Silent;
        }
        IcmpReply::EchoReply {
            ident: probe.ident,
            seq: probe.seq,
        }
    }

    #[inline(always)]
    fn udp_reply(
        &self,
        ctx: &ProbeCtx,
        payload: &[u8],
        cause: Cause,
        probe_idx: u8,
        response: &mut Option<UdpReply>,
    ) -> UdpReply {
        let drop_p = match cause {
            // Machine up, nothing bound to UDP/53: kernel sends ICMP
            // port unreachable.
            Cause::ClosedPort => return UdpReply::PortUnreachable,
            Cause::Reachable { drop_p, .. } => drop_p,
            // A DNS query is the application exchange: an L7 wall
            // silences it too.
            _ => return UdpReply::Silent,
        };
        if self.stateless_drops(ctx, Protocol::Dns, probe_idx, drop_p) {
            return UdpReply::Silent;
        }
        response
            .get_or_insert_with(|| self.resolver_response(ctx.dst, payload))
            .clone()
    }
}

impl Network for SimNet<'_> {
    /// Every reply is a keyed draw over the call's arguments and the world.
    fn order_free(&self) -> bool {
        true
    }

    /// The (protocol, trial) answer set: outside it every address is
    /// [`Cause::Absent`] at every send time, which SYN and UDP probes
    /// meet with silence. For ICMP, the set that adds the absent
    /// addresses whose last-hop router answers. Past the world's lines
    /// the view promises nothing: a burst there meets `Absent` (and an
    /// echo, perhaps the router).
    fn audible(&self, _origin: u16, protocol: Protocol, trial: u8) -> Option<Audible<'_>> {
        let answers = self.answer_set(protocol, trial);
        Some(Audible::new(if protocol == Protocol::Icmp {
            self.trial(trial)
                .icmp
                .get_or_init(|| icmp_audible(self.world, answers))
        } else {
            answers
        }))
    }

    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        let cause = self.cause(ctx.origin, ctx.protocol, ctx.trial, ctx.dst, ctx.time_s);
        self.syn_reply(ctx, probe, cause, ctx.probe_idx, &mut None)
    }

    fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        let cause = self.cause(ctx.origin, Protocol::Icmp, ctx.trial, ctx.dst, ctx.time_s);
        self.icmp_reply(ctx, probe, cause, ctx.probe_idx, &mut None)
    }

    fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
        let cause = self.cause(ctx.origin, Protocol::Dns, ctx.trial, ctx.dst, ctx.time_s);
        self.udp_reply(ctx, payload, cause, ctx.probe_idx, &mut None)
    }

    fn syn_burst(
        &self,
        ctx: &ProbeCtx,
        probe: &TcpHeader,
        times: &[f64],
        replies: &mut [SynReply],
    ) {
        let mut isn = None;
        let causes = self.burst_causes(ctx, ctx.protocol, times);
        for ((reply, cause), i) in replies.iter_mut().zip(causes).zip(0u8..) {
            *reply = self.syn_reply(ctx, probe, cause, ctx.probe_idx.wrapping_add(i), &mut isn);
        }
    }

    fn icmp_burst(
        &self,
        ctx: &ProbeCtx,
        probe: &IcmpEcho,
        times: &[f64],
        replies: &mut [IcmpReply],
    ) {
        let mut router = None;
        let causes = self.burst_causes(ctx, Protocol::Icmp, times);
        for ((reply, cause), i) in replies.iter_mut().zip(causes).zip(0u8..) {
            let probe_idx = ctx.probe_idx.wrapping_add(i);
            *reply = self.icmp_reply(ctx, probe, cause, probe_idx, &mut router);
        }
    }

    fn udp_burst(&self, ctx: &ProbeCtx, payload: &[u8], times: &[f64], replies: &mut [UdpReply]) {
        let mut response = None;
        let causes = self.burst_causes(ctx, Protocol::Dns, times);
        for ((reply, cause), i) in replies.iter_mut().zip(causes).zip(0u8..) {
            let probe_idx = ctx.probe_idx.wrapping_add(i);
            *reply = self.udp_reply(ctx, payload, cause, probe_idx, &mut response);
        }
    }

    fn l7(&self, ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        let (w, addr) = (self.world, ctx.dst);
        match self.l7_cause(ctx) {
            Cause::ClosedPort | Cause::AlibabaRst => L7Reply::ConnClosed(CloseKind::Rst),
            // §6 contrasts the close/drop mix: most transiently lost
            // HTTP(S) hosts drop silently, some fail here after the TCP
            // handshake.
            Cause::L7Flaky => {
                let o = self.origin(ctx.origin);
                let u = w.det().uniform(
                    Tag::CloseKind,
                    &[7, u64::from(addr), u64::from(ctx.trial), o.key()],
                );
                if u < 0.55 {
                    L7Reply::Timeout
                } else if u < 0.80 {
                    L7Reply::ConnClosed(CloseKind::Rst)
                } else {
                    L7Reply::ConnClosed(CloseKind::FinAck)
                }
            }
            Cause::MaxStartups => {
                // sshd usually closes the TCP connection cleanly.
                let kind = if w.det().bernoulli(
                    Tag::CloseKind,
                    &[u64::from(addr), u64::from(ctx.attempt)],
                    0.85,
                ) {
                    CloseKind::FinAck
                } else {
                    CloseKind::Rst
                };
                L7Reply::ConnClosed(kind)
            }
            // Success: serve protocol-correct bytes.
            Cause::Reachable { .. } => match ctx.protocol {
                Protocol::Http => {
                    let (code, reason, body) = if geo_restrict::is_br_only_page_host(w.as_of(addr))
                    {
                        (403u16, "Forbidden", "Blocked Site")
                    } else {
                        (host::http_status(w.det(), addr), "OK", "")
                    };
                    let line = originscan_wire::StatusLine {
                        minor_version: 1,
                        code,
                        reason,
                    };
                    L7Reply::Data(line.emit(body))
                }
                Protocol::Https => {
                    let sh = originscan_wire::ServerHello {
                        version: originscan_wire::VERSION_TLS12,
                        cipher_suite: host::tls_cipher(w.det(), addr),
                    };
                    L7Reply::Data(sh.emit(u64::from(addr)))
                }
                Protocol::Ssh => L7Reply::Data(host::ssh_banner(host::ssh_impl(w.det(), addr))),
                // Stateless modules terminate at the probe reply; the
                // engine never opens an L7 connection for them.
                Protocol::Icmp | Protocol::Dns => L7Reply::Timeout,
            },
            // The engine only calls l7 after a SYN-ACK: a cause that
            // silences the probe, or an L7 wall, stalls the connection.
            _ => L7Reply::Timeout,
        }
    }
}

#[cfg(test)]
impl SimNet<'_> {
    /// The scan duration used for temporal models.
    fn duration_s(&self) -> f64 {
        self.duration_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ids, reputation};
    use crate::world::WorldConfig;
    use originscan_scanner::engine::{run_scan, ScanConfig};

    fn world() -> World {
        WorldConfig::tiny(99).build()
    }

    const MAIN: &[OriginId] = &[
        OriginId::Australia,
        OriginId::Brazil,
        OriginId::Germany,
        OriginId::Japan,
        OriginId::Us1,
        OriginId::Us64,
        OriginId::Censys,
    ];

    fn scan(
        w: &World,
        origin_idx: u16,
        proto: Protocol,
        trial: u8,
    ) -> originscan_scanner::ScanOutput {
        let net = SimNet::new(w, MAIN, 75_600.0);
        let mut cfg = ScanConfig::new(w.space(), proto, 1000 + u64::from(trial));
        cfg.origin = origin_idx;
        cfg.trial = trial;
        cfg.concurrent_origins = MAIN.len() as u8;
        cfg.wire_check = true;
        run_scan(&net, &cfg).unwrap()
    }

    #[test]
    fn end_to_end_scan_sees_most_hosts() {
        let w = world();
        let out = scan(&w, 4, Protocol::Http, 0); // US1
        let deployed_alive = w
            .hosts(Protocol::Http)
            .iter()
            .filter(|&&h| w.alive(Protocol::Http, h, 0))
            .count();
        let seen = out.records.iter().filter(|r| r.l7_success()).count();
        let frac = seen as f64 / deployed_alive as f64;
        assert!(frac > 0.85, "US1 saw only {frac} of live HTTP hosts");
        assert!(frac < 1.0, "some loss must occur");
    }

    #[test]
    fn scan_wider_than_the_world_finds_only_the_worlds_hosts() {
        // Nothing ties `ScanConfig::space` to the world's: the addresses
        // past its end host nothing and stay silent.
        let w = world();
        let net = SimNet::new(&w, MAIN, 75_600.0);
        let cfg = ScanConfig::new(2 * w.space(), Protocol::Http, 1000);
        let out = run_scan(&net, &cfg).unwrap();
        assert!(out.summary.l7_successes > 0);
        assert!(out.records.iter().all(|r| u64::from(r.addr) < w.space()));
    }

    #[test]
    fn determinism_across_runs() {
        let w = world();
        let a = scan(&w, 0, Protocol::Ssh, 1);
        let b = scan(&w, 0, Protocol::Ssh, 1);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn censys_sees_fewer_http_hosts_than_japan() {
        let w = world();
        let cen = scan(&w, 6, Protocol::Http, 0).summary.l7_successes;
        let jp = scan(&w, 3, Protocol::Http, 0).summary.l7_successes;
        assert!(cen < jp, "Censys {cen} vs Japan {jp}");
    }

    #[test]
    fn ssh_lossier_than_http() {
        let w = world();
        let live = |p: Protocol| w.hosts(p).iter().filter(|&&h| w.alive(p, h, 0)).count() as f64;
        let frac =
            |p: Protocol, idx: u16| scan(&w, idx, p, 0).summary.l7_successes as f64 / live(p);
        let http = frac(Protocol::Http, 3);
        let ssh = frac(Protocol::Ssh, 3);
        assert!(ssh < http, "SSH coverage {ssh} should trail HTTP {http}");
    }

    #[test]
    fn alibaba_resets_ssh_only() {
        // Late in trial 0 Alibaba has detected Japan: each Alibaba host
        // the path leaves reachable and not L7-flaky resets an SSH
        // connection right after the handshake and serves HTTP as usual.
        let w = WorldConfig::tiny(55).build();
        let net = SimNet::new(&w, &[OriginId::Japan], 75_600.0);
        let time_s = 0.9 * 75_600.0;
        let mut checked = [0u32; 2];
        for name in ["HZ Alibaba Advertising", "Alibaba US Technology"] {
            let asr = w.as_by_name(name).unwrap();
            let lo = asr.first_slash24 * 256;
            for dst in lo..lo + asr.n_slash24 * 256 {
                for (n, protocol) in checked.iter_mut().zip([Protocol::Ssh, Protocol::Http]) {
                    let Cause::Reachable { .. } = net.cause(0, protocol, 0, dst, time_s) else {
                        continue;
                    };
                    let ctx = L7Ctx {
                        origin: 0,
                        src_ip: 0x0a00_0001,
                        dst,
                        protocol,
                        time_s,
                        trial: 0,
                        attempt: 0,
                        concurrent_origins: 1,
                    };
                    let cause = net.l7_cause(&ctx);
                    if cause == Cause::L7Flaky {
                        continue;
                    }
                    let reply = net.l7(&ctx, &[]);
                    if protocol == Protocol::Ssh {
                        assert_eq!(cause, Cause::AlibabaRst, "{dst}");
                        assert_eq!(reply, L7Reply::ConnClosed(CloseKind::Rst), "{dst}");
                    } else {
                        assert!(matches!(cause, Cause::Reachable { .. }), "{dst}: {cause:?}");
                        assert!(matches!(reply, L7Reply::Data(_)), "{dst}: {reply:?}");
                    }
                    *n += 1;
                }
            }
        }
        assert!(checked.iter().all(|&n| n > 0), "{checked:?}");
    }

    #[test]
    fn closed_ports_produce_validated_rsts() {
        let w = world();
        let out = scan(&w, 4, Protocol::Ssh, 0);
        let rst_only = out
            .records
            .iter()
            .filter(|r| r.got_rst && !r.l4_responsive())
            .count();
        assert!(rst_only > 0, "expected some closed-port RSTs");
    }

    #[test]
    fn icmp_scan_sees_most_ping_hosts_without_zgrab() {
        let w = world();
        let out = scan(&w, 4, Protocol::Icmp, 0); // US1
        let deployed_alive = w
            .hosts(Protocol::Icmp)
            .iter()
            .filter(|&&h| w.alive(Protocol::Icmp, h, 0))
            .count();
        let seen = out.records.iter().filter(|r| r.l7_success()).count();
        let frac = seen as f64 / deployed_alive as f64;
        assert!(frac > 0.80, "US1 pinged only {frac} of live ICMP hosts");
        assert!(frac < 1.0, "some loss must occur");
        // Stateless module: the positive probe reply is terminal, no
        // ZGrab connection ever runs.
        assert!(out.records.iter().all(|r| r.l7_attempts == 0));
        // Router unreachables surface as validated negatives.
        let negatives = out
            .records
            .iter()
            .filter(|r| r.got_rst && !r.l4_responsive())
            .count();
        assert!(negatives > 0, "expected some host-unreachable answers");
    }

    #[test]
    fn dns_scan_validated_and_deterministic() {
        let w = world();
        let a = scan(&w, 3, Protocol::Dns, 1); // Japan
        let ok = a.records.iter().filter(|r| r.l7_success()).count();
        assert!(ok > 0, "no validated DNS responses");
        let live = w
            .hosts(Protocol::Dns)
            .iter()
            .filter(|&&h| w.alive(Protocol::Dns, h, 1))
            .count();
        assert!(ok <= live);
        assert!(a.records.iter().all(|r| r.l7_attempts == 0));
        let b = scan(&w, 3, Protocol::Dns, 1);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn stateless_scans_are_origin_biased_too() {
        // Germany's broken Telecom Italia path (§4.2) extends to the
        // stateless modules: persistent unreachability and heavy drop
        // kill ICMP probes just like SYNs, while Brazil's clean path
        // (TIM Brasil is a TI subsidiary) recovers nearly everything.
        let w = world();
        let ti = w.as_by_name("Telecom Italia").unwrap();
        let lo = ti.first_slash24 * 256;
        let hi = lo + ti.n_slash24 * 256;
        let in_ti = |origin_idx: u16, trial: u8| {
            scan(&w, origin_idx, Protocol::Icmp, trial)
                .records
                .iter()
                .filter(|r| r.l7_success() && (lo..hi).contains(&r.addr))
                .count()
        };
        let de: usize = (0..3).map(|t| in_ti(2, t)).sum();
        let br: usize = (0..3).map(|t| in_ti(1, t)).sum();
        assert!(br > 0, "Telecom Italia range has no pingable hosts");
        assert!(
            de < br,
            "DE {de} should trail BR {br} inside Telecom Italia"
        );
    }

    /// The trials the table tests ask about: the study's three, two
    /// past them, and the last a `u8` can name.
    const TRIALS: [u8; 6] = [0, 1, 2, 7, 8, 255];

    /// One question for the net, answered through all four entry points.
    #[derive(Debug, Clone, Copy)]
    struct Ask {
        origin: u16,
        proto: Protocol,
        trial: u8,
        addr: u32,
        time_s: f64,
        probe_idx: u8,
        attempt: u8,
    }

    fn answer(net: &SimNet<'_>, q: Ask) -> (SynReply, IcmpReply, UdpReply, L7Reply) {
        let ctx = ProbeCtx {
            origin: q.origin,
            src_ip: 0x0a00_0001,
            dst: q.addr,
            protocol: q.proto,
            time_s: q.time_s,
            probe_idx: q.probe_idx,
            trial: q.trial,
        };
        let l7 = L7Ctx {
            origin: q.origin,
            src_ip: ctx.src_ip,
            dst: q.addr,
            protocol: q.proto,
            time_s: q.time_s,
            trial: q.trial,
            attempt: q.attempt,
            concurrent_origins: MAIN.len() as u8,
        };
        let query = dns::a_query(q.addr as u16, "origin-scan.example.com").unwrap();
        (
            net.syn(&ctx, &TcpHeader::syn_probe(40_000, 80, q.addr)),
            net.icmp(&ctx, &IcmpEcho::request(7, q.addr as u16)),
            net.udp(&ctx, &query),
            net.l7(&l7, b""),
        )
    }

    /// `n` questions drawn from the world's own hash stream, mostly
    /// about deployed hosts (an empty address never reaches the table).
    fn asks(w: &World, n: u64, salt: u64) -> Vec<Ask> {
        let protos: Vec<Protocol> = originscan_scanner::probe::modules()
            .iter()
            .map(|m| m.protocol())
            .collect();
        (0..n)
            .map(|i| {
                let draw = |k: u64, below: u64| w.det().below(Tag::Structure, &[salt, i, k], below);
                let proto = protos[draw(0, protos.len() as u64) as usize];
                let hosts = w.hosts(proto);
                let addr = if draw(1, 8) == 0 {
                    draw(2, w.space()) as u32
                } else {
                    hosts[draw(2, hosts.len() as u64) as usize]
                };
                Ask {
                    origin: draw(3, MAIN.len() as u64) as u16,
                    proto,
                    trial: TRIALS[draw(4, TRIALS.len() as u64) as usize],
                    addr,
                    time_s: draw(5, 75_600) as f64,
                    probe_idx: draw(6, 2) as u8,
                    attempt: draw(7, 4) as u8,
                }
            })
            .collect()
    }

    /// Asks the hash stream rarely makes of a tiny world, from every
    /// origin late in trial 0: each HTTP host of WebCentral, walled off
    /// from every origin outside Australia, and each SSH host of HZ
    /// Alibaba, which by then resets Japan's connections.
    fn named_asks(w: &World) -> Vec<Ask> {
        let mut out = Vec::new();
        for (name, proto) in [
            ("WebCentral", Protocol::Http),
            ("HZ Alibaba Advertising", Protocol::Ssh),
        ] {
            let asr = w.as_by_name(name).unwrap();
            let s24s = asr.first_slash24..asr.first_slash24 + asr.n_slash24;
            for &addr in w.hosts(proto).iter().filter(|&&a| s24s.contains(&(a >> 8))) {
                for origin in 0..MAIN.len() as u16 {
                    out.push(Ask {
                        origin,
                        proto,
                        trial: 0,
                        addr,
                        time_s: 0.9 * 75_600.0,
                        probe_idx: 0,
                        attempt: 0,
                    });
                }
            }
        }
        out
    }

    /// A net that implements only the scalar probes, so its bursts are
    /// the trait's provided loops over them.
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

    /// Which [`Cause`] has been seen, one bit per variant, and per layer
    /// for a wall: the probe stage's [`PROBE_STAGE`], then the L7 stage's.
    /// The slots are those of `originscan_bench::MISS_COLUMNS`, copied
    /// here so that netmodel exports no index of its own.
    fn arm(cause: Cause) -> u16 {
        1 << match cause {
            Cause::Absent => 0,
            Cause::ClosedPort => 1,
            Cause::ReputationWall { l7 } => 2 + u8::from(l7),
            Cause::GeoWall { l7 } => 4 + u8::from(l7),
            Cause::Ids => 6,
            Cause::PersistentPath => 7,
            Cause::Burst => 8,
            Cause::FlakyHost => 9,
            Cause::Reachable { .. } => 10,
            Cause::L7Flaky => 11,
            Cause::AlibabaRst => 12,
            Cause::MaxStartups => 13,
        }
    }

    /// The [`arm`]s `SimNet::cause` can return.
    const PROBE_STAGE: u16 = (1 << 11) - 1;

    /// Assert that `net`'s three burst overrides write, for `q` sent at
    /// `times`, exactly what the provided loops write. Returns the causes
    /// the bursts met and whether `q.proto`'s cause changed inside the
    /// burst.
    fn check_bursts(net: &SimNet<'_>, q: Ask, times: &[f64]) -> (u16, bool) {
        const N: usize = originscan_scanner::MAX_PROBES;
        let scalar = ScalarOnly(net);
        let ctx = ProbeCtx {
            origin: q.origin,
            src_ip: 0x0a00_0001,
            dst: q.addr,
            protocol: q.proto,
            time_s: f64::NAN, // a burst must not read it
            probe_idx: q.probe_idx,
            trial: q.trial,
        };
        let what = format!("{q:?} at {times:?}");
        let syn = TcpHeader::syn_probe(40_000, 80, q.addr);
        let (mut got, mut want) = ([SynReply::Silent; N], [SynReply::Silent; N]);
        net.syn_burst(&ctx, &syn, times, &mut got);
        scalar.syn_burst(&ctx, &syn, times, &mut want);
        assert_eq!(got, want, "syn {what}");
        let echo = IcmpEcho::request(7, q.addr as u16);
        let (mut got, mut want) = ([IcmpReply::Silent; N], [IcmpReply::Silent; N]);
        net.icmp_burst(&ctx, &echo, times, &mut got);
        scalar.icmp_burst(&ctx, &echo, times, &mut want);
        assert_eq!(got, want, "icmp {what}");
        let query = dns::a_query(q.addr as u16, "origin-scan.example.com").unwrap();
        let (mut got, mut want) = (
            [const { UdpReply::Silent }; N],
            [const { UdpReply::Silent }; N],
        );
        net.udp_burst(&ctx, &query, times, &mut got);
        scalar.udp_burst(&ctx, &query, times, &mut want);
        assert_eq!(got, want, "udp {what}");
        let cause = |p: Protocol, t: f64| net.cause(q.origin, p, q.trial, q.addr, t);
        let arms = times
            .iter()
            .flat_map(|&t| [q.proto, Protocol::Icmp, Protocol::Dns].map(|p| arm(cause(p, t))))
            .fold(0, |a, b| a | b);
        let changed = times
            .windows(2)
            .any(|w| cause(q.proto, w[0]) != cause(q.proto, w[1]));
        (arms, changed)
    }

    #[test]
    fn bursts_write_what_the_provided_loops_write() {
        let w = world();
        let net = SimNet::new(&w, MAIN, 75_600.0);
        let (mut arms, mut flaky_changes, mut burst_changes) = (0u16, 0u32, 0u32);
        for (i, q) in asks(&w, 6000, 4)
            .into_iter()
            .chain(named_asks(&w))
            .enumerate()
        {
            let n = 1 + i % originscan_scanner::MAX_PROBES;
            // Back-to-back probes, then the same burst with every other
            // probe in the next flakiness window.
            arms |= check_bursts(&net, q, &vec![q.time_s; n]).0;
            let delayed: Vec<f64> = (0..n)
                .map(|k| q.time_s + (k / 2) as f64 * path::FLAKY_WINDOW_S)
                .collect();
            let (seen, changed) = check_bursts(&net, q, &delayed);
            arms |= seen;
            flaky_changes += u32::from(changed);
        }
        assert_eq!(
            arms, PROBE_STAGE,
            "every probe-stage Cause must occur: {arms:b}"
        );
        assert!(flaky_changes > 0, "no burst saw a flakiness window end");

        // Bursts that start before an AS's outage window, run through it
        // and end after it, for hosts of that AS from every origin.
        for asr in &w.ases {
            let hosts: Vec<u32> = w
                .hosts(Protocol::Http)
                .iter()
                .copied()
                .filter(|h| {
                    (asr.first_slash24..asr.first_slash24 + asr.n_slash24).contains(&(h >> 8))
                })
                .take(40)
                .collect();
            for e in burst::events_for(&w, asr.index, Protocol::Http, 0) {
                let at = |hour: f64| hour / burst::SCAN_HOURS * net.duration_s();
                let times = [
                    at(e.start_h - 0.01),
                    at(e.start_h + 0.01),
                    at(e.start_h + 0.01),
                    at(e.start_h + e.len_h + 0.01),
                ];
                for (&addr, origin) in hosts.iter().zip((0..MAIN.len() as u16).cycle()) {
                    let q = Ask {
                        origin,
                        proto: Protocol::Http,
                        trial: 0,
                        addr,
                        time_s: 0.0,
                        probe_idx: 0,
                        attempt: 0,
                    };
                    burst_changes += u32::from(check_bursts(&net, q, &times).1);
                }
            }
        }
        assert!(burst_changes > 0, "no burst saw an outage window open");
    }

    /// Every reply is its cause's projection, every L7-stage cause occurs
    /// (the geographic wall and Alibaba's reset through `named_asks`),
    /// and an address's audible bit is clear exactly where the cause is
    /// `Absent` at the start, middle and end of the scan (for ICMP, with
    /// the router quiet too).
    #[test]
    fn each_reply_is_its_causes_projection() {
        // As small as the private state it replaced: one tag, two rates.
        assert!(std::mem::size_of::<Cause>() <= 24);
        let w = world();
        let net = SimNet::new(&w, MAIN, 75_600.0);
        let mut arms = 0u16;
        for q in asks(&w, 6000, 5).into_iter().chain(named_asks(&w)) {
            let (syn, icmp, udp, l7) = answer(&net, q);
            let cause = |p: Protocol, t: f64| net.cause(q.origin, p, q.trial, q.addr, t);
            let what = format!("{q:?}");
            let l4_silent = |c: Cause| {
                matches!(
                    c,
                    Cause::ReputationWall { l7: false }
                        | Cause::GeoWall { l7: false }
                        | Cause::Ids
                        | Cause::PersistentPath
                        | Cause::Burst
                        | Cause::FlakyHost
                )
            };
            let l7_wall = |c: Cause| {
                matches!(
                    c,
                    Cause::ReputationWall { l7: true } | Cause::GeoWall { l7: true }
                )
            };
            let c = cause(q.proto, q.time_s);
            match c {
                Cause::ClosedPort => assert!(matches!(syn, SynReply::Rst(_)), "{what}"),
                c if l7_wall(c) => {
                    assert!(
                        matches!(syn, SynReply::SynAck(_) | SynReply::Silent),
                        "{what}"
                    );
                    assert_eq!(l7, L7Reply::Timeout, "{what}");
                }
                Cause::Reachable { .. } => {
                    assert!(
                        matches!(syn, SynReply::SynAck(_) | SynReply::Silent),
                        "{what}"
                    );
                }
                _ => assert_eq!(syn, SynReply::Silent, "{what}"),
            }
            let c = cause(Protocol::Icmp, q.time_s);
            match c {
                Cause::Absent | Cause::ClosedPort => {
                    let router = router_answers(&w, q.addr);
                    let want = if router {
                        IcmpReply::Unreachable {
                            code: CODE_HOST_UNREACHABLE,
                        }
                    } else {
                        IcmpReply::Silent
                    };
                    assert_eq!(icmp, want, "{what}");
                }
                c if l4_silent(c) => assert_eq!(icmp, IcmpReply::Silent, "{what}"),
                _ => assert!(
                    matches!(icmp, IcmpReply::EchoReply { .. } | IcmpReply::Silent),
                    "{what}"
                ),
            }
            match cause(Protocol::Dns, q.time_s) {
                Cause::ClosedPort => assert_eq!(udp, UdpReply::PortUnreachable, "{what}"),
                Cause::Reachable { .. } => {
                    assert!(
                        matches!(udp, UdpReply::Data(_) | UdpReply::Silent),
                        "{what}"
                    );
                }
                _ => assert_eq!(udp, UdpReply::Silent, "{what}"),
            }
            let l7_ctx = L7Ctx {
                origin: q.origin,
                src_ip: 0x0a00_0001,
                dst: q.addr,
                protocol: q.proto,
                time_s: q.time_s,
                trial: q.trial,
                attempt: q.attempt,
                concurrent_origins: MAIN.len() as u8,
            };
            let c = net.l7_cause(&l7_ctx);
            arms |= arm(c);
            match c {
                Cause::ClosedPort | Cause::AlibabaRst => {
                    assert_eq!(l7, L7Reply::ConnClosed(CloseKind::Rst), "{what}");
                }
                Cause::MaxStartups => assert!(matches!(l7, L7Reply::ConnClosed(_)), "{what}"),
                Cause::L7Flaky => assert!(!matches!(l7, L7Reply::Data(_)), "{what}"),
                Cause::Reachable { .. } if PAPER_PROTOCOLS.contains(&q.proto) => {
                    assert!(matches!(l7, L7Reply::Data(_)), "{what}");
                }
                _ => assert_eq!(l7, L7Reply::Timeout, "{what}"),
            }
            let absent = [0.0, 37_800.0, 75_600.0]
                .iter()
                .all(|&t| cause(q.proto, t) == Cause::Absent);
            let router = q.proto == Protocol::Icmp && router_answers(&w, q.addr);
            let view = net.audible(q.origin, q.proto, q.trial).unwrap();
            assert_eq!(!view.contains(q.addr), absent && !router, "{what}");
        }
        let l7_stage = arm(Cause::L7Flaky) | arm(Cause::AlibabaRst) | arm(Cause::MaxStartups);
        assert_eq!(
            arms & l7_stage,
            l7_stage,
            "every L7-stage Cause must occur: {arms:b}"
        );
    }

    /// Is `dst` silent for `proto` in `trial`, by the model's definition:
    /// no live host of `proto`, no closed-port RST from a live machine of
    /// another trio protocol, and for ICMP no router answer either?
    fn reference_silent(w: &World, proto: Protocol, trial: u8, dst: u32) -> bool {
        let draw = |words: &[u64], p: f64| w.det().bernoulli(Tag::ClosedPort, words, p);
        let key = host::proto_key(proto);
        let live = w.is_host(proto, dst) && w.alive(proto, dst, trial);
        let closed = !w.is_host(proto, dst)
            && PAPER_PROTOCOLS
                .into_iter()
                .any(|p| p != proto && w.is_host(p, dst) && w.alive(p, dst, trial))
            && draw(&[u64::from(dst), key], CLOSED_PORT_RST_P);
        let router = proto == Protocol::Icmp && draw(&[2, u64::from(dst), 1], ROUTER_UNREACHABLE_P);
        !live && !closed && !router
    }

    /// Every address, protocol, origin and trial of a tiny world: a clear
    /// audible bit is the reference definition of silence, every module
    /// has silent and audible addresses, and where the bit is clear the
    /// protocol's burst, sent at the start, middle and end of the scan,
    /// gets no reply. It is clear for most of the HTTP space, so the
    /// engine's short-cut fires.
    #[test]
    fn inaudible_addresses_answer_no_burst() {
        const N: usize = 3;
        let w = WorldConfig::tiny(7).build();
        let roster: Vec<OriginId> = OriginId::MAIN
            .into_iter()
            .chain(OriginId::FOLLOW_UP)
            .chain([OriginId::Carinet])
            .collect();
        let net = SimNet::new(&w, &roster, 75_600.0);
        let times = [0.0, net.duration_s() / 2.0, net.duration_s()];
        let query = dns::a_query(7, "origin-scan.example.com").unwrap();
        let modules = originscan_scanner::probe::modules();
        // (silent, audible) asks per module.
        let mut seen = vec![(0u64, 0u64); modules.len()];
        for dst in 0..w.space() as u32 {
            let syn = TcpHeader::syn_probe(40_000, 80, dst);
            let echo = IcmpEcho::request(7, dst as u16);
            for (m, seen) in modules.iter().zip(&mut seen) {
                for trial in 0..3 {
                    let want = reference_silent(&w, m.protocol(), trial, dst);
                    for origin in 0..roster.len() as u16 {
                        let ctx = ProbeCtx {
                            origin,
                            src_ip: 0x0a00_0001,
                            dst,
                            protocol: m.protocol(),
                            time_s: f64::NAN,
                            probe_idx: 0,
                            trial,
                        };
                        let view = net.audible(origin, ctx.protocol, trial).unwrap();
                        let silent = !view.contains(dst);
                        assert_eq!(silent, want, "{ctx:?}");
                        if !silent {
                            seen.1 += 1;
                            continue;
                        }
                        seen.0 += 1;
                        match ctx.protocol {
                            Protocol::Icmp => {
                                let mut got = [IcmpReply::Unreachable { code: 0 }; N];
                                net.icmp_burst(&ctx, &echo, &times, &mut got);
                                assert_eq!(got, [IcmpReply::Silent; N], "{ctx:?}");
                            }
                            Protocol::Dns => {
                                let mut got = [const { UdpReply::PortUnreachable }; N];
                                net.udp_burst(&ctx, &query, &times, &mut got);
                                assert_eq!(got, [const { UdpReply::Silent }; N], "{ctx:?}");
                            }
                            _ => {
                                let mut got = [SynReply::SynAck(syn); N];
                                net.syn_burst(&ctx, &syn, &times, &mut got);
                                assert_eq!(got, [SynReply::Silent; N], "{ctx:?}");
                            }
                        }
                    }
                }
            }
        }
        for (m, &(silent, audible)) in modules.iter().zip(&seen) {
            assert!(
                silent > 0 && audible > 0,
                "{}: {silent} silent, {audible} audible",
                m.name()
            );
        }
        let asks = w.space() * roster.len() as u64 * 3;
        let (silent_http, _) = seen[0];
        assert_eq!(modules[0].protocol(), Protocol::Http);
        assert!(silent_http * 10 >= asks * 8, "{silent_http} of {asks}");
    }

    /// An absent address whose last-hop router answers ICMP reads audible
    /// in ICMP's set, and its echo burst meets the router's unreachable,
    /// while its cause stays `Absent`: the answer set `cause` reads is not
    /// the set the scan borrows.
    #[test]
    fn icmp_router_answers_read_audible_while_absent() {
        let w = world();
        let net = SimNet::new(&w, MAIN, 75_600.0);
        let ctx = |dst, trial| ProbeCtx {
            origin: 0,
            src_ip: 0x0a00_0001,
            dst,
            protocol: Protocol::Icmp,
            time_s: f64::NAN,
            probe_idx: 0,
            trial,
        };
        let mut routed = 0;
        for trial in 0..3 {
            let view = net.audible(0, Protocol::Icmp, trial).unwrap();
            for dst in 0..w.space() as u32 {
                if net.cause(0, Protocol::Icmp, trial, dst, 0.0) != Cause::Absent {
                    assert!(view.contains(dst), "{dst} trial {trial}");
                    continue;
                }
                assert_eq!(view.contains(dst), router_answers(&w, dst), "{dst}");
                if view.contains(dst) {
                    routed += 1;
                    let echo = IcmpEcho::request(7, dst as u16);
                    let mut got = [IcmpReply::Silent; 2];
                    net.icmp_burst(&ctx(dst, trial), &echo, &[0.0, 37_800.0], &mut got);
                    let unreachable = IcmpReply::Unreachable {
                        code: CODE_HOST_UNREACHABLE,
                    };
                    assert_eq!(got, [unreachable; 2], "{dst} trial {trial}");
                }
            }
        }
        assert!(routed > 0, "no router answered for an absent address");
    }

    /// `SimNet`, counting the bursts it is delivered past `end`; lends its
    /// audible set and says it is order-free when `free`.
    struct PastEnd<'a>(&'a SimNet<'a>, u32, bool, std::sync::atomic::AtomicU64);

    impl PastEnd<'_> {
        fn count(&self, ctx: &ProbeCtx) {
            if ctx.dst >= self.1 {
                self.3.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    impl Network for PastEnd<'_> {
        fn order_free(&self) -> bool {
            self.2
        }
        fn audible(&self, origin: u16, protocol: Protocol, trial: u8) -> Option<Audible<'_>> {
            self.0.audible(origin, protocol, trial)
        }
        fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            self.0.syn(ctx, probe)
        }
        fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply {
            self.0.l7(ctx, request)
        }
        fn syn_burst(&self, ctx: &ProbeCtx, probe: &TcpHeader, t: &[f64], out: &mut [SynReply]) {
            self.count(ctx);
            self.0.syn_burst(ctx, probe, t, out);
        }
        fn icmp_burst(&self, ctx: &ProbeCtx, probe: &IcmpEcho, t: &[f64], out: &mut [IcmpReply]) {
            self.count(ctx);
            self.0.icmp_burst(ctx, probe, t, out);
        }
        fn udp_burst(&self, ctx: &ProbeCtx, payload: &[u8], t: &[f64], out: &mut [UdpReply]) {
            self.count(ctx);
            self.0.udp_burst(ctx, payload, t, out);
        }
    }

    /// A scan wider than the world, fanned and stepped, delivers a burst
    /// to every address past the audible set's last line (its bits promise
    /// nothing), and an ICMP scan meets routers answering there.
    #[test]
    fn a_scan_wider_than_the_world_delivers_its_past_end_bursts() {
        let w = world();
        let net = SimNet::new(&w, MAIN, 75_600.0);
        let end = (w.space().div_ceil(1024) * 1024) as u32;
        for m in originscan_scanner::probe::modules() {
            let cfg = ScanConfig::new(2 * w.space(), m.protocol(), 1000);
            for free in [true, false] {
                let wide = PastEnd(&net, end, free, 0.into());
                let out = run_scan(&wide, &cfg).unwrap();
                let past = wide.3.into_inner();
                assert_eq!(past, 2 * w.space() - u64::from(end), "{} {free}", m.name());
                let beyond = out.records.iter().filter(|r| r.addr >= end).count();
                if m.protocol() == Protocol::Icmp {
                    assert!(beyond > 0, "no router answered past the end");
                } else {
                    assert_eq!(beyond, 0, "{}", m.name());
                }
            }
        }
    }

    #[test]
    fn warm_net_answers_like_a_fresh_one() {
        let w = world();
        let warm = SimNet::new(&w, MAIN, 75_600.0);
        for q in asks(&w, 4000, 1) {
            answer(&warm, q);
        }
        for q in asks(&w, 1500, 2) {
            let fresh = SimNet::new(&w, MAIN, 75_600.0);
            assert_eq!(answer(&warm, q), answer(&fresh, q), "{q:?}");
        }
    }

    #[test]
    fn stored_path_state_is_the_direct_derivation() {
        let w = world();
        let net = SimNet::new(&w, MAIN, 75_600.0);
        // Twice, the second pass in the opposite order: first touch, then
        // the stored value, whichever slot filled first.
        let mut keys: Vec<(u16, &AsRecord, Protocol, u8)> = Vec::new();
        for origin in 0..MAIN.len() as u16 {
            for m in originscan_scanner::probe::modules() {
                for trial in TRIALS {
                    for asr in w.ases.iter().step_by(5) {
                        keys.push((origin, asr, m.protocol(), trial));
                    }
                }
            }
        }
        let reversed: Vec<_> = keys.iter().rev().copied().collect();
        for (origin, asr, proto, trial) in keys.into_iter().chain(reversed) {
            let o = MAIN[usize::from(origin)];
            let params = path::path_params(&w, o, asr, proto, trial);
            let stored = net.path_state(origin, asr, proto, trial);
            let what = format!("{o} → AS {} {proto} trial {trial}", asr.index);
            assert_eq!(
                stored.ids,
                ids::detection(&w, o, asr, proto, trial),
                "{what}"
            );
            let lo = asr.first_slash24 * 256;
            for addr in lo..lo + asr.n_slash24 * 256 {
                assert_eq!(
                    stored.wall.blocks(&w, o, asr, addr, proto),
                    reputation::blocks(&w, o, asr, addr, proto, trial),
                    "{what}: {addr}"
                );
            }
            assert_eq!(stored.params, params, "{what}");
            assert_eq!(
                stored.flaky_half,
                path::flaky_half(params.flaky_q),
                "{what}"
            );
            assert_eq!(
                stored.bursts(),
                burst::events_for(&w, asr.index, proto, trial),
                "{what}"
            );
        }
    }

    #[test]
    fn two_threads_filling_one_net_agree_with_one_thread() {
        let w = world();
        let qs = asks(&w, 3000, 3);
        let alone = SimNet::new(&w, MAIN, 75_600.0);
        let expect: Vec<_> = qs.iter().map(|&q| answer(&alone, q)).collect();
        // Both threads ask the same questions of one empty net from the
        // same instant, one of them back to front, so they race to fill
        // the same slots and each reads slots the other filled.
        let shared = SimNet::new(&w, MAIN, 75_600.0);
        let start = std::sync::Barrier::new(2);
        let (fwd, mut rev) = std::thread::scope(|s| {
            let fwd = s.spawn(|| {
                start.wait();
                qs.iter().map(|&q| answer(&shared, q)).collect::<Vec<_>>()
            });
            let rev = s.spawn(|| {
                start.wait();
                qs.iter()
                    .rev()
                    .map(|&q| answer(&shared, q))
                    .collect::<Vec<_>>()
            });
            (fwd.join().unwrap(), rev.join().unwrap())
        });
        rev.reverse();
        assert_eq!(fwd, expect);
        assert_eq!(rev, expect);
    }

    #[test]
    fn fanned_scan_equals_the_step_loop() {
        // `run_scan` spreads an open-loop scan of a `SimNet` over the cores
        // (one inline worker on a single core) and steps through
        // `ScalarOnly`, which keeps `order_free`'s default.
        use originscan_scanner::blocklist::Blocklist;
        for world_seed in [99, 7, 41] {
            let world = WorldConfig::tiny(world_seed).build();
            let net = SimNet::new(&world, MAIN, 75_600.0);
            assert!(net.order_free() && !ScalarOnly(&net).order_free());
            for (m, origin) in originscan_scanner::probe::modules().iter().zip(0u16..) {
                for setting in 0..5 {
                    let mut cfg = ScanConfig::new(world.space(), m.protocol(), 1000 + world_seed);
                    cfg.origin = origin;
                    cfg.concurrent_origins = MAIN.len() as u8;
                    match setting {
                        0 => {}
                        1 => (cfg.probes, cfg.batch, cfg.shard) = (1, 1, (1, 4)),
                        2 => (cfg.probes, cfg.batch, cfg.probe_delay_s) = (8, 7, 900.0),
                        3 => (cfg.shard, cfg.l7_retries, cfg.trial) = ((2, 3), 2, 1),
                        // Wider than the world: past the audible set's
                        // last line every burst is delivered, and only
                        // ICMP's routers answer there.
                        _ => (cfg.space, cfg.probe_delay_s) = (2 * world.space(), 900.0),
                    }
                    if setting >= 2 {
                        cfg.blocklist = Blocklist::parse("0.0.3.0/24\n0.0.128.0/18").unwrap();
                        cfg.wire_check = true;
                    }
                    let fanned = run_scan(&net, &cfg).unwrap();
                    let step = run_scan(&ScalarOnly(&net), &cfg).unwrap();
                    assert_eq!(fanned, step, "{cfg:?}");
                    let bits = |o: &originscan_scanner::ScanOutput| -> Vec<u64> {
                        let times = o.records.iter().map(|r| r.response_time_s.to_bits());
                        times.chain([o.summary.duration_s.to_bits()]).collect()
                    };
                    assert_eq!(bits(&fanned), bits(&step), "{cfg:?}");
                    assert!(!step.records.is_empty(), "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn l7_replies_parse_with_wire_codecs() {
        let w = world();
        let out = scan(&w, 1, Protocol::Https, 2);
        let ok = out.records.iter().filter(|r| r.l7_success()).count();
        assert!(ok > 0, "TLS handshakes should complete (codec round-trip)");
    }
}
