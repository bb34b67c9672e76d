//! `SimNet`: the simulated Internet as seen through a scanner's NIC.
//!
//! Implements [`originscan_scanner::target::Network`] for a [`World`]: a
//! SYN probe traverses, in order, host existence → churn → long-term
//! policy → temporal blocking (IDS) → persistent path failure → burst
//! outages → correlated transient flakiness → independent packet drop.
//! The L7 handshake re-derives the same state (the keys exclude the probe
//! index, so both probes and the L7 connection agree on the host's fate)
//! and then applies the SSH-specific mechanisms (Alibaba RST,
//! MaxStartups) before serving protocol-correct bytes produced with the
//! `originscan-wire` codecs.
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
//!   RST. Every other address is `Absent` at every send time, which is
//!   what [`Network::silent`] reads, and a host's state starts from its
//!   bit;
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
use crate::path::{self, PathState};
use crate::policy::{self, alibaba, geo_restrict, maxstartups, Block};
use crate::rng::Tag;
use crate::world::{proto_slot, World, PROTO_SLOTS};
use originscan_scanner::probe::PAPER_PROTOCOLS;
use originscan_scanner::target::{
    CloseKind, IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, SynReply, UdpReply,
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

/// 1 024 addresses of an answer set, one bit each. A set is stored in
/// whole 128-byte-aligned lines so that it shares no cache line with
/// another allocation: every scan thread reads it at every address. (As a
/// plain `u64` slice, a two-core `scan_single` ran ~15 % slower.)
#[derive(Debug, Clone, Copy)]
#[repr(align(128))]
struct Line([u64; 16]);

/// What a `SimNet` stores for one trial.
#[derive(Debug)]
struct TrialTable {
    /// The answer set by protocol slot ([`answer_set`]).
    answers: Slots<Box<[Line]>>,
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
/// machine does? Keyed by the address alone.
fn router_answers(w: &World, dst: u32) -> bool {
    w.det().bernoulli(
        Tag::ClosedPort,
        &[2, u64::from(dst), host::proto_key(Protocol::Icmp)],
        ROUTER_UNREACHABLE_P,
    )
}

/// The addresses that can answer `proto` at all in `trial`, one bit each
/// over the world's space: a host of `proto` that is alive, or a machine
/// of another trio protocol that is alive and answers the closed port
/// ([`closes_port`]). Built from the host lists, so it costs the world's
/// trio machines, not its space.
fn answer_set(w: &World, proto: Protocol, trial: u8) -> Box<[Line]> {
    let mut lines = vec![Line([0; 16]); w.space().div_ceil(1024) as usize];
    let mut set = |addr: u32| {
        let line = lines.get_mut((addr / 1024) as usize);
        if let Some(word) = line.and_then(|l| l.0.get_mut((addr / 64 % 16) as usize)) {
            *word |= 1 << (addr % 64);
        }
    };
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
            paths: Slots::new(self.origins.len() * PROTO_SLOTS),
        })
    }

    /// Can `addr` answer `proto` at all in `trial`: is its bit in the
    /// answer set ([`answer_set`], built on first use)? An address outside
    /// the world cannot.
    fn answers(&self, proto: Protocol, trial: u8, addr: u32) -> bool {
        self.trial(trial)
            .answers
            .get_or_fill(proto_slot(proto), || answer_set(self.world, proto, trial))
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

    /// Shared host-state decision: is the host reachable from this origin
    /// at this time, and if not, how does the failure manifest?
    fn host_state(
        &self,
        origin: u16,
        addr: u32,
        proto: Protocol,
        trial: u8,
        time_s: f64,
    ) -> HostState {
        if !self.answers(proto, trial, addr) {
            return HostState::Absent;
        }
        let w = self.world;
        if !w.is_host(proto, addr) {
            // The machine runs another service: closed port.
            return HostState::ClosedPort;
        }
        let o = self.origin(origin);
        let asr = w.as_of(addr);
        let path = self.path_state(origin, asr, proto, trial);
        match policy::host_block(w, o, asr, addr, proto, path.wall) {
            Block::DropL4 => return HostState::SilentlyFiltered,
            Block::DropL7 => return HostState::L7Filtered,
            Block::None => {}
        }
        if path.ids.blocked_at(time_s, self.duration_s) {
            return HostState::SilentlyFiltered;
        }
        let params = path.params;
        if path::host_persistent_unreachable(w, o, addr, params.persistent_f) {
            return HostState::SilentlyFiltered;
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
            return HostState::TransientlyDown;
        }
        if path::host_flaky(w, o, addr, proto, trial, time_s, path.flaky_half) {
            return HostState::TransientlyDown;
        }
        HostState::Reachable {
            drop_p: params.drop_p,
            flaky_q: params.flaky_q,
        }
    }

    /// The host state behind each probe of a burst: derived for the first
    /// and again only where a probe's send time differs from the one
    /// before it (a `probe_delay_s`, or a batch boundary or rate change
    /// between two probes).
    fn burst_states<'a>(
        &'a self,
        ctx: &'a ProbeCtx,
        proto: Protocol,
        times: &'a [f64],
    ) -> impl Iterator<Item = HostState> + 'a {
        let mut last: Option<(u64, HostState)> = None;
        times.iter().map(move |&t| match last {
            Some((bits, state)) if bits == t.to_bits() => state,
            _ => {
                let state = self.host_state(ctx.origin, ctx.dst, proto, ctx.trial, t);
                last = Some((t.to_bits(), state));
                state
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

/// Reachability state of an address for one (origin, protocol, trial).
#[derive(Debug, Clone, Copy, PartialEq)]
enum HostState {
    /// No such host (or offline this trial).
    Absent,
    /// Machine up, this port closed: answers RST.
    ClosedPort,
    /// Long-term filtered at L4, or persistently unreachable.
    SilentlyFiltered,
    /// Long-term filtered, but the filter acts above TCP.
    L7Filtered,
    /// Transiently down for this origin for the whole scan.
    TransientlyDown,
    /// Reachable, subject to independent per-probe drop.
    Reachable {
        /// Per-probe independent drop probability.
        drop_p: f64,
        /// The flakiness level (reused for L7-stage failures).
        flaky_q: f64,
    },
}

impl HostState {
    /// The drop probability of a probe that reaches the machine: only a
    /// [`HostState::Reachable`] path loses packets independently.
    fn drop_p(self) -> f64 {
        match self {
            HostState::Reachable { drop_p, .. } => drop_p,
            _ => 0.0,
        }
    }
}

// One probe's reply, given the host state at its send time: the rules
// of the scalar probes and of the bursts alike. What does not depend on
// the probe index beyond that state — the ISN, the router's answer, the
// resolver's response — sits in an `Option` the caller keeps for the
// burst, filled by the first probe that needs it; only the drop draws
// are per probe. Each rule has its two callers and is inlined into both:
// out of line, every probe's reply goes back through a stack slot.
impl SimNet<'_> {
    #[inline(always)]
    fn syn_reply(
        &self,
        ctx: &ProbeCtx,
        probe: &TcpHeader,
        state: HostState,
        probe_idx: u8,
        isn: &mut Option<u32>,
    ) -> SynReply {
        let (w, o) = (self.world, self.origin(ctx.origin));
        match state {
            HostState::Absent | HostState::SilentlyFiltered | HostState::TransientlyDown => {
                SynReply::Silent
            }
            HostState::ClosedPort => SynReply::Rst(TcpHeader::rst_reply(probe)),
            HostState::L7Filtered | HostState::Reachable { .. } => {
                // The probe (or its reply) can still drop independently.
                if path::probe_drops(
                    w,
                    o,
                    ctx.dst,
                    ctx.protocol,
                    ctx.trial,
                    probe_idx,
                    state.drop_p(),
                ) {
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
        }
    }

    #[inline(always)]
    fn icmp_reply(
        &self,
        ctx: &ProbeCtx,
        probe: &IcmpEcho,
        state: HostState,
        probe_idx: u8,
        router: &mut Option<bool>,
    ) -> IcmpReply {
        let (w, o) = (self.world, self.origin(ctx.origin));
        match state {
            HostState::Absent | HostState::ClosedPort => {
                // The last-hop router answers for a fraction of missing
                // machines; the rest time out silently.
                let answers = *router.get_or_insert_with(|| router_answers(w, ctx.dst));
                if answers {
                    IcmpReply::Unreachable {
                        code: CODE_HOST_UNREACHABLE,
                    }
                } else {
                    IcmpReply::Silent
                }
            }
            HostState::SilentlyFiltered | HostState::TransientlyDown => IcmpReply::Silent,
            // An L7 filter acts above the transport: the machine still
            // answers ping, just like it still completes TCP handshakes.
            HostState::L7Filtered | HostState::Reachable { .. } => {
                let drop_p = state.drop_p();
                // Stateless probes lose packets on both legs: the echo
                // request and, independently, the echo reply.
                if path::probe_drops(w, o, ctx.dst, Protocol::Icmp, ctx.trial, probe_idx, drop_p)
                    || path::stateless_reply_drops(
                        w,
                        o,
                        ctx.dst,
                        Protocol::Icmp,
                        ctx.trial,
                        probe_idx,
                        drop_p,
                    )
                {
                    return IcmpReply::Silent;
                }
                IcmpReply::EchoReply {
                    ident: probe.ident,
                    seq: probe.seq,
                }
            }
        }
    }

    #[inline(always)]
    fn udp_reply(
        &self,
        ctx: &ProbeCtx,
        payload: &[u8],
        state: HostState,
        probe_idx: u8,
        response: &mut Option<UdpReply>,
    ) -> UdpReply {
        let (w, o) = (self.world, self.origin(ctx.origin));
        match state {
            HostState::Absent => UdpReply::Silent,
            // Machine up, nothing bound to UDP/53: kernel sends ICMP
            // port unreachable.
            HostState::ClosedPort => UdpReply::PortUnreachable,
            HostState::SilentlyFiltered | HostState::TransientlyDown | HostState::L7Filtered => {
                UdpReply::Silent
            }
            HostState::Reachable { drop_p, .. } => {
                // UDP has no retransmission: the response leg is its own
                // independent, origin-biased loss channel.
                if path::probe_drops(w, o, ctx.dst, Protocol::Dns, ctx.trial, probe_idx, drop_p)
                    || path::stateless_reply_drops(
                        w,
                        o,
                        ctx.dst,
                        Protocol::Dns,
                        ctx.trial,
                        probe_idx,
                        drop_p,
                    )
                {
                    return UdpReply::Silent;
                }
                response
                    .get_or_insert_with(|| self.resolver_response(ctx.dst, payload))
                    .clone()
            }
        }
    }
}

impl Network for SimNet<'_> {
    /// Every reply is a keyed draw over the call's arguments and the world.
    fn order_free(&self) -> bool {
        true
    }

    /// `dst` is not in the (protocol, trial) answer set: `HostState::Absent`
    /// at every send time, which SYN and UDP probes meet with silence. An
    /// ICMP echo also needs the last-hop router to stay quiet.
    fn silent(&self, _origin: u16, protocol: Protocol, trial: u8, dst: u32) -> bool {
        !self.answers(protocol, trial, dst)
            && (protocol != Protocol::Icmp || !router_answers(self.world, dst))
    }

    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        let state = self.host_state(ctx.origin, ctx.dst, ctx.protocol, ctx.trial, ctx.time_s);
        self.syn_reply(ctx, probe, state, ctx.probe_idx, &mut None)
    }

    fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        let state = self.host_state(ctx.origin, ctx.dst, Protocol::Icmp, ctx.trial, ctx.time_s);
        self.icmp_reply(ctx, probe, state, ctx.probe_idx, &mut None)
    }

    fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
        let state = self.host_state(ctx.origin, ctx.dst, Protocol::Dns, ctx.trial, ctx.time_s);
        self.udp_reply(ctx, payload, state, ctx.probe_idx, &mut None)
    }

    fn syn_burst(
        &self,
        ctx: &ProbeCtx,
        probe: &TcpHeader,
        times: &[f64],
        replies: &mut [SynReply],
    ) {
        let mut isn = None;
        let states = self.burst_states(ctx, ctx.protocol, times);
        for ((reply, state), i) in replies.iter_mut().zip(states).zip(0u8..) {
            *reply = self.syn_reply(ctx, probe, state, ctx.probe_idx.wrapping_add(i), &mut isn);
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
        let states = self.burst_states(ctx, Protocol::Icmp, times);
        for ((reply, state), i) in replies.iter_mut().zip(states).zip(0u8..) {
            let probe_idx = ctx.probe_idx.wrapping_add(i);
            *reply = self.icmp_reply(ctx, probe, state, probe_idx, &mut router);
        }
    }

    fn udp_burst(&self, ctx: &ProbeCtx, payload: &[u8], times: &[f64], replies: &mut [UdpReply]) {
        let mut response = None;
        let states = self.burst_states(ctx, Protocol::Dns, times);
        for ((reply, state), i) in replies.iter_mut().zip(states).zip(0u8..) {
            let probe_idx = ctx.probe_idx.wrapping_add(i);
            *reply = self.udp_reply(ctx, payload, state, probe_idx, &mut response);
        }
    }

    fn l7(&self, ctx: &L7Ctx, _request: &[u8]) -> L7Reply {
        let w = self.world;
        let o = self.origin(ctx.origin);
        let addr = ctx.dst;
        let proto = ctx.protocol;
        match self.host_state(ctx.origin, addr, proto, ctx.trial, ctx.time_s) {
            HostState::Absent | HostState::SilentlyFiltered | HostState::TransientlyDown => {
                // The engine only calls l7 after a SYN-ACK; if the state
                // says unreachable, the connection stalls out.
                L7Reply::Timeout
            }
            HostState::ClosedPort => L7Reply::ConnClosed(CloseKind::Rst),
            HostState::L7Filtered => L7Reply::Timeout,
            HostState::Reachable { flaky_q, .. } => {
                let asr = w.as_of(addr);
                // L7-stage transient failure: the host is in this state
                // for the whole scan (attempt-independent), so it is
                // checked before the per-attempt mechanisms below —
                // otherwise retries would flip hosts between failure
                // categories. §6 contrasts the close/drop mix: most
                // transiently lost HTTP(S) hosts drop silently, some fail
                // here after the TCP handshake.
                if path::l7_flaky(w, o, addr, proto, ctx.trial, flaky_q) {
                    let u = w.det().uniform(
                        Tag::CloseKind,
                        &[7, u64::from(addr), u64::from(ctx.trial), o.key()],
                    );
                    return if u < 0.55 {
                        L7Reply::Timeout
                    } else if u < 0.80 {
                        L7Reply::ConnClosed(CloseKind::Rst)
                    } else {
                        L7Reply::ConnClosed(CloseKind::FinAck)
                    };
                }
                // Alibaba's temporal SSH blocking: RST right after the
                // TCP handshake, network-wide.
                if proto == Protocol::Ssh
                    && alibaba::rst_after_handshake(
                        w,
                        o,
                        asr,
                        ctx.trial,
                        ctx.time_s,
                        self.duration_s,
                    )
                {
                    return L7Reply::ConnClosed(CloseKind::Rst);
                }
                // MaxStartups probabilistic refusal (per attempt).
                if proto == Protocol::Ssh
                    && maxstartups::refuses(
                        w,
                        o,
                        asr,
                        addr,
                        ctx.trial,
                        ctx.attempt,
                        ctx.concurrent_origins,
                    )
                {
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
                    return L7Reply::ConnClosed(kind);
                }
                // Success: serve protocol-correct bytes.
                let asr_tags_br_only = geo_restrict::is_br_only_page_host(asr);
                match proto {
                    Protocol::Http => {
                        let (code, reason, body) = if asr_tags_br_only {
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
                }
            }
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
                    let HostState::Reachable { flaky_q, .. } =
                        net.host_state(0, dst, protocol, 0, time_s)
                    else {
                        continue;
                    };
                    if path::l7_flaky(&w, OriginId::Japan, dst, protocol, 0, flaky_q) {
                        continue;
                    }
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
                    let reply = net.l7(&ctx, &[]);
                    if protocol == Protocol::Ssh {
                        assert_eq!(reply, L7Reply::ConnClosed(CloseKind::Rst), "{dst}");
                    } else {
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

    /// Which [`HostState`] arms have been seen, one bit each.
    fn arm(state: HostState) -> u8 {
        match state {
            HostState::Absent => 1,
            HostState::ClosedPort => 2,
            HostState::SilentlyFiltered => 4,
            HostState::L7Filtered => 8,
            HostState::TransientlyDown => 16,
            HostState::Reachable { .. } => 32,
        }
    }

    /// Assert that `net`'s three burst overrides write, for `q` sent at
    /// `times`, exactly what the provided loops write. Returns the arms
    /// the bursts met and whether `q.proto`'s state changed inside the
    /// burst.
    fn check_bursts(net: &SimNet<'_>, q: Ask, times: &[f64]) -> (u8, bool) {
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
        let state = |p: Protocol, t: f64| net.host_state(q.origin, q.addr, p, q.trial, t);
        let arms = times
            .iter()
            .flat_map(|&t| [q.proto, Protocol::Icmp, Protocol::Dns].map(|p| arm(state(p, t))))
            .fold(0, |a, b| a | b);
        let changed = times
            .windows(2)
            .any(|w| state(q.proto, w[0]) != state(q.proto, w[1]));
        (arms, changed)
    }

    #[test]
    fn bursts_write_what_the_provided_loops_write() {
        let w = world();
        let net = SimNet::new(&w, MAIN, 75_600.0);
        let (mut arms, mut flaky_changes, mut burst_changes) = (0u8, 0u32, 0u32);
        for (i, q) in asks(&w, 6000, 4).into_iter().enumerate() {
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
        assert_eq!(arms, 63, "every HostState arm must occur");
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

    /// Every address, protocol, origin and trial of a tiny world: `silent`
    /// is the reference definition, every module has silent and audible
    /// addresses, and where `silent` holds the protocol's burst, sent at
    /// the start, middle and end of the scan, gets no reply. It holds for
    /// most of the HTTP space, so the engine's short-cut fires.
    #[test]
    fn silent_addresses_answer_no_burst() {
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
                        let silent = net.silent(origin, ctx.protocol, trial, dst);
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
                        // Wider than the world: the far half is silent.
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
