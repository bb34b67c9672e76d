//! The boundary between the scanner and the network it probes.
//!
//! The scanner is generic over a [`Network`]: the live Internet for real
//! ZMap, or the deterministic simulated Internet in `originscan-netmodel`
//! here. The trait is synchronous and `&self`. An implementation whose
//! replies are pure functions of the probe context (plus its own
//! precomputed state) says so through [`Network::order_free`], and the
//! engine then probes it from several threads at once; one that learns
//! from the order of its calls is probed by one thread, in send order.

use originscan_wire::icmp::IcmpEcho;
use originscan_wire::tcp::TcpHeader;

/// Scanned protocols, one per registered probe module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// HTTP on TCP/80 (`GET /`).
    Http,
    /// HTTPS on TCP/443 (TLS 1.2 ClientHello → ServerHello).
    Https,
    /// SSH on TCP/22 (identification-string exchange).
    Ssh,
    /// ICMP echo (ping); no port.
    Icmp,
    /// DNS A-query over UDP/53.
    Dns,
}

impl Protocol {
    /// Short display name as used in the paper's tables (and as the
    /// store/telemetry protocol key).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Http => "HTTP",
            Protocol::Https => "HTTPS",
            Protocol::Ssh => "SSH",
            Protocol::Icmp => "ICMP",
            Protocol::Dns => "DNS",
        }
    }
}

impl core::fmt::Display for Protocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything the network needs to know about one SYN probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCtx {
    /// Opaque origin index assigned by the experiment runner.
    pub origin: u16,
    /// Which of the origin's source addresses sent this probe.
    pub src_ip: u32,
    /// Destination address (index into the simulated space).
    pub dst: u32,
    /// Protocol being scanned (fixes the destination port).
    pub protocol: Protocol,
    /// Simulated seconds since the start of the scan.
    pub time_s: f64,
    /// Probe sequence within the address's burst (`0..probes`, so at
    /// most [`crate::MAX_PROBES`]` - 1`).
    pub probe_idx: u8,
    /// Trial number (0-based).
    pub trial: u8,
}

/// What came back (to the scanner's NIC) in answer to a SYN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynReply {
    /// A SYN-ACK segment (possibly spoofed — the engine validates it).
    SynAck(TcpHeader),
    /// A RST segment: port closed or connection refused by a middlebox.
    Rst(TcpHeader),
    /// Nothing: host absent, probe or reply dropped, or silently filtered.
    Silent,
}

/// Context for an application-layer handshake attempt.
#[derive(Debug, Clone, Copy)]
pub struct L7Ctx {
    /// Opaque origin index.
    pub origin: u16,
    /// Source address used for the connection.
    pub src_ip: u32,
    /// Destination address.
    pub dst: u32,
    /// Protocol (and so destination port).
    pub protocol: Protocol,
    /// Simulated seconds since the start of the scan.
    pub time_s: f64,
    /// Trial number (0-based).
    pub trial: u8,
    /// Retry attempt number, 0 for the first try.
    pub attempt: u8,
    /// Origins concurrently scanning this host (the paper's §6: shared
    /// seeds mean all origins hit a host near-simultaneously, which raises
    /// OpenSSH `MaxStartups` refusal rates).
    pub concurrent_origins: u8,
}

/// How a TCP connection ended without application data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseKind {
    /// Peer sent RST after the TCP handshake (Alibaba's SSH blocking).
    Rst,
    /// Peer sent FIN-ACK after the TCP handshake (MaxStartups refusals).
    FinAck,
}

/// What the application-layer connection produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L7Reply {
    /// Bytes from the server (status line / ServerHello / ident string).
    Data(Vec<u8>),
    /// The server closed the connection without sending data.
    ConnClosed(CloseKind),
    /// The connection timed out (SYN-ACKed at L4, then silence).
    Timeout,
}

/// What came back in answer to an ICMP echo request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpReply {
    /// An echo reply (the module validates ident/seq).
    EchoReply {
        /// Identifier mirrored from the request.
        ident: u16,
        /// Sequence mirrored from the request.
        seq: u16,
    },
    /// A destination-unreachable message from the host or a router.
    Unreachable {
        /// ICMP unreachable code.
        code: u8,
    },
    /// Nothing: host absent, probe or reply dropped, or filtered.
    Silent,
}

/// What came back in answer to a UDP probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpReply {
    /// Application payload bytes (e.g. a DNS response).
    Data(Vec<u8>),
    /// ICMP port unreachable: nothing listens on the port.
    PortUnreachable,
    /// Nothing: host absent, probe or reply dropped, or filtered.
    Silent,
}

/// 1 024 addresses of an [`Audible`] set, one bit each. A set is stored
/// in whole 128-byte-aligned lines so that it shares no cache line with
/// another allocation: every scan thread reads it at every address. (As a
/// plain `u64` slice, a two-core `scan_single` ran ~15 % slower.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(align(128))]
pub struct Line(pub [u64; 16]);

impl Line {
    /// Lines enough for addresses `0..space`, every bit clear.
    pub fn zeroed(space: u64) -> Vec<Line> {
        vec![Line([0; 16]); usize::try_from(space.div_ceil(1024)).unwrap_or(0)]
    }

    /// Set `addr`'s bit, where `lines` reach it.
    pub fn set(lines: &mut [Line], addr: u32) {
        let line = lines.get_mut((addr / 1024) as usize);
        if let Some(word) = line.and_then(|l| l.0.get_mut((addr / 64 % 16) as usize)) {
            *word |= 1 << (addr % 64);
        }
    }
}

/// The addresses a network may answer in one (origin, protocol, trial),
/// lent for a whole scan by [`Network::audible`]. A clear bit promises
/// that every probe of any burst to its address gets `Silent`, whatever
/// its source, bytes and send times, and that asking leaves no trace; a
/// set bit, and any address past the last line, promises nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audible<'a> {
    lines: &'a [Line],
}

impl<'a> Audible<'a> {
    /// No promise at all: every address is audible.
    pub const ALL: Audible<'static> = Audible { lines: &[] };

    /// The set whose bits `lines` hold.
    pub fn new(lines: &'a [Line]) -> Self {
        Self { lines }
    }

    /// May `addr` answer: is its bit set, or does it lie past the set?
    #[inline(always)]
    pub fn contains(self, addr: u32) -> bool {
        let Some(line) = self.lines.get((addr / 1024) as usize) else {
            return true;
        };
        line.0
            .get((addr / 64 % 16) as usize)
            .is_some_and(|word| word >> (addr % 64) & 1 != 0)
    }
}

/// The provided burst loop: write `one`'s answer to each probe of the
/// burst into `replies`, probe `i` sent at `times[i]` as
/// `ctx.probe_idx + i`. Public so that an override which must fall back
/// to the provided behaviour (a stateful wrapper over a net that is not
/// [`Network::order_free`]) calls this loop instead of copying it.
pub fn burst_of<R>(
    ctx: &ProbeCtx,
    times: &[f64],
    replies: &mut [R],
    mut one: impl FnMut(&ProbeCtx) -> R,
) {
    for ((reply, &time_s), i) in replies.iter_mut().zip(times).zip(0..) {
        *reply = one(&ProbeCtx {
            time_s,
            probe_idx: ctx.probe_idx.wrapping_add(i),
            ..*ctx
        });
    }
}

/// A probed network: answers probes and application handshakes.
///
/// ICMP and UDP delivery have `Silent` defaults so TCP-only networks
/// (and test doubles) keep compiling unchanged; a network that models
/// those probe modules overrides them.
///
/// # Bursts
///
/// The engine sends an address its probes as one burst: the same probe
/// `times.len()` times (at most [`crate::MAX_PROBES`]), probe `i` at `times[i]`
/// as `ctx.probe_idx + i`; `ctx.time_s` is not read. The answer to probe
/// `i` goes to `replies[i]`, for as many probes as both slices hold. The
/// provided `*_burst` methods loop over the scalar call, so a network
/// that implements only those is complete. An override exists to share
/// work between an address's probes, and must write exactly what the
/// provided loop would.
pub trait Network: Sync {
    /// Deliver `probe` (a SYN built by the engine) and return the reply.
    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply;

    /// Open a connection and send `request`; returns the server's answer.
    fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply;

    /// Is every reply a pure function of the call's arguments (and of
    /// state fixed before the scan)? Then neither the order of calls nor
    /// the thread they come from can change a reply or leave a trace,
    /// and an open-loop scan spreads its probes over the machine's cores
    /// (see [`crate::engine`]). The default is `false`: a network that keeps
    /// state across calls (a defender that counts probes, a fault layer
    /// that logs them) must see one caller, in send order.
    fn order_free(&self) -> bool {
        false
    }

    /// The addresses that may answer `protocol` from `origin` in `trial`,
    /// lent once per scan: the engine delivers no burst to an address
    /// whose bit is clear (nor, but under `wire_check`, builds one), and
    /// reads the bit before any other work on the address. The default
    /// `None` promises nothing, which suits a network that must see every
    /// probe (a defender, a fault layer that logs).
    fn audible(&self, _origin: u16, _protocol: Protocol, _trial: u8) -> Option<Audible<'_>> {
        None
    }

    /// Deliver an ICMP echo request and return the reply.
    fn icmp(&self, _ctx: &ProbeCtx, _probe: &IcmpEcho) -> IcmpReply {
        IcmpReply::Silent
    }

    /// Deliver a UDP payload and return the reply.
    fn udp(&self, _ctx: &ProbeCtx, _payload: &[u8]) -> UdpReply {
        UdpReply::Silent
    }

    /// Deliver a burst of SYNs (see the trait docs).
    fn syn_burst(
        &self,
        ctx: &ProbeCtx,
        probe: &TcpHeader,
        times: &[f64],
        replies: &mut [SynReply],
    ) {
        burst_of(ctx, times, replies, |c| self.syn(c, probe));
    }

    /// Deliver a burst of echo requests (see the trait docs).
    fn icmp_burst(
        &self,
        ctx: &ProbeCtx,
        probe: &IcmpEcho,
        times: &[f64],
        replies: &mut [IcmpReply],
    ) {
        burst_of(ctx, times, replies, |c| self.icmp(c, probe));
    }

    /// Deliver a burst of UDP payloads (see the trait docs).
    fn udp_burst(&self, ctx: &ProbeCtx, payload: &[u8], times: &[f64], replies: &mut [UdpReply]) {
        burst_of(ctx, times, replies, |c| self.udp(c, payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_match_paper() {
        assert_eq!(crate::probe::module_for(Protocol::Http).port(), 80);
        assert_eq!(crate::probe::module_for(Protocol::Https).port(), 443);
        assert_eq!(crate::probe::module_for(Protocol::Ssh).port(), 22);
    }

    #[test]
    fn names_and_order() {
        let names: Vec<&str> = crate::probe::PAPER_PROTOCOLS
            .iter()
            .map(|p| p.name())
            .collect();
        assert_eq!(names, vec!["HTTP", "HTTPS", "SSH"]);
        assert_eq!(Protocol::Https.to_string(), "HTTPS");
        assert_eq!(Protocol::Icmp.to_string(), "ICMP");
        assert_eq!(Protocol::Dns.to_string(), "DNS");
    }
}
