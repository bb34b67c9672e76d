//! Deterministic fault injection for robustness experiments.
//!
//! Real measurement campaigns do not fail cleanly: vantage points drop
//! off mid-scan, probe pipelines stall, middleboxes mangle replies, and
//! kernels deliver duplicates out of order. The paper's multi-origin
//! methodology survives these only because each origin's scan is
//! independent — a property this module lets the test suite *prove*
//! rather than assume.
//!
//! A [`FaultPlan`] is a declarative schedule of injected faults, keyed by
//! the scanner's opaque `(origin, trial)` identifiers and by fractions of
//! the scan's simulated duration. Every stochastic choice (which reply to
//! corrupt, which to duplicate) is a counter-RNG draw from the plan's own
//! seed — a pure function of the probe's identifiers — so faulted runs
//! are bit-for-bit reproducible and faults scoped to one origin cannot
//! perturb any other origin by construction.
//!
//! Faults come in two flavours, matching where they strike:
//!
//! * **Network-visible** faults are applied by [`FaultyNet`], a wrapper
//!   implementing [`Network`] around any inner network: outage windows
//!   (the origin's uplink goes dark: every reply is silence, every L7
//!   connection times out), reply corruption (the SYN-ACK/RST comes back
//!   with a mangled ack so the scanner's stateless validation rejects
//!   it), and duplicated/reordered replies (probe *i* receives a copy of
//!   probe *i−1*'s reply — which *passes* validation, since ZMap-style
//!   validation keys on the 4-tuple, not the probe index).
//! * **Process-level** faults are applied through the engine's
//!   [`FaultHook`]: pipeline stalls that shift the send clock, and
//!   crashes that kill the scan outright. [`FaultPlan::hook`] compiles
//!   the plan into such a hook; crashes honour a `fail_attempts` budget
//!   so a supervisor's retry (attempt ≥ budget) runs to completion.

use crate::rng::{Det, Tag};
use originscan_scanner::engine::{FaultAction, FaultCtx, FaultHook};
use originscan_scanner::target::{
    burst_of, Audible, IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, Protocol, SynReply, UdpReply,
};
use originscan_telemetry::metrics::names;
use originscan_telemetry::{EventKind, Scope, Telemetry};
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::tcp::TcpHeader;

/// A window of an origin's scan during which its network is unreachable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OutageWindow {
    /// Scanner's opaque origin index the outage strikes.
    pub(crate) origin: u16,
    /// Trial the outage strikes.
    pub(crate) trial: u8,
    /// Window start, as a fraction of the scan duration.
    pub(crate) start_frac: f64,
    /// Window end (recovery point), as a fraction of the scan duration.
    /// `>= 1.0` means the origin never recovers within this scan.
    pub(crate) end_frac: f64,
}

impl OutageWindow {
    fn covers(&self, origin: u16, trial: u8, frac: f64) -> bool {
        self.origin == origin
            && self.trial == trial
            && frac >= self.start_frac
            && frac < self.end_frac
    }
}

/// A scheduled crash: the scanning process dies at a point in the scan.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Crash {
    origin: u16,
    trial: u8,
    at_frac: f64,
    /// The crash fires only while the supervisor attempt number is below
    /// this budget; later attempts (retries/resumes) run through.
    fail_attempts: u32,
}

/// A scheduled probe-pipeline stall.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stall {
    origin: u16,
    trial: u8,
    at_frac: f64,
    delay_s: f64,
}

/// Per-(origin, trial) reply tampering probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tamper {
    origin: u16,
    trial: u8,
    corrupt_p: f64,
    duplicate_p: f64,
}

/// The kind of injected fault that degraded an origin's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A vantage outage window silenced part of the scan.
    Outage,
    /// Replies were corrupted or duplicated in flight.
    ReplyTamper,
}

/// A declarative, deterministic schedule of faults for one experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    outages: Vec<OutageWindow>,
    crashes: Vec<Crash>,
    stalls: Vec<Stall>,
    tampers: Vec<Tamper>,
}

impl FaultPlan {
    /// An empty plan whose stochastic draws are keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Add a vantage outage: from `start_frac` to `end_frac` of the scan,
    /// `origin`'s network is dark (replies silent, L7 times out). Use
    /// `end_frac >= 1.0` for an outage with no recovery.
    pub fn outage(mut self, origin: u16, trial: u8, start_frac: f64, end_frac: f64) -> Self {
        self.outages.push(OutageWindow {
            origin,
            trial,
            start_frac,
            end_frac,
        });
        self
    }

    /// Add a crash: the scan process for `(origin, trial)` is killed when
    /// its send clock reaches `at_frac` of the scan duration, on every
    /// attempt below `fail_attempts`. A supervisor that retries at least
    /// `fail_attempts` times will see the scan complete.
    pub fn crash(mut self, origin: u16, trial: u8, at_frac: f64, fail_attempts: u32) -> Self {
        self.crashes.push(Crash {
            origin,
            trial,
            at_frac,
            fail_attempts,
        });
        self
    }

    /// Add a probe-pipeline stall: at `at_frac` of the scan, `origin`'s
    /// sender blocks for `delay_s` seconds of simulated time, shifting
    /// every later probe.
    pub fn stall(mut self, origin: u16, trial: u8, at_frac: f64, delay_s: f64) -> Self {
        self.stalls.push(Stall {
            origin,
            trial,
            at_frac,
            delay_s,
        });
        self
    }

    /// Corrupt each of `(origin, trial)`'s replies with probability
    /// `corrupt_p`: the reply's ack field is mangled, so the scanner's
    /// stateless validation MAC check rejects it.
    pub fn corrupt_replies(mut self, origin: u16, trial: u8, corrupt_p: f64) -> Self {
        self.upsert_tamper(origin, trial, |t| t.corrupt_p = corrupt_p);
        self
    }

    /// Deliver, with probability `duplicate_p`, a duplicate of the
    /// previous probe's reply in place of probe `i > 0`'s own reply —
    /// modelling kernel-level duplication/reordering. The duplicate still
    /// validates (same 4-tuple), so this perturbs per-probe response
    /// patterns without inventing hosts.
    pub fn duplicate_replies(mut self, origin: u16, trial: u8, duplicate_p: f64) -> Self {
        self.upsert_tamper(origin, trial, |t| t.duplicate_p = duplicate_p);
        self
    }

    fn upsert_tamper(&mut self, origin: u16, trial: u8, apply: impl FnOnce(&mut Tamper)) {
        let entry = self
            .tampers
            .iter_mut()
            .find(|t| t.origin == origin && t.trial == trial);
        match entry {
            Some(t) => apply(t),
            None => {
                let mut t = Tamper {
                    origin,
                    trial,
                    corrupt_p: 0.0,
                    duplicate_p: 0.0,
                };
                apply(&mut t);
                self.tampers.push(t);
            }
        }
    }

    /// Is `(origin, trial)` inside an outage window at scan fraction
    /// `frac`?
    pub(crate) fn in_outage(&self, origin: u16, trial: u8, frac: f64) -> bool {
        self.outages.iter().any(|w| w.covers(origin, trial, frac))
    }

    /// Does the plan schedule any outage window for `(origin, trial)`?
    /// (Gates per-probe outage telemetry so untouched origins take no
    /// locks.)
    pub(crate) fn has_outage(&self, origin: u16, trial: u8) -> bool {
        self.outages
            .iter()
            .any(|w| w.origin == origin && w.trial == trial)
    }

    /// Does the plan degrade `(origin, trial)`'s *results* (as opposed to
    /// merely delaying or crash-restarting them)? Crashes and stalls are
    /// recoverable without data loss; outages and reply tampering lose or
    /// reject real replies.
    pub fn degradation(&self, origin: u16, trial: u8) -> Option<InjectedFault> {
        let hit =
            |w: &OutageWindow| w.origin == origin && w.trial == trial && w.end_frac > w.start_frac;
        if self.outages.iter().any(hit) {
            return Some(InjectedFault::Outage);
        }
        let tampered = self.tampers.iter().any(|t| {
            t.origin == origin && t.trial == trial && (t.corrupt_p > 0.0 || t.duplicate_p > 0.0)
        });
        tampered.then_some(InjectedFault::ReplyTamper)
    }

    /// Is the plan empty (injects nothing)?
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
            && self.crashes.is_empty()
            && self.stalls.is_empty()
            && self.tampers.is_empty()
    }

    fn tamper_for(&self, origin: u16, trial: u8) -> Option<&Tamper> {
        self.tampers
            .iter()
            .find(|t| t.origin == origin && t.trial == trial)
    }

    /// Compile the plan's process-level faults (crashes, stalls) into a
    /// [`FaultHook`] for scans of `duration_s` simulated seconds.
    pub fn hook(&self, duration_s: f64) -> PlanHook<'_> {
        PlanHook {
            plan: self,
            duration_s,
        }
    }
}

/// [`FaultHook`] view of a [`FaultPlan`] (see [`FaultPlan::hook`]).
#[derive(Debug, Clone, Copy)]
pub struct PlanHook<'p> {
    plan: &'p FaultPlan,
    duration_s: f64,
}

impl PlanHook<'_> {
    /// The scan fraction `ctx` stands at. Plan times refer to the
    /// *unstalled* pacer clock, so stalls do not shift later fault
    /// trigger points.
    fn frac(&self, ctx: &FaultCtx) -> f64 {
        (ctx.time_s - ctx.stall_s) / self.duration_s
    }
}

impl FaultHook for PlanHook<'_> {
    fn before_address(&self, ctx: &FaultCtx) -> FaultAction {
        let frac = self.frac(ctx);
        for c in &self.plan.crashes {
            if c.origin == ctx.origin
                && c.trial == ctx.trial
                && ctx.attempt < c.fail_attempts
                && frac >= c.at_frac
            {
                return FaultAction::Kill;
            }
        }
        // Stalls are applied idempotently: request only the portion of
        // the total due delay the engine has not yet absorbed, so resumed
        // runs (which restore the stall clock from the checkpoint) do not
        // double-apply.
        let due: f64 = self
            .plan
            .stalls
            .iter()
            .filter(|s| s.origin == ctx.origin && s.trial == ctx.trial && frac >= s.at_frac)
            .map(|s| s.delay_s)
            .sum();
        if due > ctx.stall_s + 1e-12 {
            return FaultAction::Stall {
                delay_s: due - ctx.stall_s,
            };
        }
        FaultAction::Continue
    }

    /// The scope's next crash or stall still ahead, as a send-clock time:
    /// `at_frac · duration + stall_s`, taken down (by an ulp at a time)
    /// until every earlier time's fraction falls short of `at_frac`;
    /// `+∞` when none is ahead. Until then the crashes this attempt
    /// suffers lie ahead and the stalls due are the ones already absorbed.
    fn quiet_until(&self, ctx: &FaultCtx) -> f64 {
        let frac = self.frac(ctx);
        // An action due now, or a clock that runs backwards or not at
        // all, promises nothing.
        let due = self.before_address(ctx) != FaultAction::Continue;
        if due || frac.is_nan() || self.duration_s <= 0.0 {
            return ctx.time_s;
        }
        let scope = |origin, trial| origin == ctx.origin && trial == ctx.trial;
        let crashes = self.plan.crashes.iter();
        let crashes = crashes.filter(|c| scope(c.origin, c.trial) && ctx.attempt < c.fail_attempts);
        let stalls = self.plan.stalls.iter().filter(|s| scope(s.origin, s.trial));
        let ahead = (crashes.map(|c| c.at_frac))
            .chain(stalls.map(|s| s.at_frac))
            .filter(|&at| at > frac)
            .reduce(f64::min);
        let Some(next) = ahead else {
            return f64::INFINITY;
        };
        let struck = |time_s| self.frac(&FaultCtx { time_s, ..*ctx }) >= next;
        let mut until = next * self.duration_s + ctx.stall_s;
        for _ in 0..8 {
            let below = until.next_down();
            if !struck(below) {
                return until;
            }
            until = below;
        }
        ctx.time_s
    }
}

/// A [`Network`] wrapper injecting a [`FaultPlan`]'s network-visible
/// faults in front of any inner network.
///
/// Origins and trials the plan does not mention pass through *untouched*
/// — the wrapper forwards the call verbatim, a burst as one burst —
/// which is what makes the per-origin isolation guarantee structural
/// rather than statistical.
#[derive(Debug, Clone, Copy)]
pub struct FaultyNet<'a, N: Network + ?Sized> {
    inner: &'a N,
    plan: &'a FaultPlan,
    /// The tamper draws' stream, rooted at the plan's seed.
    det: Det,
    duration_s: f64,
    telemetry: Option<&'a Telemetry>,
}

impl<'a, N: Network + ?Sized> FaultyNet<'a, N> {
    /// Wrap `inner`, injecting `plan`'s faults scaled to a scan of
    /// `duration_s` simulated seconds.
    pub fn new(inner: &'a N, plan: &'a FaultPlan, duration_s: f64) -> Self {
        Self {
            inner,
            plan,
            det: Det::new(plan.seed),
            duration_s,
            telemetry: None,
        }
    }

    /// Record injected faults (outage transitions, tampered replies) into
    /// `hub`. Telemetry only engages on probes the plan actually touches,
    /// so origins outside the plan still take zero locks.
    pub fn with_telemetry(mut self, hub: &'a Telemetry) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Does the plan leave the scope of `origin` and `trial` alone (no
    /// outage window and no tampering)? Then every probe method forwards
    /// to the inner net verbatim.
    fn untouched(&self, origin: u16, trial: u8) -> bool {
        !self.plan.has_outage(origin, trial) && self.plan.tamper_for(origin, trial).is_none()
    }

    /// One burst: forwarded to the inner net verbatim (`whole`) in an
    /// [`untouched`](Self::untouched) scope; otherwise the provided loop
    /// over `scalar`, since the outage telemetry and the tamper draws are
    /// per probe, in send order.
    fn burst<R>(
        &self,
        ctx: &ProbeCtx,
        times: &[f64],
        out: &mut [R],
        scalar: impl FnMut(&ProbeCtx) -> R,
        whole: impl FnOnce(&mut [R]),
    ) {
        if self.untouched(ctx.origin, ctx.trial) {
            whole(out);
        } else {
            burst_of(ctx, times, out, scalar);
        }
    }

    /// Outage check shared by every probe flavour: updates outage
    /// telemetry (only for origins the plan touches) and returns whether
    /// this probe falls inside a dark window.
    fn probe_outage(&self, ctx: &ProbeCtx) -> bool {
        let dark = self
            .plan
            .in_outage(ctx.origin, ctx.trial, ctx.time_s / self.duration_s);
        if let Some(hub) = self.telemetry {
            if self.plan.has_outage(ctx.origin, ctx.trial) {
                let scope = Scope::new(ctx.protocol.name(), ctx.trial, ctx.origin);
                hub.outage_update(scope, ctx.time_s, dark);
                if dark {
                    hub.add(scope, names::FAULT_OUTAGE_SILENCED, 1);
                }
            }
        }
        dark
    }

    /// Duplication draw shared by every probe flavour: returns the
    /// effective context (probe `i` may be re-asked as probe `i − 1`,
    /// which *is* the earlier reply since the inner network is pure).
    fn duplicated_ctx(&self, key: &[u64], t: &Tamper, ctx: &ProbeCtx) -> ProbeCtx {
        let mut eff = *ctx;
        if t.duplicate_p > 0.0
            && ctx.probe_idx > 0
            && self.det.bernoulli(Tag::FaultDuplicate, key, t.duplicate_p)
        {
            eff.probe_idx -= 1;
            if let Some(hub) = self.telemetry {
                let scope = Scope::new(ctx.protocol.name(), ctx.trial, ctx.origin);
                hub.emit(
                    scope,
                    ctx.time_s,
                    EventKind::ReplyDuplicated { addr: ctx.dst },
                );
                hub.add(scope, names::FAULT_REPLIES_DUPLICATED, 1);
            }
        }
        eff
    }

    /// One probe through the plan: `silent` in an outage, otherwise what
    /// `ask` answers for the (possibly duplicated) context, mangled in
    /// place by `corrupt` on a corruption draw. `corrupt` says whether
    /// there was a reply to mangle: corrupting silence is a no-op, so
    /// only actual replies (each of which the scanner's validation will
    /// reject) are recorded as faults.
    fn tampered<R>(
        &self,
        ctx: &ProbeCtx,
        silent: R,
        ask: impl Fn(&ProbeCtx) -> R,
        corrupt: impl FnOnce(&mut R) -> bool,
    ) -> R {
        if self.probe_outage(ctx) {
            return silent;
        }
        let Some(t) = self.plan.tamper_for(ctx.origin, ctx.trial) else {
            return ask(ctx);
        };
        let key = tamper_key(ctx);
        let eff = self.duplicated_ctx(&key, t, ctx);
        let mut reply = ask(&eff);
        if t.corrupt_p > 0.0
            && self.det.bernoulli(Tag::FaultCorrupt, &key, t.corrupt_p)
            && corrupt(&mut reply)
        {
            self.note_corruption(ctx);
        }
        reply
    }

    /// Record a reply the plan mangled (the scanner will reject it).
    fn note_corruption(&self, ctx: &ProbeCtx) {
        if let Some(hub) = self.telemetry {
            let scope = Scope::new(ctx.protocol.name(), ctx.trial, ctx.origin);
            hub.emit(
                scope,
                ctx.time_s,
                EventKind::ReplyCorrupted { addr: ctx.dst },
            );
            hub.add(scope, names::FAULT_REPLIES_CORRUPTED, 1);
        }
    }
}

/// Tamper-draw key for one probe.
fn tamper_key(ctx: &ProbeCtx) -> [u64; 4] {
    [
        u64::from(ctx.dst),
        u64::from(ctx.origin),
        u64::from(ctx.trial),
        u64::from(ctx.probe_idx),
    ]
}

impl<N: Network + ?Sized> Network for FaultyNet<'_, N> {
    /// The inner net's view wherever silence leaves no trace: in an
    /// untouched scope, and in one whose only fault is reply corruption
    /// (an address the inner view calls silent gets `Silent`, corrupting
    /// silence is a no-op that records nothing, and the corruption draw is
    /// a pure keyed hash). An outage scope lends none, since it counts
    /// every probe it silences, and neither does a duplication scope,
    /// whose draw records a `ReplyDuplicated` for a silent probe too.
    fn audible(&self, origin: u16, protocol: Protocol, trial: u8) -> Option<Audible<'_>> {
        let tamper = self.plan.tamper_for(origin, trial);
        let duplicates = tamper.is_some_and(|t| t.duplicate_p > 0.0);
        if !self.plan.has_outage(origin, trial) && !duplicates {
            self.inner.audible(origin, protocol, trial)
        } else {
            None
        }
    }

    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        let ask = |c: &ProbeCtx| self.inner.syn(c, probe);
        // Shift the acknowledgment: the scanner's stateless MAC check fails.
        self.tampered(ctx, SynReply::Silent, ask, |reply| match reply {
            SynReply::SynAck(h) | SynReply::Rst(h) => {
                h.ack = h.ack.wrapping_add(0x5A5A_0001);
                true
            }
            SynReply::Silent => false,
        })
    }

    fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        let ask = |c: &ProbeCtx| self.inner.icmp(c, probe);
        // Mangle the echoed identifier: the module's ident/seq validation
        // rejects the reply.
        self.tampered(ctx, IcmpReply::Silent, ask, |reply| match reply {
            IcmpReply::EchoReply { ident, .. } => {
                *ident = ident.wrapping_add(0x5A5A);
                true
            }
            IcmpReply::Unreachable { .. } | IcmpReply::Silent => false,
        })
    }

    fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
        let ask = |c: &ProbeCtx| self.inner.udp(c, payload);
        // Flip the transaction id in the response header: the module's
        // txid validation rejects the reply.
        self.tampered(ctx, UdpReply::Silent, ask, |reply| match reply {
            UdpReply::Data(bytes) => {
                if let Some(b) = bytes.get_mut(0) {
                    *b ^= 0x5A;
                }
                true
            }
            UdpReply::PortUnreachable | UdpReply::Silent => false,
        })
    }

    fn syn_burst(&self, ctx: &ProbeCtx, probe: &TcpHeader, times: &[f64], out: &mut [SynReply]) {
        let whole = |o: &mut [SynReply]| self.inner.syn_burst(ctx, probe, times, o);
        self.burst(ctx, times, out, |c| self.syn(c, probe), whole);
    }

    fn icmp_burst(&self, ctx: &ProbeCtx, probe: &IcmpEcho, times: &[f64], out: &mut [IcmpReply]) {
        let whole = |o: &mut [IcmpReply]| self.inner.icmp_burst(ctx, probe, times, o);
        self.burst(ctx, times, out, |c| self.icmp(c, probe), whole);
    }

    fn udp_burst(&self, ctx: &ProbeCtx, payload: &[u8], times: &[f64], out: &mut [UdpReply]) {
        let whole = |o: &mut [UdpReply]| self.inner.udp_burst(ctx, payload, times, o);
        self.burst(ctx, times, out, |c| self.udp(c, payload), whole);
    }

    fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply {
        if self
            .plan
            .in_outage(ctx.origin, ctx.trial, ctx.time_s / self.duration_s)
        {
            if let Some(hub) = self.telemetry {
                let scope = Scope::new(ctx.protocol.name(), ctx.trial, ctx.origin);
                hub.add(scope, names::FAULT_OUTAGE_L7_TIMEOUTS, 1);
            }
            return L7Reply::Timeout;
        }
        self.inner.l7(ctx, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netimpl::SimNet;
    use crate::origin::OriginId;
    use crate::world::WorldConfig;
    use originscan_scanner::engine::{run_scan, run_scan_session, ScanConfig, ScanSession};
    use originscan_scanner::Protocol;

    const ORIGINS: &[OriginId] = &[OriginId::Us1, OriginId::Germany];
    const DUR: f64 = 75_600.0;

    fn cfg_for(w: &crate::world::World, origin: u16, proto: Protocol) -> ScanConfig {
        let mut c = ScanConfig::new(w.space(), proto, 4242);
        c.origin = origin;
        c.concurrent_origins = ORIGINS.len() as u8;
        // Pace so the whole scan (2 probes/address) spans exactly DUR —
        // outage fractions then line up with response timestamps.
        c.rate_pps = originscan_scanner::rate_for_duration(w.space() * 2, DUR);
        c
    }

    fn cfg(w: &crate::world::World, origin: u16) -> ScanConfig {
        cfg_for(w, origin, Protocol::Http)
    }

    #[test]
    fn untouched_origin_is_bit_identical() {
        let w = WorldConfig::tiny(7).build();
        let net = SimNet::new(&w, ORIGINS, DUR);
        let plan = FaultPlan::new(1)
            .outage(1, 0, 0.2, 0.7)
            .corrupt_replies(1, 0, 0.5);
        let faulty = FaultyNet::new(&net, &plan, DUR);
        let clean = run_scan(&net, &cfg(&w, 0)).unwrap();
        let under_faults = run_scan(&faulty, &cfg(&w, 0)).unwrap();
        assert_eq!(
            clean, under_faults,
            "origin 0 must not observe origin 1's faults"
        );
    }

    #[test]
    fn outage_window_silences_mid_scan_replies() {
        let w = WorldConfig::tiny(7).build();
        let net = SimNet::new(&w, ORIGINS, DUR);
        let plan = FaultPlan::new(1).outage(1, 0, 0.25, 0.75);
        let faulty = FaultyNet::new(&net, &plan, DUR);
        let clean = run_scan(&net, &cfg(&w, 1)).unwrap();
        let faulted = run_scan(&faulty, &cfg(&w, 1)).unwrap();
        assert!(
            faulted.summary.l7_successes < clean.summary.l7_successes,
            "a half-scan outage must lose hosts ({} vs {})",
            faulted.summary.l7_successes,
            clean.summary.l7_successes
        );
        // No response falls inside the dark window.
        let (lo, hi) = (
            0.25 * clean.summary.duration_s,
            0.75 * clean.summary.duration_s,
        );
        assert!(faulted
            .records
            .iter()
            .all(|r| r.response_time_s < lo || r.response_time_s >= hi));
        // Recovery: responses exist on both sides of the window.
        assert!(faulted.records.iter().any(|r| r.response_time_s < lo));
        assert!(faulted.records.iter().any(|r| r.response_time_s >= hi));
    }

    #[test]
    fn corruption_shows_up_as_validation_failures() {
        let w = WorldConfig::tiny(7).build();
        let net = SimNet::new(&w, ORIGINS, DUR);
        let plan = FaultPlan::new(9).corrupt_replies(0, 0, 0.4);
        let faulty = FaultyNet::new(&net, &plan, DUR);
        let clean = run_scan(&net, &cfg(&w, 0)).unwrap();
        let faulted = run_scan(&faulty, &cfg(&w, 0)).unwrap();
        assert!(clean.summary.validation_failures == 0);
        assert!(
            faulted.summary.validation_failures > 0,
            "corrupted acks must fail the validation MAC"
        );
        assert!(faulted.summary.synacks < clean.summary.synacks);
        // Determinism: same plan, same result.
        let again = run_scan(&faulty, &cfg(&w, 0)).unwrap();
        assert_eq!(faulted, again);
    }

    #[test]
    fn duplicated_replies_validate_but_skew_probe_masks() {
        let w = WorldConfig::tiny(7).build();
        let net = SimNet::new(&w, ORIGINS, DUR);
        let plan = FaultPlan::new(5).duplicate_replies(0, 0, 1.0);
        let faulty = FaultyNet::new(&net, &plan, DUR);
        let clean = run_scan(&net, &cfg(&w, 0)).unwrap();
        let faulted = run_scan(&faulty, &cfg(&w, 0)).unwrap();
        // Duplicates pass validation — they are real (stale) replies.
        assert_eq!(faulted.summary.validation_failures, 0);
        // With p=1 both probes now carry probe 0's fate, so per-record
        // masks become 0b00 or 0b11; the masks must differ from clean
        // somewhere (probe 1's independent drops are masked out).
        assert!(faulted
            .records
            .iter()
            .all(|r| r.synack_mask == 0b00 || r.synack_mask == 0b11));
        assert_ne!(
            clean
                .records
                .iter()
                .map(|r| (r.addr, r.synack_mask))
                .collect::<Vec<_>>(),
            faulted
                .records
                .iter()
                .map(|r| (r.addr, r.synack_mask))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn faults_strike_stateless_modules_too() {
        let w = WorldConfig::tiny(7).build();
        let net = SimNet::new(&w, ORIGINS, DUR);
        let plan = FaultPlan::new(11)
            .outage(0, 0, 0.25, 0.75)
            .corrupt_replies(1, 0, 0.4);
        let faulty = FaultyNet::new(&net, &plan, DUR);
        // An outage window silences ICMP echo replies like SYN-ACKs.
        let clean = run_scan(&net, &cfg_for(&w, 0, Protocol::Icmp)).unwrap();
        let dark = run_scan(&faulty, &cfg_for(&w, 0, Protocol::Icmp)).unwrap();
        assert!(dark.summary.l7_successes < clean.summary.l7_successes);
        let (lo, hi) = (
            0.25 * clean.summary.duration_s,
            0.75 * clean.summary.duration_s,
        );
        assert!(dark
            .records
            .iter()
            .all(|r| r.response_time_s < lo || r.response_time_s >= hi));
        // Corrupted DNS responses fail txid validation instead of
        // inventing resolvers.
        let clean_dns = run_scan(&net, &cfg_for(&w, 1, Protocol::Dns)).unwrap();
        let mangled = run_scan(&faulty, &cfg_for(&w, 1, Protocol::Dns)).unwrap();
        assert_eq!(clean_dns.summary.validation_failures, 0);
        assert!(mangled.summary.validation_failures > 0);
        assert!(mangled.summary.l7_successes < clean_dns.summary.l7_successes);
    }

    #[test]
    fn plan_hook_kills_then_spares_retries() {
        let w = WorldConfig::tiny(7).build();
        let net = SimNet::new(&w, ORIGINS, DUR);
        let plan = FaultPlan::new(3).crash(0, 0, 0.5, 1);
        let faulty = FaultyNet::new(&net, &plan, DUR);
        let hook = plan.hook(DUR);
        let killed = run_scan_session(
            &faulty,
            &cfg(&w, 0),
            ScanSession {
                hook: Some(&hook),
                attempt: 0,
                ..Default::default()
            },
        );
        assert!(killed.is_err(), "attempt 0 must die at the crash point");
        let survived = run_scan_session(
            &faulty,
            &cfg(&w, 0),
            ScanSession {
                hook: Some(&hook),
                attempt: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let clean = run_scan(&net, &cfg(&w, 0)).unwrap();
        assert_eq!(
            survived, clean,
            "a pure crash (no outage window) loses no data"
        );
    }

    /// `quiet_until` keeps its promise at the last time before the one it
    /// names, where rounding bites: over random fractions, durations and
    /// stall clocks the hook continues there, and where the naive
    /// `at_frac · duration + stall_s` would promise one time too many it
    /// is taken down. An action due now promises nothing; none ahead, all.
    #[test]
    fn plan_hook_is_quiet_until_the_time_it_names() {
        let det = Det::new(17);
        let (mut taken_down, mut tight) = (0, 0);
        for case in 0..20_000u64 {
            let u = |i: u64| det.uniform(Tag::FaultCorrupt, &[case, i]);
            let (at, duration_s) = (u(0), 1.0 + u(1) * 1e6);
            let stall_s = if case % 2 == 0 { 0.0 } else { u(2) * 1e3 };
            let plan = if case % 3 == 0 {
                FaultPlan::new(0).stall(0, 0, at, stall_s + 1.0)
            } else {
                FaultPlan::new(0).crash(0, 0, at, 1)
            };
            let hook = plan.hook(duration_s);
            let at_time = |time_s| FaultCtx {
                origin: 0,
                trial: 0,
                attempt: 0,
                time_s,
                stall_s,
            };
            let until = hook.quiet_until(&at_time(stall_s));
            let below = hook.before_address(&at_time(until.next_down()));
            assert_eq!(below, FaultAction::Continue, "case {case}");
            taken_down += usize::from(until != at * duration_s + stall_s);
            tight += usize::from(hook.before_address(&at_time(until)) != FaultAction::Continue);
            assert_eq!(hook.quiet_until(&at_time(until)), until, "due now");
            let spared = FaultCtx {
                attempt: 1,
                ..at_time(stall_s)
            };
            let none_ahead = case % 3 != 0;
            assert_eq!(hook.quiet_until(&spared) == f64::INFINITY, none_ahead);
        }
        assert!(taken_down > 0 && tight > 10_000, "{taken_down} {tight}");
    }

    #[test]
    fn stalls_delay_but_stay_deterministic() {
        let w = WorldConfig::tiny(7).build();
        let net = SimNet::new(&w, ORIGINS, DUR);
        let plan = FaultPlan::new(3).stall(0, 0, 0.5, 120.0);
        let hook = plan.hook(DUR);
        let clean = run_scan(&net, &cfg(&w, 0)).unwrap();
        let session = || ScanSession {
            hook: Some(&hook),
            ..Default::default()
        };
        let stalled = run_scan_session(&net, &cfg(&w, 0), session()).unwrap();
        // Every probe still goes out; the scan just finishes late.
        assert_eq!(stalled.summary.probes_sent, clean.summary.probes_sent);
        assert!((stalled.summary.duration_s - clean.summary.duration_s - 120.0).abs() < 1e-6);
        // Probes after the stall land 120 s later on the simulated clock,
        // so time-dependent models (bursts, IDS) may legitimately answer
        // differently — but the shifted run itself is fully deterministic.
        let again = run_scan_session(&net, &cfg(&w, 0), session()).unwrap();
        assert_eq!(stalled, again);
    }

    #[test]
    fn telemetry_tracks_outage_transitions_and_tampering() {
        let w = WorldConfig::tiny(7).build();
        let net = SimNet::new(&w, ORIGINS, DUR);
        let plan = FaultPlan::new(1)
            .outage(1, 0, 0.25, 0.75)
            .corrupt_replies(1, 0, 0.01)
            .duplicate_replies(1, 0, 0.01);
        let hub = Telemetry::new();
        let faulty = FaultyNet::new(&net, &plan, DUR).with_telemetry(&hub);
        // Origin 0 is untouched by the plan: no telemetry may appear.
        run_scan(&faulty, &cfg(&w, 0)).unwrap();
        assert_eq!(
            hub.snapshot(),
            originscan_telemetry::TelemetrySnapshot::default()
        );
        // Origin 1: one outage cycle plus tampered replies.
        let faulted = run_scan(&faulty, &cfg(&w, 1)).unwrap();
        let snap = hub.snapshot();
        let scope = Scope::new("HTTP", 0, 1);
        let transitions: Vec<&str> = snap
            .events_for(scope)
            .filter(|e| matches!(e.kind, EventKind::OutageStarted | EventKind::OutageEnded))
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(transitions, vec!["outage_started", "outage_ended"]);
        assert!(snap.counter(scope, names::FAULT_OUTAGE_SILENCED) > 0);
        assert_eq!(
            snap.counter(scope, names::FAULT_REPLIES_CORRUPTED),
            faulted.summary.validation_failures,
            "every corrupted reply must fail validation"
        );
        assert!(snap.counter(scope, names::FAULT_REPLIES_DUPLICATED) > 0);
    }

    #[test]
    fn degradation_classification() {
        let plan = FaultPlan::new(0)
            .outage(1, 0, 0.2, 0.4)
            .crash(2, 0, 0.5, 1)
            .stall(3, 0, 0.5, 60.0)
            .corrupt_replies(4, 1, 0.2);
        assert_eq!(plan.degradation(1, 0), Some(InjectedFault::Outage));
        assert_eq!(plan.degradation(2, 0), None, "pure crash is recoverable");
        assert_eq!(plan.degradation(3, 0), None, "stall only delays");
        assert_eq!(plan.degradation(4, 1), Some(InjectedFault::ReplyTamper));
        assert_eq!(plan.degradation(4, 0), None, "trial-scoped");
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(9).is_empty());
    }
}
