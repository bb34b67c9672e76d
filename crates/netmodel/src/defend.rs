//! Stateful defender agents: rate-triggered detection, escalating block
//! windows, and a greynoise-style reputation store.
//!
//! The destination policies under [`crate::policy`] are *memoryless* —
//! pure functions of `(world, origin, addr, trial, time)` — which is what
//! keeps replays byte-identical. Real defenders are not memoryless: an
//! IDS counts probes over a sliding window, blocks for a while, escalates
//! on repeat offenders, and feeds shared blocklists that outlive any one
//! scan. This module adds that statefulness as a [`Network`] wrapper in
//! the style of [`crate::fault::FaultyNet`]:
//!
//! - **Per-(source IP, AS) detectors** count probes over tumbling
//!   simulated-time windows. Crossing the threshold trips a detection,
//!   starts a block window, and escalates the block duration
//!   geometrically on each repeat. They sit in one dense table, a row of
//!   the world's ASes per source IP, and a burst of probes to one address
//!   passes through them under one lock.
//! - **A reputation store keyed by origin** accumulates detections from
//!   every AS. Crossing [`AggressionProfile::listing_threshold`] *lists*
//!   the origin: from then on every defended probe is dropped, across
//!   trials, which is the co-simulation's version of landing on a shared
//!   blocklist.
//!
//! Determinism: all state transitions are pure functions of the probe
//! stream — there is no RNG here at all — so a single-threaded scan
//! against a [`DefenderNet`] is exactly reproducible. State persists
//! across trials through a global clock (`trial × duration + time`),
//! letting block windows and listings straddle trial boundaries the way
//! real blocklist entries straddle scan days.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::world::World;
use originscan_scanner::target::{
    burst_of, Audible, CloseKind, IcmpReply, L7Ctx, L7Reply, Network, ProbeCtx, SynReply, UdpReply,
};
use originscan_scanner::{Protocol, MAX_PROBES};
use originscan_telemetry::metrics::names;
use originscan_telemetry::{EventKind, MetricBatch, Scope, Telemetry};
use originscan_wire::icmp::IcmpEcho;
use originscan_wire::tcp::TcpHeader;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// ICMP destination unreachable, "communication administratively
/// prohibited": what a visible defender answers a blocked echo with.
const ADMIN_PROHIBITED: IcmpReply = IcmpReply::Unreachable { code: 13 };

/// How hard the defender swarm pushes back. One profile governs every
/// AS-level detector plus the shared reputation store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggressionProfile {
    /// Profile name used in sweep matrices and telemetry.
    pub name: &'static str,
    /// Probes from one source IP into one AS within `Self::window_s`
    /// that trip detection. `0` disables detection entirely.
    pub window_probes: u32,
    /// Tumbling detection-window length in simulated seconds.
    pub(crate) window_s: f64,
    /// First block duration in simulated seconds.
    pub(crate) block_base_s: f64,
    /// Block-duration multiplier per escalation level.
    pub(crate) escalation: f64,
    /// Escalation ceiling (block duration stops growing here).
    pub(crate) max_level: u32,
    /// Detections (swarm-wide, per origin) before the reputation store
    /// lists the origin outright. `0` disables listing.
    pub(crate) listing_threshold: u32,
    /// Blocked probes get a RST (visible signal) instead of silence.
    pub(crate) rst_on_block: bool,
}

impl AggressionProfile {
    /// No defense at all: every probe passes straight through.
    pub fn off() -> Self {
        Self {
            name: "off",
            window_probes: 0,
            window_s: 1.0,
            block_base_s: 0.0,
            escalation: 1.0,
            max_level: 1,
            listing_threshold: 0,
            rst_on_block: false,
        }
    }

    /// Tolerant enterprise IDS: generous windows, short non-escalating
    /// blocks, never reports to the reputation store.
    pub fn lenient() -> Self {
        Self {
            name: "lenient",
            window_probes: 256,
            window_s: 600.0,
            block_base_s: 600.0,
            escalation: 1.0,
            max_level: 1,
            listing_threshold: 0,
            rst_on_block: false,
        }
    }

    /// Alert operator: tight windows, hour-scale escalating blocks, RSTs
    /// on block (tarpit-style), feeds the reputation store.
    pub fn aggressive() -> Self {
        Self {
            name: "aggressive",
            window_probes: 48,
            window_s: 900.0,
            block_base_s: 1800.0,
            escalation: 2.0,
            max_level: 6,
            listing_threshold: 24,
            rst_on_block: true,
        }
    }

    /// Hair-trigger: blocks almost immediately, silent drops, lists
    /// origins after a handful of detections.
    pub fn paranoid() -> Self {
        Self {
            name: "paranoid",
            window_probes: 12,
            window_s: 1200.0,
            block_base_s: 3600.0,
            escalation: 2.0,
            max_level: 8,
            listing_threshold: 8,
            rst_on_block: false,
        }
    }

    /// The sweep roster, mildest first.
    pub fn roster() -> [Self; 4] {
        [
            Self::off(),
            Self::lenient(),
            Self::aggressive(),
            Self::paranoid(),
        ]
    }
}

/// One AS's detector state against one scanning source IP.
#[derive(Debug, Clone, Copy, Default)]
struct DetectorState {
    /// Start of the current tumbling window (global simulated seconds).
    window_start: f64,
    /// Probes counted in the current window.
    window_count: u32,
    /// Global simulated time at which the current block lapses.
    blocked_until: f64,
    /// Escalation level reached (0 = never tripped).
    level: u32,
    /// Set while a block is active, so its expiry can be observed (and
    /// reported) on the first probe that passes through again.
    in_block: bool,
}

/// Cumulative defender-side counters, exposed to sweep harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// Rate-detector trips across the swarm.
    pub detections: u64,
    /// Probes swallowed or reset by an active block window.
    pub blocked_probes: u64,
    /// Probes dropped because the origin is reputation-listed.
    pub(crate) reputation_drops: u64,
    /// Origins listed by the reputation store.
    pub listings: u64,
}

/// Mutable swarm state: every detector, plus the shared reputation store.
#[derive(Debug, Default)]
struct SwarmState {
    /// Scanner source IPs in first-seen order: a source's slot is its
    /// position here.
    sources: Vec<u32>,
    /// Detector per (source slot, AS index), at `slot × ASes + as_index`:
    /// a source's row is allocated on its first probe.
    detectors: Vec<DetectorState>,
    /// Detections accumulated per origin by the reputation store.
    origin_detections: BTreeMap<u16, u32>,
    /// Origins the reputation store has listed (never unlisted).
    listed: BTreeSet<u16>,
    /// Counters since the last [`DefenderNet::flush_trial_metrics`].
    pending: DefenseStats,
    /// Counters since construction.
    total: DefenseStats,
}

impl SwarmState {
    /// Where `src_ip`'s detector in `as_index` sits, allocating the
    /// source's row of `ases` detectors on its first probe.
    fn cell(&mut self, src_ip: u32, as_index: u32, ases: usize) -> usize {
        let slot = self.sources.iter().position(|&s| s == src_ip);
        let slot = slot.unwrap_or_else(|| {
            self.sources.push(src_ip);
            self.detectors
                .resize(self.sources.len() * ases, DetectorState::default());
            self.sources.len() - 1
        });
        slot * ases + as_index as usize
    }
}

/// A [`Network`] wrapper that fronts the inner model with stateful
/// defender agents configured by an [`AggressionProfile`].
///
/// Interior mutability keeps the [`Network`] trait's `&self` contract;
/// the mutex is uncontended in the deterministic single-threaded scans
/// the co-simulation runs per sweep cell. A defended net lends no
/// [`Network::audible`] set: the detectors count probes to unused
/// addresses too. With the `off` profile every call goes straight to the
/// inner net, which then also lends its set and answers
/// [`Network::order_free`].
#[derive(Debug)]
pub struct DefenderNet<'a, N: Network + ?Sized> {
    inner: &'a N,
    world: &'a World,
    profile: AggressionProfile,
    /// Per-trial scan duration, used to splice trials onto one global
    /// clock so blocks and listings persist across trials.
    duration_s: f64,
    state: Mutex<SwarmState>,
    telemetry: Option<&'a Telemetry>,
}

impl<'a, N: Network + ?Sized> DefenderNet<'a, N> {
    /// Wrap `inner` with a defender swarm. `duration_s` is the per-trial
    /// scan duration used to build the cross-trial global clock.
    pub fn new(
        inner: &'a N,
        world: &'a World,
        profile: AggressionProfile,
        duration_s: f64,
    ) -> Self {
        Self {
            inner,
            world,
            profile,
            duration_s,
            state: Mutex::new(SwarmState::default()),
            telemetry: None,
        }
    }

    /// Record detections, block transitions, and listings into `hub`.
    pub fn with_telemetry(mut self, hub: &'a Telemetry) -> Self {
        self.telemetry = Some(hub);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SwarmState> {
        match self.state.lock() {
            Ok(guard) => guard,
            // State mutations are totalizing (no partial writes survive a
            // panic point), so a poisoned guard is still coherent.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> DefenseStats {
        self.lock().total
    }

    /// Has the reputation store listed `origin`?
    pub fn is_listed(&self, origin: u16) -> bool {
        self.lock().listed.contains(&origin)
    }

    /// Detections the reputation store has accumulated against `origin`.
    pub fn origin_detections(&self, origin: u16) -> u32 {
        self.lock()
            .origin_detections
            .get(&origin)
            .copied()
            .unwrap_or(0)
    }

    /// Flush counters accumulated since the previous flush to the metrics
    /// registry under `scope`. Call once per trial from the harness; the
    /// defender takes one registry lock per flush, not per probe.
    pub fn flush_trial_metrics(&self, scope: Scope) {
        let pending = {
            let mut st = self.lock();
            std::mem::take(&mut st.pending)
        };
        let Some(hub) = self.telemetry else {
            return;
        };
        let mut batch = MetricBatch::new();
        batch.add(names::DEFENDER_DETECTIONS, pending.detections);
        batch.add(names::DEFENDER_BLOCKED_PROBES, pending.blocked_probes);
        batch.add(names::DEFENDER_REPUTATION_DROPS, pending.reputation_drops);
        batch.add(names::DEFENDER_LISTINGS, pending.listings);
        hub.flush(scope, batch);
    }

    /// The AS whose defenders see a probe to `dst`. `None` outside the
    /// world: nobody announces the address, so nobody defends it and the
    /// probe goes to the inner network unchanged.
    fn defending_as(&self, dst: u32) -> Option<u32> {
        (u64::from(dst) < self.world.space()).then(|| self.world.as_index_of(dst))
    }

    /// Defense off: every call goes to the inner net untouched, no lock.
    fn off(&self) -> bool {
        self.profile.window_probes == 0 && self.profile.listing_threshold == 0
    }

    /// What a blocked probe gets: the `visible` refusal when the profile
    /// advertises its blocks, `silent` otherwise.
    fn refused<R>(&self, visible: R, silent: R) -> R {
        if self.profile.rst_on_block {
            visible
        } else {
            silent
        }
    }

    /// Is `(src_ip, AS)` inside an active block, or the origin listed, at
    /// global time `g`? Read-only: used by the L7 path, which must not
    /// advance detector windows (the probes that opened the connection
    /// already did).
    fn blocked_readonly(&self, origin: u16, src_ip: u32, as_index: u32, g: f64) -> bool {
        let st = self.lock();
        if st.listed.contains(&origin) {
            return true;
        }
        let ases = self.world.ases.len();
        let slot = st.sources.iter().position(|&s| s == src_ip);
        slot.and_then(|slot| st.detectors.get(slot * ases + as_index as usize))
            .is_some_and(|d| g < d.blocked_until)
    }

    /// Run one probe through the detector swarm, advancing windows,
    /// block state, and the reputation store; `true` when it is blocked.
    /// Probe-flavour-agnostic: an ICMP echo or a UDP datagram trips an
    /// IDS exactly like a SYN, so every [`Network`] probe method, scalar
    /// or burst, goes through this one state machine under the caller's
    /// guard and only renders the verdict into its own wire type.
    fn gate(&self, st: &mut SwarmState, ctx: &ProbeCtx) -> bool {
        let p = &self.profile;
        let Some(as_index) = self.defending_as(ctx.dst) else {
            return false;
        };
        let g = f64::from(ctx.trial) * self.duration_s + ctx.time_s;
        if st.listed.contains(&ctx.origin) {
            st.pending.reputation_drops += 1;
            st.total.reputation_drops += 1;
            return true;
        }
        let cell = st.cell(ctx.src_ip, as_index, self.world.ases.len());
        let Some(det) = st.detectors.get_mut(cell) else {
            return false;
        };
        if g < det.blocked_until {
            st.pending.blocked_probes += 1;
            st.total.blocked_probes += 1;
            return true;
        }
        let scope = || Scope::new(ctx.protocol.name(), ctx.trial, ctx.origin);
        if det.in_block {
            det.in_block = false;
            if let Some(hub) = self.telemetry {
                hub.emit(scope(), ctx.time_s, EventKind::BlockEnded { as_index });
            }
        }
        if g - det.window_start >= p.window_s {
            det.window_start = g;
            det.window_count = 0;
        }
        det.window_count += 1;
        if det.window_count <= p.window_probes {
            return false;
        }
        det.level = (det.level + 1).min(p.max_level);
        let exp = (det.level - 1).min(30) as i32;
        let block_s = p.block_base_s * p.escalation.powi(exp);
        det.blocked_until = g + block_s;
        det.in_block = true;
        det.window_count = 0;
        let level = det.level;
        st.pending.detections += 1;
        st.total.detections += 1;
        st.pending.blocked_probes += 1;
        st.total.blocked_probes += 1;
        let n = st.origin_detections.entry(ctx.origin).or_insert(0);
        *n += 1;
        let n = *n;
        let mut listed_now = false;
        if p.listing_threshold > 0 && n >= p.listing_threshold && st.listed.insert(ctx.origin) {
            st.pending.listings += 1;
            st.total.listings += 1;
            listed_now = true;
        }
        if let Some(hub) = self.telemetry {
            let scope = scope();
            hub.emit(
                scope,
                ctx.time_s,
                EventKind::ScanDetected { as_index, level },
            );
            hub.emit(
                scope,
                ctx.time_s,
                EventKind::BlockStarted { as_index, block_s },
            );
            if listed_now {
                hub.emit(scope, ctx.time_s, EventKind::OriginListed { detections: n });
            }
        }
        true
    }

    /// One probe, gated under its own guard: `blocked()` when the swarm
    /// blocks it, `inner`'s reply otherwise. Every scalar probe method.
    fn one<R>(&self, ctx: &ProbeCtx, blocked: impl Fn() -> R, inner: impl Fn(&ProbeCtx) -> R) -> R {
        if !self.off() && self.gate(&mut self.lock(), ctx) {
            blocked()
        } else {
            inner(ctx)
        }
    }

    /// One burst, probe `i` at `times[i]` as `ctx.probe_idx + i`: gated in
    /// send order under one guard, then answered by one `whole` inner
    /// burst when no probe was blocked, or probe by probe (`blocked()` or
    /// `inner`) when some were. Gating all before the inner net answers any
    /// is the provided loop's order of effects only over an
    /// [`Network::order_free`] inner net, and the mask holds [`MAX_PROBES`]
    /// probes: any other burst takes the provided loop over [`Self::one`].
    fn burst<R>(
        &self,
        ctx: &ProbeCtx,
        times: &[f64],
        out: &mut [R],
        blocked: impl Fn() -> R,
        inner: impl Fn(&ProbeCtx) -> R,
        whole: impl FnOnce(&mut [R]),
    ) {
        if self.off() {
            return whole(out);
        }
        let n = out.len().min(times.len());
        if !self.inner.order_free() || n > MAX_PROBES {
            return burst_of(ctx, times, out, |c| self.one(c, &blocked, &inner));
        }
        let mut mask = 0u8;
        let mut st = self.lock();
        for (&time_s, i) in times.iter().take(n).zip(0u8..) {
            let probe = ProbeCtx {
                time_s,
                probe_idx: ctx.probe_idx.wrapping_add(i),
                ..*ctx
            };
            mask |= u8::from(self.gate(&mut st, &probe)) << i;
        }
        drop(st);
        if mask == 0 {
            return whole(out);
        }
        burst_of(ctx, times, out, |c| {
            let hit = mask & 1 != 0;
            mask >>= 1;
            if hit {
                blocked()
            } else {
                inner(c)
            }
        });
    }
}

impl<N: Network + ?Sized> Network for DefenderNet<'_, N> {
    fn order_free(&self) -> bool {
        self.off() && self.inner.order_free()
    }

    fn audible(&self, origin: u16, protocol: Protocol, trial: u8) -> Option<Audible<'_>> {
        if self.off() {
            self.inner.audible(origin, protocol, trial)
        } else {
            None
        }
    }

    fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
        let blocked = || self.refused(SynReply::Rst(TcpHeader::rst_reply(probe)), SynReply::Silent);
        self.one(ctx, blocked, |c| self.inner.syn(c, probe))
    }

    fn icmp(&self, ctx: &ProbeCtx, probe: &IcmpEcho) -> IcmpReply {
        let blocked = || self.refused(ADMIN_PROHIBITED, IcmpReply::Silent);
        self.one(ctx, blocked, |c| self.inner.icmp(c, probe))
    }

    fn udp(&self, ctx: &ProbeCtx, payload: &[u8]) -> UdpReply {
        let blocked = || self.refused(UdpReply::PortUnreachable, UdpReply::Silent);
        self.one(ctx, blocked, |c| self.inner.udp(c, payload))
    }

    fn syn_burst(&self, ctx: &ProbeCtx, probe: &TcpHeader, times: &[f64], out: &mut [SynReply]) {
        let blocked = || self.refused(SynReply::Rst(TcpHeader::rst_reply(probe)), SynReply::Silent);
        let inner = |c: &ProbeCtx| self.inner.syn(c, probe);
        let whole = |o: &mut [SynReply]| self.inner.syn_burst(ctx, probe, times, o);
        self.burst(ctx, times, out, blocked, inner, whole);
    }

    fn icmp_burst(&self, ctx: &ProbeCtx, probe: &IcmpEcho, times: &[f64], out: &mut [IcmpReply]) {
        let blocked = || self.refused(ADMIN_PROHIBITED, IcmpReply::Silent);
        let inner = |c: &ProbeCtx| self.inner.icmp(c, probe);
        let whole = |o: &mut [IcmpReply]| self.inner.icmp_burst(ctx, probe, times, o);
        self.burst(ctx, times, out, blocked, inner, whole);
    }

    fn udp_burst(&self, ctx: &ProbeCtx, payload: &[u8], times: &[f64], out: &mut [UdpReply]) {
        let blocked = || self.refused(UdpReply::PortUnreachable, UdpReply::Silent);
        let inner = |c: &ProbeCtx| self.inner.udp(c, payload);
        let whole = |o: &mut [UdpReply]| self.inner.udp_burst(ctx, payload, times, o);
        self.burst(ctx, times, out, blocked, inner, whole);
    }

    fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply {
        if self.off() {
            return self.inner.l7(ctx, request);
        }
        let Some(as_index) = self.defending_as(ctx.dst) else {
            return self.inner.l7(ctx, request);
        };
        let g = f64::from(ctx.trial) * self.duration_s + ctx.time_s;
        if self.blocked_readonly(ctx.origin, ctx.src_ip, as_index, g) {
            // A block that lands between handshake and application layer:
            // visible defenders reset the connection, silent ones let it
            // hang.
            return self.refused(L7Reply::ConnClosed(CloseKind::Rst), L7Reply::Timeout);
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
    use originscan_scanner::Protocol;

    const DUR: f64 = 75_600.0;
    const ORIGINS: &[OriginId] = &[OriginId::Us1];

    fn probe_ctx(dst: u32, time_s: f64, trial: u8, src_ip: u32) -> ProbeCtx {
        ProbeCtx {
            origin: 0,
            src_ip,
            dst,
            protocol: Protocol::Http,
            time_s,
            probe_idx: 0,
            trial,
        }
    }

    fn syn_header() -> TcpHeader {
        TcpHeader::syn_probe(44321, 80, 7)
    }

    /// Drive `n` probes into one AS at `dt`-second spacing, returning how
    /// many got a non-silent answer is irrelevant here — we inspect stats.
    fn drive<N: Network + ?Sized>(
        net: &DefenderNet<'_, N>,
        base: u32,
        n: u32,
        dt: f64,
        start_s: f64,
        trial: u8,
    ) {
        let probe = syn_header();
        for i in 0..n {
            let ctx = probe_ctx(
                base + (i % 200),
                start_s + f64::from(i) * dt,
                trial,
                0x0a00_0001,
            );
            let _ = net.syn(&ctx, &probe);
        }
    }

    #[test]
    fn off_profile_is_transparent() {
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let defended = DefenderNet::new(&net, &world, AggressionProfile::off(), DUR);
        let probe = syn_header();
        for addr in 0..2000u32 {
            let ctx = probe_ctx(addr, f64::from(addr) * 0.5, 0, 0x0a00_0001);
            assert_eq!(defended.syn(&ctx, &probe), net.syn(&ctx, &probe));
        }
        assert_eq!(defended.stats(), DefenseStats::default());
    }

    #[test]
    fn scan_wider_than_the_world_passes_through_undefended() {
        use originscan_scanner::engine::{run_scan, ScanConfig};
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let defended = DefenderNet::new(&net, &world, AggressionProfile::aggressive(), DUR);
        // No AS announces the upper half, so no detector sees it: the
        // probes reach the inner network, which hosts nothing there.
        let cfg = ScanConfig::new(2 * world.space(), Protocol::Http, 7);
        let out = run_scan(&defended, &cfg).unwrap();
        assert!(out.summary.l7_successes > 0);
        assert!(out
            .records
            .iter()
            .all(|r| u64::from(r.addr) < world.space()));
    }

    #[test]
    fn fast_probing_trips_detector_and_blocks() {
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let prof = AggressionProfile::aggressive();
        let defended = DefenderNet::new(&net, &world, prof, DUR);
        // One AS, probes well inside the window: trip after window_probes.
        drive(&defended, 0, 200, 1.0, 0.0, 0);
        let stats = defended.stats();
        assert!(stats.detections >= 1, "detector never tripped: {stats:?}");
        assert!(
            stats.blocked_probes >= 200 - prof.window_probes as u64,
            "block window failed to swallow the rest: {stats:?}"
        );
        // Blocked probes answer with a validated RST under this profile.
        let probe = syn_header();
        let reply = defended.syn(&probe_ctx(3, 201.0, 0, 0x0a00_0001), &probe);
        assert!(matches!(reply, SynReply::Rst(_)), "{reply:?}");
    }

    #[test]
    fn slow_probing_stays_under_threshold() {
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let prof = AggressionProfile::aggressive();
        let defended = DefenderNet::new(&net, &world, prof, DUR);
        // Spread the same probe count so each window sees < threshold.
        let dt = prof.window_s / f64::from(prof.window_probes - 8);
        drive(&defended, 0, 200, dt, 0.0, 0);
        assert_eq!(defended.stats().detections, 0);
    }

    #[test]
    fn blocks_escalate_and_expire() {
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let mut prof = AggressionProfile::aggressive();
        prof.listing_threshold = 0; // keep the store out of this test
        let defended = DefenderNet::new(&net, &world, prof, DUR);
        // Trip once.
        drive(&defended, 0, prof.window_probes + 1, 1.0, 0.0, 0);
        assert_eq!(defended.stats().detections, 1);
        // Probe inside the first block: swallowed without re-detection.
        drive(&defended, 0, 4, 1.0, 200.0, 0);
        assert_eq!(defended.stats().detections, 1);
        // After the first block expires, trip again; the second block must
        // last escalation× longer (observe: a probe at base + block_base
        // past the second trip is still blocked).
        let t1 = prof.block_base_s + 300.0;
        drive(&defended, 0, prof.window_probes + 1, 1.0, t1, 0);
        assert_eq!(defended.stats().detections, 2);
        let second_trip_at = t1 + f64::from(prof.window_probes);
        let probe = syn_header();
        let mid = second_trip_at + prof.block_base_s * 1.5;
        let blocked_before = defended.stats().blocked_probes;
        let _ = defended.syn(&probe_ctx(7, mid, 0, 0x0a00_0001), &probe);
        assert_eq!(
            defended.stats().blocked_probes,
            blocked_before + 1,
            "escalated block should outlast the base duration"
        );
    }

    #[test]
    fn listing_persists_across_trials() {
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let mut prof = AggressionProfile::paranoid();
        prof.listing_threshold = 3;
        let defended = DefenderNet::new(&net, &world, prof, DUR);
        // Hammer three different ASes (distinct /24 blocks are spaced by
        // AS assignment; use well-separated bases) until listed.
        let mut base = 0u32;
        while !defended.is_listed(0) {
            drive(&defended, base, prof.window_probes + 1, 1.0, 0.0, 0);
            base += 256 * 8;
            assert!(base < 200_000, "never listed");
        }
        assert_eq!(defended.stats().listings, 1);
        // Next trial, fresh clock: still dropped via reputation.
        let probe = syn_header();
        let reply = defended.syn(&probe_ctx(1, 5.0, 1, 0x0a00_0001), &probe);
        assert_eq!(reply, SynReply::Silent);
        assert!(defended.stats().reputation_drops >= 1);
    }

    #[test]
    fn rotating_source_ip_resets_detectors() {
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let mut prof = AggressionProfile::aggressive();
        prof.listing_threshold = 0;
        let defended = DefenderNet::new(&net, &world, prof, DUR);
        drive(&defended, 0, prof.window_probes + 1, 1.0, 0.0, 0);
        assert_eq!(defended.stats().detections, 1);
        // A different source IP gets a fresh detector: not blocked.
        let probe = syn_header();
        let before = defended.stats().blocked_probes;
        let mut ctx = probe_ctx(9, 120.0, 0, 0x0a00_0002);
        ctx.src_ip = 0x0a00_0002;
        let _ = defended.syn(&ctx, &probe);
        assert_eq!(defended.stats().blocked_probes, before);
    }

    #[test]
    fn detectors_count_every_probe_flavour() {
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let mut prof = AggressionProfile::aggressive();
        prof.listing_threshold = 0;
        let defended = DefenderNet::new(&net, &world, prof, DUR);
        let echo = IcmpEcho::request(1, 2);
        // Mixed ICMP and DNS probes into one AS share one detector: an
        // IDS counts packets, not TCP flags.
        for i in 0..prof.window_probes + 1 {
            let mut ctx = probe_ctx(i % 200, f64::from(i), 0, 0x0a00_0001);
            if i % 2 == 0 {
                ctx.protocol = Protocol::Icmp;
                let _ = defended.icmp(&ctx, &echo);
            } else {
                ctx.protocol = Protocol::Dns;
                let _ = defended.udp(&ctx, &[0u8; 12]);
            }
        }
        assert_eq!(defended.stats().detections, 1);
        // During the block, a visible defender refuses each flavour in
        // its own wire vocabulary.
        let mut ctx = probe_ctx(5, 120.0, 0, 0x0a00_0001);
        ctx.protocol = Protocol::Icmp;
        assert_eq!(defended.icmp(&ctx, &echo), ADMIN_PROHIBITED);
        ctx.protocol = Protocol::Dns;
        assert_eq!(defended.udp(&ctx, &[0u8; 12]), UdpReply::PortUnreachable);
    }

    #[test]
    fn telemetry_records_detection_sequence() {
        let world = WorldConfig::tiny(5).build();
        let net = SimNet::new(&world, ORIGINS, DUR);
        let hub = Telemetry::new();
        let prof = AggressionProfile::aggressive();
        let defended = DefenderNet::new(&net, &world, prof, DUR).with_telemetry(&hub);
        drive(&defended, 0, prof.window_probes + 20, 1.0, 0.0, 0);
        let scope = Scope::new("HTTP", 0, 0);
        defended.flush_trial_metrics(scope);
        let snap = hub.snapshot();
        let kinds: Vec<&str> = snap.events_for(scope).map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"scan_detected"), "{kinds:?}");
        assert!(kinds.contains(&"block_started"), "{kinds:?}");
        assert_eq!(snap.counter(scope, names::DEFENDER_DETECTIONS), 1);
        assert!(snap.counter(scope, names::DEFENDER_BLOCKED_PROBES) >= 19);
        // Second flush is empty: counters are per-trial deltas.
        defended.flush_trial_metrics(Scope::new("HTTP", 1, 0));
        let snap = hub.snapshot();
        assert_eq!(
            snap.counter(Scope::new("HTTP", 1, 0), names::DEFENDER_DETECTIONS),
            0
        );
    }
}
