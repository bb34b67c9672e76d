//! The scan engine: drives a full ZMap + ZGrab pass over an address space.
//!
//! For every address in the seed-determined pseudorandom order
//! ([`crate::cyclic`]), the engine sends `probes` back-to-back SYNs
//! (stateless, validation-tagged), collects validated replies, and — for
//! L4-responsive hosts — immediately runs the application handshake
//! ([`crate::zgrab`]): the paper's ZMap → ZGrab pipeline.
//!
//! # Supervision, faults, and resume
//!
//! Real measurement campaigns lose vantage points mid-scan; the paper's
//! multi-origin methodology only works if the remaining origins' results
//! stay valid. The engine therefore supports *supervised* execution via
//! [`run_scan_session`]:
//!
//! * a [`FaultHook`] is consulted before every address and may stall the
//!   probe pipeline or kill the scan (simulating the origin dying);
//! * periodic `ScanCheckpoint`s — permutation position, the pacer
//!   itself, stall clock, controller state, and all partial records — are
//!   written to a [`CheckpointStore`] that outlives the scan (and any
//!   panic inside it), so a supervisor can resume mid-permutation;
//! * resuming from a checkpoint reproduces *exactly* the state an
//!   uninterrupted scan would have had at that point: the permutation
//!   fast-forwards in O(log n) and the restored pacer is a copy of the
//!   one that was running, so re-run timestamps are bit-identical.
//!
//! [`run_scan_session`]'s *step loop* is a send loop in the ZMap mould —
//! next target → probe module → record — over a `ScanCtx` (what stays
//! fixed) and a `Progress` (what moves). Clock, checkpoint and fault hook
//! run once per *window*: a walk through the skip filters to the next
//! address to probe or checkpoint, silent addresses counted in bulk (one
//! step with a hook, a controller or `wire_check`). An open-loop scan of a
//! [`Network::order_free`] network runs `probe` on every core (`fan.rs`).

use crate::blocklist::Blocklist;
use crate::cyclic::{Cycle, ShardIter};
use crate::error::{ConfigError, ScanError, MAX_L7_RETRIES, MAX_PROBES};
use crate::fan;
use crate::probe::{module_for, ProbeModule, ProbeShot};
use crate::rate::Pacer;
use crate::resilience::{AdaptivePolicy, Controller, ControllerState};
use crate::target::{L7Ctx, Network, ProbeCtx, Protocol};
use crate::zgrab::{self, L7Outcome};
use originscan_plan::TargetPlan;
use originscan_telemetry::metrics::{self, names};
use originscan_telemetry::{EventKind, MetricBatch, Scope, ScopedTelemetry, Telemetry};
use originscan_wire::validation::Validator;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// First ephemeral source port.
const SPORT_BASE: u16 = 32768;
/// Number of ephemeral source ports flows are spread over.
const SPORT_RANGE: u32 = 16384;

/// Configuration for one scan (one origin, one protocol, one trial).
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Scan seed: fixes the address permutation and validation key. The
    /// paper uses the *same* seed from all origins so scanners stay
    /// synchronized.
    pub(crate) seed: u64,
    /// Size of the scanned address space (addresses are `0..space`).
    pub space: u64,
    /// SYN probes per address, sent back-to-back (paper: 2).
    pub probes: u8,
    /// Send rate in probes per second.
    pub rate_pps: f64,
    /// Probes per send batch.
    pub batch: u32,
    /// Source addresses to cycle through (US₆₄ uses 64; most origins 1).
    pub source_ips: Vec<u32>,
    /// Opaque origin index forwarded to the network model.
    pub origin: u16,
    /// Trial number forwarded to the network model.
    pub trial: u8,
    /// Protocol to scan.
    pub protocol: Protocol,
    /// Addresses never probed (the synchronized exclusion list).
    pub blocklist: Blocklist,
    /// Immediate L7 retries after closed/timed-out connections (paper
    /// baseline: 0; §6 sweeps 0..8).
    pub l7_retries: u8,
    /// Seconds between successive probes to the same address (paper
    /// baseline: 0, back-to-back). §7 endorses Bano et al.'s delayed
    /// probes: separating probes in time lets the second escape the
    /// correlated transient-loss state the first hit.
    pub probe_delay_s: f64,
    /// Shard spec `(index, total)`; `(0, 1)` scans everything.
    pub shard: (u64, u64),
    /// Origins scanning concurrently with this one (affects MaxStartups).
    pub concurrent_origins: u8,
    /// When set, every probe is round-tripped through its byte-level
    /// encoding (IPv4 + TCP emit/parse with checksums) as a self-check of
    /// the wire codecs. Costs ~2× per probe; off by default.
    pub wire_check: bool,
    /// Adaptive resilience policy (None: open-loop scan). When set, the
    /// engine feeds every address outcome to a
    /// `crate::resilience::Controller` and applies its reactions: rate
    /// backoff/recovery at batch boundaries, source-IP rotation through
    /// [`ScanConfig::source_ips`], and deferral of suspect /24s to an
    /// end-of-scan tail pass.
    pub adapt: Option<AdaptivePolicy>,
    /// Optional target plan (None: probe the whole space). When set,
    /// addresses outside the plan's /24 allowlist are skipped before
    /// probing, composing with the blocklist and sharding: each shard
    /// probes exactly its slice of `plan ∩ ¬blocklist`. The permutation
    /// still walks the full space, so planned scans stay synchronized.
    pub plan: Option<TargetPlan>,
}

impl ScanConfig {
    /// A reasonable default configuration for `space` addresses: 2 probes,
    /// single source IP, rate chosen so the scan lasts the paper's ~21 h of
    /// simulated time.
    pub fn new(space: u64, protocol: Protocol, seed: u64) -> Self {
        let duration_s = 21.0 * 3600.0;
        Self {
            seed,
            space,
            probes: 2,
            rate_pps: crate::rate::rate_for_duration(space, duration_s),
            batch: 16,
            source_ips: vec![0x0a00_0001],
            origin: 0,
            trial: 0,
            protocol,
            blocklist: Blocklist::new(),
            l7_retries: 0,
            probe_delay_s: 0.0,
            shard: (0, 1),
            concurrent_origins: 1,
            wire_check: false,
            adapt: None,
            plan: None,
        }
    }

    /// Check every invariant the engine relies on, so a malformed
    /// configuration surfaces as a typed error instead of a panic deep in
    /// the scan loop.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.space == 0 {
            return Err(ConfigError::EmptySpace);
        }
        if self.probes == 0 {
            return Err(ConfigError::ZeroProbes);
        }
        if usize::from(self.probes) > MAX_PROBES {
            return Err(ConfigError::TooManyProbes {
                probes: self.probes,
            });
        }
        if self.l7_retries > MAX_L7_RETRIES {
            let retries = self.l7_retries;
            return Err(ConfigError::TooManyRetries { retries });
        }
        if self.source_ips.is_empty() {
            return Err(ConfigError::NoSourceIps);
        }
        if self.shard.1 == 0 || self.shard.0 >= self.shard.1 {
            return Err(ConfigError::InvalidShard {
                shard: self.shard.0,
                total: self.shard.1,
            });
        }
        // NaN fails every ordered comparison, so reject it explicitly.
        if self.rate_pps.is_nan() || self.rate_pps <= 0.0 {
            return Err(ConfigError::NonPositiveRate);
        }
        if self.batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if !self.probe_delay_s.is_finite() || self.probe_delay_s < 0.0 {
            return Err(ConfigError::BadProbeDelay);
        }
        if let Some(adapt) = &self.adapt {
            if adapt.window_addrs == 0
                || !(adapt.backoff_factor > 0.0 && adapt.backoff_factor < 1.0)
            {
                return Err(ConfigError::BadAdaptivePolicy);
            }
        }
        if let Some(plan) = &self.plan {
            if plan.space() != self.space {
                return Err(ConfigError::PlanSpaceMismatch {
                    plan_space: plan.space(),
                    space: self.space,
                });
            }
        }
        Ok(())
    }
}

/// Per-responsive-address record produced by a scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostScanRecord {
    /// The probed address.
    pub addr: u32,
    /// Bit `i` set ⇔ probe `i` got a *validated* SYN-ACK.
    pub synack_mask: u8,
    /// A validated RST was seen (host reachable, port closed/refused).
    pub got_rst: bool,
    /// Simulated time of the first validated response.
    pub response_time_s: f64,
    /// Application-layer outcome (only attempted when a SYN-ACK arrived).
    pub l7: L7Outcome,
    /// L7 attempts performed.
    pub l7_attempts: u8,
}

impl HostScanRecord {
    /// Did at least one SYN probe elicit a validated SYN-ACK?
    pub fn l4_responsive(&self) -> bool {
        self.synack_mask != 0
    }

    /// Did the host complete the application handshake?
    pub fn l7_success(&self) -> bool {
        self.l7.is_success()
    }
}

/// Aggregate counters for one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanSummary {
    /// SYN probes sent.
    pub probes_sent: u64,
    /// Addresses probed (after blocklist and sharding).
    pub addresses_probed: u64,
    /// Addresses skipped by the blocklist.
    pub blocked: u64,
    /// Addresses skipped because they fall outside the target plan.
    pub plan_skipped: u64,
    /// Validated SYN-ACKs received.
    pub synacks: u64,
    /// Replies that failed stateless validation (spoofed/stale).
    pub validation_failures: u64,
    /// Hosts whose application handshake completed.
    pub l7_successes: u64,
    /// Simulated scan duration in seconds.
    pub duration_s: f64,
}

/// Output of [`run_scan`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanOutput {
    /// One record per address that produced any validated response.
    pub records: Vec<HostScanRecord>,
    /// Aggregate counters.
    pub summary: ScanSummary,
}

/// What a [`FaultHook`] tells the engine to do before an address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// No fault: probe normally.
    Continue,
    /// Probe-pipeline stall: shift this and every later probe `delay_s`
    /// seconds into the future (the send NIC blocked, the pacer fell
    /// behind). The stall accumulates into the scan's duration.
    Stall {
        /// Seconds of additional delay to accumulate.
        delay_s: f64,
    },
    /// Kill the scan here — the origin's scanning process dies. The
    /// engine returns [`ScanError::Killed`] without saving further state;
    /// only previously written periodic checkpoints survive.
    Kill,
}

/// Everything a [`FaultHook`] may condition on. All fields are pure
/// functions of the scan's progress, so a deterministic hook plus a
/// deterministic network yields bit-identical runs.
#[derive(Debug, Clone, Copy)]
pub struct FaultCtx {
    /// Origin index of the running scan.
    pub origin: u16,
    /// Trial number of the running scan.
    pub trial: u8,
    /// Supervisor attempt number: 0 for the first run, incremented on
    /// every retry/resume. Hooks use this to model faults that strike
    /// once and then clear (the supervisor's retry succeeds).
    pub attempt: u32,
    /// Permutation group steps consumed so far.
    pub steps: u64,
    /// Addresses fully probed so far.
    pub addresses_probed: u64,
    /// Send-clock time of the next probe, including accumulated stalls.
    pub time_s: f64,
    /// Stall seconds already accumulated.
    pub stall_s: f64,
}

/// A fault-injection hook consulted before every address.
///
/// Implementations must be deterministic in `FaultCtx` (plus their own
/// construction-time state): the integration suite asserts that a faulted
/// run is reproducible and that unaffected origins are bit-identical to a
/// fault-free run.
pub trait FaultHook: Sync {
    /// Decide what happens before the next address is probed.
    fn before_address(&self, ctx: &FaultCtx) -> FaultAction;
}

/// Resumable scan state: everything needed to continue a scan from the
/// middle of its permutation with bit-identical results.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScanCheckpoint {
    /// Permutation group steps consumed when the checkpoint was taken.
    pub(crate) steps: u64,
    /// Accumulated pipeline-stall seconds at the checkpoint.
    pub(crate) stall_s: f64,
    /// The pacer as it stood at the checkpoint (exact across rate changes).
    pub(crate) pacer: Pacer,
    /// Adaptive controller state (None for classic open-loop scans).
    pub(crate) ctrl: Option<ControllerState>,
    /// Partial output: all records and counters up to the checkpoint.
    pub(crate) output: ScanOutput,
}

/// A single-slot, thread-safe checkpoint mailbox with a save cadence.
///
/// The store lives *outside* the scan (typically on the supervisor's
/// stack) so it survives a scan thread that panics or is killed by an
/// injected fault; the next [`run_scan_session`] handed the same store
/// takes the checkpoint out and resumes from it. Saves are append-only:
/// the store keeps the record prefix it holds and copies only the
/// records produced since, so checkpointing is linear in the records.
#[derive(Debug)]
pub struct CheckpointStore {
    every: u64,
    slot: Mutex<Option<ScanCheckpoint>>,
}

impl CheckpointStore {
    /// An empty store saving every `every` permutation steps (0: never,
    /// so a failed scan restarts from scratch).
    pub fn new(every: u64) -> Self {
        Self {
            every,
            slot: Mutex::new(None),
        }
    }

    fn slot(&self) -> MutexGuard<'_, Option<ScanCheckpoint>> {
        // Poisoned = a previous holder panicked; the slot only ever holds
        // `None` or a complete checkpoint, so it is still coherent.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Advance the stored checkpoint to `p`. The records already held are
    /// a prefix of `p`'s (earlier saves of the same scan), so only the
    /// tail is copied.
    fn save(&self, p: &Progress) {
        let ctrl = p.ctrl.as_ref().map(|c| c.state().clone());
        let mut slot = self.slot();
        let mut records = slot.take().map(|cp| cp.output.records).unwrap_or_default();
        records.extend_from_slice(p.out.records.get(records.len()..).unwrap_or_default());
        *slot = Some(ScanCheckpoint {
            steps: p.iter.steps_taken(),
            stall_s: p.stall_s,
            pacer: p.pacer.clone(),
            ctrl,
            output: ScanOutput {
                records,
                summary: p.out.summary,
            },
        });
    }

    /// Remove and return the stored checkpoint, if any.
    pub(crate) fn take(&self) -> Option<ScanCheckpoint> {
        self.slot().take()
    }
}

/// Supervision options for [`run_scan_session`].
#[derive(Default)]
pub struct ScanSession<'a> {
    /// Fault hook consulted before each address (None: no faults).
    pub hook: Option<&'a dyn FaultHook>,
    /// Where periodic checkpoints go, at the store's cadence. A store that
    /// already holds one makes this session a resume from it.
    pub store: Option<&'a CheckpointStore>,
    /// Supervisor attempt number forwarded to the fault hook.
    pub attempt: u32,
    /// Telemetry hub for this scan's events and metrics (None: off, zero
    /// overhead). Events are emitted at simulated time as they happen;
    /// metrics accumulate locally and are flushed once, at completion.
    pub telemetry: Option<&'a Telemetry>,
}

// Manual impl: `hook` is a `&dyn FaultHook` with no Debug bound, so show
// which supervision knobs are engaged rather than their contents.
impl std::fmt::Debug for ScanSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanSession")
            .field("hook", &self.hook.is_some())
            .field("store", &self.store.is_some())
            .field("attempt", &self.attempt)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

/// Execute one scan against `net` unsupervised: [`run_scan_session`] with
/// a default session (no fault hook, checkpoints or telemetry).
pub fn run_scan(net: &dyn Network, cfg: &ScanConfig) -> Result<ScanOutput, ScanError> {
    run_scan_session(net, cfg, ScanSession::default())
}

/// Everything about one scan that stays fixed while it runs.
pub(crate) struct ScanCtx<'a> {
    net: &'a dyn Network,
    pub(crate) cfg: &'a ScanConfig,
    session: ScanSession<'a>,
    module: &'static dyn ProbeModule,
    validator: Validator,
    /// Events, metrics and the span trace, whose clock is the send clock.
    tele: ScopedTelemetry<'a>,
}

impl<'a> ScanCtx<'a> {
    pub(crate) fn new(net: &'a dyn Network, cfg: &'a ScanConfig, session: ScanSession<'a>) -> Self {
        let module = module_for(cfg.protocol);
        let scope = Scope::new(module.name(), cfg.trial, cfg.origin);
        Self {
            net,
            cfg,
            module,
            validator: Validator::from_seed(cfg.seed),
            tele: ScopedTelemetry::new(session.telemetry, scope),
            session,
        }
    }
}

/// Everything that moves; a checkpoint copies all but the two per-attempt counters.
pub(crate) struct Progress {
    /// Position in the address permutation.
    pub(crate) iter: ShardIter,
    pub(crate) pacer: Pacer,
    stall_s: f64,
    pub(crate) out: ScanOutput,
    /// The adaptive controller (None: classic open-loop scan).
    ctrl: Option<Controller>,
    /// Permutation steps since the last checkpoint (or since resume).
    since_checkpoint: u64,
    /// Checkpoints written by this attempt.
    checkpoint_writes: u64,
}

impl Progress {
    /// Send-clock time of the next probe, including accumulated stalls.
    fn now(&self) -> f64 {
        self.pacer.peek_send_time() + self.stall_s
    }
}

/// Start from the top of the permutation, or — when the session's store
/// holds a checkpoint — take it and fast-forward to it.
pub(crate) fn restore_or_start(ctx: &ScanCtx<'_>) -> Result<Progress, ScanError> {
    let (cfg, attempt) = (ctx.cfg, ctx.session.attempt);
    let mut p = Progress {
        iter: Cycle::new(cfg.space, cfg.seed).iter_shard(cfg.shard.0, cfg.shard.1),
        pacer: Pacer::new(cfg.rate_pps, cfg.batch),
        stall_s: 0.0,
        out: ScanOutput::default(),
        ctrl: None,
        since_checkpoint: 0,
        checkpoint_writes: 0,
    };
    let mut ctrl_state = ControllerState::default();
    let mut event = EventKind::ScanStarted { attempt };
    if let Some(cp) = ctx.session.store.and_then(CheckpointStore::take) {
        let steps = cp.steps;
        if !p.iter.fast_forward(steps) {
            return Err(ScanError::BadCheckpoint { steps });
        }
        (p.pacer, p.stall_s, p.out) = (cp.pacer, cp.stall_s, cp.output);
        ctrl_state = cp.ctrl.unwrap_or_default();
        event = EventKind::ScanResumed { attempt, steps };
    }
    let n_sources = u32::try_from(cfg.source_ips.len()).unwrap_or(u32::MAX);
    p.ctrl = cfg
        .adapt
        .clone()
        .map(|policy| Controller::from_state(policy, n_sources, ctrl_state));
    ctx.tele.emit(p.now(), event);
    Ok(p)
}

/// Periodic checkpoint, taken *before* the iterator advances so the saved
/// state excludes any in-flight address. Returns the steps until the next
/// one is due (unbounded when none ever is).
fn checkpoint_if_due(ctx: &ScanCtx<'_>, p: &mut Progress) -> u64 {
    let Some(store) = ctx.session.store.filter(|s| s.every > 0) else {
        return u64::MAX;
    };
    if p.since_checkpoint < store.every {
        return store.every - p.since_checkpoint;
    }
    store.save(p);
    p.since_checkpoint = 0;
    p.checkpoint_writes += 1;
    ctx.tele.emit(
        p.now(),
        EventKind::CheckpointSaved {
            steps: p.iter.steps_taken(),
            addresses_probed: p.out.summary.addresses_probed,
        },
    );
    store.every
}

/// Ask the fault hook what happens before the next address: nothing, a
/// stall absorbed into the send clock, or this attempt's death.
fn consult_hook(ctx: &ScanCtx<'_>, p: &mut Progress) -> Result<(), ScanError> {
    let Some(hook) = ctx.session.hook else {
        return Ok(());
    };
    let (time_s, addresses_probed) = (p.now(), p.out.summary.addresses_probed);
    let fault_ctx = FaultCtx {
        origin: ctx.cfg.origin,
        trial: ctx.cfg.trial,
        attempt: ctx.session.attempt,
        steps: p.iter.steps_taken(),
        addresses_probed,
        time_s,
        stall_s: p.stall_s,
    };
    match hook.before_address(&fault_ctx) {
        FaultAction::Continue => Ok(()),
        FaultAction::Stall { delay_s } => {
            p.stall_s += delay_s;
            ctx.tele.emit(time_s, EventKind::PipelineStall { delay_s });
            ctx.tele.record_span("stall", time_s, time_s + delay_s);
            ctx.tele.flush_with(|| {
                let mut b = MetricBatch::new();
                b.add(names::FAULT_STALLS, 1);
                b.observe(names::FAULT_STALL_SECONDS, metrics::STALL_BOUNDS, delay_s);
                b
            });
            Ok(())
        }
        FaultAction::Kill => {
            ctx.tele
                .emit(time_s, EventKind::ScanKilled { addresses_probed });
            ctx.tele.add(names::FAULT_KILLS, 1);
            // A killed attempt still leaves its (truncated) trace behind:
            // the interesting case for a flame view of where time went.
            ctx.tele.finish(time_s);
            Err(ScanError::Killed {
                time_s,
                addresses_probed,
            })
        }
    }
}

/// Walk up to `window` permutation steps to the next address to [`probe`],
/// counting plan and blocklist skips and parking what a controller defers.
/// With `silence` (never with a controller, which sees every outcome), a
/// run of [`Network::silent`] addresses is counted, and the pacer moved,
/// once. Short of an address it returns its steps: `Err(0)`, none left.
#[expect(clippy::cast_possible_truncation, reason = "addresses are < 2^32")]
pub(crate) fn walk(
    ctx: &ScanCtx<'_>,
    p: &mut Progress,
    window: u64,
    silence: bool,
) -> Result<u32, u64> {
    // Only a silent run moves the clock, and only at the walk's end.
    let (cfg, now, mut steps, mut silent) = (ctx.cfg, p.now(), 0, 0);
    let stop = loop {
        let next = if steps < window { p.iter.next() } else { None };
        let Some(addr64) = next else {
            break Err(steps);
        };
        steps += 1;
        let addr = addr64 as u32;
        if cfg.plan.as_ref().is_some_and(|plan| !plan.allows(addr)) {
            p.out.summary.plan_skipped += 1;
        } else if cfg.blocklist.contains(addr) {
            p.out.summary.blocked += 1;
        } else if silence && ctx.net.silent(cfg.origin, cfg.protocol, cfg.trial, addr) {
            silent += 1;
        } else if !p.ctrl.as_mut().is_some_and(|c| c.should_defer(addr, now)) {
            break Ok(addr);
        }
    };
    p.since_checkpoint += steps;
    if silent > 0 {
        p.out.summary.addresses_probed += silent;
        p.out.summary.probes_sent += silent * u64::from(cfg.probes);
        p.pacer.skip_probes(silent * u64::from(cfg.probes));
    }
    stop
}

/// What the adaptive controller observes of one probed address.
pub(crate) struct AddrOutcome {
    /// At least one probe got a validated SYN-ACK.
    responsive: bool,
    /// A validated RST arrived.
    rst: bool,
    /// Send time of the address's last probe (the controller's clock).
    last_t: f64,
}

/// Probe one address end to end: stamp the burst's send times, deliver
/// it through the scan's [`ProbeModule`], fold the verdict masks into a
/// record, and run the ZGrab follow-up for stateful modules. A burst the
/// network calls [`Network::silent`] costs its counters and the pacer's
/// advance, nothing more (unless `wire_check` asks for its round trips).
/// The step loop's stepped addresses, its tail pass and the fanned scan's
/// workers all use it.
#[inline] // a copy per codegen unit: the step loop's stays private to it
pub(crate) fn probe(
    ctx: &ScanCtx<'_>,
    p: &mut Progress,
    addr: u32,
) -> Result<AddrOutcome, ScanError> {
    let cfg = ctx.cfg;
    if !cfg.wire_check && ctx.net.silent(cfg.origin, cfg.protocol, cfg.trial, addr) {
        p.out.summary.addresses_probed += 1;
        p.out.summary.probes_sent += u64::from(cfg.probes);
        let last = p.pacer.advance(cfg.probes) + p.stall_s;
        return Ok(AddrOutcome {
            responsive: false,
            rst: false,
            last_t: last + f64::from(cfg.probes - 1) * cfg.probe_delay_s,
        });
    }
    probe_audible(ctx, p, addr)
}

/// [`probe`] for an address the network has already called not
/// [`Network::silent`] (a walk that counted silent runs asked it).
#[inline]
fn probe_audible(ctx: &ScanCtx<'_>, p: &mut Progress, addr: u32) -> Result<AddrOutcome, ScanError> {
    let cfg = ctx.cfg;
    p.out.summary.addresses_probed += 1;
    p.out.summary.probes_sent += u64::from(cfg.probes);
    // ZMap spreads flows over source IPs/ports by address hash; an
    // adaptive scan pins the source to the controller's active one.
    let mix = (addr ^ (addr >> 16)).wrapping_mul(0x9E37_79B9);
    let sport = SPORT_BASE + ((mix >> 8) % SPORT_RANGE) as u16;
    // Built ahead of the division and pacer arithmetic below: the module
    // loads both ports at once, and that load cannot be forwarded from
    // two port-sized stores still in flight (4 ns an address here).
    let shot = ProbeShot {
        validator: &ctx.validator,
        sport,
        dport: ctx.module.port(),
        wire_check: cfg.wire_check,
    };
    let src_idx = p
        .ctrl
        .as_ref()
        .map_or(mix as usize, |c| c.source_index() as usize);
    let pool = &cfg.source_ips; // `validate`d non-empty
    let src_ip = pool.get(src_idx % pool.len().max(1)).copied().unwrap_or(0);

    let mut stamps = [0.0f64; MAX_PROBES];
    let times = stamps
        .get_mut(..usize::from(cfg.probes))
        .unwrap_or_default();
    for (t, probe_idx) in times.iter_mut().zip(0u8..) {
        *t = p.pacer.next_send_time() + p.stall_s + f64::from(probe_idx) * cfg.probe_delay_s;
    }
    let probe_ctx = ProbeCtx {
        origin: cfg.origin,
        src_ip,
        dst: addr,
        protocol: cfg.protocol,
        time_s: times.first().copied().unwrap_or_default(),
        probe_idx: 0,
        trial: cfg.trial,
    };
    let v = ctx
        .module
        .deliver_burst(ctx.net, &shot, &probe_ctx, times)?;
    let (synack_mask, got_rst) = (v.positive, v.negative != 0);
    // The first validated answer, positive or negative, times the host.
    let first_answered = (v.positive | v.negative).trailing_zeros() as usize;
    let response_time = times.get(first_answered).copied().unwrap_or_default();
    for (&t, probe_idx) in times.iter().zip(0u32..) {
        if v.invalid >> probe_idx & 1 != 0 {
            p.out.summary.validation_failures += 1;
            ctx.tele.record_span("validate", t, t);
        }
    }

    let (mut l7, mut l7_attempts) = (L7Outcome::Timeout, 0);
    if synack_mask != 0 {
        p.out.summary.synacks += u64::from(u32::from(synack_mask).count_ones());
        (l7, l7_attempts) = match v.detail {
            // Stateless module: the validated probe reply is already the
            // terminal application result; no follow-up connection.
            Some(d) => (L7Outcome::Success(d), 0),
            None => {
                // ZGrab follows up immediately on L4-responsive hosts.
                let l7ctx = L7Ctx {
                    origin: cfg.origin,
                    src_ip,
                    dst: addr,
                    protocol: cfg.protocol,
                    time_s: response_time,
                    trial: cfg.trial,
                    attempt: 0,
                    concurrent_origins: cfg.concurrent_origins,
                };
                let grab = zgrab::grab(ctx.net, l7ctx, cfg.l7_retries);
                (grab.outcome, grab.attempts)
            }
        };
        if l7.is_success() {
            p.out.summary.l7_successes += 1;
        }
    }
    // RST-only hosts are recorded too, with the placeholder L7 outcome.
    if synack_mask != 0 || got_rst {
        p.out.records.push(HostScanRecord {
            addr,
            synack_mask,
            got_rst,
            response_time_s: response_time,
            l7,
            l7_attempts,
        });
    }
    Ok(AddrOutcome {
        responsive: synack_mask != 0,
        rst: got_rst,
        last_t: times.last().copied().unwrap_or_default(),
    })
}

/// Feed an outcome to the adaptive controller (if any) and apply its
/// reaction: re-rate the pacer at the batch boundary, emit the timeline.
fn react(ctx: &ScanCtx<'_>, p: &mut Progress, addr: u32, o: &AddrOutcome) {
    let Some(c) = p.ctrl.as_mut() else { return };
    let reaction = c.observe(addr, o.responsive, o.rst, o.last_t);
    if !reaction.is_some() {
        return;
    }
    let (tele, time_s) = (&ctx.tele, o.last_t);
    tele.record_span("adapt", time_s, time_s);
    let rate_pps = ctx.cfg.rate_pps;
    if let Some((level, rate_mult)) = reaction.backoff {
        p.pacer
            .set_rate((rate_pps * rate_mult).max(f64::MIN_POSITIVE));
        tele.emit(time_s, EventKind::BackoffEngaged { level, rate_mult });
    }
    if let Some((level, rate_mult)) = reaction.recovered {
        p.pacer
            .set_rate((rate_pps * rate_mult).max(f64::MIN_POSITIVE));
        tele.emit(time_s, EventKind::BackoffReleased { level, rate_mult });
    }
    if let Some(source_idx) = reaction.rotated {
        tele.emit(time_s, EventKind::SourceRotated { source_idx });
    }
    if let Some((prefix, release_s)) = reaction.suspect {
        tele.emit(time_s, EventKind::PrefixDeferred { prefix, release_s });
    }
}

/// Adaptive tail pass: re-probe quarantined addresses now that their block
/// windows have had the rest of the scan to lapse. Bounded by the policy's
/// deferral cap; unsupervised (no hook or checkpoints), at the backed-off rate.
fn tail_pass(ctx: &ScanCtx<'_>, p: &mut Progress) -> Result<(), ScanError> {
    let deferred = p
        .ctrl
        .as_mut()
        .map_or_else(Vec::new, Controller::take_deferred);
    if deferred.is_empty() {
        return Ok(());
    }
    let _tail_span = ctx.tele.span("tail");
    for addr in deferred {
        probe(ctx, p, addr)?;
    }
    ctx.tele.set_time(p.now());
    Ok(())
}

/// The per-scan metric batch, built once at completion (the summary is
/// cumulative across resumes). Plan and adaptation counters appear only
/// for scans that use them, so plain scans' telemetry never shows them.
fn completion_metrics(ctx: &ScanCtx<'_>, p: &Progress) -> MetricBatch {
    let (out, s) = (&p.out, &p.out.summary);
    let mut b = MetricBatch::new();
    b.add(names::PROBES_SENT, s.probes_sent);
    b.add(names::ADDRESSES_PROBED, s.addresses_probed);
    b.add(names::BLOCKLIST_SKIPS, s.blocked);
    b.add(names::SYNACKS, s.synacks);
    b.add(names::VALIDATION_FAILURES, s.validation_failures);
    b.add(names::RESPONSIVE_HOSTS, out.records.len() as u64);
    b.add(names::CHECKPOINT_WRITES, p.checkpoint_writes);
    b.set_gauge(names::DURATION_SECONDS, s.duration_s);
    if p.stall_s > 0.0 {
        b.set_gauge(names::STALL_SECONDS, p.stall_s);
    }
    let (mut ok, mut closed, mut timeout, mut proto_err) = (0u64, 0u64, 0u64, 0u64);
    for r in &out.records {
        if s.duration_s > 0.0 {
            b.observe(
                names::RESPONSE_FRAC,
                metrics::RESPONSE_FRAC_BOUNDS,
                r.response_time_s / s.duration_s,
            );
        }
        // L7 classes are only meaningful where a handshake was attempted
        // (RST-only hosts carry a placeholder outcome).
        if r.l4_responsive() {
            b.observe(
                names::L7_ATTEMPTS,
                metrics::L7_ATTEMPT_BOUNDS,
                f64::from(r.l7_attempts),
            );
            match r.l7 {
                L7Outcome::Success(_) => ok += 1,
                L7Outcome::ConnClosed(_) => closed += 1,
                L7Outcome::Timeout => timeout += 1,
                L7Outcome::ProtocolError => proto_err += 1,
            }
        }
    }
    b.add(names::L7_SUCCESS, ok);
    b.add(names::L7_CONN_CLOSED, closed);
    b.add(names::L7_TIMEOUT, timeout);
    b.add(names::L7_PROTOCOL_ERROR, proto_err);
    if let Some(plan) = &ctx.cfg.plan {
        b.add(names::PLAN_SKIPS, s.plan_skipped);
        b.set_gauge(names::PLAN_PLANNED_S24S, plan.planned_s24s() as f64);
        b.set_gauge(
            names::PLAN_PLANNED_ADDRESSES,
            plan.planned_addresses() as f64,
        );
    }
    if let Some(c) = &p.ctrl {
        let st = c.state();
        b.add(names::ADAPT_BACKOFFS, st.backoffs);
        b.add(names::ADAPT_RECOVERIES, st.recoveries);
        b.add(names::ADAPT_ROTATIONS, st.rotations);
        b.add(names::ADAPT_DEFERRED_ADDRESSES, st.deferred_total);
        b.set_gauge(names::ADAPT_RATE_MULT, c.rate_mult());
    }
    b
}

/// Execute one scan against `net` under supervision: consult the fault
/// hook before every address, periodically checkpoint resumable state,
/// and resume from the session store's checkpoint when it holds one. A
/// session with none of that may not step at all (see the module docs).
pub fn run_scan_session(
    net: &dyn Network,
    cfg: &ScanConfig,
    session: ScanSession<'_>,
) -> Result<ScanOutput, ScanError> {
    cfg.validate()?;
    if fan::open_loop(net, cfg, &session) {
        return fan::run(net, cfg, fan::threads(cfg), fan::CHUNK, probe);
    }
    let ctx = ScanCtx::new(net, cfg, session);
    let tele = &ctx.tele;
    let mut p = restore_or_start(&ctx)?;

    let start_s = p.now();
    tele.set_time(start_s);
    let _scan_span = tele.span("scan");
    // Markers before the first send: permutation/validator setup (and any
    // fast-forward), the wire module, and whether a plan is in force.
    tele.record_span("permute", start_s, start_s);
    tele.record_span(ctx.module.wire_name(), start_s, start_s);
    if cfg.plan.is_some() {
        tele.record_span("plan", start_s, start_s);
    }
    let probe_span = tele.span("probe");
    // A hook, a controller and `wire_check` see every address, one step
    // at a time; otherwise a walk runs to the next checkpoint.
    let stepwise = ctx.session.hook.is_some() || cfg.adapt.is_some() || cfg.wire_check;
    loop {
        tele.set_time(p.now());
        let due = checkpoint_if_due(&ctx, &mut p);
        consult_hook(&ctx, &mut p)?;
        let addr = match walk(&ctx, &mut p, if stepwise { 1 } else { due }, !stepwise) {
            Ok(addr) => addr,
            Err(0) => break,
            Err(_) => continue,
        };
        // A walk that counts silent runs has asked `silent` already.
        let outcome = if stepwise {
            probe(&ctx, &mut p, addr)?
        } else {
            probe_audible(&ctx, &mut p, addr)?
        };
        react(&ctx, &mut p, addr, &outcome);
    }
    tele.set_time(p.now());
    drop(probe_span);
    tail_pass(&ctx, &mut p)?;

    let duration_s = p.pacer.duration_elapsed() + p.stall_s;
    p.out.summary.duration_s = duration_s;
    tele.emit(
        duration_s,
        EventKind::ScanCompleted {
            addresses_probed: p.out.summary.addresses_probed,
            duration_s,
        },
    );
    tele.flush_with(|| completion_metrics(&ctx, &p));
    tele.finish(duration_s);
    Ok(p.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{CloseKind, L7Reply, SynReply};
    use originscan_wire::tcp::TcpHeader;

    /// A toy network: addresses divisible by `live_mod` run the service;
    /// addresses divisible by `closed_mod` RST; everything else silent.
    struct ToyNet {
        live_mod: u32,
        closed_mod: u32,
    }

    impl Network for ToyNet {
        fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            if ctx.dst.is_multiple_of(self.live_mod) {
                SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7))
            } else if ctx.dst.is_multiple_of(self.closed_mod) {
                SynReply::Rst(TcpHeader::rst_reply(probe))
            } else {
                SynReply::Silent
            }
        }
        fn l7(&self, ctx: &L7Ctx, _req: &[u8]) -> L7Reply {
            match ctx.protocol {
                Protocol::Http => L7Reply::Data(b"HTTP/1.1 200 OK\r\n\r\n".to_vec()),
                Protocol::Https => L7Reply::Data(
                    originscan_wire::ServerHello {
                        version: originscan_wire::VERSION_TLS12,
                        cipher_suite: 0xc02f,
                    }
                    .emit(3),
                ),
                Protocol::Ssh => L7Reply::ConnClosed(CloseKind::FinAck),
                // Stateless modules never open L7 connections.
                Protocol::Icmp | Protocol::Dns => L7Reply::Timeout,
            }
        }
    }

    fn cfg(space: u64) -> ScanConfig {
        let mut c = ScanConfig::new(space, Protocol::Http, 99);
        c.wire_check = true;
        c
    }

    #[test]
    fn finds_exactly_the_live_hosts() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let out = run_scan(&net, &cfg(1000)).unwrap();
        let live: Vec<u32> = out
            .records
            .iter()
            .filter(|r| r.l4_responsive())
            .map(|r| r.addr)
            .collect();
        assert_eq!(live.len(), 100);
        assert!(live.iter().all(|a| a % 10 == 0));
        // All L4-responsive hosts completed HTTP.
        assert_eq!(out.summary.l7_successes, 100);
        // Two probes each, both answered.
        assert!(out
            .records
            .iter()
            .filter(|r| r.l4_responsive())
            .all(|r| r.synack_mask == 0b11));
    }

    /// Calls every burst silent, and counts the bursts it gets anyway.
    struct SilentNet(std::sync::atomic::AtomicU64);

    impl Network for SilentNet {
        fn silent(&self, _: u16, _: Protocol, _: u8, _: u32) -> bool {
            true
        }
        fn syn(&self, _ctx: &ProbeCtx, _probe: &TcpHeader) -> SynReply {
            SynReply::Silent
        }
        fn l7(&self, _ctx: &L7Ctx, _req: &[u8]) -> L7Reply {
            L7Reply::Timeout
        }
        fn syn_burst(&self, _: &ProbeCtx, _: &TcpHeader, _: &[f64], _: &mut [SynReply]) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    #[test]
    fn wire_check_delivers_bursts_the_net_calls_silent() {
        for wire_check in [true, false] {
            let net = SilentNet(0.into());
            let mut c = cfg(1000);
            c.wire_check = wire_check;
            let out = run_scan(&net, &c).unwrap();
            assert_eq!(out.summary.addresses_probed, 1000);
            assert_eq!(out.summary.probes_sent, 2000);
            let bursts = net.0.into_inner();
            assert_eq!(bursts, if wire_check { 1000 } else { 0 });
        }
    }

    #[test]
    fn rst_hosts_recorded_but_not_l7() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let out = run_scan(&net, &cfg(100)).unwrap();
        let rst_only: Vec<&HostScanRecord> = out
            .records
            .iter()
            .filter(|r| r.got_rst && !r.l4_responsive())
            .collect();
        // Multiples of 3 but not 10, in 0..100: 33 - 3(mult of 30) = 30... 0 counts as live.
        assert!(!rst_only.is_empty());
        assert!(rst_only.iter().all(|r| r.addr % 3 == 0 && r.addr % 10 != 0));
        assert!(rst_only
            .iter()
            .all(|r| r.l7 == L7Outcome::Timeout && r.l7_attempts == 0));
    }

    #[test]
    fn blocklist_suppresses_probes() {
        let net = ToyNet {
            live_mod: 1,
            closed_mod: 1,
        }; // everything live
        let mut c = cfg(256);
        c.blocklist = Blocklist::parse("0.0.0.0/25").unwrap(); // block half
        let out = run_scan(&net, &c).unwrap();
        assert_eq!(out.summary.blocked, 128);
        assert_eq!(out.summary.addresses_probed, 128);
        assert!(out.records.iter().all(|r| r.addr >= 128));
    }

    #[test]
    fn plan_restricts_probing_to_planned_s24s() {
        let net = ToyNet {
            live_mod: 1,
            closed_mod: 1,
        }; // everything live
        let mut c = cfg(1024); // 4 /24s
        c.plan = Some(
            TargetPlan::from_entries(
                1024,
                99,
                "observed",
                vec![
                    originscan_plan::PlanEntry { s24: 1, score: 10 },
                    originscan_plan::PlanEntry { s24: 3, score: 5 },
                ],
            )
            .unwrap(),
        );
        let out = run_scan(&net, &c).unwrap();
        assert_eq!(out.summary.plan_skipped, 512);
        assert_eq!(out.summary.addresses_probed, 512);
        assert!(out.records.iter().all(|r| { matches!(r.addr >> 8, 1 | 3) }));
    }

    #[test]
    fn plan_composes_with_blocklist() {
        let net = ToyNet {
            live_mod: 1,
            closed_mod: 1,
        };
        let mut c = cfg(1024);
        c.plan = Some(
            TargetPlan::from_entries(
                1024,
                99,
                "observed",
                vec![originscan_plan::PlanEntry { s24: 0, score: 1 }],
            )
            .unwrap(),
        );
        // Block the lower half of the planned /24: probed = plan ∩ ¬block.
        c.blocklist = Blocklist::parse("0.0.0.0/25").unwrap();
        let out = run_scan(&net, &c).unwrap();
        assert_eq!(out.summary.plan_skipped, 768);
        assert_eq!(out.summary.blocked, 128);
        assert_eq!(out.summary.addresses_probed, 128);
        assert!(out.records.iter().all(|r| (128..256).contains(&r.addr)));
    }

    #[test]
    fn plan_space_mismatch_is_rejected() {
        let mut c = cfg(1024);
        c.plan = Some(TargetPlan::from_entries(512, 99, "full", Vec::new()).unwrap());
        assert_eq!(
            c.validate(),
            Err(ConfigError::PlanSpaceMismatch {
                plan_space: 512,
                space: 1024,
            })
        );
    }

    #[test]
    fn empty_plan_probes_nothing() {
        let net = ToyNet {
            live_mod: 1,
            closed_mod: 1,
        };
        let mut c = cfg(256);
        c.plan = Some(TargetPlan::from_entries(256, 99, "observed", Vec::new()).unwrap());
        let out = run_scan(&net, &c).unwrap();
        assert_eq!(out.summary.addresses_probed, 0);
        assert_eq!(out.summary.plan_skipped, 256);
        assert!(out.records.is_empty());
    }

    #[test]
    fn single_probe_sends_half_the_packets() {
        let net = ToyNet {
            live_mod: 7,
            closed_mod: 2,
        };
        let mut c1 = cfg(500);
        c1.probes = 1;
        let mut c2 = cfg(500);
        c2.probes = 2;
        let o1 = run_scan(&net, &c1).unwrap();
        let o2 = run_scan(&net, &c2).unwrap();
        assert_eq!(o1.summary.probes_sent * 2, o2.summary.probes_sent);
    }

    #[test]
    fn sharded_scans_cover_space() {
        let net = ToyNet {
            live_mod: 5,
            closed_mod: 2,
        };
        let mut all = Vec::new();
        for shard in 0..3u64 {
            let mut c = cfg(300);
            c.shard = (shard, 3);
            all.extend(
                run_scan(&net, &c)
                    .unwrap()
                    .records
                    .into_iter()
                    .map(|r| r.addr),
            );
        }
        all.sort_unstable();
        all.dedup();
        // live (60) + closed-not-live: multiples of 2 not of 5 => 150-30=120
        assert_eq!(all.len(), 180);
    }

    #[test]
    fn deterministic_output() {
        let net = ToyNet {
            live_mod: 9,
            closed_mod: 4,
        };
        let a = run_scan(&net, &cfg(2048)).unwrap();
        let b = run_scan(&net, &cfg(2048)).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn times_are_monotone_with_rate() {
        let net = ToyNet {
            live_mod: 2,
            closed_mod: 3,
        };
        let mut c = cfg(100);
        c.rate_pps = 10.0;
        c.batch = 1;
        let out = run_scan(&net, &c).unwrap();
        // 100 addrs * 2 probes at 10 pps = 20 s duration.
        assert!((out.summary.duration_s - 20.0).abs() < 1e-9);
        let times: Vec<f64> = out.records.iter().map(|r| r.response_time_s).collect();
        assert!(!times.is_empty());
        assert!(times.iter().all(|&t| (0.0..20.0).contains(&t)));
    }

    /// A hostile network that replies with spoofed SYN-ACKs (wrong ack).
    struct SpooferNet;
    impl Network for SpooferNet {
        fn syn(&self, _: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            let mut h = TcpHeader::syn_ack_reply(probe, 1);
            h.ack = h.ack.wrapping_add(0x1000); // corrupt the MAC echo
            SynReply::SynAck(h)
        }
        fn l7(&self, _: &L7Ctx, _: &[u8]) -> L7Reply {
            L7Reply::Timeout
        }
    }

    #[test]
    fn spoofed_replies_rejected_by_validation() {
        let out = run_scan(&SpooferNet, &cfg(128)).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.summary.validation_failures, 256);
        assert_eq!(out.summary.synacks, 0);
    }

    #[test]
    fn invalid_configs_rejected_as_typed_errors() {
        let base = cfg(100);
        let check = |mutate: &dyn Fn(&mut ScanConfig), want: ConfigError| {
            let mut c = base.clone();
            mutate(&mut c);
            assert_eq!(c.validate(), Err(want));
            assert_eq!(
                run_scan(
                    &ToyNet {
                        live_mod: 2,
                        closed_mod: 3
                    },
                    &c
                ),
                Err(ScanError::Config(want))
            );
        };
        check(&|c| c.space = 0, ConfigError::EmptySpace);
        check(&|c| c.probes = 0, ConfigError::ZeroProbes);
        check(&|c| c.probes = 9, ConfigError::TooManyProbes { probes: 9 });
        check(&|c| c.source_ips.clear(), ConfigError::NoSourceIps);
        check(
            &|c| c.shard = (1, 1),
            ConfigError::InvalidShard { shard: 1, total: 1 },
        );
        check(
            &|c| c.shard = (0, 0),
            ConfigError::InvalidShard { shard: 0, total: 0 },
        );
        check(&|c| c.rate_pps = 0.0, ConfigError::NonPositiveRate);
        check(&|c| c.rate_pps = f64::NAN, ConfigError::NonPositiveRate);
        check(&|c| c.batch = 0, ConfigError::ZeroBatch);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            check(&|c| c.probe_delay_s = bad, ConfigError::BadProbeDelay);
        }
        check(
            &|c| c.l7_retries = u8::MAX,
            ConfigError::TooManyRetries { retries: u8::MAX },
        );
        assert_eq!(base.validate(), Ok(()));
    }

    /// SYN-ACKs every address, FIN-closes every connection.
    struct ClosingNet {
        order_free: bool,
    }

    impl Network for ClosingNet {
        fn order_free(&self) -> bool {
            self.order_free
        }
        fn syn(&self, _: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7))
        }
        fn l7(&self, _: &L7Ctx, _: &[u8]) -> L7Reply {
            L7Reply::ConnClosed(CloseKind::FinAck)
        }
    }

    /// The most retries a record's `u8` attempt count holds run to the
    /// end, stepped and fanned; one more is refused before any probe.
    #[test]
    fn the_largest_retry_count_is_counted_and_one_more_refused() {
        for order_free in [false, true] {
            let net = ClosingNet { order_free };
            let mut c = ScanConfig::new(64, Protocol::Ssh, 5);
            c.l7_retries = MAX_L7_RETRIES;
            let out = run_scan(&net, &c).unwrap();
            assert_eq!(out.records.len(), 64);
            for r in &out.records {
                assert_eq!(r.l7, L7Outcome::ConnClosed(CloseKind::FinAck));
                assert_eq!(r.l7_attempts, u8::MAX, "order-free: {order_free}");
            }
            c.l7_retries = MAX_L7_RETRIES + 1;
            let refused = ConfigError::TooManyRetries { retries: u8::MAX };
            assert_eq!(run_scan(&net, &c), Err(ScanError::Config(refused)));
        }
    }

    /// Kills the scan whenever the predicate holds.
    struct KillWhen<F>(F);

    impl<F: Fn(&FaultCtx) -> bool + Sync> FaultHook for KillWhen<F> {
        fn before_address(&self, ctx: &FaultCtx) -> FaultAction {
            if (self.0)(ctx) {
                FaultAction::Kill
            } else {
                FaultAction::Continue
            }
        }
    }

    fn supervised<'a>(
        hook: &'a dyn FaultHook,
        store: &'a CheckpointStore,
        attempt: u32,
    ) -> ScanSession<'a> {
        ScanSession {
            hook: Some(hook),
            store: Some(store),
            attempt,
            telemetry: None,
        }
    }

    #[test]
    fn kill_fault_surfaces_as_error_with_checkpoint() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let store = CheckpointStore::new(128);
        let hook = KillWhen(|c: &FaultCtx| c.addresses_probed >= 500);
        let err = run_scan_session(&net, &cfg(1000), supervised(&hook, &store, 0)).unwrap_err();
        assert!(
            matches!(
                err,
                ScanError::Killed {
                    addresses_probed: 500,
                    ..
                }
            ),
            "{err:?}"
        );
        let cp = store.take().expect("periodic checkpoint must exist");
        // The periodic checkpoint predates the kill point.
        assert!(cp.output.summary.addresses_probed <= 500);
        assert!(cp.output.summary.addresses_probed >= 500 - 128);
        assert_eq!(cp.ctrl, None, "open-loop scans carry no controller state");
    }

    /// Run `cfg` with attempt `i` killed once `kills[i]` permutation steps
    /// are consumed, every attempt sharing one store, and assert that the
    /// attempt after the last kill returns exactly the uninterrupted
    /// output.
    fn assert_resumes_bit_identically(
        net: &dyn Network,
        cfg: &ScanConfig,
        every: u64,
        kills: &[u64],
    ) {
        let uninterrupted = run_scan(net, cfg).unwrap();
        let store = CheckpointStore::new(every);
        let hook =
            KillWhen(|c: &FaultCtx| kills.get(c.attempt as usize).is_some_and(|&k| c.steps >= k));
        for attempt in 0..kills.len() as u32 {
            let died = run_scan_session(net, cfg, supervised(&hook, &store, attempt));
            assert!(
                matches!(died, Err(ScanError::Killed { .. })),
                "attempt {attempt} of {kills:?}: {died:?}"
            );
        }
        let resumed =
            run_scan_session(net, cfg, supervised(&hook, &store, kills.len() as u32)).unwrap();
        assert_eq!(resumed, uninterrupted, "every {every}, kills {kills:?}");
    }

    /// Permutation steps `cfg`'s shard consumes end to end.
    fn total_steps(cfg: &ScanConfig) -> u64 {
        let cycle = Cycle::new(cfg.space, cfg.seed);
        let mut iter = cycle.iter_shard(cfg.shard.0, cfg.shard.1);
        while iter.next().is_some() {}
        iter.steps_taken()
    }

    /// An adaptive scan the toy network keeps on its toes: half the
    /// space RSTs, so the controller backs off, rotates sources and
    /// parks /24s for the tail pass.
    fn adaptive_cfg(space: u64) -> ScanConfig {
        let mut c = cfg(space);
        c.source_ips = vec![0x0a00_0001, 0x0a00_0002, 0x0a00_0003];
        c.adapt = Some(AdaptivePolicy {
            window_addrs: 32,
            recovery_windows: 2,
            ..AdaptivePolicy::default()
        });
        c
    }

    fn planned_sharded_blocklisted_cfg() -> ScanConfig {
        let mut c = cfg(2048);
        c.shard = (1, 2);
        c.blocklist = Blocklist::parse("0.0.1.0/25").unwrap();
        let entries = [1, 3, 4, 6]
            .map(|s24| originscan_plan::PlanEntry { s24, score: 1 })
            .to_vec();
        c.plan = Some(TargetPlan::from_entries(2048, 99, "observed", entries).unwrap());
        c
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted() {
        let net = ToyNet {
            live_mod: 7,
            closed_mod: 5,
        };
        // Killed once mid-scan, resumed from the last periodic checkpoint.
        assert_resumes_bit_identically(&net, &cfg(3000), 256, &[1100]);
        // Killed again well after the first resume: the second resume
        // starts from a checkpoint the resumed attempt appended to.
        assert_resumes_bit_identically(&net, &cfg(3000), 256, &[1100, 2000]);
        // Killed again before the resumed attempt saved anything: the
        // store is empty by then, so the third attempt starts over.
        assert_resumes_bit_identically(&net, &cfg(3000), 256, &[1100, 1100]);
        // Killed before the first checkpoint, and with checkpoints off.
        assert_resumes_bit_identically(&net, &cfg(600), 100, &[50]);
        assert_resumes_bit_identically(&net, &cfg(600), 0, &[300]);
    }

    #[test]
    fn resume_at_every_checkpoint_boundary_is_bit_identical() {
        let busy = ToyNet {
            live_mod: 7,
            closed_mod: 2,
        };
        let every = 64;
        for cfg in [
            cfg(1024),
            adaptive_cfg(1024),
            planned_sharded_blocklisted_cfg(),
        ] {
            for boundary in 1..=total_steps(&cfg) / every {
                assert_resumes_bit_identically(&busy, &cfg, every, &[boundary * every]);
            }
        }

        // The adaptive scan above really adapted, so its checkpoints
        // carried a re-rated pacer and live controller state.
        let hub = Telemetry::new();
        let session = ScanSession {
            telemetry: Some(&hub),
            ..Default::default()
        };
        run_scan_session(&busy, &adaptive_cfg(1024), session).unwrap();
        let snap = hub.snapshot();
        let scope = Scope::new("HTTP", 0, 0);
        assert!(snap.counter(scope, names::ADAPT_BACKOFFS) > 0);
        assert!(snap.counter(scope, names::ADAPT_ROTATIONS) > 0);
        assert!(snap.counter(scope, names::ADAPT_DEFERRED_ADDRESSES) > 0);
    }

    #[test]
    fn killed_before_first_checkpoint_leaves_the_store_empty() {
        let net = ToyNet {
            live_mod: 4,
            closed_mod: 9,
        };
        let store = CheckpointStore::new(100);
        let hook = KillWhen(|c: &FaultCtx| c.addresses_probed >= 50);
        let first = run_scan_session(&net, &cfg(600), supervised(&hook, &store, 0));
        assert!(matches!(first, Err(ScanError::Killed { .. })));
        assert!(store.take().is_none(), "killed before the first checkpoint");
    }

    #[test]
    fn stale_checkpoint_rejected() {
        let net = ToyNet {
            live_mod: 2,
            closed_mod: 3,
        };
        // A checkpoint from deep inside a much larger scan's permutation.
        let store = CheckpointStore::new(64);
        let larger = cfg(1 << 16);
        let ctx = ScanCtx::new(&net, &larger, ScanSession::default());
        let mut elsewhere = restore_or_start(&ctx).unwrap();
        assert!(elsewhere.iter.fast_forward(5000));
        store.save(&elsewhere);
        let session = ScanSession {
            store: Some(&store),
            ..Default::default()
        };
        let err = run_scan_session(&net, &cfg(100), session).unwrap_err();
        assert_eq!(err, ScanError::BadCheckpoint { steps: 5000 });
    }

    /// Silent at three addresses in four, by a hash of the address; the
    /// rest SYN-ACK, RST or drop by the address and the send time, so a
    /// probe stamped on the wrong clock gets another answer.
    struct Patchy(u32);

    impl Patchy {
        fn hash(&self, dst: u32) -> u32 {
            (dst ^ self.0).wrapping_mul(0x9E37_79B9) >> 16
        }
    }

    impl Network for Patchy {
        fn silent(&self, _: u16, _: Protocol, _: u8, dst: u32) -> bool {
            !self.hash(dst).is_multiple_of(4)
        }
        fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            if self.silent(0, ctx.protocol, 0, ctx.dst) {
                return SynReply::Silent;
            }
            match (self.hash(ctx.dst) / 4).wrapping_add(ctx.time_s as u32) % 3 {
                0 => SynReply::SynAck(TcpHeader::syn_ack_reply(probe, 7)),
                1 => SynReply::Rst(TcpHeader::rst_reply(probe)),
                _ => SynReply::Silent,
            }
        }
        fn l7(&self, _: &L7Ctx, _: &[u8]) -> L7Reply {
            L7Reply::Data(b"HTTP/1.1 200 OK\r\n\r\n".to_vec())
        }
    }

    /// What a supervised run leaves: its output, the checkpoints it
    /// announced (steps, addresses probed, time bits), its hub's JSONL
    /// and its store.
    type Supervised = (ScanOutput, Vec<(u64, u64, u64)>, String, CheckpointStore);

    /// Run `cfg` with a store saving every `every` steps and a hub; with
    /// `stepwise`, also a hook that always continues, which makes the
    /// loop walk one step at a time.
    fn run_supervised(
        net: &dyn Network,
        cfg: &ScanConfig,
        every: u64,
        stepwise: bool,
    ) -> Supervised {
        let (hub, store, never) = (
            Telemetry::new(),
            CheckpointStore::new(every),
            KillWhen(|_: &FaultCtx| false),
        );
        let session = ScanSession {
            hook: stepwise.then_some(&never as &dyn FaultHook),
            store: Some(&store),
            attempt: 0,
            telemetry: Some(&hub),
        };
        let out = run_scan_session(net, cfg, session).unwrap();
        let snap = hub.snapshot();
        let saved = snap.events.iter().filter_map(|e| match e.kind {
            EventKind::CheckpointSaved {
                steps,
                addresses_probed,
            } => Some((steps, addresses_probed, e.time_s.to_bits())),
            _ => None,
        });
        (out, saved.collect(), snap.to_jsonl(), store)
    }

    /// Walking the permutation to the next checkpoint, silent runs counted
    /// in bulk, is stepping it one address at a time: the same output,
    /// checkpoints and telemetry bytes, across plans, blocklists, shards,
    /// probe counts, batch sizes and checkpoint cadences — one of which
    /// falls due exactly at the permutation's last step. A checkpoint the
    /// walk saved resumes to the uninterrupted output.
    #[test]
    fn walking_to_the_next_checkpoint_equals_stepping_every_address() {
        let net = Patchy(0x5eed);
        let entries = [0, 2, 3, 7, 11, 12].map(|s24| originscan_plan::PlanEntry { s24, score: 1 });
        let plan = TargetPlan::from_entries(4096, 99, "observed", entries.to_vec()).unwrap();
        for axes in 0..8u8 {
            for probes in 1..=MAX_PROBES as u8 {
                let mut c = ScanConfig::new(4096, Protocol::Http, 99);
                c.probes = probes;
                c.batch = [1, 3, 16][usize::from(probes) % 3];
                c.plan = (axes & 1 != 0).then(|| plan.clone());
                if axes & 2 != 0 {
                    c.blocklist = Blocklist::parse("0.0.2.0/23").unwrap();
                }
                c.shard = if axes & 4 != 0 { (1, 3) } else { (0, 1) };
                let cycle = Cycle::new(c.space, c.seed);
                let count = cycle.iter_shard(c.shard.0, c.shard.1).count() as u64;
                let divisor = (2..count)
                    .rev()
                    .find(|&d| count.is_multiple_of(d))
                    .unwrap_or(count);
                let uninterrupted = run_scan(&net, &c).unwrap();
                for every in [0, 1, 1024, divisor, count] {
                    let at = (axes, probes, every);
                    let walked = run_supervised(&net, &c, every, false);
                    let stepped = run_supervised(&net, &c, every, true);
                    assert_eq!(walked.0, uninterrupted, "{at:?}");
                    assert_eq!(walked.0, stepped.0, "{at:?}");
                    assert_eq!(walked.1, stepped.1, "{at:?}");
                    assert!(walked.2 == stepped.2, "{at:?}: the hub JSONL differs");
                    assert_eq!(walked.1.len() as u64, count.checked_div(every).unwrap_or(0));
                    let (saved, want) = (walked.3.take(), stepped.3.take());
                    assert_eq!(saved, want, "{at:?}");
                    *walked.3.slot() = saved;
                    let session = ScanSession {
                        store: Some(&walked.3),
                        ..Default::default()
                    };
                    let resumed = run_scan_session(&net, &c, session).unwrap();
                    assert_eq!(resumed, uninterrupted, "{at:?}: resumed");
                }
            }
        }
    }

    /// [`Patchy`], order-free, counting the `silent` questions it gets.
    struct CountsSilent(Patchy, std::sync::atomic::AtomicU64);

    impl Network for CountsSilent {
        fn order_free(&self) -> bool {
            true
        }
        fn silent(&self, origin: u16, protocol: Protocol, trial: u8, dst: u32) -> bool {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.silent(origin, protocol, trial, dst)
        }
        fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            self.0.syn(ctx, probe)
        }
        fn l7(&self, ctx: &L7Ctx, request: &[u8]) -> L7Reply {
            self.0.l7(ctx, request)
        }
    }

    /// Every address that passes the plan and blocklist is asked about
    /// once — fanned, walked to the next checkpoint, stepped under a hook,
    /// adaptive — and a `wire_check` scan asks nothing.
    #[test]
    fn each_unfiltered_address_is_asked_silent_once() {
        let entries = [0, 2, 3, 7, 11, 12].map(|s24| originscan_plan::PlanEntry { s24, score: 1 });
        let plan = TargetPlan::from_entries(4096, 99, "observed", entries.to_vec()).unwrap();
        let mut plain = ScanConfig::new(4096, Protocol::Http, 99);
        plain.blocklist = Blocklist::parse("0.0.2.0/23").unwrap();
        let mut planned = plain.clone();
        planned.plan = Some(plan);
        let mut adaptive = adaptive_cfg(4096);
        adaptive.wire_check = false;
        let mut wire = plain.clone();
        wire.wire_check = true;
        for c in [plain, planned, adaptive, wire] {
            type Run = fn(&dyn Network, &ScanConfig) -> ScanOutput;
            let runs: [(&str, Run); 3] = [
                ("bare", |net, c| run_scan(net, c).unwrap()),
                ("walked", |net, c| run_supervised(net, c, 1024, false).0),
                ("stepped", |net, c| run_supervised(net, c, 1024, true).0),
            ];
            for (how, run) in runs {
                let net = CountsSilent(Patchy(0x5eed), 0.into());
                let out = run(&net, &c);
                let asked = net.1.into_inner();
                let want = if c.wire_check {
                    0
                } else {
                    out.summary.addresses_probed
                };
                assert_eq!(asked, want, "{how} {c:?}");
                assert!(out.summary.addresses_probed > 0 && !out.records.is_empty());
            }
        }
    }

    /// Stalls the pipeline once, by `delay_s`, at `at` probed addresses.
    struct StallAt {
        at: u64,
        delay_s: f64,
    }

    impl FaultHook for StallAt {
        fn before_address(&self, ctx: &FaultCtx) -> FaultAction {
            // Idempotent across calls: request only the delay not yet
            // applied (ctx.stall_s is what the engine already absorbed).
            if ctx.addresses_probed >= self.at && ctx.stall_s < self.delay_s {
                FaultAction::Stall {
                    delay_s: self.delay_s - ctx.stall_s,
                }
            } else {
                FaultAction::Continue
            }
        }
    }

    #[test]
    fn telemetry_records_scan_lifecycle_and_metrics() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let store = CheckpointStore::new(400);
        let hub = Telemetry::new();
        let out = run_scan_session(
            &net,
            &cfg(1000),
            ScanSession {
                store: Some(&store),
                telemetry: Some(&hub),
                ..Default::default()
            },
        )
        .unwrap();
        let snap = hub.snapshot();
        let scope = Scope::new("HTTP", 0, 0);
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "scan_started",
                "checkpoint_saved",
                "checkpoint_saved",
                "scan_completed"
            ]
        );
        assert_eq!(
            snap.counter(scope, names::PROBES_SENT),
            out.summary.probes_sent
        );
        assert_eq!(snap.counter(scope, names::CHECKPOINT_WRITES), 2);
        assert_eq!(snap.counter(scope, names::L7_SUCCESS), 100);
        assert_eq!(
            snap.gauge(scope, names::DURATION_SECONDS),
            Some(out.summary.duration_s)
        );
        // 100 responsive + RST-only hosts each contribute one
        // response-time observation.
        let frac = snap
            .histograms
            .iter()
            .find(|h| h.name == names::RESPONSE_FRAC)
            .unwrap();
        assert_eq!(frac.counts.iter().sum::<u64>(), out.records.len() as u64);
        // L7 attempts only for the 100 SYN-ACK hosts.
        let l7 = snap
            .histograms
            .iter()
            .find(|h| h.name == names::L7_ATTEMPTS)
            .unwrap();
        assert_eq!(l7.counts.iter().sum::<u64>(), 100);
    }

    #[test]
    fn telemetry_records_kill_and_stall_faults() {
        let net = ToyNet {
            live_mod: 10,
            closed_mod: 3,
        };
        let hub = Telemetry::new();
        let hook = KillWhen(|c: &FaultCtx| c.addresses_probed >= 100);
        let err = run_scan_session(
            &net,
            &cfg(1000),
            ScanSession {
                hook: Some(&hook),
                telemetry: Some(&hub),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ScanError::Killed { .. }));
        let snap = hub.snapshot();
        let scope = Scope::new("HTTP", 0, 0);
        assert_eq!(snap.counter(scope, names::FAULT_KILLS), 1);
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["scan_started", "scan_killed"]);
        // A killed scan never flushes completion metrics.
        assert_eq!(snap.counter(scope, names::PROBES_SENT), 0);

        let hub = Telemetry::new();
        let hook = StallAt {
            at: 50,
            delay_s: 5.0,
        };
        run_scan_session(
            &net,
            &cfg(1000),
            ScanSession {
                hook: Some(&hook),
                telemetry: Some(&hub),
                ..Default::default()
            },
        )
        .unwrap();
        let snap = hub.snapshot();
        assert_eq!(snap.counter(scope, names::FAULT_STALLS), 1);
        assert_eq!(snap.gauge(scope, names::STALL_SECONDS), Some(5.0));
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == EventKind::PipelineStall { delay_s: 5.0 }));
    }

    #[test]
    fn stall_shifts_later_probes_and_duration() {
        let net = ToyNet {
            live_mod: 2,
            closed_mod: 3,
        };
        let mut c = cfg(100);
        c.rate_pps = 10.0;
        c.batch = 1;
        let clean = run_scan(&net, &c).unwrap();
        let hook = StallAt {
            at: 50,
            delay_s: 5.0,
        };
        let stalled = run_scan_session(
            &net,
            &c,
            ScanSession {
                hook: Some(&hook),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stalled.summary.probes_sent, clean.summary.probes_sent);
        assert!((stalled.summary.duration_s - clean.summary.duration_s - 5.0).abs() < 1e-9);
        // Same responsive set; late responses shifted by exactly 5 s.
        assert_eq!(stalled.records.len(), clean.records.len());
        for (s, c) in stalled.records.iter().zip(&clean.records) {
            assert_eq!(s.addr, c.addr);
            let shift = s.response_time_s - c.response_time_s;
            assert!(shift.abs() < 1e-9 || (shift - 5.0).abs() < 1e-9);
        }
    }
}
