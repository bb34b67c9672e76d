//! The synchronized multi-origin experiment runner.
//!
//! §2 of the paper: all origins start each trial at the same time with
//! the *same ZMap seed*, so every scanner visits the same addresses at
//! approximately the same moment. We reproduce that literally: one scan
//! configuration per (protocol, trial), cloned per origin with only the
//! origin identity (and its source-IP count) changed. Every trial's scans
//! share one job queue over the cores, and the worker that finishes a
//! trial's last origin condenses it into its ground-truth matrix.
//!
//! # Supervision
//!
//! Real campaigns lose vantage points: processes crash, uplinks go dark,
//! pipelines stall. The runner therefore *supervises* every origin's
//! scan ([`supervise_scan`]) instead of letting one failure sink the
//! trial:
//!
//! * each origin runs inside `catch_unwind`, so a panicking scan (or a
//!   fault-injected kill) is contained to that origin;
//! * failed scans are retried up to [`SupervisorPolicy::max_retries`]
//!   times with capped exponential backoff *in simulated time* — the
//!   backoff is bookkeeping (the `backoff` spans and the
//!   `SUP_BACKOFF_SECONDS` gauge) and never shifts probe timestamps,
//!   preserving determinism;
//! * the engine checkpoints into a [`CheckpointStore`] every
//!   [`SupervisorPolicy::checkpoint_every`] addresses, so a retry
//!   resumes mid-permutation instead of rescanning from zero;
//! * every origin's fate is recorded as a [`RunStatus`] that flows into
//!   `TrialMatrix::statuses` and the report, and origins that exhaust
//!   their retries are *excluded from ground truth* rather than
//!   invalidating the trial.

use crate::jobs;
use crate::matrix::TrialMatrix;
use crate::results::ExperimentResults;
use originscan_netmodel::{FaultPlan, FaultyNet, InjectedFault};
use originscan_netmodel::{OriginId, Protocol, SimNet, World};
use originscan_scanner::engine::{
    run_scan_session, CheckpointStore, FaultHook, ScanConfig, ScanOutput, ScanSession,
};
use originscan_scanner::rate_for_duration;
use originscan_scanner::target::Network;
use originscan_scanner::ScanError;
use originscan_telemetry::metrics::names;
use originscan_telemetry::{EventKind, Scope, ScopedTelemetry, Telemetry};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Simulated trial duration: the paper's trials took ≈ 21 hours.
pub const TRIAL_DURATION_S: f64 = 21.0 * 3600.0;

/// Why an origin's scan produced no usable output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailCause {
    /// The scan thread panicked on its final allowed attempt.
    Panicked,
    /// An injected fault killed the scan on its final allowed attempt.
    Killed,
    /// The scan configuration failed validation (retrying cannot help).
    InvalidConfig,
}

/// Per-(origin, trial) outcome of the supervised runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// One clean attempt, full results.
    Completed,
    /// Interrupted `retries` times, then ran to completion (resuming
    /// from checkpoints where available). Results are complete.
    Resumed {
        /// Retry attempts consumed before success.
        retries: u32,
    },
    /// Ran to completion, but an injected network fault (outage window,
    /// reply tampering) degraded its view of the network. Results are
    /// usable but partial.
    Degraded {
        /// The fault kind that degraded this run.
        fault: InjectedFault,
        /// Retry attempts consumed (0 when only the network misbehaved).
        retries: u32,
    },
    /// Gave up after exhausting retries; no output. The origin is
    /// excluded from ground truth and reported as all-missed.
    Failed {
        /// The terminal failure.
        cause: FailCause,
    },
}

impl RunStatus {
    /// Completed on the first attempt with no injected degradation?
    pub fn is_clean(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStatus::Completed => write!(f, "completed"),
            RunStatus::Resumed { retries } => match retries {
                1 => write!(f, "resumed after 1 interruption"),
                n => write!(f, "resumed after {n} interruptions"),
            },
            RunStatus::Degraded { fault, retries } => {
                let kind = match fault {
                    InjectedFault::Outage => "vantage outage",
                    InjectedFault::ReplyTamper => "reply tampering",
                };
                match retries {
                    0 => write!(f, "degraded ({kind})"),
                    1 => write!(f, "degraded ({kind}, 1 retry)"),
                    n => write!(f, "degraded ({kind}, {n} retries)"),
                }
            }
            RunStatus::Failed { cause } => {
                let c = match cause {
                    FailCause::Panicked => "panicked",
                    FailCause::Killed => "killed by fault",
                    FailCause::InvalidConfig => "invalid config",
                };
                write!(f, "FAILED ({c})")
            }
        }
    }
}

/// The first retry waits this long in *simulated* time; each further
/// retry doubles it (up to [`SupervisorPolicy::backoff_cap_s`]).
const BACKOFF_BASE_S: f64 = 60.0;

/// Retry, backoff, and checkpoint policy of the supervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorPolicy {
    /// Retry attempts after the first failure (so `max_retries + 1`
    /// attempts total).
    pub max_retries: u32,
    /// Ceiling on a single backoff step.
    pub backoff_cap_s: f64,
    /// Engine checkpoint cadence in addresses (0 disables resume; a
    /// failed origin then restarts from scratch).
    pub checkpoint_every: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_cap_s: 900.0,
            checkpoint_every: 1024,
        }
    }
}

/// One origin's supervised scan: its fate plus (when successful) its raw
/// output.
#[derive(Debug, Clone)]
pub struct OriginRun {
    /// How the run ended.
    pub status: RunStatus,
    /// Attempts performed (1 = clean first run).
    pub(crate) attempts: u32,
    /// The scan output; `None` exactly when `status` is `Failed`.
    pub output: Option<ScanOutput>,
}

/// Why an experiment could not produce results at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentError {
    /// The configuration lists no origins, no protocols, or zero trials.
    EmptyConfig,
    /// Every origin failed in one (protocol, trial): there is no ground
    /// truth to report against.
    AllOriginsFailed {
        /// The protocol of the dead trial.
        protocol: Protocol,
        /// The dead trial's index.
        trial: u8,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::EmptyConfig => {
                write!(
                    f,
                    "experiment config needs at least one origin, protocol, and trial"
                )
            }
            ExperimentError::AllOriginsFailed { protocol, trial } => {
                write!(f, "every origin failed in {protocol} trial {trial}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Configuration of one experiment (a set of synchronized trials).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Vantage points, in reporting order.
    pub origins: Vec<OriginId>,
    /// Protocols to scan.
    pub protocols: Vec<Protocol>,
    /// Number of trials.
    pub trials: u8,
    /// Back-to-back SYN probes per address (paper: 2).
    pub probes: u8,
    /// Immediate L7 retries (paper baseline: 0).
    pub l7_retries: u8,
    /// Seconds between successive probes to the same address (paper
    /// baseline 0; §7 endorses delayed probes as a single-origin
    /// mitigation for correlated loss).
    pub probe_delay_s: f64,
    /// Base seed; trial `t` scans with `base_seed + t` (shared across
    /// origins within the trial, fresh permutation across trials).
    pub base_seed: u64,
    /// Simulated scan duration per trial.
    pub duration_s: f64,
    /// Injected fault schedule (`None`: fault-free run).
    pub faults: Option<FaultPlan>,
    /// Supervisor retry/backoff/checkpoint policy.
    pub policy: SupervisorPolicy,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            origins: OriginId::MAIN.to_vec(),
            protocols: originscan_scanner::probe::PAPER_PROTOCOLS.to_vec(),
            trials: 3,
            probes: 2,
            l7_retries: 0,
            probe_delay_s: 0.0,
            base_seed: 0xC0FFEE,
            duration_s: TRIAL_DURATION_S,
            faults: None,
            policy: SupervisorPolicy::default(),
        }
    }
}

impl ExperimentConfig {
    /// The §7 follow-up experiment: HTTP only, two trials, the original
    /// single-IP origins plus Censys-from-fresh-ranges and the three
    /// collocated Tier-1 transits.
    pub fn follow_up(base_seed: u64) -> Self {
        Self {
            origins: OriginId::FOLLOW_UP.to_vec(),
            protocols: vec![Protocol::Http],
            trials: 2,
            probes: 2,
            base_seed,
            ..Self::default()
        }
    }
}

/// Supervise one scan to completion: run it under `catch_unwind`, retry
/// interrupted attempts up to `policy.max_retries` times with capped
/// exponential backoff in simulated time, and resume from the engine's
/// periodic checkpoints where available.
///
/// Invariants this function maintains (asserted by the integration
/// suite):
///
/// * A successful resumed run is bit-identical to an uninterrupted run —
///   checkpoints capture exact permutation/pacer/stall state, and
///   backoff never shifts probe timestamps.
/// * A panic in the scan (or the network model under it) is contained:
///   the caller always gets an [`OriginRun`], never an unwind.
///
/// When `telemetry` is set, the supervisor records its own lifecycle —
/// [`EventKind::AttemptFailed`], [`EventKind::RetryBackoff`],
/// [`EventKind::OriginFailed`] — plus attempt/retry counters, and
/// forwards the hub into the engine so scan-level events land in the
/// same stream. Supervisor events are stamped with the failed attempt's
/// simulated death time where the engine reports one (injected kills);
/// otherwise with the accumulated backoff clock (panics unwind past the
/// pacer, so no scan clock survives them).
pub fn supervise_scan(
    net: &dyn Network,
    cfg: &ScanConfig,
    hook: Option<&dyn FaultHook>,
    policy: &SupervisorPolicy,
    telemetry: Option<&Telemetry>,
) -> OriginRun {
    // The supervisor's own view of the hub: lifecycle events, attempt
    // and retry counters, and a trace — a "supervise" root with one
    // "attempt" span per try and a "backoff" span per retry wait, all on
    // the accumulated-backoff clock (scan-internal time lives in the
    // engine's own trace, recorded separately under the same scope).
    let tele = ScopedTelemetry::new(
        telemetry,
        Scope::new(cfg.protocol.name(), cfg.trial, cfg.origin),
    );
    let _supervise_span = tele.span("supervise");
    let store = CheckpointStore::new(policy.checkpoint_every);
    let mut attempts: u32 = 0;
    let mut sim_backoff_s = 0.0f64;
    loop {
        let attempt_start_s = sim_backoff_s;
        // The store still holds whatever the previous attempt last
        // saved, so the engine resumes from there.
        let session = ScanSession {
            hook,
            store: Some(&store),
            attempt: attempts,
            telemetry,
        };
        let result = catch_unwind(AssertUnwindSafe(|| run_scan_session(net, cfg, session)));
        attempts += 1;
        tele.add(names::SUP_ATTEMPTS, 1);
        let (cause, cause_str, fail_time_s) = match result {
            Ok(Ok(output)) => {
                let end_s = attempt_start_s + output.summary.duration_s;
                tele.record_span("attempt", attempt_start_s, end_s);
                return finish_run(&tele, end_s, attempts, sim_backoff_s, Ok(output));
            }
            // Validation failures are permanent: retrying cannot help.
            Ok(Err(ScanError::Config(_))) => {
                let cause = "invalid-config";
                let attempt = attempts - 1;
                tele.emit(sim_backoff_s, EventKind::AttemptFailed { attempt, cause });
                tele.emit(sim_backoff_s, EventKind::OriginFailed { cause });
                tele.record_span("attempt", attempt_start_s, attempt_start_s);
                let failed = Err(FailCause::InvalidConfig);
                return finish_run(&tele, attempt_start_s, attempts, sim_backoff_s, failed);
            }
            Ok(Err(ScanError::Killed { time_s, .. })) => (FailCause::Killed, "killed", time_s),
            Ok(Err(_)) => (FailCause::Killed, "killed", sim_backoff_s),
            Err(_) => (FailCause::Panicked, "panicked", sim_backoff_s),
        };
        tele.emit(
            fail_time_s,
            EventKind::AttemptFailed {
                attempt: attempts - 1,
                cause: cause_str,
            },
        );
        // Kills carry a scan-clock death time; panics do not. Clamp to
        // the attempt's start on the backoff clock either way.
        let attempt_end_s = attempt_start_s.max(fail_time_s);
        tele.record_span("attempt", attempt_start_s, attempt_end_s);
        if attempts > policy.max_retries {
            tele.emit(fail_time_s, EventKind::OriginFailed { cause: cause_str });
            return finish_run(&tele, attempt_end_s, attempts, sim_backoff_s, Err(cause));
        }
        // Capped exponential backoff, in simulated time only.
        let exp = (attempts - 1).min(30) as i32;
        let step = (BACKOFF_BASE_S * 2f64.powi(exp)).min(policy.backoff_cap_s);
        sim_backoff_s += step;
        tele.record_span("backoff", sim_backoff_s - step, sim_backoff_s);
        tele.set_time(sim_backoff_s);
        tele.add(names::SUP_RETRIES, 1);
        tele.emit(
            sim_backoff_s,
            EventKind::RetryBackoff {
                attempt: attempts,
                backoff_s: step,
            },
        );
    }
}

/// The one way out of [`supervise_scan`]: publish the backoff gauge,
/// close the supervisor's trace at `end_s`, and package the outcome.
fn finish_run(
    tele: &ScopedTelemetry<'_>,
    end_s: f64,
    attempts: u32,
    sim_backoff_s: f64,
    outcome: Result<ScanOutput, FailCause>,
) -> OriginRun {
    if sim_backoff_s > 0.0 {
        tele.set_gauge(names::SUP_BACKOFF_SECONDS, sim_backoff_s);
    }
    tele.finish(end_s);
    let status = match &outcome {
        Ok(_) if attempts > 1 => RunStatus::Resumed {
            retries: attempts - 1,
        },
        Ok(_) => RunStatus::Completed,
        Err(cause) => RunStatus::Failed { cause: *cause },
    };
    OriginRun {
        status,
        attempts,
        output: outcome.ok(),
    }
}

/// An experiment bound to a world.
#[derive(Debug, Clone)]
pub struct Experiment<'w> {
    world: &'w World,
    cfg: ExperimentConfig,
}

impl<'w> Experiment<'w> {
    /// Bind `cfg` to a world.
    pub fn new(world: &'w World, cfg: ExperimentConfig) -> Experiment<'w> {
        Experiment { world, cfg }
    }

    /// Run every (protocol, trial, origin) scan under supervision and
    /// condense the results. Origins that fail terminally are excluded
    /// from ground truth and carried as [`RunStatus::Failed`]; only an
    /// empty configuration or a trial with *no* surviving origin is an
    /// error.
    ///
    /// The whole experiment records into one [`Telemetry`] hub — engine
    /// lifecycle, supervisor retries, injected faults — whose snapshot is
    /// embedded in the returned [`ExperimentResults`]. Telemetry is keyed
    /// to simulated time and canonically ordered, so two runs of the same
    /// configuration carry byte-identical telemetry.
    pub fn run(&self) -> Result<ExperimentResults<'w>, ExperimentError> {
        self.run_on(originscan_scanner::cores())
    }

    /// [`Experiment::run`] on `workers` threads; nothing it returns
    /// depends on how many.
    pub(crate) fn run_on(&self, workers: usize) -> Result<ExperimentResults<'w>, ExperimentError> {
        let cfg = &self.cfg;
        if cfg.origins.is_empty() || cfg.protocols.is_empty() || cfg.trials == 0 {
            return Err(ExperimentError::EmptyConfig);
        }
        let hub = Telemetry::new();
        // One net for every trial: its path table is keyed by the trial.
        let sim = SimNet::new(self.world, &cfg.origins, cfg.duration_s);
        let plan = cfg.faults.as_ref().filter(|p| !p.is_empty());
        let faulty = plan.map(|p| FaultyNet::new(&sim, p, cfg.duration_s).with_telemetry(&hub));
        let net: &dyn Network = match &faulty {
            Some(f) => f,
            None => &sim,
        };
        let plan_hook = plan.map(|p| p.hook(cfg.duration_s));
        let hook = plan_hook.as_ref().map(|h| h as &dyn FaultHook);
        // Each (protocol, trial) with its finished origins' runs.
        let n = cfg.origins.len();
        let trials: Vec<_> = cfg
            .protocols
            .iter()
            .flat_map(|&p| (0..cfg.trials).map(move |t| ((p, t), Mutex::new(vec![None; n]))))
            .collect();
        // Trial-major: a trial's origins are consecutive jobs, and the one
        // to finish last condenses the trial and drops its records.
        let queue: Vec<_> = trials
            .iter()
            .flat_map(|t| (0..n).map(move |i| (t, i)))
            .collect();
        let condensed = jobs::run(&queue, workers, |&(t, i)| {
            let &((protocol, trial), ref finished) = t;
            let scan = self.scan_config(protocol, trial, i);
            let mut run = supervise_scan(net, &scan, hook, &cfg.policy, Some(&hub));
            // Network-level faults degrade results without killing the
            // process; classify them from the plan.
            let fault = plan.and_then(|p| p.degradation(scan.origin, trial));
            if let (Some(out), Some(fault)) = (&run.output, fault) {
                let kind = match fault {
                    InjectedFault::Outage => "outage",
                    InjectedFault::ReplyTamper => "reply-tamper",
                };
                let scope = Scope::new(protocol.name(), trial, scan.origin);
                let event = EventKind::OriginDegraded { fault: kind };
                hub.emit(scope, out.summary.duration_s, event);
                // A run with output took one attempt, or resumed after the rest.
                let retries = run.attempts - 1;
                run.status = RunStatus::Degraded { fault, retries };
            }
            let mut slots = finished.lock().unwrap_or_else(PoisonError::into_inner);
            slots[i] = Some(run);
            if slots.iter().any(Option::is_none) {
                return None;
            }
            let runs: Vec<OriginRun> = std::mem::take(&mut *slots).into_iter().flatten().collect();
            drop(slots);
            if runs.iter().all(|r| r.output.is_none()) {
                return Some(Err(ExperimentError::AllOriginsFailed { protocol, trial }));
            }
            let (world, origins, duration_s) = (self.world, &cfg.origins, cfg.duration_s);
            Some(Ok(TrialMatrix::build_supervised(
                world, protocol, trial, origins, &runs, duration_s,
            )))
        });
        // In job order, so the first dead trial is the error.
        let matrices = condensed.into_iter().flatten().collect::<Result<_, _>>()?;
        Ok(ExperimentResults::new(
            self.world,
            cfg.clone(),
            matrices,
            hub.into_snapshot(),
        ))
    }

    /// The scan origin number `origin` runs in one (protocol, trial).
    fn scan_config(&self, proto: Protocol, trial: u8, origin: usize) -> ScanConfig {
        let cfg = &self.cfg;
        let space = self.world.space();
        let mut c = ScanConfig::new(space, proto, cfg.base_seed + u64::from(trial));
        c.origin = origin as u16;
        c.trial = trial;
        c.probes = cfg.probes;
        c.rate_pps = rate_for_duration(space * u64::from(cfg.probes), cfg.duration_s);
        c.l7_retries = cfg.l7_retries;
        c.probe_delay_s = cfg.probe_delay_s;
        c.concurrent_origins = cfg.origins.len() as u8;
        // US₆₄: a contiguous block of source addresses.
        c.source_ips = (0..cfg.origins[origin].spec().source_ips)
            .map(|i| 0x0a00_0100u32 + u32::from(i))
            .collect();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_netmodel::WorldConfig;
    use originscan_scanner::target::{L7Ctx, L7Reply, ProbeCtx, SynReply};
    use originscan_wire::tcp::TcpHeader;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn default_config_matches_paper() {
        let c = ExperimentConfig::default();
        assert_eq!(c.origins.len(), 7);
        assert_eq!(c.protocols.len(), 3);
        assert_eq!(c.trials, 3);
        assert_eq!(c.probes, 2);
        assert_eq!(c.duration_s, 75_600.0);
        assert!(c.faults.is_none());
        assert_eq!(c.policy.max_retries, 2);
    }

    #[test]
    fn small_experiment_runs_clean() {
        let world = WorldConfig::tiny(1).build();
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Japan],
            protocols: vec![Protocol::Http],
            trials: 2,
            ..Default::default()
        };
        let r = Experiment::new(&world, cfg).run().unwrap();
        assert!(r.matrices().iter().all(|m| m.all_clean()));
        // Ground truth is non-trivial.
        assert!(r.matrices()[0].addrs.len() > 50);
    }

    #[test]
    fn followup_config() {
        let c = ExperimentConfig::follow_up(9);
        assert_eq!(c.origins.len(), 8);
        assert_eq!(c.protocols, vec![Protocol::Http]);
        assert_eq!(c.trials, 2);
    }

    #[test]
    fn empty_config_is_a_typed_error() {
        let world = WorldConfig::tiny(1).build();
        let cfg = ExperimentConfig {
            origins: vec![],
            ..Default::default()
        };
        assert_eq!(
            Experiment::new(&world, cfg).run().unwrap_err(),
            ExperimentError::EmptyConfig
        );
        let cfg = ExperimentConfig {
            trials: 0,
            ..Default::default()
        };
        assert_eq!(
            Experiment::new(&world, cfg).run().unwrap_err(),
            ExperimentError::EmptyConfig
        );
    }

    /// A network that panics the first time a chosen address is probed.
    struct PanicOnce<N> {
        inner: N,
        addr: u32,
        armed: AtomicBool,
    }

    impl<N: Network> Network for PanicOnce<N> {
        fn syn(&self, ctx: &ProbeCtx, probe: &TcpHeader) -> SynReply {
            if ctx.dst == self.addr && self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected panic at {:#x}", self.addr);
            }
            self.inner.syn(ctx, probe)
        }
        fn l7(&self, ctx: &L7Ctx, req: &[u8]) -> L7Reply {
            self.inner.l7(ctx, req)
        }
    }

    /// [`supervise_scan`] with a hub: the run, and the simulated seconds
    /// it spent in retry backoff (its `SUP_BACKOFF_SECONDS` gauge, unset
    /// when no retry waited).
    fn supervised(
        net: &dyn Network,
        cfg: &ScanConfig,
        policy: &SupervisorPolicy,
    ) -> (OriginRun, f64) {
        let hub = Telemetry::new();
        let run = supervise_scan(net, cfg, None, policy, Some(&hub));
        let scope = Scope::new(cfg.protocol.name(), cfg.trial, cfg.origin);
        let backoff_s = hub.into_snapshot().gauge(scope, names::SUP_BACKOFF_SECONDS);
        (run, backoff_s.unwrap_or(0.0))
    }

    #[test]
    fn supervisor_contains_panics_and_resumes() {
        let world = WorldConfig::tiny(5).build();
        let origins = [OriginId::Us1];
        let net = SimNet::new(&world, &origins, TRIAL_DURATION_S);
        let mut cfg = ScanConfig::new(world.space(), Protocol::Http, 77);
        cfg.rate_pps = originscan_scanner::rate_for_duration(world.space() * 2, TRIAL_DURATION_S);
        let (clean, backoff_s) = supervised(&net, &cfg, &SupervisorPolicy::default());
        assert_eq!(clean.status, RunStatus::Completed);
        assert_eq!(clean.attempts, 1);
        assert_eq!(backoff_s, 0.0);

        // Panic mid-scan on some address the clean run saw late-ish.
        let victim = clean.output.as_ref().unwrap().records
            [clean.output.as_ref().unwrap().records.len() / 2]
            .addr;
        let panicky = PanicOnce {
            inner: net,
            addr: victim,
            armed: AtomicBool::new(true),
        };
        let (run, backoff_s) = supervised(&panicky, &cfg, &SupervisorPolicy::default());
        assert_eq!(run.status, RunStatus::Resumed { retries: 1 });
        assert_eq!(run.attempts, 2);
        assert!(backoff_s > 0.0, "a retry must cost simulated backoff");
        // Graceful degradation is *not* lossy here: resumed == clean.
        assert_eq!(run.output, clean.output);
    }

    /// A network that always panics.
    struct AlwaysPanics;
    impl Network for AlwaysPanics {
        fn syn(&self, _: &ProbeCtx, _: &TcpHeader) -> SynReply {
            panic!("wired to fail");
        }
        fn l7(&self, _: &L7Ctx, _: &[u8]) -> L7Reply {
            panic!("wired to fail");
        }
    }

    #[test]
    fn supervisor_gives_up_after_bounded_retries() {
        let cfg = ScanConfig::new(64, Protocol::Http, 1);
        let policy = SupervisorPolicy {
            max_retries: 3,
            ..Default::default()
        };
        let (run, backoff_s) = supervised(&AlwaysPanics, &cfg, &policy);
        assert_eq!(
            run.status,
            RunStatus::Failed {
                cause: FailCause::Panicked
            }
        );
        assert_eq!(run.attempts, 4, "1 initial + 3 retries");
        assert!(run.output.is_none());
        // Backoff: 60 + 120 + 240, all under the 900 s cap.
        assert!((backoff_s - 420.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_is_capped() {
        let cfg = ScanConfig::new(64, Protocol::Http, 1);
        let policy = SupervisorPolicy {
            max_retries: 8,
            ..Default::default()
        };
        let (_, backoff_s) = supervised(&AlwaysPanics, &cfg, &policy);
        // 60+120+240+480+900+900+900+900 = 4500.
        assert!((backoff_s - 4500.0).abs() < 1e-9);
    }

    #[test]
    fn every_backoff_step_respects_the_simulated_time_cap() {
        // Deep retry ladders: attempts past the 2^30 exponent clamp must
        // still produce finite, capped steps — checked on the actual
        // RetryBackoff events, not just the accumulated total.
        let cfg = ScanConfig::new(64, Protocol::Http, 1);
        let policy = SupervisorPolicy {
            max_retries: 40,
            ..Default::default()
        };
        let hub = Telemetry::new();
        let run = supervise_scan(&AlwaysPanics, &cfg, None, &policy, Some(&hub));
        assert_eq!(run.attempts, 41);
        let snap = hub.into_snapshot();
        let scope = Scope::new("HTTP", 0, 0);
        let mut steps = 0u32;
        for e in snap.events_for(scope) {
            if let EventKind::RetryBackoff { backoff_s, .. } = e.kind {
                steps += 1;
                assert!(backoff_s.is_finite());
                assert!(
                    backoff_s > 0.0 && backoff_s <= policy.backoff_cap_s,
                    "step {steps} overflowed the cap: {backoff_s}"
                );
            }
        }
        assert_eq!(steps, 40, "one RetryBackoff event per retry");
        // 60 + 120 + 240 + 480 uncapped, then 36 × 900 at the cap.
        let backoff_s = snap.gauge(scope, names::SUP_BACKOFF_SECONDS).unwrap();
        assert!((backoff_s - (900.0 + 36.0 * 900.0)).abs() < 1e-9);

        // A cap below the base clamps every step to the cap.
        let policy = SupervisorPolicy {
            max_retries: 3,
            backoff_cap_s: 10.0,
            ..Default::default()
        };
        let (_, backoff_s) = supervised(&AlwaysPanics, &cfg, &policy);
        assert!((backoff_s - 30.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_config_fails_without_retries() {
        let mut no_probes = ScanConfig::new(64, Protocol::Http, 1);
        no_probes.probes = 0;
        let mut nan_delay = ScanConfig::new(64, Protocol::Http, 1);
        nan_delay.probe_delay_s = f64::NAN;
        for cfg in [no_probes, nan_delay] {
            let run = supervise_scan(
                &AlwaysPanics,
                &cfg,
                None,
                &SupervisorPolicy::default(),
                None,
            );
            assert_eq!(
                run.status,
                RunStatus::Failed {
                    cause: FailCause::InvalidConfig
                }
            );
            assert_eq!(run.attempts, 1, "validation errors are not retried");
        }
    }

    #[test]
    fn faulted_experiment_degrades_gracefully() {
        let world = WorldConfig::tiny(3).build();
        // Origin 1 (Japan) suffers an outage with recovery plus a crash;
        // origin 0 (US1) is untouched.
        let plan = FaultPlan::new(11)
            .outage(1, 0, 0.3, 0.6)
            .crash(1, 0, 0.35, 1);
        let base = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Japan],
            protocols: vec![Protocol::Http],
            trials: 1,
            ..Default::default()
        };
        let clean = Experiment::new(&world, base.clone()).run().unwrap();
        let faulted = Experiment::new(
            &world,
            ExperimentConfig {
                faults: Some(plan),
                ..base
            },
        )
        .run()
        .unwrap();
        let m = &faulted.matrices()[0];
        assert!(m.statuses[0].is_clean(), "US1 untouched: {}", m.statuses[0]);
        assert!(
            matches!(
                m.statuses[1],
                RunStatus::Degraded {
                    fault: InjectedFault::Outage,
                    retries: 1
                }
            ),
            "Japan crashed once and lost its outage window: {}",
            m.statuses[1]
        );
        // Japan's results are partial but present; the trial survived.
        assert!(m.seen_count(1) > 0);
        assert!(m.seen_count(1) < m.seen_count(0));
        // US1's view is identical to the fault-free experiment's.
        let mc = &clean.matrices()[0];
        let clean_us1: Vec<_> = mc.iter_origin(0).collect();
        let faulted_us1: Vec<_> = m
            .iter_origin(0)
            .filter(|(_, addr, _)| mc.index_of(*addr).is_some())
            .collect();
        // (Restricted to shared GT addrs: Japan's losses shrink GT.)
        assert_eq!(
            faulted_us1
                .iter()
                .map(|(_, a, o)| (*a, *o))
                .collect::<Vec<_>>(),
            clean_us1
                .iter()
                .filter(|(_, a, _)| m.index_of(*a).is_some())
                .map(|(_, a, o)| (*a, *o))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unrecoverable_origin_reported_failed_but_trial_survives() {
        let world = WorldConfig::tiny(3).build();
        // Origin 1 crashes on every attempt the policy allows.
        let plan = FaultPlan::new(2).crash(1, 0, 0.2, u32::MAX);
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Japan],
            protocols: vec![Protocol::Http],
            trials: 1,
            faults: Some(plan),
            ..Default::default()
        };
        let results = Experiment::new(&world, cfg).run().unwrap();
        let m = &results.matrices()[0];
        assert_eq!(
            m.statuses[1],
            RunStatus::Failed {
                cause: FailCause::Killed
            }
        );
        assert_eq!(m.seen_count(1), 0, "failed origins are all-missed");
        assert!(m.statuses[0].is_clean());
        assert!(
            !m.is_empty(),
            "ground truth comes from the surviving origin"
        );
    }

    #[test]
    fn all_origins_failing_is_a_typed_error() {
        let world = WorldConfig::tiny(3).build();
        let plan = FaultPlan::new(2).crash(0, 0, 0.0, u32::MAX);
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1],
            protocols: vec![Protocol::Http],
            trials: 1,
            faults: Some(plan),
            ..Default::default()
        };
        assert_eq!(
            Experiment::new(&world, cfg).run().unwrap_err(),
            ExperimentError::AllOriginsFailed {
                protocol: Protocol::Http,
                trial: 0
            }
        );
    }

    #[test]
    fn the_first_dead_trial_is_the_error_at_any_worker_count() {
        let world = WorldConfig::tiny(3).build();
        // The only origin dies in trials 1 and 2: late in 1, at once in 2,
        // so with company trial 2 is usually condensed first.
        let plan = FaultPlan::new(2)
            .crash(0, 1, 0.9, u32::MAX)
            .crash(0, 2, 0.0, u32::MAX);
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1],
            protocols: vec![Protocol::Http],
            trials: 3,
            faults: Some(plan),
            ..Default::default()
        };
        let experiment = Experiment::new(&world, cfg);
        for workers in [1, 2, 3, 4] {
            assert_eq!(
                experiment.run_on(workers).unwrap_err(),
                ExperimentError::AllOriginsFailed {
                    protocol: Protocol::Http,
                    trial: 1
                },
                "{workers} workers"
            );
        }
    }

    #[test]
    fn the_worker_count_changes_no_byte() {
        let world = WorldConfig::tiny(29).build();
        // An outage, a crash and resume, a stall and tampered replies,
        // over two protocols and two trials: twelve jobs.
        let plan = FaultPlan::new(11)
            .outage(1, 0, 0.4, 0.6)
            .crash(2, 0, 0.5, 1)
            .stall(0, 1, 0.3, 45.0)
            .corrupt_replies(1, 0, 0.02)
            .duplicate_replies(1, 0, 0.02);
        let cfg = ExperimentConfig {
            origins: vec![OriginId::Us1, OriginId::Germany, OriginId::Japan],
            protocols: vec![Protocol::Http, Protocol::Ssh],
            trials: 2,
            faults: Some(plan),
            ..Default::default()
        };
        let experiment = Experiment::new(&world, cfg);
        let bytes = |workers| {
            let r = experiment.run_on(workers).unwrap();
            (format!("{:?}", r.matrices()), r.telemetry().to_jsonl())
        };
        let inline = bytes(1);
        for kind in ["Degraded", "Resumed"] {
            assert!(inline.0.contains(kind), "no {kind} run");
        }
        assert!(inline.1.contains("stall"), "no stall");
        assert!(bytes(4) == inline, "4 workers differ from 1");
    }

    #[test]
    fn run_status_renders() {
        assert_eq!(RunStatus::Completed.to_string(), "completed");
        assert_eq!(
            RunStatus::Resumed { retries: 2 }.to_string(),
            "resumed after 2 interruptions"
        );
        assert!(RunStatus::Degraded {
            fault: InjectedFault::Outage,
            retries: 0
        }
        .to_string()
        .contains("vantage outage"));
        assert!(RunStatus::Failed {
            cause: FailCause::Panicked
        }
        .to_string()
        .contains("FAILED"));
    }
}
