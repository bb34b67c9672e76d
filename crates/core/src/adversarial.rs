//! Adversarial co-simulation: scanner politeness × defender aggression.
//!
//! §4–§6 of the paper catalogue *static* blocking — filters that exist
//! before the scan starts and do not react to it. This module closes the
//! loop in the other direction: it crosses scanners of varying politeness
//! (send rate, source-IP pool, adaptive resilience via
//! [`AdaptivePolicy`]) against defender swarms of varying aggression
//! ([`AggressionProfile`]) and measures how much coverage each pairing
//! retains. The interesting question is *graceful degradation*: when the
//! defenders fight back, does an adaptive scanner (rate backoff, source
//! rotation, prefix deferral) keep more of the network visible than an
//! open-loop one?
//!
//! Every cell of the sweep is an independent counterfactual universe: the
//! same [`World`], the same per-trial permutation seed, its own
//! [`DefenderNet`] whose detector and reputation state persists across
//! that cell's trials. Coverage is normalised per politeness profile
//! against an *undefended* reference run of the same scanner, so a cell
//! reads "fraction of what this scanner would have seen if nobody had
//! pushed back".
//!
//! Determinism: cells are jobs of one queue over the cores, in whatever
//! order the workers take them, but share one [`Telemetry`] hub keyed by
//! a per-cell origin index, and the hub's exports are
//! canonically ordered — two same-seed sweeps produce byte-identical
//! matrices and byte-identical telemetry JSONL (asserted by the
//! integration suite).

// The sweep runs inside supervised sessions: typed errors, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::jobs;
use crate::report::Table;
use originscan_netmodel::{AggressionProfile, DefenderNet, DefenseStats};
use originscan_netmodel::{OriginId, Protocol, SimNet, World};
use originscan_scanner::engine::{run_scan_session, ScanConfig, ScanSession};
use originscan_scanner::rate_for_duration;
use originscan_scanner::AdaptivePolicy;
use originscan_scanner::ScanError;
use originscan_telemetry::metrics::names;
use originscan_telemetry::{Scope, Telemetry, TelemetrySnapshot};
use std::fmt;

/// How the simulated campaign's trials are spaced on the defenders'
/// global clock, as a multiple of the per-trial scan duration. Slack
/// beyond 1.0 keeps the clock monotone even when backoff stretches a
/// trial past its nominal duration, and models the gap between scan days
/// that real blocklist entries have to survive.
pub const TRIAL_SPAN_MULT: f64 = 8.0;

/// One scanner posture: how fast it sends, how many source addresses it
/// owns, and whether it adapts when the network pushes back.
#[derive(Debug, Clone, PartialEq)]
pub struct PolitenessProfile {
    /// Profile name used in matrices and reports.
    pub(crate) name: &'static str,
    /// Multiplier on the rate that would finish the scan exactly in the
    /// configured trial duration.
    pub(crate) rate_mult: f64,
    /// Source-IP pool size (adaptive scanners rotate through it).
    pub source_ips: u16,
    /// Adaptive resilience controller (`None`: open-loop, paper style).
    pub adapt: Option<AdaptivePolicy>,
}

impl PolitenessProfile {
    /// Fast and oblivious: 4× the polite rate, one source, no feedback.
    pub(crate) fn aggressive() -> Self {
        Self {
            name: "aggressive",
            rate_mult: 4.0,
            source_ips: 1,
            adapt: None,
        }
    }

    /// The paper's scanner: paced to the trial duration, one source IP,
    /// open loop.
    pub fn baseline() -> Self {
        Self {
            name: "baseline",
            rate_mult: 1.0,
            source_ips: 1,
            adapt: None,
        }
    }

    /// Same pace as the baseline, but closes the loop: observes blocking
    /// signals and reacts with backoff, rotation, and deferral.
    pub fn adaptive() -> Self {
        Self {
            name: "adaptive",
            rate_mult: 1.0,
            source_ips: 8,
            adapt: Some(AdaptivePolicy {
                backoff_factor: 0.25,
                recovery_windows: 16,
                ..AdaptivePolicy::default()
            }),
        }
    }

    /// Slow and careful: half rate, a small pool, a hair-trigger
    /// controller that backs off hard and recovers reluctantly.
    pub(crate) fn stealth() -> Self {
        Self {
            name: "stealth",
            rate_mult: 0.5,
            source_ips: 4,
            adapt: Some(AdaptivePolicy {
                rst_signal_frac: 0.2,
                backoff_factor: 0.25,
                recovery_windows: 32,
                ..AdaptivePolicy::default()
            }),
        }
    }

    /// The sweep roster, rudest first.
    pub(crate) fn roster() -> Vec<Self> {
        vec![
            Self::aggressive(),
            Self::baseline(),
            Self::adaptive(),
            Self::stealth(),
        ]
    }
}

/// Configuration of one politeness × aggression sweep.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Protocol scanned in every cell.
    pub protocol: Protocol,
    /// Trials per cell; defender state persists across a cell's trials.
    pub trials: u8,
    /// Back-to-back SYN probes per address.
    pub probes: u8,
    /// Nominal per-trial scan duration in simulated seconds (the
    /// `rate_mult = 1` pace).
    pub duration_s: f64,
    /// Base permutation seed; trial `t` scans with `base_seed + t`,
    /// shared across cells so every cell walks the same address order.
    pub base_seed: u64,
    /// Scanner postures (matrix rows).
    pub politeness: Vec<PolitenessProfile>,
    /// Defender postures (matrix columns).
    pub aggression: Vec<AggressionProfile>,
}

impl Default for AdversarialConfig {
    fn default() -> Self {
        Self {
            protocol: Protocol::Http,
            trials: 2,
            probes: 2,
            duration_s: crate::experiment::TRIAL_DURATION_S,
            base_seed: 0xD15C0,
            politeness: PolitenessProfile::roster(),
            aggression: AggressionProfile::roster().to_vec(),
        }
    }
}

/// Why a sweep could not run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversarialError {
    /// No politeness profiles, no aggression profiles, or zero trials.
    EmptyConfig,
    /// A cell's scan failed (only configuration errors are possible here:
    /// the sweep injects no faults).
    Scan {
        /// The failing cell's politeness row.
        politeness: &'static str,
        /// The failing cell's aggression column.
        aggression: &'static str,
        /// The failing trial.
        trial: u8,
        /// The underlying engine error.
        error: ScanError,
    },
}

impl fmt::Display for AdversarialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversarialError::EmptyConfig => write!(
                f,
                "adversarial sweep needs at least one politeness profile, one aggression profile, and one trial"
            ),
            AdversarialError::Scan {
                politeness,
                aggression,
                trial,
                error,
            } => write!(
                f,
                "cell ({politeness} × {aggression}) trial {trial} failed: {error}"
            ),
        }
    }
}

impl std::error::Error for AdversarialError {}

/// How hard the defenders ended up hitting one cell's scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The defenders never tripped a detector.
    Unchallenged,
    /// Detections (and blocks) happened; the scanner did not react.
    Detected,
    /// The scanner saw the blocking and backed off / rotated.
    Throttled,
    /// The reputation store listed the scanner's origin outright.
    Listed,
}

impl fmt::Display for CellStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellStatus::Unchallenged => "clear",
            CellStatus::Detected => "detected",
            CellStatus::Throttled => "throttled",
            CellStatus::Listed => "listed",
        };
        write!(f, "{s}")
    }
}

/// One sweep cell's condensed outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Politeness row name.
    pub politeness: &'static str,
    /// Aggression column name.
    pub aggression: &'static str,
    /// Per-trial coverage relative to the same scanner undefended.
    pub(crate) coverage: Vec<f64>,
    /// Per-trial L7-success host counts.
    pub(crate) l7_successes: Vec<u64>,
    /// Defender-side counters accumulated over the cell's trials.
    pub defense: DefenseStats,
    /// Did the reputation store list this cell's origin?
    pub(crate) listed: bool,
    /// Scanner backoff transitions (adaptive cells only).
    pub backoffs: u64,
    /// Scanner backoff releases.
    pub(crate) recoveries: u64,
    /// Scanner source rotations.
    pub rotations: u64,
    /// Addresses parked for the tail pass.
    pub deferred: u64,
    /// The cell's summary verdict.
    pub status: CellStatus,
}

impl CellOutcome {
    /// Mean coverage over the cell's trials.
    pub fn mean_coverage(&self) -> f64 {
        if self.coverage.is_empty() {
            return 0.0;
        }
        self.coverage.iter().sum::<f64>() / self.coverage.len() as f64
    }
}

/// Results of one sweep: the cell matrix plus the shared telemetry
/// snapshot (detection/block/backoff timelines live there).
#[derive(Debug, Clone)]
pub struct AdversarialResults {
    cfg: AdversarialConfig,
    /// Row-major: `cells[pi * aggression.len() + ai]`.
    cells: Vec<CellOutcome>,
    telemetry: TelemetrySnapshot,
}

impl AdversarialResults {
    /// All cells, row-major over (politeness, aggression).
    pub fn cells(&self) -> &[CellOutcome] {
        &self.cells
    }

    /// The cell at politeness row `pi`, aggression column `ai`.
    ///
    /// # Panics
    /// When `pi` or `ai` is outside the configured matrix.
    #[expect(
        clippy::indexing_slicing,
        reason = "row-major (politeness, aggression) matrix; outside it is a caller bug"
    )]
    pub fn cell(&self, pi: usize, ai: usize) -> &CellOutcome {
        &self.cells[pi * self.cfg.aggression.len() + ai]
    }

    /// The sweep's telemetry snapshot: per-cell scan timelines with the
    /// detection → block → backoff → recovery event sequence.
    pub fn telemetry(&self) -> &TelemetrySnapshot {
        &self.telemetry
    }

    /// The coverage matrix as TSV, 6 decimals, byte-deterministic.
    pub fn matrix_tsv(&self) -> String {
        let mut out = String::from("politeness");
        for a in &self.cfg.aggression {
            out.push('\t');
            out.push_str(a.name);
        }
        out.push('\n');
        for (pi, p) in self.cfg.politeness.iter().enumerate() {
            out.push_str(p.name);
            for ai in 0..self.cfg.aggression.len() {
                out.push_str(&format!("\t{:.6}", self.cell(pi, ai).mean_coverage()));
            }
            out.push('\n');
        }
        out
    }

    /// Render the sweep as a human-readable table: coverage plus the
    /// cell's verdict.
    pub fn render(&self) -> String {
        let mut headers = vec!["politeness".to_string()];
        headers.extend(self.cfg.aggression.iter().map(|a| a.name.to_string()));
        let mut t = Table::new(headers);
        for (pi, p) in self.cfg.politeness.iter().enumerate() {
            let mut row = vec![p.name.to_string()];
            for ai in 0..self.cfg.aggression.len() {
                let c = self.cell(pi, ai);
                row.push(format!("{:5.1}% {}", c.mean_coverage() * 100.0, c.status));
            }
            t.row(row);
        }
        t.render()
    }
}

/// The sweep runner, bound to a world.
#[derive(Debug, Clone)]
pub struct AdversarialSweep<'w> {
    world: &'w World,
    cfg: AdversarialConfig,
}

/// What one cell job produces before condensation.
struct CellRun {
    l7: Vec<u64>,
    defense: DefenseStats,
    listed: bool,
}

impl<'w> AdversarialSweep<'w> {
    /// Bind `cfg` to a world.
    pub fn new(world: &'w World, cfg: AdversarialConfig) -> Self {
        Self { world, cfg }
    }

    /// The scan configuration for one cell's trial.
    fn scan_config(&self, origin: u16, trial: u8, p: &PolitenessProfile) -> ScanConfig {
        let cfg = &self.cfg;
        let space = self.world.space();
        let mut c = ScanConfig::new(space, cfg.protocol, cfg.base_seed + u64::from(trial));
        c.origin = origin;
        c.trial = trial;
        c.probes = cfg.probes;
        c.rate_pps = rate_for_duration(space * u64::from(cfg.probes), cfg.duration_s) * p.rate_mult;
        c.adapt = p.adapt.clone();
        c.concurrent_origins = 1;
        c.source_ips = (0..p.source_ips.max(1))
            .map(|i| 0x0a00_0100u32 + u32::from(i))
            .collect();
        c
    }

    /// Run one cell: a fresh defender swarm, trials back to back on its
    /// global clock.
    fn run_cell(
        &self,
        net: &SimNet<'_>,
        hub: &Telemetry,
        origin: u16,
        p: &PolitenessProfile,
        a: AggressionProfile,
    ) -> Result<CellRun, AdversarialError> {
        let span_s = self.cfg.duration_s * TRIAL_SPAN_MULT;
        let defender = DefenderNet::new(net, self.world, a, span_s).with_telemetry(hub);
        let mut l7 = Vec::with_capacity(usize::from(self.cfg.trials));
        for t in 0..self.cfg.trials {
            let sc = self.scan_config(origin, t, p);
            let session = ScanSession {
                telemetry: Some(hub),
                ..ScanSession::default()
            };
            let out = run_scan_session(&defender, &sc, session).map_err(|error| {
                AdversarialError::Scan {
                    politeness: p.name,
                    aggression: a.name,
                    trial: t,
                    error,
                }
            })?;
            defender.flush_trial_metrics(Scope::new(self.cfg.protocol.name(), t, origin));
            l7.push(out.records.iter().filter(|r| r.l7_success()).count() as u64);
        }
        Ok(CellRun {
            l7,
            defense: defender.stats(),
            listed: defender.is_listed(origin),
        })
    }

    /// Run the full sweep. Cells (and each politeness profile's
    /// undefended reference run) are jobs of one queue over the cores,
    /// sharing one telemetry hub; results are condensed in deterministic
    /// row-major order.
    pub fn run(&self) -> Result<AdversarialResults, AdversarialError> {
        self.run_on(originscan_scanner::cores())
    }

    /// [`AdversarialSweep::run`] on `workers` threads; nothing it returns
    /// depends on how many.
    pub(crate) fn run_on(&self, workers: usize) -> Result<AdversarialResults, AdversarialError> {
        let cfg = &self.cfg;
        if cfg.politeness.is_empty() || cfg.aggression.is_empty() || cfg.trials == 0 {
            return Err(AdversarialError::EmptyConfig);
        }
        // One job per cell, row-major, then one undefended reference per
        // politeness row. A job's position is its origin index — all the
        // same vantage, but each with its own telemetry scope.
        let cell_keys = cfg
            .politeness
            .iter()
            .flat_map(|p| cfg.aggression.iter().map(move |&a| (p, a)));
        let reference_keys = cfg.politeness.iter().map(|p| (p, AggressionProfile::off()));
        let queue: Vec<_> = cell_keys
            .chain(reference_keys)
            .enumerate()
            .map(|(idx, (p, a))| (u16::try_from(idx).unwrap_or(u16::MAX), p, a))
            .collect();
        let roster: Vec<OriginId> = vec![OriginId::Us1; queue.len()];
        let net = SimNet::new(self.world, &roster, cfg.duration_s);
        let hub = Telemetry::new();
        let runs = jobs::run(&queue, workers, |&(origin, p, a)| {
            self.run_cell(&net, &hub, origin, p, a)
        });
        let mut runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
        let reference_runs = runs.split_off(cfg.politeness.len() * cfg.aggression.len());
        let reference: Vec<Vec<u64>> = reference_runs.into_iter().map(|run| run.l7).collect();
        let snapshot = hub.into_snapshot();
        // Each cell's run and key, with its politeness row's reference.
        let rows = runs.chunks(cfg.aggression.len()).zip(&reference);
        let cells = rows
            .flat_map(|(row, r)| row.iter().map(move |run| (run, r)))
            .zip(&queue)
            .map(|((run, reference_row), &(origin, p, a))| {
                // An empty reference means there was nothing to lose.
                let ratio = |(&got, &reference): (&u64, &u64)| match reference {
                    0 => 1.0,
                    _ => got as f64 / reference as f64,
                };
                let coverage = run.l7.iter().zip(reference_row).map(ratio).collect();
                let counter_sum = |name: &'static str| -> u64 {
                    (0..cfg.trials)
                        .map(|t| snapshot.counter(Scope::new(cfg.protocol.name(), t, origin), name))
                        .sum()
                };
                let backoffs = counter_sum(names::ADAPT_BACKOFFS);
                let recoveries = counter_sum(names::ADAPT_RECOVERIES);
                let rotations = counter_sum(names::ADAPT_ROTATIONS);
                let deferred = counter_sum(names::ADAPT_DEFERRED_ADDRESSES);
                // Scanner-side reactions only count as "throttled" when a
                // defender actually pushed (a twitchy controller can back
                // off spuriously on natural density dips).
                let status = if run.listed {
                    CellStatus::Listed
                } else if run.defense.detections > 0 && (backoffs > 0 || rotations > 0) {
                    CellStatus::Throttled
                } else if run.defense.detections > 0 {
                    CellStatus::Detected
                } else {
                    CellStatus::Unchallenged
                };
                CellOutcome {
                    politeness: p.name,
                    aggression: a.name,
                    coverage,
                    l7_successes: run.l7.clone(),
                    defense: run.defense,
                    listed: run.listed,
                    backoffs,
                    recoveries,
                    rotations,
                    deferred,
                    status,
                }
            })
            .collect();
        Ok(AdversarialResults {
            cfg: cfg.clone(),
            cells,
            telemetry: snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use originscan_netmodel::WorldConfig;

    fn quick_cfg() -> AdversarialConfig {
        AdversarialConfig {
            trials: 1,
            duration_s: 3_600.0,
            politeness: vec![PolitenessProfile::baseline(), PolitenessProfile::adaptive()],
            aggression: vec![AggressionProfile::off(), AggressionProfile::aggressive()],
            ..AdversarialConfig::default()
        }
    }

    #[test]
    fn empty_config_is_a_typed_error() {
        let world = WorldConfig::tiny(1).build();
        let cfg = AdversarialConfig {
            politeness: vec![],
            ..AdversarialConfig::default()
        };
        assert_eq!(
            AdversarialSweep::new(&world, cfg).run().unwrap_err(),
            AdversarialError::EmptyConfig
        );
        let cfg = AdversarialConfig {
            trials: 0,
            ..AdversarialConfig::default()
        };
        assert_eq!(
            AdversarialSweep::new(&world, cfg).run().unwrap_err(),
            AdversarialError::EmptyConfig
        );
    }

    #[test]
    fn bad_cell_config_is_reported_with_its_coordinates() {
        let world = WorldConfig::tiny(1).build();
        let mut p = PolitenessProfile::baseline();
        p.rate_mult = 0.0; // rate becomes zero: invalid.
        let cfg = AdversarialConfig {
            trials: 1,
            politeness: vec![p],
            aggression: vec![AggressionProfile::off()],
            ..AdversarialConfig::default()
        };
        let err = AdversarialSweep::new(&world, cfg).run().unwrap_err();
        match err {
            AdversarialError::Scan { politeness, .. } => assert_eq!(politeness, "baseline"),
            other => panic!("expected a Scan error, got {other}"),
        }
    }

    #[test]
    fn off_column_matches_reference() {
        let world = WorldConfig::tiny(3).build();
        let r = AdversarialSweep::new(&world, quick_cfg()).run().unwrap();
        // Defense off is the reference scanner's own world: coverage 1.
        for pi in 0..2 {
            assert_eq!(r.cell(pi, 0).coverage, vec![1.0], "row {pi}");
            assert_eq!(r.cell(pi, 0).status, CellStatus::Unchallenged);
        }
        // The cell found something, so its 1.0 (successes over the
        // reference's) is not vacuous.
        assert!(r.cell(0, 0).l7_successes[0] > 0);
    }

    #[test]
    fn matrix_tsv_shape() {
        let world = WorldConfig::tiny(3).build();
        let r = AdversarialSweep::new(&world, quick_cfg()).run().unwrap();
        let tsv = r.matrix_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "politeness\toff\taggressive");
        assert!(lines[1].starts_with("baseline\t1.000000\t"));
        assert!(lines[2].starts_with("adaptive\t1.000000\t"));
        assert!(!r.render().is_empty());
    }

    #[test]
    fn the_worker_count_changes_no_byte() {
        let world = WorldConfig::tiny(41).build();
        // Short trials, so the aggressive column's detectors trip.
        let cfg = AdversarialConfig {
            trials: 2,
            duration_s: 6.0 * 3600.0,
            ..quick_cfg()
        };
        let sweep = AdversarialSweep::new(&world, cfg);
        let bytes = |workers| {
            let r = sweep.run_on(workers).unwrap();
            let cells = format!("{:?}", r.cells());
            (r.matrix_tsv(), cells, r.telemetry().to_jsonl())
        };
        let inline = bytes(1);
        assert!(inline.1.contains("Listed"), "no defender engaged");
        assert!(bytes(4) == inline, "4 workers differ from 1");
    }

    #[test]
    fn rosters_are_consistent() {
        for p in PolitenessProfile::roster() {
            assert!(p.rate_mult > 0.0, "{}", p.name);
            assert!(p.source_ips >= 1, "{}", p.name);
        }
        let cfg = AdversarialConfig::default();
        assert_eq!(cfg.politeness.len(), 4);
        assert_eq!(cfg.aggression.len(), 4);
    }
}
