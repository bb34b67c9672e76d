//! # originscan-core
//!
//! The measurement methodology of "On the Origin of Scanning" (IMC 2020)
//! as a library: synchronized multi-origin experiments over a simulated
//! Internet, and every analysis in the paper.
//!
//! * [`experiment`] — run ZMap+ZGrab scans from many origins in lockstep.
//! * [`adversarial`] — the scanner/defender co-simulation: politeness ×
//!   aggression sweeps with adaptive-resilience outcomes.
//! * [`matrix`] / [`results`] / [`outcome`] — per-trial ground truth and
//!   packed per-(origin, host) outcomes.
//! * [`classify`] — the §3 missing-host taxonomy (Fig 2).
//! * [`coverage`] — coverage tables and McNemar tests (Fig 1, Tab 4, §3).
//! * [`exclusivity`] — exclusive (in)accessibility (Tab 1, Figs 3/6/7/8).
//! * [`country`] — country-level bias (Tab 2, Tab 5, §4.4).
//! * [`asdist`] — AS concentration of long-term loss (Figs 4, 5).
//! * [`transient`] — transient-loss spreads and origin stability
//!   (Figs 8, 9, 11; Tab 3).
//! * [`packetloss`] — the §5.2 packet-drop estimator (Fig 10).
//! * [`bursts`] — §5.3 burst-outage detection over hourly loss series.
//! * [`ssh`] — §6: Alibaba's temporal blocking, MaxStartups, retries
//!   (Figs 12/13/14).
//! * [`multiorigin`] — §7 multi-origin/multi-probe coverage
//!   (Figs 15/17/18).
//! * [`modules`] — per-probe-module sweeps keyed by module name
//!   (ICMP echo, DNS-over-UDP, and the TCP trio side by side).
//! * [`frontier`] — the probes-vs-coverage frontier of topology-aware
//!   target plans (full sweep vs density/churn/hybrid strategies).
//! * [`report`] — plain-text table rendering for the bench harness.
//! * [`summary`] — the one-call full report over an experiment's results.
//! * [`diff`] — first-class diffing of two archived scans.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod adversarial;
pub mod asdist;
pub mod bursts;
pub mod classify;
pub mod country;
pub mod coverage;
pub mod diff;
pub mod exclusivity;
pub mod experiment;
pub mod frontier;
mod jobs;
pub mod matrix;
pub mod modules;
pub mod multiorigin;
pub mod outcome;
pub mod packetloss;
pub mod report;
pub mod results;
pub mod ssh;
pub mod summary;
pub mod transient;

pub use adversarial::{
    AdversarialConfig, AdversarialError, AdversarialResults, AdversarialSweep, CellOutcome,
    CellStatus, PolitenessProfile,
};
pub use experiment::{
    Experiment, ExperimentConfig, ExperimentError, FailCause, OriginRun, RunStatus,
    SupervisorPolicy,
};
pub use outcome::{FailKind, HostOutcome};
pub use results::{Coverage, ExperimentResults, Panel};
