//! # originscan-core
//!
//! The measurement methodology of "On the Origin of Scanning" (IMC 2020)
//! as a library: synchronized multi-origin experiments over a simulated
//! Internet, and every analysis in the paper.
//!
//! * [`experiment`] — run ZMap+ZGrab scans from many origins in lockstep.
//! * [`adversarial`] — the scanner/defender co-simulation: politeness ×
//!   aggression sweeps with adaptive-resilience outcomes.
//! * `matrix` / `results` / `outcome` — per-trial ground truth and
//!   packed per-(origin, host) outcomes.
//! * [`classify`] — the §3 missing-host taxonomy (Fig 2).
//! * [`coverage`] — coverage tables and McNemar tests (Fig 1, Tab 4, §3).
//! * `exclusivity` — exclusive (in)accessibility (Tab 1, Figs 3/6/7/8).
//! * `country` — country-level bias (Tab 2, Tab 5, §4.4).
//! * `asdist` — AS concentration of long-term loss (Figs 4, 5).
//! * `transient` — transient-loss spreads and origin stability
//!   (Figs 8, 9, 11; Tab 3).
//! * `packetloss` — the §5.2 packet-drop estimator (Fig 10).
//! * `bursts` — §5.3 burst-outage detection over hourly loss series.
//! * `ssh` — §6: Alibaba's temporal blocking, MaxStartups, retries
//!   (Figs 12/13/14).
//! * [`multiorigin`] — §7 multi-origin/multi-probe coverage
//!   (Figs 15/17/18).
//! * `modules` — per-probe-module sweeps keyed by module name
//!   (ICMP echo, DNS-over-UDP, and the TCP trio side by side).
//! * [`frontier`] — the probes-vs-coverage frontier of topology-aware
//!   target plans (full sweep vs density/churn/hybrid strategies).
//! * `report` — plain-text table rendering for the bench harness.
//! * [`summary`] — the one-call full report over an experiment's results.
//! * `diff` — first-class diffing of two archived scans.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

// `pub mod` for the modules the repository benchmark names by path; the
// rest is private and its API is re-exported below.
pub mod adversarial;
mod asdist;
mod bursts;
pub mod classify;
mod country;
pub mod coverage;
mod diff;
mod exclusivity;
pub mod experiment;
pub mod frontier;
mod jobs;
mod matrix;
mod modules;
pub mod multiorigin;
mod outcome;
mod packetloss;
mod report;
mod results;
mod ssh;
pub mod summary;
mod transient;

pub use asdist::{longterm_by_as, lost_as_counts, top_k_concentration};
pub use bursts::burst_share;
pub use country::{
    countries_above, country_stats, host_count_vs_inaccessible, tiered_table, CountryStats,
};
pub use diff::{diff_records, render_diff};
pub use exclusivity::{
    exclusive_by_as, exclusive_by_country, exclusive_counts, exclusive_hosts,
    miss_overlap_histogram, within_country_exclusive_fraction,
};
pub use experiment::{Experiment, ExperimentConfig};
pub use modules::sweep_modules;
pub use packetloss::{
    both_lost_fraction, drop_vs_transient_correlation, global_drop_estimate, loss_points_for_as,
};
pub use report::{count, pct, pct2, Table};
pub use results::ExperimentResults;
pub use ssh::{
    explicit_close_fraction, hourly_rst_fraction, retry_sweep, ssh_miss_breakdown,
    top_transient_ssh_ases,
};
pub use transient::{
    consistent_worst_countries, largest_spread_ases, origin_stability, rate_spread_distribution,
    transient_by_as,
};
