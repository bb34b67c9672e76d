//! # originscan-stats
//!
//! Statistical machinery used by the `originscan` analyses, implemented
//! from scratch (no third-party numerics):
//!
//! * `special` — special functions: `erf`, regularized incomplete gamma,
//!   log-gamma (Lanczos).
//! * `dist` — normal, chi-square, and Student-t distribution CDFs built
//!   on `special`.
//! * [`descriptive`] — means, variances, quantiles, empirical CDFs and
//!   five-number summaries (for the paper's box plots, Figs 15/17/18).
//! * [`mcnemar`] — McNemar's test for paired binary outcomes (§3 uses it
//!   to show origins see statistically different host sets) plus the
//!   Bonferroni correction.
//! * [`mod@spearman`] — Spearman rank correlation with tie handling (§4.4 and
//!   §5.2 report ρ between host counts / packet loss and transient loss).
//! * `timeseries` — rolling-window smoothing and the 2σ-noise burst
//!   outlier detector of §5.3.
//! * `combos` — k-subset enumeration for multi-origin coverage sweeps
//!   (§7, Figs 15/17/18).
//! * `interval` — Wilson score confidence intervals for the coverage
//!   proportions reported at reduced simulation scale.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

// `pub mod` for the modules the repository benchmark names by path; the
// rest is private and its API is re-exported below.
mod combos;
pub mod descriptive;
mod dist;
mod interval;
pub mod mcnemar;
pub mod spearman;
mod special;
mod timeseries;

pub use combos::{choose, k_subsets};
pub use dist::{chi2_cdf, normal_cdf, t_sf_two_sided};
pub use interval::wilson95;
pub use mcnemar::bonferroni;
pub use timeseries::{burst_mass_fraction, detect_bursts, rolling_mean, Burst};
