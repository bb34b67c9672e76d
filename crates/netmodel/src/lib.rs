//! # originscan-netmodel
//!
//! A deterministic synthetic Internet for reproducing "On the Origin of
//! Scanning" (IMC 2020) without seven vantage points or permission to
//! probe four billion strangers.
//!
//! The real study scans the live IPv4 space; we substitute a scaled,
//! generated universe in which *every causal mechanism the paper
//! identifies is modelled explicitly*:
//!
//! * `world` / `asn` / `geo` — countries, Zipf-sized categorized
//!   ASes (including ~40 *named* ASes the paper's findings hinge on),
//!   /24-granular geolocation (with multi-country providers and anycast
//!   noise), per-category service densities, trial-to-trial churn.
//! * `origin` — the seven main vantage points plus the §7 follow-up
//!   origins, each with geography, site collocation, source-IP count, and
//!   scanning reputation.
//! * `path` — correlated transient loss, independent packet drop, and
//!   persistent unreachability per (origin, AS, trial).
//! * `burst` — hour-scale localized outages (§5.3).
//! * [`policy`] — one plain function per destination-side mechanism
//!   (§4, §6): reputation blocking, geographic restrictions,
//!   rate-triggered IDS, Alibaba's temporal SSH RST, and OpenSSH
//!   `MaxStartups` refusals.
//! * `netimpl` — ties it all together behind the scanner's
//!   [`originscan_scanner::Network`] trait. [`SimNet::cause`] and
//!   [`SimNet::l7_cause`] consult every mechanism in one fixed order and
//!   name the one that decides a host's fate as a [`Cause`]; each reply
//!   is a projection of it.
//! * `fault` — deterministic fault injection (vantage outages, crashes,
//!   pipeline stalls, reply corruption/duplication) layered over any
//!   network, for proving the methodology degrades gracefully.
//! * `defend` — stateful adversarial defenders (windowed rate
//!   detectors, escalating blocks, a cross-trial reputation store)
//!   layered over any network, for the scanner-vs-defender co-simulation.
//! * `rng` — the counter-based determinism everything relies on.
//!
//! Determinism contract: any two evaluations with the same `WorldConfig`
//! agree on every observable, regardless of threading or call order.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

// `policy` stays `pub mod`: its `ids` and `reputation` modules'
// `detection`/`blocks` would clash with each other at the root; the rest is
// private and its API is re-exported below.
mod asn;
mod burst;
mod defend;
mod fault;
mod geo;
mod host;
mod netimpl;
mod origin;
mod path;
pub mod policy;
mod rng;
mod world;

pub use asn::AsTags;
pub use burst::events_for;
pub use defend::{AggressionProfile, DefenderNet, DefenseStats};
pub use fault::{FaultPlan, FaultyNet, InjectedFault};
pub use geo::Country;
pub use host::{proto_key, Protocol};
pub use netimpl::{Cause, SimNet};
pub use origin::OriginId;
pub use path::{flaky_half, path_params};
pub use rng::Tag;
pub use world::{World, WorldConfig};
