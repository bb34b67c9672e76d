//! # originscan-scanner
//!
//! A ZMap + ZGrab style scanning pipeline, generic over the network it
//! probes.
//!
//! The paper's methodology (§2) runs, from each origin, a ZMap TCP SYN
//! scan of the full IPv4 space with 2 back-to-back probes per address and
//! a shared seed across origins, immediately followed by a ZGrab
//! application-layer handshake with every L4-responsive host. This crate
//! reimplements that pipeline:
//!
//! * [`cyclic`] — ZMap's O(1)-state pseudorandom address permutation over
//!   a multiplicative cyclic group, with shard support.
//! * [`blocklist`] — CIDR exclusion lists, synchronized across origins.
//! * `rate` — token-bucket pacing mapped onto simulated time.
//! * [`target`] — the [`Network`] trait the scanner probes
//!   through (implemented by `originscan-netmodel` for the simulated
//!   Internet), plus probe/reply types.
//! * [`probe`] — the probe-module plugin layer: a [`probe::ProbeModule`]
//!   per scan scenario (TCP SYN for the paper's trio, ICMP echo, DNS
//!   over UDP) with a registry, all sharing the permutation/pacing core.
//! * [`engine`] — the scan loop: stateless validation-tagged probes,
//!   validated-reply collection, L7 follow-up; plus supervised execution
//!   with fault hooks and mid-permutation checkpoint/resume. An open-loop
//!   scan of an order-free network runs on every core (`fan.rs`) with the
//!   same output.
//! * `error` — typed configuration and scan errors, so supervisors can
//!   react to failures instead of unwinding.
//! * [`zgrab`] — HTTP / TLS / SSH handshake drivers with the retry policy
//!   §6 of the paper evaluates.
//! * [`output`] — ZMap-style CSV serialization of scan records.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

// `pub mod` for the modules the repository benchmark names by path; the
// rest is private and its API is re-exported below.
pub mod blocklist;
pub mod cyclic;
pub mod engine;
mod error;
mod fan;
pub mod output;
pub mod probe;
mod rate;
mod resilience;
pub mod target;
pub mod zgrab;

pub use blocklist::{Blocklist, Cidr};
pub use cyclic::Cycle;
pub use engine::{run_scan, HostScanRecord, ScanConfig, ScanOutput};
pub use error::{ConfigError, ScanError, MAX_PROBES};
pub use rate::{rate_for_duration, Pacer};
pub use resilience::AdaptivePolicy;
pub use target::{CloseKind, Network, Protocol};

/// Threads this process can run at once (1 when the OS will not say): the
/// one place a fanned scan and an experiment's job queue size themselves.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
