//! # originscan-plan
//!
//! The topology-aware target planner: turns *prior* scan results
//! (`originscan-store` scan sets) plus the World's announced-prefix/AS
//! structure into a [`TargetPlan`] — a compressed, /24-granular
//! allowlist with per-prefix priority scores that a later scan feeds
//! through the existing blocklist/sharding path to probe a fraction of
//! the space at near-identical coverage.
//!
//! The idea follows "Towards Better Internet Citizenship" (see
//! PAPERS.md): most of the IPv4 space never answers, and which /24s do
//! answer is highly stable across scans, so a scanner that remembers
//! where deployment was observed can skip the never-deployed remainder
//! outright and spend its probe budget on the prefixes that actually
//! change. The planner scores each announced /24 on
//!
//! * **observed-responsive density** — distinct responsive addresses
//!   seen across the prior trials;
//! * **cross-trial churn** — addresses present in some prior trials but
//!   not all (the prefixes worth re-visiting most often);
//! * **never-deployed exclusion** — /24s with zero observations across
//!   every prior trial are dropped by every learned strategy;
//! * optional **per-AS probe budgets** — a cap on /24s kept per AS so a
//!   single dense hoster cannot monopolize a reduced footprint.
//!
//! # Determinism contract
//!
//! A plan is a pure function of its inputs: integer-only scoring, total
//! tie-break ordering (score desc, /24 asc), and a canonical sorted
//! serialization make same-seed builds byte-identical. The on-disk
//! format ([`describe_format`] prints its layout) is framed like the
//! store's — magic, version, flags, a CRC-32 checksummed entry section —
//! and decodes through the same cursor: `originscan_store` holds it, the
//! header/CRC checks and `FrameError`, so every corruption surfaces as a
//! typed [`PlanError`] — never a panic.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

// Every module is private; the API is re-exported below.
mod builder;
mod format;
mod plan;

pub use builder::{AsSpan, PlanBuilder, Strategy};
pub use format::{describe_format, PlanError, MAGIC as PLAN_MAGIC, VERSION as PLAN_FORMAT_VERSION};
pub use plan::{PlanEntry, TargetPlan};
