//! # originscan
//!
//! A faithful, laptop-scale reproduction of **"On the Origin of Scanning:
//! The Impact of Location on Internet-Wide Scans"** (Wan et al., ACM IMC
//! 2020) as a Rust library.
//!
//! The paper measures how the network a scan *originates from* biases the
//! set of hosts an Internet-wide IPv4 scan can see. This workspace rebuilds
//! the entire measurement apparatus against a deterministic simulated
//! Internet:
//!
//! * [`netmodel`] — the synthetic IPv4 universe: countries, ASes, /24
//!   networks, hosts, churn, scan origins, path loss, burst outages, and
//!   every blocking mechanism §4–§6 of the paper identifies.
//! * [`scanner`] — a ZMap-style stateless SYN scanner (cyclic-group address
//!   permutation, stateless validation, blocklists, sharding) plus
//!   ZGrab-style HTTP/TLS/SSH application handshakes.
//! * [`wire`] — the packet codecs underneath the scanner.
//! * [`stats`] — the statistical machinery: McNemar's test, Spearman's ρ,
//!   chi-square / normal CDFs, burst outlier detection, quantiles.
//! * [`telemetry`] — deterministic observability: structured events keyed
//!   to simulated time, a metrics registry, JSONL export, and per-origin
//!   scan timelines. Byte-identical across same-seed runs.
//! * [`store`] — compressed scan-set storage: roaring-style bitmaps over
//!   the simulated address space with word-level set-operation kernels,
//!   persisted per `(protocol, trial, origin)` in a versioned,
//!   checksummed, byte-deterministic format with a lazy chunk-granular
//!   reader.
//! * [`plan`] — the topology-aware target planner: learns a compressed
//!   /24-granular allowlist ([`plan::TargetPlan`]) from prior scan-set
//!   stores plus the announced-prefix/AS structure, scoring prefixes by
//!   observed density and cross-trial churn so later scans probe a
//!   fraction of the space at near-identical coverage.
//! * [`serve`] — a sharded query engine and hand-rolled HTTP/1.1 server
//!   over stored scan sets: typed queries (`coverage`, `diff`,
//!   `exclusive`, `best-k`, point lookups) behind LRU caches, with
//!   deterministic JSON responses.
//! * [`core`] — the experiment runner and every analysis in the paper:
//!   coverage, transient/long-term classification, exclusivity, country and
//!   AS breakdowns, packet-loss estimation, SSH behaviour, and multi-origin
//!   coverage.
//!
//! ## Quickstart
//!
//! ```
//! use originscan::core::experiment::{Experiment, ExperimentConfig};
//! use originscan::netmodel::world::WorldConfig;
//! use originscan::netmodel::origin::OriginId;
//! use originscan::netmodel::host::Protocol;
//!
//! // A small world: 2^16 addresses, deterministic from the seed.
//! let world = WorldConfig::tiny(7).build();
//! let cfg = ExperimentConfig {
//!     origins: vec![OriginId::Us1, OriginId::Japan],
//!     protocols: vec![Protocol::Http],
//!     trials: 2,
//!     probes: 2,
//!     ..ExperimentConfig::default()
//! };
//! let results = Experiment::new(&world, cfg).run().unwrap();
//! let cov = results.coverage(Protocol::Http, 0, OriginId::Us1);
//! assert!(cov.fraction() > 0.8, "origin should see most ground-truth hosts");
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod cli;

pub use originscan_core as core;
pub use originscan_netmodel as netmodel;
pub use originscan_plan as plan;
pub use originscan_scanner as scanner;
pub use originscan_serve as serve;
pub use originscan_stats as stats;
pub use originscan_store as store;
pub use originscan_telemetry as telemetry;
pub use originscan_wire as wire;
