//! # originscan-serve
//!
//! A sharded query engine and HTTP server over the scan-set store: the
//! paper's operational payoff (§6–§7) — *which 2–3 origins recover 99 %
//! coverage?*, *what did origin X miss for SSH?* — answered as a service
//! rather than a one-shot binary.
//!
//! Two layers, both dependency-free:
//!
//! * **Query engine** ([`QueryEngine`]) — a small typed query
//!   language ([`query::Query`]: `coverage`, `union`, `diff`,
//!   `exclusive`, `best-k`, `rank`, `member`) parsed into a canonical
//!   plan and executed lazily against one or more
//!   [`originscan_store::StoreReader`] shards, with sharded LRU caches
//!   (`ShardedLru`) of materialized bitmaps, one
//!   membership-signature table per `(proto, trial)` that answers every
//!   multi-origin count, and memoized responses keyed by the canonical
//!   plan hash. Point lookups (`rank`,
//!   `member`) touch only the chunk directory plus the one chunk that
//!   holds the address.
//! * **Server** ([`Server`]) — a hand-rolled HTTP/1.1 front end on
//!   `std::net::TcpListener`: bounded worker pool, per-connection
//!   read/write timeouts, request-size limits, backpressure (503 +
//!   `Retry-After` when the accept queue is full), and graceful shutdown
//!   that drains in-flight requests while refusing new connections.
//!
//! # Determinism contract
//!
//! The engine obeys the workspace determinism rules: a response body is
//! a pure function of the stored sets and the canonical query text —
//! byte-identical across engines, runs, and platforms (the golden test
//! in `tests/query_golden.rs` pins each response's wire format). The
//! server is the audited I/O boundary: wall clocks and socket errors
//! exist only there, and every wall-clock number leaves through the
//! telemetry progress sink or the `serve.latency_s` histogram — never
//! through a response body.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

// `query` stays `pub mod` because the repository benchmark names it by
// path; the rest is private and its API is re-exported below.
mod cache;
mod engine;
mod error;
mod http;
pub mod query;
mod trace;

pub use engine::{error_body, QueryEngine};
pub use http::{Server, ServerConfig};
pub use query::Query;
pub use trace::WallTime;
