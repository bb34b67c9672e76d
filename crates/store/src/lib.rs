//! originscan-store: compressed scan-set storage for the simulated
//! 2²⁴ address space.
//!
//! The crate provides a roaring-style compressed bitmap ([`ScanSet`])
//! whose 2¹⁶-address chunks are held as the smallest of three
//! [`Container`] representations (sorted array, 1024-word bitmap, or
//! run list), word-level set-operation kernels (AND / OR / ANDNOT /
//! XOR), rank/select, and popcount-based cardinality — plus
//! [`ScanSetStore`], which persists one set per `(protocol, trial,
//! origin)` in a versioned, checksummed, byte-deterministic binary
//! format, readable either eagerly or through the lazy chunk-granular
//! [`StoreReader`].
//!
//! # Determinism contract
//!
//! Serialized bytes are a pure function of the stored sets: containers
//! are canonicalized to the smallest representation before encoding
//! (ties broken Array → Run → Bitmap), chunks are ordered by key, and
//! entries by `(protocol, trial, origin)`. Two same-seed experiment
//! runs therefore produce byte-identical store files.
//!
//! # Corruption handling
//!
//! Every section (TOC, chunk directories, chunk payloads) carries a
//! CRC-32 and decodes through the one bounds-checked cursor of
//! [`frame`] — the framing layer (cursor, header/CRC checks, CRC-32,
//! [`FrameError`](frame::FrameError)) this format shares with
//! `originscan-plan`'s. Damage surfaces as a typed [`StoreError`],
//! never a panic.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod container;
pub mod format;
pub mod frame;
pub mod scanset;
pub mod store;

pub use container::{Container, ContainerKind, SetOp, ARRAY_MAX, WORDS};
pub use format::{StoreError, VERSION as FORMAT_VERSION};
pub use scanset::{ScanSet, SignatureCounts};
pub use store::{LazyScanSet, ReadStats, ScanSetStore, StoreBuildStats, StoreKey, StoreReader};
