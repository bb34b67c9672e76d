//! The six workloads. Each says in its module comment why it exists and
//! which layers do most of its work.

pub mod resilience;
pub mod scan_single;
pub mod serve;
pub mod store_roundtrip;
pub mod study;

use crate::harness::fnv;
use originscan_core::frontier::as_spans;
use originscan_netmodel::World;
use originscan_plan::{PlanBuilder, Strategy, TargetPlan};
use originscan_store::StoreReader;
use originscan_telemetry::metrics::names;
use originscan_telemetry::TelemetrySnapshot;
use std::path::Path;

/// Probes sent, summed over every scan that flushed its counters.
pub fn probes_sent(snapshot: &TelemetrySnapshot) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name == names::PROBES_SENT)
        .map(|c| c.value)
        .sum()
}

/// The observed-deployment plan for HTTP, learned from a store file.
pub fn observed_plan(world: &World, reader: &StoreReader, seed: u64) -> Option<TargetPlan> {
    let mut builder = PlanBuilder::new(world.space(), seed)
        .ok()?
        .with_topology(as_spans(world));
    builder.observe_reader(reader, "HTTP").ok()?;
    builder.build(&Strategy::Observed).ok()
}

/// FNV-1a of a file's bytes (0 when it cannot be read, which no valid
/// digest is likely to equal).
pub fn file_digest(path: &Path) -> u64 {
    std::fs::read(path).map(|b| fnv(&b)).unwrap_or(0)
}
