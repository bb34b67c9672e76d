//! # originscan-bench
//!
//! Shared harness for the reproduction benches. Every table and figure of
//! the paper is one row of [`artifacts::ARTIFACTS`]; the `artifacts` bench
//! target renders the rows it is asked for over one shared
//! [`artifacts::Study`] and prints paper-style rows next to the paper's
//! reported values; `EXPERIMENTS.md` records the comparison.
//!
//! Scale control: the `artifacts` target reads `ORIGINSCAN_SCALE`
//! (`tiny`, `small` (default), `medium`, or `full`) once, in its `main`,
//! into a [`Scale`]; everything here takes that value as an argument. The
//! world seed is fixed so runs are comparable.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod artifacts;

use originscan_netmodel::{Protocol, World, WorldConfig};
use originscan_telemetry::{emit_progress, FieldValue};
use std::str::FromStr;
use std::time::Instant;

/// The fixed world seed used by all reproduction benches.
pub const WORLD_SEED: u64 = 2020;

/// Size of the bench world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 2¹⁶ addresses.
    Tiny,
    /// 2²⁰ addresses.
    Small,
    /// 2²² addresses.
    Medium,
    /// 2²⁴ addresses.
    Full,
}

impl Scale {
    /// Every scale, smallest first.
    pub const ALL: [Scale; 4] = [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Full];

    /// The name `ORIGINSCAN_SCALE` selects this scale by.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Full => "full",
        }
    }

    /// The bench world's generation parameters at this scale.
    pub fn world_config(self) -> WorldConfig {
        match self {
            Scale::Tiny => WorldConfig::tiny(WORLD_SEED),
            Scale::Small => WorldConfig::small(WORLD_SEED),
            Scale::Medium => WorldConfig::medium(WORLD_SEED),
            Scale::Full => WorldConfig::full(WORLD_SEED),
        }
    }
}

impl FromStr for Scale {
    type Err = String;

    /// An unknown name is an error that lists the accepted ones.
    fn from_str(name: &str) -> Result<Scale, String> {
        Scale::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let names = Scale::ALL.map(Scale::name).join(", ");
                format!("unknown scale `{name}`; accepted: {names}")
            })
    }
}

/// Build the bench world at `scale`.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock timing is the bench harness's job; results never feed analyses"
)]
pub fn bench_world(scale: Scale) -> World {
    let t = Instant::now();
    let world = scale.world_config().build();
    emit_progress(
        "bench_world",
        &[
            ("scale", FieldValue::from(scale.name())),
            ("addresses", FieldValue::from(world.space())),
            ("ases", FieldValue::from(world.ases.len() as u64)),
            (
                "http_hosts",
                FieldValue::from(world.host_count(Protocol::Http) as u64),
            ),
            ("wall_s", FieldValue::from(t.elapsed().as_secs_f64())),
        ],
    );
    world
}

/// Run a closure, reporting its wall time through the telemetry
/// progress sink (a `bench_timed` JSONL line on stderr).
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock timing is the bench harness's job; results never feed analyses"
)]
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    emit_progress(
        "bench_timed",
        &[
            ("label", FieldValue::from(label)),
            ("wall_s", FieldValue::from(t.elapsed().as_secs_f64())),
        ],
    );
    out
}

/// Write reproduced-artifact text to stdout.
///
/// Stdout *is* the bench's product — the paper-style tables recorded in
/// `EXPERIMENTS.md` — so it stays human-readable; progress/liveness
/// chatter goes to stderr through the telemetry sink instead.
#[expect(
    clippy::print_stdout,
    reason = "stdout is the bench artifact itself; the audited sink for it is this one function"
)]
pub fn emit_artifact(text: &str) {
    print!("{text}");
}

/// The section header of a reproduced artifact.
fn header_text(id: &str, caption: &str) -> String {
    const RULE: &str = "================================================================";
    format!("\n{RULE}\n{id} — {caption}\n{RULE}\n")
}

/// The paper's reported values, for side-by-side comparison.
fn paper_says_text(lines: &[&str]) -> String {
    let mut out = String::from("paper reports:\n");
    for l in lines {
        out.push_str(&format!("  | {l}\n"));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_round_trip_and_typos_are_refused() {
        for s in Scale::ALL {
            assert_eq!(s.name().parse::<Scale>(), Ok(s));
        }
        let err = "large".parse::<Scale>().unwrap_err();
        assert!(err.contains("large") && err.contains("tiny, small, medium, full"));
    }

    #[test]
    fn bench_world_is_sized_by_its_scale() {
        assert_eq!(bench_world(Scale::Tiny).space(), 1 << 16);
        assert_eq!(bench_world(Scale::Small).space(), 4096 * 256);
    }
}
