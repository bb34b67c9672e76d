//! A self-describing, machine-checkable schema for the JSONL telemetry
//! stream.
//!
//! [`describe`] renders the full wire contract — every event kind with
//! its payload fields and types, every metric name with its record type,
//! and every histogram's bucket boundaries — as a stable text document.
//! The golden test in `tests/schema_golden.rs` pins that document, so
//! any change to the serialized telemetry (renamed field, reordered
//! payload, shifted bucket) fails CI until the golden file is updated
//! deliberately.

use crate::event::EventKind;
use crate::json::JsonVal;
use crate::metrics;
use std::fmt::Write as _;

/// The schema document version. Bump when the envelope itself (the
/// shared `type`/`proto`/`trial`/`origin` fields) changes shape.
pub(crate) const SCHEMA_VERSION: u32 = 1;

fn type_name(v: &JsonVal) -> &'static str {
    match v {
        JsonVal::U(_) => "u64",
        JsonVal::F(_) => "f64",
        JsonVal::S(_) => "str",
    }
}

/// Render the schema document.
///
/// Derived from the same `EventKind::fields` table the JSONL writer
/// uses, so the description cannot drift from the bytes: adding a
/// variant or payload field changes this output mechanically.
pub fn describe_schema() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "originscan telemetry schema v{SCHEMA_VERSION}");
    let _ = writeln!(
        out,
        "envelope: type:str proto:str trial:u64 origin:u64 (events add seq:u64 t:f64 kind:str)"
    );
    let _ = writeln!(out);
    for kind in EventKind::samples() {
        let mut line = format!("event {}", kind.name());
        for (name, val) in kind.fields() {
            let _ = write!(line, " {name}:{}", type_name(&val));
        }
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "span trace:u64 clock:str span:u64 parent?:u64 name:str start:f64 end:f64"
    );
    let _ = writeln!(
        out,
        "profile path:str name:str count:u64 total:f64 self:f64"
    );
    let _ = writeln!(
        out,
        "histogram-extra bounds:[f64] counts:[u64] sum:f64 (counts has bounds+1 entries; last is overflow)"
    );
    let _ = writeln!(out);
    for (name, ty) in metrics::names::ALL {
        let _ = writeln!(out, "metric {ty} {name}");
    }
    let _ = writeln!(out);
    for (label, bounds) in [
        ("response_frac", metrics::RESPONSE_FRAC_BOUNDS),
        ("l7_attempts", metrics::L7_ATTEMPT_BOUNDS),
        ("stall", metrics::STALL_BOUNDS),
        ("serve_latency", metrics::SERVE_LATENCY_BOUNDS),
    ] {
        let rendered: Vec<String> = bounds.iter().map(|b| format!("{b:?}")).collect();
        let _ = writeln!(out, "bounds {label} [{}]", rendered.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_covers_every_event_and_metric() {
        let doc = describe_schema();
        for kind in EventKind::samples() {
            assert!(
                doc.contains(&format!("event {}", kind.name())),
                "schema missing {}",
                kind.name()
            );
        }
        for (name, _) in metrics::names::ALL {
            assert!(doc.contains(name), "schema missing metric {name}");
        }
    }
}
