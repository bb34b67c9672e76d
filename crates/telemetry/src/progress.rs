//! The wall-clock boundary: the bench/CLI progress sink.
//!
//! Library telemetry is strictly simulated-time, but benches and
//! binaries legitimately measure wall-clock durations and want to report
//! liveness to a human watching stderr. This module is where those
//! reports funnel: callers pass **pre-measured plain numbers** (the
//! caller holds the `Instant`; this crate never reads a clock), and the
//! sink formats them as structured JSONL progress lines so bench output
//! is grep-able rather than free-form prose.
//!
//! This is the one audited place in the workspace library code that
//! writes to stderr; everything else routes through it or is flagged by
//! clippy's `print_stderr` deny.

use crate::json::JsonObj;

/// A dynamic field value for a progress line. Unlike event payloads
/// (which are `&'static` by construction), progress lines carry runtime
/// strings — bench labels, file paths.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Float (wall-clock seconds, rates, ...), rendered shortest
    /// round-trip.
    F64(f64),
    /// Free-form text (escaped on write).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Format one progress line (no trailing newline):
/// `{"type":"progress","kind":<kind>,<fields...>}`.
pub(crate) fn format_progress(kind: &str, fields: &[(&str, FieldValue)]) -> String {
    let mut o = JsonObj::new();
    o.field_str("type", "progress");
    o.field_str("kind", kind);
    for (k, v) in fields {
        match v {
            FieldValue::U64(u) => o.field_u64(k, *u),
            FieldValue::F64(f) => o.field_f64(k, *f),
            FieldValue::Str(s) => o.field_str(k, s),
        }
    }
    o.finish()
}

/// Write one progress line to stderr.
#[expect(
    clippy::print_stderr,
    reason = "this IS the stderr progress sink the rest of the workspace routes through"
)]
pub fn emit_progress(kind: &str, fields: &[(&str, FieldValue)]) {
    eprintln!("{}", format_progress(kind, fields));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_line_shape() {
        let line = format_progress(
            "bench_timed",
            &[
                ("label", FieldValue::from("l7 grab")),
                ("wall_s", FieldValue::from(1.25)),
                ("items", FieldValue::from(65536u64)),
            ],
        );
        assert_eq!(
            line,
            "{\"type\":\"progress\",\"kind\":\"bench_timed\",\
             \"label\":\"l7 grab\",\"wall_s\":1.25,\"items\":65536}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let line = format_progress("note", &[("msg", FieldValue::from("a\"b"))]);
        assert!(line.contains("a\\\"b"), "{line}");
    }
}
