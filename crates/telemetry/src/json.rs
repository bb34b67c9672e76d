//! A minimal, deterministic JSON writer.
//!
//! The workspace vendors no serialization crates, and telemetry must be
//! byte-identical across runs and platforms, so the writer is explicit
//! about the two things that usually drift: field order (caller-fixed,
//! insertion order) and float formatting (Rust's `{:?}` shortest
//! round-trip representation, which is platform-independent).
//!
//! The writer is public API: `originscan-serve` builds its HTTP response
//! bodies with [`JsonObj`], so query responses inherit the exact same
//! escaping and float-formatting contract the telemetry JSONL stream is
//! pinned to.

use std::fmt::Write as _;

/// A JSON value as the telemetry serializer understands it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum JsonVal {
    /// Unsigned integer.
    U(u64),
    /// Float, rendered with `{:?}` (shortest round-trip, always with a
    /// decimal point or exponent).
    F(f64),
    /// String (escaped on write).
    S(&'static str),
}

/// Incremental single-line JSON object writer.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    /// Start an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Append a string field (escaped on write).
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
    }

    /// Append an unsigned integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.buf, "{v}");
    }

    /// Append a float field (`{:?}` shortest round-trip form, always
    /// with a decimal point or exponent).
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        let _ = write!(self.buf, "{v:?}");
    }

    /// Append one [`JsonVal`] field.
    pub(crate) fn field_val(&mut self, k: &str, v: &JsonVal) {
        match *v {
            JsonVal::U(u) => self.field_u64(k, u),
            JsonVal::F(f) => self.field_f64(k, f),
            JsonVal::S(s) => self.field_str(k, s),
        }
    }

    /// Append an array-of-floats field.
    pub(crate) fn field_f64_array(&mut self, k: &str, vs: &[f64]) {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v:?}");
        }
        self.buf.push(']');
    }

    /// Append an array-of-integers field.
    pub fn field_u64_array(&mut self, k: &str, vs: &[u64]) {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
    }

    /// Close the object and return the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Append `s` to `out` with JSON string escaping.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Escape a string for embedding in a JSON document.
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn object_shape_and_order() {
        let mut o = JsonObj::new();
        o.field_str("a", "x\"y");
        o.field_u64("b", 3);
        o.field_f64("c", 1.0);
        o.field_f64_array("d", &[0.5, 2.0]);
        o.field_u64_array("e", &[1, 2]);
        assert_eq!(
            o.finish(),
            "{\"a\":\"x\\\"y\",\"b\":3,\"c\":1.0,\"d\":[0.5,2.0],\"e\":[1,2]}"
        );
    }

    #[test]
    fn floats_always_carry_a_point() {
        let mut o = JsonObj::new();
        o.field_f64("t", 20.0);
        assert_eq!(o.finish(), "{\"t\":20.0}");
    }

    #[test]
    fn control_chars_escaped() {
        assert_eq!(escape("a\nb\u{1}"), "a\\nb\\u0001");
    }
}
