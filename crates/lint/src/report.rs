//! Findings output and the new-findings baseline.
//!
//! The interprocedural passes can surface long-standing sites whose fix
//! is a scheduled refactor (today: `World`'s by-address table reads).
//! Those are recorded in a checked-in baseline keyed by *fingerprint* —
//! rule, file, and a line-number-free anchor — so CI fails when a
//! **new** finding appears or a recorded one stops firing, and
//! unrelated edits shifting line numbers never churn the file. `--json`
//! renders the same findings machine-readably for the CI artifact.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use crate::Violation;

/// Assign a stable fingerprint to every violation:
/// `{rule}@{file}@{anchor}`, with a `#n` counter appended to repeats so
/// two identical sites in one function stay distinguishable.
pub fn assign_fingerprints(violations: &mut [Violation]) {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for v in violations.iter_mut() {
        let anchor = if v.anchor.is_empty() {
            // Per-file rules carry no anchor; fall back to the message
            // head, which is line-free.
            v.msg.split(" at line").next().unwrap_or(&v.msg).to_string()
        } else {
            v.anchor.clone()
        };
        let base = format!("{}@{}@{}", v.rule, v.file, anchor);
        let mut fp = base.clone();
        let mut n = 1;
        while !seen.insert(fp.clone()) {
            n += 1;
            fp = format!("{base}#{n}");
        }
        v.fingerprint = fp;
    }
}

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON array (stable field order, one object per
/// line, no trailing newline inside the array).
pub fn to_json(violations: &[Violation], new_fps: &BTreeSet<String>) -> String {
    let mut out = String::from("[\n");
    for (i, v) in violations.iter().enumerate() {
        let chain = v
            .chain
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"msg\":\"{}\",\"chain\":[{}],\"fingerprint\":\"{}\",\"baselined\":{}}}",
            json_escape(v.rule),
            json_escape(&v.file),
            v.line,
            json_escape(&v.msg),
            chain,
            json_escape(&v.fingerprint),
            !new_fps.contains(&v.fingerprint),
        ));
        if i + 1 < violations.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// The checked-in set of accepted finding fingerprints.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// Accepted fingerprints.
    pub entries: BTreeSet<String>,
}

impl Baseline {
    /// Parse a baseline file: one fingerprint per line, `#` comments and
    /// blank lines ignored.
    pub fn parse(text: &str) -> Baseline {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        Baseline { entries }
    }

    /// Load from disk; a missing file is an empty baseline.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(e),
        }
    }

    /// Split current findings into (new fingerprints, stale baseline
    /// entries that no longer fire).
    pub fn diff(&self, violations: &[Violation]) -> (BTreeSet<String>, BTreeSet<String>) {
        let current: BTreeSet<String> = violations.iter().map(|v| v.fingerprint.clone()).collect();
        let new = current.difference(&self.entries).cloned().collect();
        let stale = self.entries.difference(&current).cloned().collect();
        (new, stale)
    }

    /// Render a fresh baseline accepting every current finding.
    pub fn render(violations: &[Violation]) -> String {
        let mut out = String::new();
        out.push_str("# originscan-lint baseline — accepted findings, one fingerprint per line.\n");
        out.push_str("# Regenerate with: cargo run -p originscan-lint -- --write-baseline\n");
        out.push_str("# CI fails on findings NOT listed here and on entries no longer firing;\n");
        out.push_str("# state each entry's invariant in a `#` line above it.\n");
        let fps: BTreeSet<&str> = violations.iter().map(|v| v.fingerprint.as_str()).collect();
        for fp in fps {
            out.push_str(fp);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, file: &str, anchor: &str) -> Violation {
        Violation {
            file: file.to_string(),
            line: 1,
            rule,
            msg: "m".to_string(),
            chain: Vec::new(),
            anchor: anchor.to_string(),
            fingerprint: String::new(),
        }
    }

    #[test]
    fn fingerprints_are_stable_and_deduped() {
        let mut vs = vec![
            v("reach-panic", "a.rs", "f/x"),
            v("reach-panic", "a.rs", "f/x"),
            v("det-taint", "b.rs", "g/y"),
        ];
        assign_fingerprints(&mut vs);
        assert_eq!(vs[0].fingerprint, "reach-panic@a.rs@f/x");
        assert_eq!(vs[1].fingerprint, "reach-panic@a.rs@f/x#2");
        assert_eq!(vs[2].fingerprint, "det-taint@b.rs@g/y");
    }

    #[test]
    fn baseline_diff_finds_new_and_stale() {
        let mut vs = vec![v("reach-panic", "a.rs", "f/x")];
        assign_fingerprints(&mut vs);
        let base = Baseline::parse("# c\nreach-panic@gone.rs@h/z\n");
        let (new, stale) = base.diff(&vs);
        assert_eq!(new.len(), 1);
        assert!(new.contains("reach-panic@a.rs@f/x"));
        assert_eq!(stale.len(), 1);
        assert!(stale.contains("reach-panic@gone.rs@h/z"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_output_is_wellformed_enough() {
        let mut vs = vec![v("reach-panic", "a.rs", "f/x")];
        assign_fingerprints(&mut vs);
        let js = to_json(&vs, &BTreeSet::new());
        assert!(js.starts_with("[\n"));
        assert!(js.ends_with(']'));
        assert!(js.contains("\"rule\":\"reach-panic\""));
        assert!(js.contains("\"baselined\":true"));
    }
}
