//! Fixture tests: every rule in the catalogue has a violating snippet
//! (exact rule ids and line numbers asserted) and a clean counterpart,
//! `lint:allow` escapes suppress exactly the line they annotate, and the
//! real workspace lints clean.

use originscan_lint::{check_source, check_workspace, Violation, RULES};
use std::path::{Path, PathBuf};

/// Virtual path that puts a fixture in the determinism scope.
const DET_PATH: &str = "crates/netmodel/src/fixture.rs";
/// Virtual path of a report module (det-hash-report applies).
const REPORT_PATH: &str = "crates/core/src/report.rs";
/// Virtual path that puts a fixture in the panic-safety scope.
const WIRE_PATH: &str = "crates/wire/src/fixture.rs";
/// Virtual path in a crate outside the det/panic scopes: only the
/// everywhere rules (`obs-*`, `lint-bad-allow`) apply.
const LIB_PATH: &str = "crates/stats/src/fixture.rs";
/// Virtual path inside the serve crate (det + panic scopes; its socket
/// module audits wall-clock reads with `lint:allow`).
const SERVE_PATH: &str = "crates/serve/src/fixture.rs";
/// Exact-file panic-scope entries: the defender agent layer and the
/// adversarial sweep harness are panic-scoped individually, while their
/// sibling modules are not.
const DEFEND_PATH: &str = "crates/netmodel/src/defend.rs";
const ADVERSARIAL_PATH: &str = "crates/core/src/adversarial.rs";

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    let p = fixture_dir().join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

/// (fixture file, virtual path, expected (rule, line) pairs).
type BadCase = (&'static str, &'static str, Vec<(&'static str, u32)>);

fn bad_cases() -> Vec<BadCase> {
    vec![
        (
            "det_wall_clock_bad.rs",
            DET_PATH,
            vec![("det-wall-clock", 5), ("det-wall-clock", 6)],
        ),
        (
            "det_unseeded_rng_bad.rs",
            DET_PATH,
            vec![("det-unseeded-rng", 3), ("det-unseeded-rng", 4)],
        ),
        (
            "det_hash_iter_bad.rs",
            DET_PATH,
            vec![("det-hash-iter", 7), ("det-hash-iter", 10)],
        ),
        (
            "det_hash_report_bad.rs",
            REPORT_PATH,
            vec![("det-hash-report", 2), ("det-hash-report", 4)],
        ),
        ("panic_unwrap_bad.rs", WIRE_PATH, vec![("panic-unwrap", 3)]),
        (
            "panic_unwrap_bad.rs",
            DEFEND_PATH,
            vec![("panic-unwrap", 3)],
        ),
        (
            "panic_unwrap_bad.rs",
            ADVERSARIAL_PATH,
            vec![("panic-unwrap", 3)],
        ),
        ("panic_expect_bad.rs", WIRE_PATH, vec![("panic-expect", 3)]),
        ("panic_macro_bad.rs", WIRE_PATH, vec![("panic-macro", 5)]),
        (
            "panic_lossy_cast_bad.rs",
            WIRE_PATH,
            vec![("panic-lossy-cast", 3), ("panic-lossy-cast", 7)],
        ),
        (
            "obs_print_bad.rs",
            LIB_PATH,
            vec![("obs-print", 3), ("obs-print", 4)],
        ),
        ("obs_dbg_bad.rs", LIB_PATH, vec![("obs-dbg", 3)]),
        (
            "lint_bad_allow_bad.rs",
            WIRE_PATH,
            vec![("lint-bad-allow", 2), ("lint-bad-allow", 5)],
        ),
        (
            "serve_wall_clock_bad.rs",
            SERVE_PATH,
            vec![("det-wall-clock", 4)],
        ),
    ]
}

/// Every clean fixture: (file, virtual path).
fn clean_cases() -> Vec<(&'static str, &'static str)> {
    vec![
        ("det_wall_clock_clean.rs", DET_PATH),
        ("det_unseeded_rng_clean.rs", DET_PATH),
        ("det_hash_iter_clean.rs", DET_PATH),
        ("det_hash_report_clean.rs", REPORT_PATH),
        ("panic_unwrap_clean.rs", WIRE_PATH),
        ("panic_unwrap_clean.rs", DEFEND_PATH),
        ("panic_unwrap_clean.rs", ADVERSARIAL_PATH),
        // A sibling of an exact-file entry is *not* panic-scoped: the
        // same unwrap that fires at DEFEND_PATH passes one file over.
        ("panic_unwrap_bad.rs", "crates/netmodel/src/netimpl.rs"),
        ("panic_expect_clean.rs", WIRE_PATH),
        ("panic_macro_clean.rs", WIRE_PATH),
        ("panic_lossy_cast_clean.rs", WIRE_PATH),
        ("obs_print_clean.rs", LIB_PATH),
        ("obs_dbg_clean.rs", LIB_PATH),
        ("lint_bad_allow_clean.rs", WIRE_PATH),
        ("exempt_clean.rs", WIRE_PATH),
        ("serve_wall_clock_clean.rs", SERVE_PATH),
    ]
}

fn found(violations: &[Violation]) -> Vec<(&'static str, u32)> {
    violations.iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn every_bad_fixture_reports_exact_rule_and_line() {
    for (file, path, expected) in bad_cases() {
        let out = check_source(path, &fixture(file));
        assert_eq!(
            found(&out),
            expected,
            "{file}: got {:#?}",
            out.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        for v in &out {
            assert_eq!(v.file, path, "{file}: violation carries the analyzed path");
        }
    }
}

#[test]
fn every_clean_fixture_is_clean() {
    for (file, path) in clean_cases() {
        let out = check_source(path, &fixture(file));
        assert!(
            out.is_empty(),
            "{file}: expected clean, got {:#?}",
            out.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }
}

/// Insert a `lint:allow` comment line directly above each violation.
fn with_allows(src: &str, violations: &[Violation]) -> String {
    let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
    let mut vs: Vec<&Violation> = violations.iter().collect();
    vs.sort_by_key(|v| std::cmp::Reverse(v.line));
    for v in vs {
        let at = v.line as usize - 1;
        let indent: String = lines[at]
            .chars()
            .take_while(|c| c.is_whitespace())
            .collect();
        lines.insert(
            at,
            format!(
                "{indent}// lint:allow({}) reason= fixture escape audit",
                v.rule
            ),
        );
    }
    lines.join("\n")
}

#[test]
fn lint_allow_suppresses_each_violation() {
    for (file, path, _) in bad_cases() {
        if file == "lint_bad_allow_bad.rs" {
            continue; // malformed escapes cannot be escaped; covered below
        }
        let src = fixture(file);
        let out = check_source(path, &src);
        assert!(
            !out.is_empty(),
            "{file}: fixture must violate to test allows"
        );
        let suppressed = check_source(path, &with_allows(&src, &out));
        assert!(
            suppressed.is_empty(),
            "{file}: allows left {:#?}",
            suppressed
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn bad_allow_cannot_be_self_suppressed() {
    let src = fixture("lint_bad_allow_bad.rs");
    let out = check_source(WIRE_PATH, &src);
    let still = check_source(WIRE_PATH, &with_allows(&src, &out));
    assert_eq!(
        still.iter().filter(|v| v.rule == "lint-bad-allow").count(),
        2,
        "malformed escapes must survive an allow aimed at them: {:#?}",
        still.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
}

#[test]
fn registry_bad_tree_flags_orphan_policy_module() {
    let out = check_workspace(&fixture_dir().join("registry_bad")).unwrap();
    let got: Vec<(&str, &str, u32)> = out
        .iter()
        .map(|v| (v.file.as_str(), v.rule, v.line))
        .collect();
    assert_eq!(
        got,
        vec![("crates/netmodel/src/policy/orphan.rs", "reg-policy-mod", 1)],
        "got {:#?}",
        out.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
}

#[test]
fn registry_clean_tree_is_clean() {
    let out = check_workspace(&fixture_dir().join("registry_clean")).unwrap();
    assert!(
        out.is_empty(),
        "got {:#?}",
        out.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
}

#[test]
fn every_rule_in_the_catalogue_is_exercised() {
    let mut covered: Vec<&str> = bad_cases()
        .iter()
        .flat_map(|(_, _, exp)| exp.iter().map(|(r, _)| *r))
        .collect();
    covered.push("reg-policy-mod"); // registry_bad tree
                                    // The interprocedural passes are exercised by tests/interprocedural.rs
                                    // on seeded multi-file workspaces (they need a call graph, not a
                                    // single fixture file).
    covered.extend([
        "reach-panic",
        "det-taint",
        "lock-cycle",
        "lock-blocking",
        "lint-stale-allow",
    ]);
    for r in RULES {
        assert!(
            covered.contains(&r.id),
            "rule {} has no violating fixture",
            r.id
        );
    }
}

#[test]
fn violation_display_carries_location_rule_and_hint() {
    let out = check_source(WIRE_PATH, &fixture("panic_unwrap_bad.rs"));
    let text = out[0].to_string();
    assert!(
        text.starts_with("crates/wire/src/fixture.rs:3: [panic-unwrap]"),
        "{text}"
    );
    assert!(text.contains("hint:"), "{text}");
}

#[test]
fn the_workspace_itself_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = check_workspace(&root).unwrap();
    assert!(
        out.is_empty(),
        "findings (fix the site, or justify it with an audited `lint:allow`):\n{}",
        out.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
