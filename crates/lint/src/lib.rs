//! # originscan-lint
//!
//! An offline static analyzer enforcing the workspace's two load-bearing
//! invariants:
//!
//! 1. **Determinism** — every trial result is a pure function of
//!    `(seed, origin, trial)`. Fault injection, resume-after-kill, and
//!    multi-origin union analyses are only comparable because re-running
//!    any scan is bit-identical. Wall clocks, unseeded RNGs, and
//!    entropy-seeded `HashMap` iteration order all silently break this.
//! 2. **Panic safety** — the wire codecs and the scan engine sit on hot,
//!    correctness-critical paths; failures there must surface as typed
//!    errors (`ParseError`, `ScanError`, `ConfigError`), not panics that
//!    take down a supervised scan from inside.
//! 3. **Observability discipline** — library crates never write bare
//!    stdio. Progress and diagnostics route through the
//!    `originscan-telemetry` sinks (events, metrics, the stderr progress
//!    sink) so output stays structured, deterministic, and grep-able;
//!    the audited sinks themselves carry `lint:allow` escapes.
//!
//! The analyzer is a hand-rolled lexer plus an item-level parser — no
//! `syn`, no dependencies — consistent with the workspace's vendored-deps
//! policy, so it builds offline from a bare toolchain. On top of the
//! per-file token rules it builds a cross-crate call graph
//! ([`callgraph`]) and runs three interprocedural passes:
//!
//! * [`reach`] — panic-reachability from supervised entry points, with
//!   the shortest call chain as the diagnostic;
//! * [`taint`] — determinism taint from wall clocks / hash iteration /
//!   thread IDs / pointer casts into output functions;
//! * [`locks`] — lock-order cycles and lock-held-across-blocking-call
//!   sites over the serve tier's `Mutex`es.
//!
//! ## Escape hatch
//!
//! A violation can be suppressed with an *audited* comment on (or
//! immediately above) the offending line:
//!
//! ```text
//! // lint:allow(rule-id) reason= why the invariant still holds
//! ```
//!
//! The `reason=` annotation is mandatory; a bare `lint:allow` is itself
//! a violation (`lint-bad-allow`), and a grant that no longer suppresses
//! anything is flagged as `lint-stale-allow`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod reach;
pub mod registry;
pub mod rules;
pub mod taint;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One rule of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule identifier (used in output and `lint:allow`).
    pub id: &'static str,
    /// One-line description of what the rule bans.
    pub summary: &'static str,
    /// One-line fix hint appended to every violation.
    pub hint: &'static str,
}

/// The full rule catalogue.
///
/// Scopes: `det-*` rules cover library code of `netmodel`, `scanner`,
/// `core`, and `telemetry`; `panic-*` rules cover library code of
/// `wire`, `scanner`, and `telemetry`; `obs-*` rules cover library code
/// of every crate; `reg-*` rules are cross-file registry checks;
/// `lint-bad-allow` applies wherever an escape comment appears. Tests,
/// benches, examples, `src/bin`, and `fn main` bodies are exempt
/// everywhere.
pub const RULES: &[Rule] = &[
    Rule {
        id: "det-wall-clock",
        summary: "bans Instant::now / SystemTime::now in simulation and analysis crates",
        hint: "thread simulated time through explicitly (pacer clocks, response_time_s); \
               wall clocks break (seed, origin, trial) purity",
    },
    Rule {
        id: "det-unseeded-rng",
        summary: "bans thread_rng, rand::random, from_entropy, and other entropy-seeded RNGs",
        hint: "derive randomness from netmodel::rng::Det keyed by (seed, ids, trial); \
               unseeded RNGs make trials unreproducible",
    },
    Rule {
        id: "det-hash-iter",
        summary: "bans iterating HashMap/HashSet bindings (entropy-seeded order) in \
                  simulation and analysis crates",
        hint: "use BTreeMap/BTreeSet or collect-and-sort; std hash iteration order is \
               seeded from process entropy and differs across runs",
    },
    Rule {
        id: "det-hash-report",
        summary: "bans HashMap/HashSet entirely in report/serialization modules",
        hint: "report paths must be reproducibly ordered end to end: use BTreeMap, \
               BTreeSet, or sorted Vecs",
    },
    Rule {
        id: "panic-unwrap",
        summary: "bans .unwrap()/.unwrap_err() in wire and scanner library code",
        hint: "propagate a typed error (ParseError, ScanError, ConfigError) or restructure \
               so the failure is impossible by construction",
    },
    Rule {
        id: "panic-expect",
        summary: "bans .expect()/.expect_err() in wire and scanner library code",
        hint: "propagate a typed error (ParseError, ScanError, ConfigError) or restructure \
               so the failure is impossible by construction",
    },
    Rule {
        id: "panic-macro",
        summary: "bans panic!/unreachable!/todo!/unimplemented! in wire and scanner \
                  library code",
        hint: "return a typed error; if the arm is provably dead, justify it with \
               lint:allow and a proof sketch",
    },
    Rule {
        id: "panic-lossy-cast",
        summary: "bans truncating `as` casts on lengths and truncate-then-widen index chains",
        hint: "use try_from with a typed error, or a checked guard; silent truncation \
               corrupts lengths/offsets exactly when inputs get large",
    },
    Rule {
        id: "obs-print",
        summary: "bans bare println!/eprintln!/print!/eprint! in library crates",
        hint: "route progress through originscan_telemetry::progress::emit_progress (or an \
               event/metric); the one audited stdio sink per stream carries a lint:allow",
    },
    Rule {
        id: "obs-dbg",
        summary: "bans dbg! in library crates",
        hint: "dbg! is a leftover debugging aid that writes unstructured stderr; record a \
               telemetry event or metric instead, or delete it",
    },
    Rule {
        id: "reg-policy-mod",
        summary: "every netmodel/src/policy/*.rs module must be registered in policy/mod.rs",
        hint: "add `pub mod <name>;` to crates/netmodel/src/policy/mod.rs (or delete the \
               orphaned file)",
    },
    Rule {
        id: "lint-bad-allow",
        summary: "lint:allow escapes must name a known rule and carry a reason= annotation",
        hint: "write `// lint:allow(rule-id) reason= justification`; the reason is the \
               audit trail",
    },
    Rule {
        id: "lint-stale-allow",
        summary: "lint:allow escapes whose rule no longer fires at that site must be deleted",
        hint: "the escape suppresses nothing — the code was fixed or moved; delete the \
               comment so dead grants cannot silence future regressions",
    },
    Rule {
        id: "reach-panic",
        summary: "bans panic!/unwrap/expect/slice-index sites reachable from supervised \
                  entry points, across any number of call hops and crates",
        hint: "follow the printed call chain; return a typed error through the chain, or \
               restructure so the failure is impossible and justify with lint:allow",
    },
    Rule {
        id: "det-taint",
        summary: "bans wall clocks, entropy RNGs, hash-order iteration, thread IDs, and \
                  pointer-to-int casts in any function reachable from an output/serialization \
                  function",
        hint: "follow the printed flow chain; thread deterministic inputs through \
               explicitly — output bytes must be a pure function of (seed, origin, trial)",
    },
    Rule {
        id: "lock-cycle",
        summary: "bans serve-tier Mutex classes acquired in a cyclic order (potential \
                  deadlock)",
        hint: "impose a single global acquisition order (document it next to the Mutex \
               fields), or merge the locks; a cycle means two requests can deadlock",
    },
    Rule {
        id: "lock-blocking",
        summary: "bans holding a serve-tier Mutex across blocking work (file/socket I/O, \
                  sleeps, channel receives)",
        hint: "copy what you need out of the guard and drop it before blocking, or move \
               the blocking work outside the critical section (see ROADMAP: lock-free \
               serve snapshots)",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One violation found by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human-readable description of this specific occurrence.
    pub msg: String,
    /// Extra diagnostic lines (call chains / flow chains); empty for
    /// per-file rules.
    pub chain: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )?;
        for c in &self.chain {
            write!(f, "\n    {c}")?;
        }
        if let Some(r) = rule(self.rule) {
            write!(f, "\n    hint: {}", r.hint)?;
        }
        Ok(())
    }
}

/// Analyze one source file given its workspace-relative path.
///
/// The path decides which rule scopes apply; the contents are lexed and
/// checked. Registry (`reg-*`) rules are cross-file and live in
/// [`registry::check_registry`] instead.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Violation> {
    rules::check_file(rel_path, src)
}

/// Analyze a set of in-memory `(path, source)` files as a complete
/// workspace: the per-file rules, the cross-crate interprocedural passes
/// (panic-reachability, determinism taint, lock order), and stale-allow
/// detection. Registry (`reg-*`) rules need the real tree and only run
/// through [`check_workspace`].
pub fn check_files(inputs: &[(String, String)]) -> Vec<Violation> {
    let mut files = Vec::with_capacity(inputs.len());
    let mut allows = Vec::with_capacity(inputs.len());
    for (path, src) in inputs {
        let path = path.replace('\\', "/");
        let (toks, comments) = lexer::lex(src);
        allows.push(rules::parse_allows(&path, &toks, &comments));
        files.push(parse::SourceFile {
            path,
            toks,
            comments,
        });
    }
    let mut out = Vec::new();
    for (i, f) in files.iter().enumerate() {
        // `bad` allows are already in per-file results; clear so the
        // stale sweep below cannot double-report them.
        out.extend(rules::check_file_tokens(&f.path, &f.toks, &mut allows[i]));
        allows[i].bad.clear();
    }
    let ws = parse::parse_workspace(&files);
    let bodies = callgraph::fn_bodies(&ws);
    let graph = callgraph::build(&ws, &files, &bodies);
    out.extend(reach::check(&ws, &graph, &files, &bodies, &mut allows));
    out.extend(taint::check(&ws, &graph, &files, &bodies, &mut allows));
    out.extend(locks::check(&ws, &graph, &files, &bodies, &mut allows));
    // Stale allows: a grant no pass needed. Exempt paths never run the
    // rules, so their grants are judged elsewhere (or not at all).
    for (i, f) in files.iter().enumerate() {
        if rules::path_exempt(&f.path) {
            continue;
        }
        for e in &allows[i].entries {
            if !e.used {
                out.push(Violation {
                    file: f.path.clone(),
                    line: e.comment_line,
                    rule: "lint-stale-allow",
                    msg: format!(
                        "lint:allow({}) no longer suppresses anything at this site",
                        e.rule
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// Analyze the whole workspace rooted at `root`: every `crates/*/src`
/// Rust file through [`check_files`], plus the cross-file registry
/// rules. Violations are sorted by (file, line, rule).
pub fn check_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut inputs = Vec::new();
    for file in workspace_sources(root)? {
        let src = std::fs::read_to_string(&file)?;
        inputs.push((rel_to(root, &file), src));
    }
    let mut out = check_files(&inputs);
    out.extend(registry::check_registry(root)?);
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(out)
}

/// Workspace-relative forward-slash path of `file` under `root`.
fn rel_to(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// All `.rs` files under `crates/*/src`, sorted for deterministic output
/// (the linter holds itself to the ordering rules it enforces).
fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    if !crates_dir.is_dir() {
        return Ok(files);
    }
    let mut crates: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for krate in crates {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
