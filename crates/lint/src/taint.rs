//! Interprocedural determinism taint.
//!
//! Wall-clock reads, entropy-seeded RNGs, `HashMap`/`HashSet` iteration
//! order, thread IDs, and pointer-to-integer casts are all values that
//! differ between two runs of the same `(seed, origin, trial)`. The
//! per-file `det-*` rules catch them inside the determinism-scoped
//! crates; this pass catches the laundered version — a helper *outside*
//! the scope (or any number of hops away) whose nondeterminism flows
//! into an output/serialization function, where it would perturb bytes
//! that the golden and determinism tests compare.

use crate::callgraph::{render_chain, shortest_chains, CallGraph, FnBodies};
use crate::lexer::Tok;
use crate::parse::{SourceFile, Workspace};
use crate::rules::Allows;
use crate::Violation;

/// Output/serialization surfaces: every byte these functions emit is
/// compared bit-wise by goldens, determinism tests, or the paper's
/// diffing analyses. Nondeterminism must never flow into them.
pub const DET_SINK_FILES: &[&str] = &[
    "crates/core/src/report.rs",
    "crates/core/src/summary.rs",
    "crates/scanner/src/output.rs",
    "crates/store/src/format.rs",
    "crates/serve/src/engine.rs",
    "crates/serve/src/http.rs",
    "crates/telemetry/src/json.rs",
    "crates/telemetry/src/event.rs",
];

/// One taint source site inside a function body.
#[derive(Debug, Clone)]
pub struct TaintSource {
    /// 1-based line.
    pub line: u32,
    /// Human-readable source kind for the message.
    pub what: String,
    /// Per-file rule whose `lint:allow` also covers this source kind.
    pub legacy_rule: &'static str,
}

/// Integer types a pointer can be laundered into.
const PTR_INT_TYPES: &[&str] = &["usize", "u64", "u32", "i64", "u128"];

/// Scan one body range for taint sources (nested bodies excluded).
pub fn taint_sources(
    toks: &[Tok],
    range: std::ops::Range<usize>,
    skip: &[std::ops::Range<usize>],
) -> Vec<TaintSource> {
    let mut out = Vec::new();
    let hash_bound = crate::rules::hash_bindings(toks);
    let hi = range.end.min(toks.len());
    let mut j = range.start;
    while j < hi {
        if let Some(s) = skip.iter().find(|s| s.contains(&j)) {
            j = s.end;
            continue;
        }
        let t = &toks[j];
        if let Some(name) = t.ident() {
            // Wall clock: `Instant::now()` / `SystemTime::now()`.
            if (name == "Instant" || name == "SystemTime")
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 3).is_some_and(|t| t.is_ident("now"))
            {
                out.push(TaintSource {
                    line: t.line,
                    what: format!("`{name}::now()` wall-clock read"),
                    legacy_rule: "det-wall-clock",
                });
            }
            // Entropy-seeded RNGs.
            if crate::rules::UNSEEDED_RNG_IDENTS.contains(&name) {
                out.push(TaintSource {
                    line: t.line,
                    what: format!("`{name}` entropy-seeded randomness"),
                    legacy_rule: "det-unseeded-rng",
                });
            }
            // Thread identity.
            if name == "ThreadId"
                || (name == "thread"
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 3).is_some_and(|t| t.is_ident("current")))
            {
                out.push(TaintSource {
                    line: t.line,
                    what: "thread identity (differs across runs)".to_string(),
                    legacy_rule: "det-taint",
                });
            }
            // Hash-order iteration on a bound HashMap/HashSet.
            if hash_bound.contains(name)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(j + 2)
                    .and_then(Tok::ident)
                    .is_some_and(|m| crate::rules::HASH_ITER_METHODS.contains(&m))
                && toks.get(j + 3).is_some_and(|t| t.is_punct('('))
            {
                out.push(TaintSource {
                    line: t.line,
                    what: format!("`{name}` hash-order iteration"),
                    legacy_rule: "det-hash-iter",
                });
            }
            // Pointer-to-integer cast: `….as_ptr() as usize`.
            if name == "as" {
                if let Some(ty) = toks.get(j + 1).and_then(Tok::ident) {
                    if PTR_INT_TYPES.contains(&ty) {
                        let lo = j.saturating_sub(8).max(range.start);
                        let ptrish = toks[lo..j]
                            .iter()
                            .any(|t| t.is_ident("as_ptr") || t.is_ident("as_mut_ptr"));
                        if ptrish {
                            out.push(TaintSource {
                                line: t.line,
                                what: format!("pointer-to-`{ty}` cast (ASLR-dependent)"),
                                legacy_rule: "det-taint",
                            });
                        }
                    }
                }
            }
        }
        j += 1;
    }
    out
}

/// Indices of sink functions: non-exempt functions defined in
/// [`DET_SINK_FILES`].
pub fn sink_fns(ws: &Workspace, files: &[SourceFile]) -> Vec<usize> {
    ws.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.exempt && DET_SINK_FILES.iter().any(|p| files[f.file].path == *p))
        .map(|(i, _)| i)
        .collect()
}

/// Run the pass: a taint source in any function reachable *from* a sink
/// function means the sink's output can depend on it. Direct sites in
/// files the per-file `det-*` rules already police are left to them.
pub(crate) fn check(
    ws: &Workspace,
    graph: &CallGraph,
    files: &[SourceFile],
    bodies: &FnBodies,
    allows: &mut [Allows],
) -> Vec<Violation> {
    let sinks = sink_fns(ws, files);
    let chains = shortest_chains(graph, ws.fns.len(), &sinks);
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.exempt {
            continue;
        }
        let Some(chain) = &chains[i] else { continue };
        let direct = chain.len() == 1;
        // Direct sites inside a determinism-scoped sink file are the
        // per-file rules' findings; re-reporting them here would be
        // double jeopardy.
        if direct && crate::rules::in_det_scope(&files[f.file].path) {
            continue;
        }
        let toks = &files[f.file].toks;
        for src in taint_sources(toks, f.body.clone(), &bodies.skips[i]) {
            let al = &mut allows[f.file];
            if al.suppresses("det-taint", src.line)
                || (src.legacy_rule != "det-taint" && al.suppresses(src.legacy_rule, src.line))
            {
                continue;
            }
            let sink = &ws.fns[chain[0].func];
            out.push(Violation {
                file: files[f.file].path.clone(),
                line: src.line,
                rule: "det-taint",
                msg: format!(
                    "{} in `{}` taints output function `{}`",
                    src.what,
                    f.qualname(),
                    sink.qualname(),
                ),
                chain: vec![format!("flow: {}", render_chain(ws, chain))],
            });
        }
    }
    out
}
