//! Interprocedural panic-reachability.
//!
//! From the supervised entry points (the scan loop, the serve request
//! handlers, the store decode paths, the defender agents, and the
//! adversarial sweep harness) every transitively reachable
//! `panic!`/`unwrap`/`expect`/slice-index site is a way for a supervised
//! session to die without a typed error. The per-file `panic-*` rules
//! only see the crates they scope; this pass follows calls across
//! helpers and crates and reports the *shortest* call chain from an
//! entry point as the diagnostic.

use crate::callgraph::{render_chain, shortest_chains, CallGraph, FnBodies};
use crate::lexer::Tok;
use crate::parse::{SourceFile, Workspace, KEYWORDS};
use crate::rules::Allows;
use crate::Violation;

/// Files whose unrestricted-`pub` functions and trait-impl methods are
/// supervised entry points.
///
/// This replaces the old PANIC_SCOPE file-list approximation for
/// reachability purposes: anything these surfaces can reach is on a
/// supervised path, whichever crate it lives in.
pub const ENTRY_SCOPE: &[&str] = &[
    "crates/scanner/src/engine.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/engine.rs",
    "crates/store/src/",
    "crates/netmodel/src/defend.rs",
    "crates/core/src/adversarial.rs",
];

/// One potential panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// `unwrap` / `expect` / `panic!` / `index`, for the message.
    pub what: String,
    /// Per-file rule whose `lint:allow` also covers this site kind.
    pub legacy_rule: &'static str,
}

const UNWRAP_METHODS: &[&str] = &["unwrap", "unwrap_err"];
const EXPECT_METHODS: &[&str] = &["expect", "expect_err"];

/// Scan one body token range for panic sites (nested bodies excluded).
pub fn panic_sites(
    toks: &[Tok],
    range: std::ops::Range<usize>,
    skip: &[std::ops::Range<usize>],
) -> Vec<PanicSite> {
    let mut out = Vec::new();
    let hi = range.end.min(toks.len());
    let mut j = range.start;
    while j < hi {
        if let Some(s) = skip.iter().find(|s| s.contains(&j)) {
            j = s.end;
            continue;
        }
        let t = &toks[j];
        // `.unwrap()` / `.expect(…)` and friends.
        if t.is_punct('.') {
            if let Some(m) = toks.get(j + 1).and_then(Tok::ident) {
                if toks.get(j + 2).is_some_and(|t| t.is_punct('(')) {
                    if UNWRAP_METHODS.contains(&m) {
                        out.push(PanicSite {
                            line: toks[j + 1].line,
                            what: format!(".{m}()"),
                            legacy_rule: "panic-unwrap",
                        });
                    } else if EXPECT_METHODS.contains(&m) {
                        out.push(PanicSite {
                            line: toks[j + 1].line,
                            what: format!(".{m}()"),
                            legacy_rule: "panic-expect",
                        });
                    }
                }
            }
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
        if let Some(name) = t.ident() {
            if crate::rules::PANIC_MACROS.contains(&name)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('!'))
            {
                out.push(PanicSite {
                    line: t.line,
                    what: format!("{name}!"),
                    legacy_rule: "panic-macro",
                });
            }
        }
        // Slice/array indexing `expr[…]`: panics when out of bounds.
        if t.is_punct('[') && j > range.start {
            let prev = &toks[j - 1];
            let indexable = match prev.ident() {
                Some(id) => !KEYWORDS.contains(&id),
                None => prev.is_punct(')') || prev.is_punct(']'),
            };
            // A full-range slice `x[..]` cannot fail.
            let full_range = toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                && toks.get(j + 2).is_some_and(|t| t.is_punct('.'))
                && toks.get(j + 3).is_some_and(|t| t.is_punct(']'));
            if indexable && !full_range {
                out.push(PanicSite {
                    line: t.line,
                    what: "index expression".to_string(),
                    legacy_rule: "reach-panic",
                });
            }
        }
        j += 1;
    }
    out
}

/// Indices of entry-point functions: non-exempt functions defined in
/// [`ENTRY_SCOPE`] files that are unrestricted-`pub` or methods of an
/// `impl Trait for Type` (callers reach those through the trait — often
/// a `std` one such as `Iterator::next`, which the call graph does not
/// link — so their own visibility says nothing).
pub fn entry_points(ws: &Workspace, files: &[SourceFile]) -> Vec<usize> {
    ws.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            (f.is_pub || f.trait_impl)
                && !f.exempt
                && ENTRY_SCOPE
                    .iter()
                    .any(|p| files[f.file].path.starts_with(p))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Run the pass: every panic site in a function reachable from an entry
/// point becomes a `reach-panic` finding carrying the shortest chain.
pub(crate) fn check(
    ws: &Workspace,
    graph: &CallGraph,
    files: &[SourceFile],
    bodies: &FnBodies,
    allows: &mut [Allows],
) -> Vec<Violation> {
    let entries = entry_points(ws, files);
    let chains = shortest_chains(graph, ws.fns.len(), &entries);
    let mut out = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.exempt {
            continue;
        }
        let Some(chain) = &chains[i] else { continue };
        let toks = &files[f.file].toks;
        for site in panic_sites(toks, f.body.clone(), &bodies.skips[i]) {
            let al = &mut allows[f.file];
            if al.suppresses("reach-panic", site.line)
                || (site.legacy_rule != "reach-panic" && al.suppresses(site.legacy_rule, site.line))
            {
                continue;
            }
            let entry = &ws.fns[chain[0].func];
            let mut v = Violation {
                file: files[f.file].path.clone(),
                line: site.line,
                rule: "reach-panic",
                msg: format!(
                    "{} in `{}` can panic and is reachable from supervised entry `{}`",
                    site.what,
                    f.qualname(),
                    entry.qualname(),
                ),
                chain: vec![format!("chain: {}", render_chain(ws, chain))],
            };
            if chain.len() == 1 {
                v.chain = vec![format!("chain: {} (entry point itself)", entry.qualname())];
            }
            out.push(v);
        }
    }
    out
}
