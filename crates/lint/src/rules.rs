//! The per-file rule engine: scope resolution, test/`fn main` exemption,
//! `lint:allow` escapes, and the token-pattern matchers for every
//! `det-*` and `panic-*` rule.

use crate::lexer::{lex, Comment, Tok, TokKind};
use crate::{rule, Violation};
use std::collections::BTreeSet;

/// Crates whose library code must be deterministic: they produce or
/// transform trial results that the paper's analyses compare bit-wise.
/// The store crate is here because its serialized bytes are themselves a
/// compared artifact (same-seed runs must write identical files), and
/// the serve crate because query responses are pinned by golden tests
/// (its socket-facing module audits its wall-clock uses explicitly).
const DET_SCOPE: &[&str] = &[
    "crates/netmodel/src/",
    "crates/scanner/src/",
    "crates/core/src/",
    "crates/telemetry/src/",
    "crates/store/src/",
    "crates/serve/src/",
    // Plans are byte-compared artifacts too: same-seed builds must emit
    // identical `.osplan` files.
    "crates/plan/src/",
];

/// Crates whose library code must not panic: wire codecs and the scan
/// engine run inside supervised sessions that expect typed errors, the
/// telemetry hub is called from inside those same sessions, the store
/// decodes untrusted (possibly corrupted) files, which must surface as
/// typed `StoreError`s, and the serve crate answers untrusted network
/// input, which must surface as typed `QueryError`s.
const PANIC_SCOPE: &[&str] = &[
    "crates/wire/src/",
    "crates/scanner/src/",
    "crates/telemetry/src/",
    "crates/store/src/",
    "crates/serve/src/",
    // The plan crate decodes untrusted (possibly corrupted) plan files
    // and its `allows()` check sits on every probe of a planned scan.
    "crates/plan/src/",
    // The adversarial co-simulation runs inside the same supervised
    // sessions: the defender sits on the probe path of every scan and
    // the sweep harness drives parallel cells whose panics would tear
    // down the whole matrix, so both must surface typed errors.
    "crates/netmodel/src/defend.rs",
    "crates/core/src/adversarial.rs",
];

/// Modules that *emit ordered output* (reports, serialized results,
/// figure tables): hash collections are banned outright here, iterated
/// or not — an un-iterated map invites the next refactor to iterate it.
const REPORT_FILES: &[&str] = &[
    "crates/core/src/modules.rs",
    "crates/core/src/report.rs",
    "crates/core/src/summary.rs",
    "crates/scanner/src/output.rs",
];

/// Path fragments exempt from every code rule.
const EXEMPT_FRAGMENTS: &[&str] = &[
    "/tests/",
    "/benches/",
    "/examples/",
    "/bin/",
    "third_party/",
];

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Is this path inside the determinism scope? (Used by the taint pass
/// to avoid double-reporting sites the per-file `det-*` rules own.)
pub(crate) fn in_det_scope(path: &str) -> bool {
    in_scope(path, DET_SCOPE)
}

pub(crate) fn path_exempt(path: &str) -> bool {
    EXEMPT_FRAGMENTS.iter().any(|f| path.contains(f))
        || path.ends_with("/main.rs")
        || path.ends_with("build.rs")
}

/// Run every applicable code rule over one file.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Violation> {
    let path = rel_path.replace('\\', "/");
    let (toks, comments) = lex(src);
    let mut allows = parse_allows(&path, &toks, &comments);
    check_file_tokens(&path, &toks, &mut allows)
}

/// Run every applicable per-file rule over an already-lexed file,
/// marking used `lint:allow` escapes in `allows` so the workspace driver
/// can later flag the stale ones.
pub(crate) fn check_file_tokens(path: &str, toks: &[Tok], allows: &mut Allows) -> Vec<Violation> {
    let mut out: Vec<Violation> = allows.bad.clone();

    if !path_exempt(path) {
        let code = strip_exempt(toks);
        let mut found = Vec::new();
        if in_scope(path, DET_SCOPE) {
            det_wall_clock(path, &code, &mut found);
            det_unseeded_rng(path, &code, &mut found);
            det_hash_iter(path, &code, &mut found);
        }
        if REPORT_FILES.contains(&path) {
            det_hash_report(path, &code, &mut found);
        }
        if in_scope(path, PANIC_SCOPE) {
            panic_unwrap_expect(path, &code, &mut found);
            panic_macro(path, &code, &mut found);
            panic_lossy_cast(path, &code, &mut found);
        }
        // Observability rules cover every library crate: structured
        // output goes through the telemetry sinks, not bare stdio.
        obs_print(path, &code, &mut found);
        obs_dbg(path, &code, &mut found);
        for v in found {
            if !allows.suppresses(v.rule, v.line) {
                out.push(v);
            }
        }
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

fn violation(path: &str, line: u32, rule_id: &'static str, msg: String) -> Violation {
    Violation {
        file: path.to_string(),
        line,
        rule: rule_id,
        msg,
        chain: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// lint:allow escapes
// ---------------------------------------------------------------------

/// One well-formed `lint:allow` escape, with usage tracking for stale
/// detection.
#[derive(Debug, Clone)]
pub(crate) struct AllowEntry {
    /// Rule id the escape grants.
    pub(crate) rule: String,
    /// Target line the grant applies to.
    pub(crate) line: u32,
    /// Line of the escape comment itself (for stale diagnostics).
    pub(crate) comment_line: u32,
    /// Whether any pass actually needed the grant.
    pub(crate) used: bool,
}

/// The escapes parsed from one file.
#[derive(Debug, Default)]
pub(crate) struct Allows {
    /// Well-formed grants, in comment order.
    pub(crate) entries: Vec<AllowEntry>,
    /// Malformed escapes, reported as `lint-bad-allow`.
    pub(crate) bad: Vec<Violation>,
}

impl Allows {
    /// Does a grant cover (rule, line)? Marks every matching grant used.
    pub(crate) fn suppresses(&mut self, rule_id: &str, line: u32) -> bool {
        let mut any = false;
        for e in &mut self.entries {
            if e.rule == rule_id && e.line == line {
                e.used = true;
                any = true;
            }
        }
        any
    }
}

/// Parse every `lint:allow(rule-id) reason= justification` escape. An
/// escape on a line with code applies to that line; a comment-only line
/// applies to the next line bearing a token.
pub(crate) fn parse_allows(path: &str, toks: &[Tok], comments: &[Comment]) -> Allows {
    let tok_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
    let target_of = |comment_line: u32| -> u32 {
        if tok_lines.contains(&comment_line) {
            comment_line
        } else {
            tok_lines
                .range(comment_line..)
                .next()
                .copied()
                .unwrap_or(comment_line)
        }
    };
    let mut allows = Allows::default();
    for c in comments {
        // Doc comments (`///`, `//!`, `/** */`) are prose *about* the
        // linter, not escapes; only plain comments can grant one.
        if c.text.starts_with(['/', '!', '*']) {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(at) = rest.find("lint:allow") {
            rest = &rest[at + "lint:allow".len()..];
            // Bare mention without `(` is prose, not an escape attempt.
            let Some(open) = rest.strip_prefix('(') else {
                continue;
            };
            let Some(close) = open.find(')') else {
                allows.bad.push(violation(
                    path,
                    c.line,
                    "lint-bad-allow",
                    "unclosed lint:allow(rule-id)".to_string(),
                ));
                break;
            };
            let id = open[..close].trim();
            rest = &open[close + 1..];
            // The reason runs to the next escape (or end of comment) and
            // must be spelled `reason= justification` so escapes are
            // grep-able and unambiguous about being the audit trail.
            let reason_end = rest.find("lint:allow").unwrap_or(rest.len());
            let annot = rest[..reason_end]
                .trim_matches(|ch: char| ch.is_whitespace() || "—–-:,.".contains(ch));
            let reason = annot
                .strip_prefix("reason=")
                .map(str::trim)
                .filter(|r| !r.is_empty());
            if rule(id).is_none() {
                allows.bad.push(violation(
                    path,
                    c.line,
                    "lint-bad-allow",
                    format!("unknown rule `{id}` in lint:allow"),
                ));
            } else if reason.is_none() {
                allows.bad.push(violation(
                    path,
                    c.line,
                    "lint-bad-allow",
                    format!(
                        "lint:allow({id}) must carry `reason=` followed by the audit justification"
                    ),
                ));
            } else {
                allows.entries.push(AllowEntry {
                    rule: id.to_string(),
                    line: target_of(c.line),
                    comment_line: c.line,
                    used: false,
                });
            }
        }
    }
    allows
}

// ---------------------------------------------------------------------
// Test / `fn main` exemption
// ---------------------------------------------------------------------

/// Drop tokens inside `#[cfg(test)]` / `#[test]` items and `fn main`
/// bodies. Works purely on brace/bracket matching — no grammar needed.
fn strip_exempt(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        // `#[...]` attribute group mentioning `test` exempts the item
        // (and any stacked attributes) that follows.
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let end = match_bracket(toks, i + 1, '[', ']');
            let has_test = toks[i + 2..end].iter().any(|t| t.is_ident("test"));
            if has_test {
                i = skip_attrs(toks, end + 1);
                i = skip_item(toks, i);
                continue;
            }
            // Non-test attribute: pass its tokens through.
            out.extend_from_slice(&toks[i..=end.min(toks.len() - 1)]);
            i = end + 1;
            continue;
        }
        // `fn main` body is binary glue, exempt from library rules.
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.is_ident("main")) {
            i = skip_item(toks, i + 2);
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Index just past any further `#[...]` groups starting at `i`.
fn skip_attrs(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len()
        && toks[i].is_punct('#')
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        i = match_bracket(toks, i + 1, '[', ']') + 1;
    }
    i
}

/// Skip one item starting at `i`: to the matching `}` of its first
/// brace, or to a `;` that arrives first (e.g. `use`/`mod name;`).
fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        if toks[i].is_punct(';') {
            return i + 1;
        }
        if toks[i].is_punct('{') {
            return match_bracket(toks, i, '{', '}') + 1;
        }
        i += 1;
    }
    i
}

/// Index of the bracket matching `toks[open]` (which must be `open_c`);
/// saturates at the last token on unbalanced input.
fn match_bracket(toks: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(open_c) {
            depth += 1;
        } else if toks[i].is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------

fn det_wall_clock(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if (name == "Instant" || name == "SystemTime")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(violation(
                path,
                t.line,
                "det-wall-clock",
                format!("`{name}::now()` reads the wall clock; results would depend on when the run happens"),
            ));
        }
    }
}

/// Identifiers that always mean "randomness not derived from the seed".
pub(crate) const UNSEEDED_RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

fn det_unseeded_rng(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if UNSEEDED_RNG_IDENTS.contains(&name) {
            out.push(violation(
                path,
                t.line,
                "det-unseeded-rng",
                format!("`{name}` draws entropy outside the (seed, origin, trial) key"),
            ));
        } else if name == "rand"
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("random"))
        {
            out.push(violation(
                path,
                t.line,
                "det-unseeded-rng",
                "`rand::random` is seeded from process entropy".to_string(),
            ));
        }
    }
}

/// Iteration methods whose visit order is the hash order.
pub(crate) const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Collect names bound (via `let`, field, or parameter annotations) to a
/// `HashMap`/`HashSet` type anywhere in the file.
pub(crate) fn hash_bindings(toks: &[Tok]) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        // `name: [&] [mut] path::to::HashMap<...>`
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let mut j = i + 2;
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('&' | ':') | TokKind::Lifetime => j += 1,
                    TokKind::Ident(s) if s == "mut" || s == "dyn" => j += 1,
                    TokKind::Ident(s) => {
                        if s == "HashMap" || s == "HashSet" {
                            bound.insert(name.to_string());
                        }
                        // Only walk the path head; generics can nest
                        // hash types that are someone else's binding.
                        if toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                            j += 1;
                            continue;
                        }
                        break;
                    }
                    _ => break,
                }
            }
        }
        // `let [mut] name = [path::]HashMap::...` / `HashSet::...`
        if name == "let" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(bind) = toks.get(j).and_then(Tok::ident) else {
                continue;
            };
            if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                continue;
            }
            let mut k = j + 2;
            while k < toks.len() {
                match &toks[k].kind {
                    TokKind::Punct(':') => k += 1,
                    TokKind::Ident(s) => {
                        if s == "HashMap" || s == "HashSet" {
                            bound.insert(bind.to_string());
                        }
                        if toks.get(k + 1).is_some_and(|t| t.is_punct(':')) {
                            k += 1;
                            continue;
                        }
                        break;
                    }
                    _ => break,
                }
            }
        }
    }
    bound
}

fn det_hash_iter(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let bound = hash_bindings(toks);
    if bound.is_empty() {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !bound.contains(name) {
            continue;
        }
        // `name.iter()` / `.keys()` / `.drain()` / …
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(m) = toks.get(i + 2).and_then(Tok::ident) {
                if HASH_ITER_METHODS.contains(&m)
                    && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
                {
                    out.push(violation(
                        path,
                        t.line,
                        "det-hash-iter",
                        format!("`{name}.{m}()` visits a hash collection in entropy-seeded order"),
                    ));
                }
            }
        }
        // `for pat in [&] [mut] name {` — direct IntoIterator use.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('{')) {
            let mut j = i;
            while j > 0 {
                match &toks[j - 1].kind {
                    TokKind::Punct('&') => j -= 1,
                    TokKind::Ident(s) if s == "mut" => j -= 1,
                    _ => break,
                }
            }
            if j > 0 && toks[j - 1].is_ident("in") {
                out.push(violation(
                    path,
                    t.line,
                    "det-hash-iter",
                    format!("`for … in {name}` visits a hash collection in entropy-seeded order"),
                ));
            }
        }
    }
}

fn det_hash_report(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for t in toks {
        let Some(name) = t.ident() else { continue };
        if name == "HashMap" || name == "HashSet" {
            out.push(violation(
                path,
                t.line,
                "det-hash-report",
                format!(
                    "`{name}` in a report/serialization module; output order must be reproducible"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Observability rules
// ---------------------------------------------------------------------

const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

fn obs_print(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if PRINT_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(violation(
                path,
                t.line,
                "obs-print",
                format!("`{name}!` writes bare stdio from library code"),
            ));
        }
    }
}

fn obs_dbg(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("dbg") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(violation(
                path,
                t.line,
                "obs-dbg",
                "`dbg!` is unstructured stderr debugging left in library code".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Panic-safety rules
// ---------------------------------------------------------------------

fn panic_unwrap_expect(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct('.') {
            continue;
        }
        let Some(m) = toks.get(i + 1).and_then(Tok::ident) else {
            continue;
        };
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let (rule_id, desc) = match m {
            "unwrap" | "unwrap_err" => ("panic-unwrap", "panics on the unexpected variant"),
            "expect" | "expect_err" => ("panic-expect", "panics on the unexpected variant"),
            _ => continue,
        };
        out.push(violation(
            path,
            toks[i + 1].line,
            rule_id,
            format!("`.{m}()` {desc} inside library code"),
        ));
    }
}

pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn panic_macro(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if PANIC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            out.push(violation(
                path,
                t.line,
                "panic-macro",
                format!("`{name}!` aborts the scan instead of surfacing a typed error"),
            ));
        }
    }
}

const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn panic_lossy_cast(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        // `.len() as uN` — silently truncates once the buffer is big.
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("len"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("as"))
        {
            if let Some(ty) = toks.get(i + 5).and_then(Tok::ident) {
                if NARROW_INTS.contains(&ty) {
                    out.push(violation(
                        path,
                        toks[i + 4].line,
                        "panic-lossy-cast",
                        format!("`.len() as {ty}` silently truncates large lengths"),
                    ));
                }
            }
        }
        // `as uN as usize` — truncate-then-widen index arithmetic.
        if t.is_ident("as") {
            if let Some(ty) = toks.get(i + 1).and_then(Tok::ident) {
                if NARROW_INTS.contains(&ty)
                    && toks.get(i + 2).is_some_and(|t| t.is_ident("as"))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("usize"))
                {
                    out.push(violation(
                        path,
                        t.line,
                        "panic-lossy-cast",
                        format!("`as {ty} as usize` truncates before widening back to an index"),
                    ));
                }
            }
        }
    }
}
