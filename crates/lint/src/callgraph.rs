//! The cross-crate call graph: call-site extraction from function body
//! token streams, name resolution against the workspace symbol table,
//! and multi-source shortest-path search (for "shortest call chain"
//! diagnostics).
//!
//! Resolution is deliberately conservative in both directions and the
//! asymmetry is chosen per call form:
//!
//! * **Path calls** (`module::helper(…)`, `Type::assoc(…)`) resolve by
//!   suffix match against the symbol table, preferring the caller's own
//!   crate — mirroring how `rustc` would resolve them.
//! * **Bare calls** (`helper(…)`) resolve same-module → same-crate →
//!   `use`-imported. A bare call can never reach another crate without
//!   an import, so an unresolved bare name is treated as `std` and
//!   dropped — this is what makes shadowed function names safe.
//! * **Method calls** (`x.probe(…)`) resolve through a light local type
//!   map when the receiver's type is annotated nearby; otherwise they
//!   link to *every* workspace method of that name (sound for trait
//!   dispatch) unless the name collides with the `std` prelude
//!   ([`COMMON_METHODS`]), where linking everything would drown the
//!   graph in false edges.

use crate::lexer::{Tok, TokKind};
use crate::parse::{FnDef, SourceFile, Workspace, KEYWORDS};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee function index into [`Workspace::fns`].
    pub callee: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
}

/// The workspace call graph, indexed like [`Workspace::fns`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing resolved edges per function, in body order.
    pub edges: Vec<Vec<Edge>>,
}

/// Method names so common in `std` that an untyped receiver must not
/// link to same-named workspace methods: the false edges would connect
/// every `Vec`/`BTreeMap` call site to unrelated code.
pub const COMMON_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "to_string",
    "to_vec",
    "as_str",
    "as_ref",
    "as_mut",
    "as_bytes",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "take",
    "replace",
    "contains",
    "contains_key",
    "entry",
    "extend",
    "sort",
    "sort_by",
    "sort_by_key",
    "min",
    "max",
    "sum",
    "count",
    "filter",
    "collect",
    "fold",
    "rev",
    "zip",
    "chain",
    "enumerate",
    "flat_map",
    "any",
    "all",
    "find",
    "position",
    "split",
    "trim",
    "parse",
    "join",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "new",
    "default",
    "from",
    "into",
    "write",
    "read",
    "flush",
    "lock",
    "send",
    "recv",
    "retain",
    "drain",
    "clear",
    "first",
    "last",
    "split_at",
    "chunks",
    "windows",
    "to_owned",
    "borrow",
    "deref",
    "index",
    "starts_with",
    "ends_with",
    "chars",
    "bytes",
    "lines",
    "abs",
    "floor",
    "ceil",
    "sqrt",
    "min_by",
    "max_by",
    "copied",
    "cloned",
    "filter_map",
    "skip",
    "step_by",
    "get_or_insert_with",
    "binary_search",
    "binary_search_by",
    "partial_cmp",
    "push_str",
    "write_str",
    "write_fmt",
    "wrapping_add",
    "wrapping_mul",
    "saturating_sub",
    "saturating_add",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "rotate_left",
    "rotate_right",
    "to_le_bytes",
    "from_le_bytes",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
];

/// A call site lifted from a body token stream, before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments; a single segment for bare and method calls.
    pub segs: Vec<String>,
    /// Method call (`.name(…)`) rather than a path/bare call.
    pub is_method: bool,
    /// Receiver variable/field name for method calls, when syntactically
    /// evident (`x.name(…)`, `self.field.name(…)` → `x` / `field`).
    pub receiver: Option<String>,
    /// 1-based line of the called name.
    pub line: u32,
}

/// Extract every call site from `toks[range]`, skipping the body ranges
/// in `skip` (nested `fn` items, which own their calls).
pub fn call_sites(
    toks: &[Tok],
    range: std::ops::Range<usize>,
    skip: &[std::ops::Range<usize>],
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut j = range.start;
    while j < range.end.min(toks.len()) {
        if let Some(s) = skip.iter().find(|s| s.contains(&j)) {
            j = s.end;
            continue;
        }
        if toks[j].is_punct('(') {
            if let Some(site) = call_at(toks, j, range.start) {
                out.push(site);
            }
        }
        j += 1;
    }
    out
}

/// Interpret the tokens before the `(` at `open` as a call target.
fn call_at(toks: &[Tok], open: usize, floor: usize) -> Option<CallSite> {
    let mut k = open.checked_sub(1)?;
    if k < floor {
        return None;
    }
    // Turbofish: `name::<…>(` — hop back over the generic arguments.
    if toks[k].is_punct('>') {
        let mut depth = 0i32;
        loop {
            if toks[k].is_punct('>') {
                depth += 1;
            } else if toks[k].is_punct('<') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k = k.checked_sub(1)?;
            if k < floor {
                return None;
            }
        }
        // Expect `::` before the `<`.
        if k < floor + 2 || !toks[k - 1].is_punct(':') || !toks[k - 2].is_punct(':') {
            return None;
        }
        k -= 3;
    }
    let name = toks.get(k)?.ident()?;
    if KEYWORDS.contains(&name) {
        return None;
    }
    // A definition (`fn name(`) is not a call.
    if k > floor && toks[k - 1].is_ident("fn") {
        return None;
    }
    let line = toks[k].line;
    // Walk the leading path: `a::b::name(`.
    let mut segs = vec![name.to_string()];
    let mut m = k;
    while m >= floor + 3
        && toks[m - 1].is_punct(':')
        && toks[m - 2].is_punct(':')
        && toks[m - 3].ident().is_some()
    {
        let seg = toks[m - 3].ident().unwrap_or_default();
        segs.insert(0, seg.to_string());
        m -= 3;
    }
    let is_method = segs.len() == 1 && m > floor && toks[m - 1].is_punct('.');
    if !is_method && m > floor && toks[m - 1].is_punct('.') {
        // `recv.path::name(` cannot occur; treat defensively as method.
        return None;
    }
    let receiver = if is_method && m > floor + 1 {
        toks[m - 2].ident().map(str::to_string)
    } else {
        None
    };
    // A macro invocation (`name!(`) is not a function call.
    if toks.get(k + 1).is_some_and(|t| t.is_punct('!')) {
        return None;
    }
    Some(CallSite {
        segs,
        is_method,
        receiver,
        line,
    })
}

/// Light local type map: `name: Type` annotations (params, fields,
/// lets) and `let name = Type::…(…)` initializations over one token
/// range. Used to type method-call receivers.
pub fn type_bindings(toks: &[Tok], range: std::ops::Range<usize>) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let hi = range.end.min(toks.len());
    for i in range.start..hi {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if KEYWORDS.contains(&name) {
            // `let [mut] bind = Type::…` initialization.
            if name != "let" {
                continue;
            }
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
            if let Some(head) = toks.get(j + 2).and_then(Tok::ident) {
                if head.starts_with(char::is_uppercase)
                    && toks.get(j + 3).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 4).is_some_and(|t| t.is_punct(':'))
                {
                    map.insert(bind.to_string(), head.to_string());
                }
            }
            continue;
        }
        // `name : [&|&mut|lifetime]* Type` annotation — but not `::`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && !(i > range.start && toks[i - 1].is_punct(':'))
        {
            let mut j = i + 2;
            while j < hi {
                match &toks[j].kind {
                    TokKind::Punct('&') | TokKind::Lifetime => j += 1,
                    // `dyn Trait` / `impl Trait` receivers are
                    // trait-dispatched — there is no concrete type to
                    // record, and claiming one would wrongly prune the
                    // conservative link-to-every-impl fallback.
                    TokKind::Ident(s) if s == "dyn" || s == "impl" => break,
                    TokKind::Ident(s) if s == "mut" => j += 1,
                    TokKind::Ident(s) => {
                        // Walk to the last path segment: `a::b::Type`.
                        let mut head = s.as_str();
                        while toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                            && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
                            && toks.get(j + 3).and_then(Tok::ident).is_some()
                        {
                            j += 3;
                            head = toks[j].ident().unwrap_or(head);
                        }
                        if head.starts_with(char::is_uppercase) {
                            map.insert(name.to_string(), head.to_string());
                        }
                        break;
                    }
                    _ => break,
                }
            }
        }
    }
    map
}

/// Per-function context needed repeatedly by the passes.
#[derive(Debug)]
pub struct FnBodies {
    /// For each function: nested function body ranges to skip.
    pub skips: Vec<Vec<std::ops::Range<usize>>>,
}

/// Compute nested-body skip lists (a nested `fn` owns its tokens).
pub fn fn_bodies(ws: &Workspace) -> FnBodies {
    let mut skips: Vec<Vec<std::ops::Range<usize>>> = vec![Vec::new(); ws.fns.len()];
    for (i, f) in ws.fns.iter().enumerate() {
        for g in &ws.fns {
            if g.file == f.file
                && g.body.start > f.body.start
                && g.body.end <= f.body.end
                && !(g.body.start == f.body.start && g.body.end == f.body.end)
            {
                skips[i].push(g.body.clone());
            }
        }
    }
    FnBodies { skips }
}

/// Build the resolved call graph for the whole workspace.
pub fn build(ws: &Workspace, files: &[SourceFile], bodies: &FnBodies) -> CallGraph {
    let resolver = Resolver::new(ws);
    let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(ws.fns.len());
    // File-wide annotations (struct fields, consts, statics) type
    // receivers that the fn-local scan cannot see — e.g. a `hits:
    // AtomicU64` field types `self.hits.load(…)`. They come from the
    // tokens outside every fn: another fn's params and `let`s say nothing
    // about this one's names. Locals override on collision.
    let file_types: Vec<BTreeMap<String, String>> = files
        .iter()
        .enumerate()
        .map(|(file, f)| {
            // `ws.fns` is in token order, so the gaps come out in order.
            let mut fns: Vec<std::ops::Range<usize>> = ws
                .fns
                .iter()
                .filter(|g| g.file == file)
                .map(|g| g.sig.start..g.body.end.max(g.sig.end))
                .collect();
            fns.push(f.toks.len()..f.toks.len());
            let mut types = BTreeMap::new();
            let mut from = 0;
            for r in fns {
                if r.start > from {
                    types.extend(type_bindings(&f.toks, from..r.start));
                }
                from = from.max(r.end);
            }
            types
        })
        .collect();
    for (i, f) in ws.fns.iter().enumerate() {
        let toks = &files[f.file].toks;
        let sites = call_sites(toks, f.body.clone(), &bodies.skips[i]);
        let mut types = file_types[f.file].clone();
        types.extend(type_bindings(toks, f.sig.start..f.body.end));
        if let Some(ty) = &f.self_ty {
            types.insert("self".to_string(), ty.clone());
        }
        let mut out: Vec<Edge> = Vec::new();
        for site in sites {
            for callee in resolver.resolve(ws, f, &site, &types) {
                // Dedup repeated edges to the same callee at one line.
                let e = Edge {
                    callee,
                    line: site.line,
                };
                if !out.contains(&e) {
                    out.push(e);
                }
            }
        }
        edges.push(out);
    }
    CallGraph { edges }
}

struct Resolver {
    /// name → free fn indices.
    free: BTreeMap<String, Vec<usize>>,
    /// method name → fn indices (any self type).
    methods: BTreeMap<String, Vec<usize>>,
    /// (self type, name) → fn indices.
    typed: BTreeMap<(String, String), Vec<usize>>,
}

impl Resolver {
    fn new(ws: &Workspace) -> Self {
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in ws.fns.iter().enumerate() {
            match &f.self_ty {
                None => free.entry(f.name.clone()).or_default().push(i),
                Some(ty) => {
                    methods.entry(f.name.clone()).or_default().push(i);
                    typed
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                }
            }
        }
        Resolver {
            free,
            methods,
            typed,
        }
    }

    fn resolve(
        &self,
        ws: &Workspace,
        caller: &FnDef,
        site: &CallSite,
        types: &BTreeMap<String, String>,
    ) -> Vec<usize> {
        if site.is_method {
            return self.resolve_method(ws, caller, site, types);
        }
        if site.segs.len() == 1 {
            return self.resolve_bare(ws, caller, &site.segs[0]);
        }
        self.resolve_path(ws, caller, &site.segs)
    }

    /// `x.name(…)`: typed lookup through the local type map, else every
    /// same-named workspace method (unless the name is `std`-common).
    fn resolve_method(
        &self,
        ws: &Workspace,
        caller: &FnDef,
        site: &CallSite,
        types: &BTreeMap<String, String>,
    ) -> Vec<usize> {
        let name = &site.segs[0];
        if let Some(recv) = &site.receiver {
            if let Some(ty) = types.get(recv) {
                if let Some(cands) = self.typed.get(&(ty.clone(), name.clone())) {
                    return prefer_crate(ws, caller, cands);
                }
                // Known receiver type without that method: a std method
                // on a std type (or through Deref) — not workspace code.
                return Vec::new();
            }
        }
        if COMMON_METHODS.contains(&name.as_str()) {
            return Vec::new();
        }
        self.methods.get(name).cloned().unwrap_or_default()
    }

    /// `name(…)`: same module → same crate → imported; never another
    /// crate without an import (so shadowed names stay local).
    fn resolve_bare(&self, ws: &Workspace, caller: &FnDef, name: &str) -> Vec<usize> {
        if let Some(cands) = self.free.get(name) {
            let same_mod: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| {
                    ws.fns[i].crate_name == caller.crate_name && ws.fns[i].module == caller.module
                })
                .collect();
            if !same_mod.is_empty() {
                return same_mod;
            }
            let same_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| ws.fns[i].crate_name == caller.crate_name)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
        }
        // `use a::b::name;` then `name(…)`.
        if let Some(full) = ws.imports.get(caller.file).and_then(|m| m.get(name)) {
            return self.resolve_path(ws, caller, full);
        }
        // `use a::b::*;` glob: try each glob module as a prefix.
        if let Some(globs) = ws.globs.get(caller.file) {
            for g in globs {
                let mut segs = g.clone();
                segs.push(name.to_string());
                let hit = self.resolve_path(ws, caller, &segs);
                if !hit.is_empty() {
                    return hit;
                }
            }
        }
        Vec::new()
    }

    /// `a::b::name(…)` / `Type::assoc(…)`: suffix match on the symbol
    /// table after normalizing `crate`/`self`/`super`/`originscan_*`.
    fn resolve_path(&self, ws: &Workspace, caller: &FnDef, segs: &[String]) -> Vec<usize> {
        let mut segs = segs.to_vec();
        // Normalize the head.
        if let Some(head) = segs.first().cloned() {
            match head.as_str() {
                "crate" => {
                    segs.remove(0);
                    segs.insert(0, caller.crate_name.clone());
                }
                "self" => {
                    segs.remove(0);
                    let mut prefix = vec![caller.crate_name.clone()];
                    prefix.extend(caller.module.iter().cloned());
                    for (n, p) in prefix.into_iter().enumerate() {
                        segs.insert(n, p);
                    }
                }
                "super" => {
                    segs.remove(0);
                    let mut prefix = vec![caller.crate_name.clone()];
                    let parent = caller.module.len().saturating_sub(1);
                    prefix.extend(caller.module[..parent].iter().cloned());
                    for (n, p) in prefix.into_iter().enumerate() {
                        segs.insert(n, p);
                    }
                }
                "std" | "core" | "alloc" => return Vec::new(),
                _ => {
                    if let Some(stripped) = head.strip_prefix("originscan_") {
                        segs[0] = stripped.to_string();
                    }
                }
            }
        }
        let name = match segs.last() {
            Some(n) => n.clone(),
            None => return Vec::new(),
        };
        let penult = segs.len().checked_sub(2).map(|i| segs[i].clone());
        // `Type::assoc(…)` — penultimate segment is a type name.
        if let Some(ty) = penult
            .as_ref()
            .filter(|p| p.starts_with(char::is_uppercase))
        {
            if let Some(cands) = self.typed.get(&(ty.clone(), name.clone())) {
                // The leading module path (if any) must also match.
                let module_part = &segs[..segs.len() - 2];
                let filtered: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| suffix_matches(&ws.fns[i], module_part))
                    .collect();
                if !filtered.is_empty() {
                    return prefer_crate(ws, caller, &filtered);
                }
            }
            return Vec::new();
        }
        // Free function with a module path.
        if let Some(cands) = self.free.get(&name) {
            let module_part = &segs[..segs.len() - 1];
            let filtered: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| suffix_matches(&ws.fns[i], module_part))
                .collect();
            if !filtered.is_empty() {
                return prefer_crate(ws, caller, &filtered);
            }
        }
        Vec::new()
    }
}

/// Does `module_part` (e.g. `[report]` from `report::render(…)`) match a
/// suffix of the function's `[crate, modules…]` path?
fn suffix_matches(f: &FnDef, module_part: &[String]) -> bool {
    if module_part.is_empty() {
        return true;
    }
    let mut full = vec![f.crate_name.clone()];
    full.extend(f.module.iter().cloned());
    if module_part.len() > full.len() {
        return false;
    }
    full[full.len() - module_part.len()..] == *module_part
}

/// Narrow a candidate set to the caller's crate when possible.
fn prefer_crate(ws: &Workspace, caller: &FnDef, cands: &[usize]) -> Vec<usize> {
    let same: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| ws.fns[i].crate_name == caller.crate_name)
        .collect();
    if same.is_empty() {
        cands.to_vec()
    } else {
        same
    }
}

/// One hop of a reported call chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Function index.
    pub func: usize,
    /// Line of the call site *in the previous hop's function* that
    /// reached this one (0 for the chain's first hop).
    pub via_line: u32,
}

/// Multi-source BFS over the call graph. Returns, per function, the
/// shortest chain from any of `sources` (as hops, sources first), or
/// `None` when unreachable. Cycles terminate naturally: a function is
/// visited once.
pub fn shortest_chains(
    graph: &CallGraph,
    n_fns: usize,
    sources: &[usize],
) -> Vec<Option<Vec<Hop>>> {
    let mut prev: Vec<Option<(usize, u32)>> = vec![None; n_fns];
    let mut seen: Vec<bool> = vec![false; n_fns];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let src_set: BTreeSet<usize> = sources.iter().copied().collect();
    for &s in sources {
        if s < n_fns && !seen[s] {
            seen[s] = true;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for e in &graph.edges[u] {
            if e.callee < n_fns && !seen[e.callee] {
                seen[e.callee] = true;
                prev[e.callee] = Some((u, e.line));
                queue.push_back(e.callee);
            }
        }
    }
    (0..n_fns)
        .map(|i| {
            if !seen[i] {
                return None;
            }
            let mut hops = vec![Hop {
                func: i,
                via_line: prev[i].map_or(0, |(_, l)| l),
            }];
            let mut cur = i;
            while let Some((p, _)) = prev[cur] {
                let via = prev[p].map_or(0, |(_, l)| l);
                hops.push(Hop {
                    func: p,
                    via_line: via,
                });
                cur = p;
                if src_set.contains(&cur) {
                    break;
                }
            }
            hops.reverse();
            Some(hops)
        })
        .collect()
}

/// Render a chain as `a -> b -> c` with qualified names.
pub fn render_chain(ws: &Workspace, hops: &[Hop]) -> String {
    let mut s = String::new();
    for (n, h) in hops.iter().enumerate() {
        if n > 0 {
            s.push_str(" -> ");
        }
        s.push_str(&ws.fns[h.func].qualname());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::{parse_workspace, SourceFile};

    fn build_ws(files: &[(&str, &str)]) -> (Workspace, Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(p, s)| {
                let (toks, comments) = lex(s);
                SourceFile {
                    path: p.to_string(),
                    toks,
                    comments,
                }
            })
            .collect();
        let ws = parse_workspace(&files);
        let bodies = fn_bodies(&ws);
        let graph = build(&ws, &files, &bodies);
        (ws, files, graph)
    }

    fn edge_names(ws: &Workspace, graph: &CallGraph, caller: &str) -> Vec<String> {
        let i = ws
            .fns
            .iter()
            .position(|f| f.qualname() == caller)
            .unwrap_or_else(|| panic!("no fn {caller}"));
        graph.edges[i]
            .iter()
            .map(|e| ws.fns[e.callee].qualname())
            .collect()
    }

    #[test]
    fn bare_calls_resolve_same_module_first() {
        let (ws, _, g) = build_ws(&[(
            "crates/a/src/lib.rs",
            "fn caller() { helper(); } fn helper() {}",
        )]);
        assert_eq!(edge_names(&ws, &g, "a::caller"), ["a::helper"]);
    }

    #[test]
    fn shadowed_names_do_not_cross_crates() {
        let (ws, _, g) = build_ws(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { helper(); } fn helper() {}",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        assert_eq!(edge_names(&ws, &g, "a::caller"), ["a::helper"]);
    }

    #[test]
    fn cross_crate_via_import_and_path() {
        let (ws, _, g) = build_ws(&[
            (
                "crates/a/src/lib.rs",
                "use originscan_b::util::helper;\n\
                 fn one() { helper(); }\n\
                 fn two() { originscan_b::util::helper(); }",
            ),
            ("crates/b/src/util.rs", "pub fn helper() {}"),
        ]);
        assert_eq!(edge_names(&ws, &g, "a::one"), ["b::util::helper"]);
        assert_eq!(edge_names(&ws, &g, "a::two"), ["b::util::helper"]);
    }

    #[test]
    fn typed_receiver_resolves_one_impl() {
        let (ws, _, g) = build_ws(&[(
            "crates/a/src/lib.rs",
            "impl Foo { fn probe_it(&self) {} }\n\
             impl Bar { fn probe_it(&self) {} }\n\
             fn caller(x: &Foo) { x.probe_it(); }",
        )]);
        assert_eq!(edge_names(&ws, &g, "a::caller"), ["a::Foo::probe_it"]);
    }

    #[test]
    fn untyped_receiver_links_every_impl_for_rare_names() {
        let (ws, _, g) = build_ws(&[(
            "crates/a/src/lib.rs",
            "impl Foo { fn probe_it(&self) {} }\n\
             impl Bar { fn probe_it(&self) {} }\n\
             fn caller(x: &dyn Probe) { x.probe_it(); }",
        )]);
        // `dyn Probe` has no impl entry, so the local type map misses
        // and both impls are linked (trait dispatch is conservative).
        let mut got = edge_names(&ws, &g, "a::caller");
        got.sort();
        assert_eq!(got, ["a::Bar::probe_it", "a::Foo::probe_it"]);
    }

    #[test]
    fn common_std_names_do_not_link_untyped() {
        let (ws, _, g) = build_ws(&[(
            "crates/a/src/lib.rs",
            "impl Foo { fn insert(&self) {} }\n\
             fn caller(m: &mut SomeMap) { m.insert(); }",
        )]);
        assert!(edge_names(&ws, &g, "a::caller").is_empty());
    }

    #[test]
    fn assoc_fn_calls_resolve_by_type() {
        let (ws, _, g) = build_ws(&[
            (
                "crates/a/src/lib.rs",
                "use originscan_b::Widget;\nfn caller() { Widget::build(); }",
            ),
            ("crates/b/src/lib.rs", "impl Widget { pub fn build() {} }"),
        ]);
        assert_eq!(edge_names(&ws, &g, "a::caller"), ["b::Widget::build"]);
    }

    #[test]
    fn recursion_terminates_and_chains_are_shortest() {
        let (ws, _, g) = build_ws(&[(
            "crates/a/src/lib.rs",
            "pub fn entry() { step_a(); }\n\
             fn step_a() { step_b(); }\n\
             fn step_b() { step_a(); leaf_site(); }\n\
             fn leaf_site() {}",
        )]);
        let entry = ws.fns.iter().position(|f| f.name == "entry").unwrap();
        let leaf = ws.fns.iter().position(|f| f.name == "leaf_site").unwrap();
        let chains = shortest_chains(&g, ws.fns.len(), &[entry]);
        let chain = chains[leaf].as_ref().expect("leaf reachable");
        assert_eq!(
            render_chain(&ws, chain),
            "a::entry -> a::step_a -> a::step_b -> a::leaf_site"
        );
    }

    #[test]
    fn macro_invocations_and_keywords_are_not_calls() {
        let (toks, _) = lex("fn f() { if (x) { vec![1] } else { println!(\"hi\") } g(); }");
        let sites = call_sites(&toks, 0..toks.len(), &[]);
        let names: Vec<&str> = sites.iter().map(|s| s.segs[0].as_str()).collect();
        assert_eq!(names, ["g"]);
    }

    #[test]
    fn turbofish_calls_are_lifted() {
        let (toks, _) = lex("fn f() { helper::<Vec<u8>>(1); }");
        let sites = call_sites(&toks, 0..toks.len(), &[]);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].segs, ["helper"]);
    }
}
