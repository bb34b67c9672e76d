//! Lock-order analysis over the serve tier's `Mutex`es.
//!
//! The serve engine guards its work queue and per-shard store readers
//! with `std::sync::Mutex`. Two hazards matter before the ROADMAP's
//! lock-free refactor lands: (1) two lock *classes* acquired in opposite
//! orders on different paths — a potential deadlock cycle — and (2) a
//! guard held across a blocking call (file or socket I/O, sleeps,
//! channel receives), which serializes the whole tier behind one slow
//! request. Locks are modelled at class granularity: the inner type of
//! the `Mutex<Inner>` declaration names the class, so `shards[i]` and
//! `shards[j]` are the same class.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnBodies};
use crate::lexer::Tok;
use crate::parse::{SourceFile, Workspace};
use crate::rules::Allows;
use crate::Violation;

/// Identifiers that mark a function body as directly blocking.
/// `Condvar::wait` is deliberately absent: waiting on a condition
/// variable releases the mutex while parked.
const BLOCKING_IDENTS: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "accept",
    "connect",
    "sleep",
    "recv",
    "recv_timeout",
    "read_exact_at",
];

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Lock class (inner type of the `Mutex`).
    class: String,
    /// Token index of the acquisition.
    tok: usize,
    /// 1-based line of the acquisition.
    line: u32,
    /// Token range over which the guard is held.
    held: std::ops::Range<usize>,
}

/// Map binding/field names declared as `name: Mutex<Inner>` to their
/// lock class, across the given files.
fn class_bindings(files: &[SourceFile], in_files: &BTreeSet<usize>) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        if !in_files.contains(&fi) {
            continue;
        }
        let toks = &file.toks;
        for j in 0..toks.len() {
            // `name : Mutex < Inner`
            if toks[j].is_ident("Mutex")
                && j >= 2
                && toks[j - 1].is_punct(':')
                && toks[j + 1..].first().is_some_and(|t| t.is_punct('<'))
            {
                let name = match toks[j - 2].ident() {
                    Some(n) => n.to_string(),
                    None => continue,
                };
                if let Some(inner) = toks.get(j + 2).and_then(Tok::ident) {
                    if concrete_class(inner) {
                        out.insert(name, inner.to_string());
                    }
                }
            }
        }
    }
    out
}

/// A concrete lock-class name: single uppercase letters are type
/// parameters of generic helpers (`fn lock<T>(m: &Mutex<T>)`), which
/// name no class at all.
fn concrete_class(name: &str) -> bool {
    name.len() > 1 && name.starts_with(char::is_uppercase)
}

/// Lock class returned by a `MutexGuard`-returning function, read off
/// its signature: the first identifier inside `MutexGuard<…>`
/// (lifetimes are separate token kinds, so `MutexGuard<'a, Shard<V>>`
/// yields `Shard`).
fn guard_class(toks: &[Tok], sig: std::ops::Range<usize>) -> Option<String> {
    let hi = sig.end.min(toks.len());
    for j in sig.start..hi {
        if toks[j].is_ident("MutexGuard") {
            for t in &toks[j + 1..hi] {
                if let Some(id) = t.ident() {
                    return Some(id.to_string()).filter(|c| concrete_class(c));
                }
                if t.is_punct('>') {
                    break;
                }
            }
            return None;
        }
    }
    None
}

/// Token index one past the end of the innermost block enclosing `j`.
fn enclosing_block_end(toks: &[Tok], j: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(hi).skip(j) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return k + 1;
            }
            depth -= 1;
        }
    }
    hi
}

/// Token index one past the statement-terminating `;` after `j`, staying
/// at the current brace depth.
fn statement_end(toks: &[Tok], j: usize, hi: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().take(hi).skip(j) {
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                return k;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return k + 1;
        }
    }
    hi
}

/// Does the statement containing token `j` start with `let`?
fn let_bound(toks: &[Tok], lo: usize, j: usize) -> bool {
    let mut k = j;
    while k > lo {
        k -= 1;
        let t = &toks[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return toks.get(k + 1).is_some_and(|t| t.is_ident("let"));
        }
    }
    toks.get(lo).is_some_and(|t| t.is_ident("let"))
}

/// Collect the acquisitions in one function body.
fn acquisitions(
    toks: &[Tok],
    body: std::ops::Range<usize>,
    skip: &[std::ops::Range<usize>],
    classes: &BTreeMap<String, String>,
    guard_fns: &BTreeMap<String, String>,
) -> Vec<Acquisition> {
    let mut out = Vec::new();
    let hi = body.end.min(toks.len());
    let mut j = body.start;
    while j < hi {
        if let Some(s) = skip.iter().find(|s| s.contains(&j)) {
            j = s.end;
            continue;
        }
        let t = &toks[j];
        let mut class = None;
        let mut line = t.line;
        // `receiver.lock()` where the receiver is a known Mutex binding.
        if t.is_punct('.')
            && toks.get(j + 1).is_some_and(|t| t.is_ident("lock"))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            if let Some(recv) = j.checked_sub(1).and_then(|k| toks[k].ident()).or_else(|| {
                // `shards[i].lock()`: hop over the index expression.
                if j >= 1 && toks[j - 1].is_punct(']') {
                    let mut depth = 0i32;
                    for k in (body.start..j - 1).rev() {
                        if toks[k].is_punct(']') {
                            depth += 1;
                        } else if toks[k].is_punct('[') {
                            if depth == 0 {
                                return k.checked_sub(1).and_then(|k| toks[k].ident());
                            }
                            depth -= 1;
                        }
                    }
                }
                None
            }) {
                if let Some(c) = classes.get(recv) {
                    class = Some(c.clone());
                    line = toks[j + 1].line;
                }
            }
        }
        // A call to a guard-returning helper acquires at the call site.
        if class.is_none() {
            if let Some(name) = t.ident() {
                if toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                    && !(j > 0 && toks[j - 1].is_ident("fn"))
                {
                    if let Some(c) = guard_fns.get(name) {
                        class = Some(c.clone());
                    }
                }
            }
        }
        if let Some(class) = class {
            let held = if let_bound(toks, body.start, j) {
                j..enclosing_block_end(toks, j, hi)
            } else {
                j..statement_end(toks, j, hi)
            };
            out.push(Acquisition {
                class,
                tok: j,
                line,
                held,
            });
        }
        j += 1;
    }
    out
}

/// Functions whose bodies directly touch a blocking primitive.
fn primitive_blocking(toks: &[Tok], body: std::ops::Range<usize>) -> bool {
    let hi = body.end.min(toks.len());
    toks[body.start.min(hi)..hi]
        .iter()
        .any(|t| t.ident().is_some_and(|id| BLOCKING_IDENTS.contains(&id)))
}

/// Fixpoint: a function blocks if its body blocks or it calls one that
/// does.
fn blocking_summary(ws: &Workspace, graph: &CallGraph, files: &[SourceFile]) -> Vec<bool> {
    let n = ws.fns.len();
    let mut blocking: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| primitive_blocking(&files[f.file].toks, f.body.clone()))
        .collect();
    // Reverse edges, then propagate caller-ward from every blocking fn.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, edges) in graph.edges.iter().enumerate() {
        for e in edges {
            rev[e.callee].push(caller);
        }
    }
    let mut work: Vec<usize> = (0..n).filter(|&i| blocking[i]).collect();
    while let Some(i) = work.pop() {
        for &caller in &rev[i] {
            if !blocking[caller] {
                blocking[caller] = true;
                work.push(caller);
            }
        }
    }
    blocking
}

/// Run the pass over the workspace. Only `crates/serve` acquisitions
/// are modelled; the blocking summary is computed workspace-wide so a
/// blocking store read two crates away still counts.
pub(crate) fn check(
    ws: &Workspace,
    graph: &CallGraph,
    files: &[SourceFile],
    bodies: &FnBodies,
    allows: &mut [Allows],
) -> Vec<Violation> {
    let serve_files: BTreeSet<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.path.starts_with("crates/serve/src/"))
        .map(|(i, _)| i)
        .collect();
    let classes = class_bindings(files, &serve_files);
    let mut guard_fns = BTreeMap::new();
    for f in &ws.fns {
        if f.returns_guard && serve_files.contains(&f.file) {
            if let Some(c) = guard_class(&files[f.file].toks, f.sig.clone()) {
                guard_fns.insert(f.name.clone(), c);
            }
        }
    }
    let blocking = blocking_summary(ws, graph, files);
    let mut out = Vec::new();
    // Class-order graph: (from, to) -> representative site.
    let mut order: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.exempt || !serve_files.contains(&f.file) {
            continue;
        }
        let toks = &files[f.file].toks;
        let acqs = acquisitions(toks, f.body.clone(), &bodies.skips[i], &classes, &guard_fns);
        for a in &acqs {
            // Nested acquisition while `a` is held → order edge.
            for b in &acqs {
                if b.tok > a.tok && a.held.contains(&b.tok) {
                    order
                        .entry((a.class.clone(), b.class.clone()))
                        .or_insert((f.file, b.line));
                }
            }
            // Blocking work while `a` is held.
            if allows[f.file].suppresses("lock-blocking", a.line) {
                continue;
            }
            let (l0, l1) = held_lines(toks, &a.held);
            let mut hit: Option<(u32, String)> = None;
            for e in &graph.edges[i] {
                if e.line >= l0 && e.line <= l1 && blocking[e.callee] {
                    let callee = ws.fns[e.callee].qualname();
                    if hit.as_ref().is_none_or(|(hl, _)| e.line < *hl) {
                        hit = Some((e.line, format!("call to blocking `{callee}`")));
                    }
                }
            }
            if hit.is_none() && primitive_blocking(toks, a.held.clone()) {
                hit = Some((a.line, "direct blocking operation".to_string()));
            }
            if let Some((line, what)) = hit {
                if allows[f.file].suppresses("lock-blocking", line) {
                    continue;
                }
                out.push(Violation {
                    file: files[f.file].path.clone(),
                    line,
                    rule: "lock-blocking",
                    msg: format!(
                        "lock `{}` held across {} in `{}`",
                        a.class,
                        what,
                        f.qualname(),
                    ),
                    chain: vec![format!(
                        "held: `{}` acquired at line {} in {}",
                        a.class,
                        a.line,
                        f.qualname(),
                    )],
                });
            }
        }
    }
    // Cycle detection over the class-order graph: group mutually
    // reachable classes (a strongly connected component with more than
    // one class, or a self-loop: re-acquiring the same class while held
    // self-deadlocks std Mutex) and report each group once.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in order.keys() {
        adj.entry(from).or_default().push(to);
    }
    let reaches = |a: &str, b: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<&str> = adj.get(a).cloned().unwrap_or_default();
        while let Some(c) = stack.pop() {
            if c == b {
                return true;
            }
            if seen.insert(c) {
                if let Some(next) = adj.get(c) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let nodes: BTreeSet<&str> = order
        .keys()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for &n in &nodes {
        if !reaches(n, n) {
            continue;
        }
        let cycle: Vec<String> = nodes
            .iter()
            .filter(|&&m| m == n || (reaches(n, m) && reaches(m, n)))
            .map(|m| m.to_string())
            .collect();
        if !reported.insert(cycle.clone()) {
            continue;
        }
        // Representative site: the first recorded edge inside the group.
        let (file, line) = order
            .iter()
            .find(|((a, b), _)| cycle.contains(a) && cycle.contains(b))
            .map(|(_, &site)| site)
            .unwrap_or((0, 0));
        if allows[file].suppresses("lock-cycle", line) {
            continue;
        }
        out.push(Violation {
            file: files[file].path.clone(),
            line,
            rule: "lock-cycle",
            msg: format!(
                "lock classes `{}` form a potential deadlock cycle",
                cycle.join("` -> `"),
            ),
            chain: vec![format!("order: {}", cycle.join(" -> "))],
        });
    }
    out
}

/// Line span of a held token range.
fn held_lines(toks: &[Tok], held: &std::ops::Range<usize>) -> (u32, u32) {
    let lo = toks.get(held.start).map_or(0, |t| t.line);
    let hi = toks
        .get(held.end.saturating_sub(1).min(toks.len().saturating_sub(1)))
        .map_or(lo, |t| t.line);
    (lo, hi)
}
