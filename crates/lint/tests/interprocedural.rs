//! Interprocedural fixture tests: each deep pass (panic-reachability,
//! determinism taint, lock order) catches a seeded violation the
//! per-file rules miss, with the call/flow chain asserted, plus the
//! call-graph edge cases (cross-crate paths, trait dispatch, shadowed
//! names, test exemption, recursion) and stale-allow detection.

use originscan_lint::{check_files, check_source, Violation};

/// Run the workspace analyzer over an in-memory file set.
fn ws(files: &[(&str, &str)]) -> Vec<Violation> {
    let inputs: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    check_files(&inputs)
}

fn render(out: &[Violation]) -> String {
    out.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------------
// reach-panic
// ---------------------------------------------------------------------

/// A panic laundered through a helper crate outside every per-file
/// panic scope: only the interprocedural pass can see it, and the
/// diagnostic carries the shortest call chain from the entry point.
#[test]
fn reach_panic_catches_cross_crate_laundering() {
    let stats = "//! Stats helpers.\n\
                 pub fn percentile(xs: &[u64]) -> u64 {\n\
                 \x20   *xs.last().unwrap()\n\
                 }\n";
    // The per-file rules miss it: `stats` is outside the panic scope.
    assert!(
        check_source("crates/stats/src/lib.rs", stats).is_empty(),
        "per-file rules must not see the laundered unwrap"
    );

    let http = "//! Serve handlers.\n\
                pub fn handle(xs: &[u64]) -> u64 {\n\
                \x20   originscan_stats::percentile(xs)\n\
                }\n";
    let out = ws(&[
        ("crates/serve/src/http.rs", http),
        ("crates/stats/src/lib.rs", stats),
    ]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "reach-panic");
    assert_eq!(v.file, "crates/stats/src/lib.rs");
    assert_eq!(v.line, 3);
    assert!(
        v.msg.contains("`stats::percentile`")
            && v.msg
                .contains("reachable from supervised entry `serve::http::handle`"),
        "{}",
        v.msg
    );
    assert_eq!(v.chain.len(), 1, "shortest chain printed once");
    assert!(
        v.chain[0].starts_with("chain: ")
            && v.chain[0].contains("serve::http::handle")
            && v.chain[0].contains("stats::percentile"),
        "{}",
        v.chain[0]
    );
}

/// A `lint:allow` for the matching per-file rule at the panic site also
/// covers the interprocedural finding, and is counted as used (no
/// stale-allow report).
#[test]
fn reach_panic_respects_legacy_allow_at_site() {
    let stats = "//! Stats helpers.\n\
                 pub fn percentile(xs: &[u64]) -> u64 {\n\
                 \x20   // lint:allow(panic-unwrap) reason= caller guarantees non-empty input\n\
                 \x20   *xs.last().unwrap()\n\
                 }\n";
    let http = "//! Serve handlers.\n\
                pub fn handle(xs: &[u64]) -> u64 {\n\
                \x20   originscan_stats::percentile(xs)\n\
                }\n";
    let out = ws(&[
        ("crates/serve/src/http.rs", http),
        ("crates/stats/src/lib.rs", stats),
    ]);
    assert!(out.is_empty(), "got:\n{}", render(&out));
}

/// A bare call whose name is only defined in another crate does not
/// resolve (no import, so it must be `std` or out of scope): the
/// shadow-safe resolution keeps the graph free of false edges.
#[test]
fn bare_call_does_not_link_across_crates_without_import() {
    let stats = "//! Stats helpers.\n\
                 pub fn percentile(xs: &[u64]) -> u64 {\n\
                 \x20   *xs.last().unwrap()\n\
                 }\n";
    let http = "//! Serve handlers.\n\
                pub fn handle(xs: &[u64]) -> u64 {\n\
                \x20   percentile(xs)\n\
                }\n";
    let out = ws(&[
        ("crates/serve/src/http.rs", http),
        ("crates/stats/src/lib.rs", stats),
    ]);
    assert!(out.is_empty(), "got:\n{}", render(&out));
}

/// A `use` import makes the same bare call resolve cross-crate.
#[test]
fn bare_call_links_across_crates_through_use_import() {
    let stats = "//! Stats helpers.\n\
                 pub fn percentile(xs: &[u64]) -> u64 {\n\
                 \x20   *xs.last().unwrap()\n\
                 }\n";
    let http = "//! Serve handlers.\n\
                use originscan_stats::percentile;\n\
                pub fn handle(xs: &[u64]) -> u64 {\n\
                \x20   percentile(xs)\n\
                }\n";
    let out = ws(&[
        ("crates/serve/src/http.rs", http),
        ("crates/stats/src/lib.rs", stats),
    ]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    assert_eq!(out[0].rule, "reach-panic");
}

/// Functions inside `#[cfg(test)]` modules are exempt: a panicking
/// test helper in an entry-scope file reports nothing.
#[test]
fn test_module_functions_are_exempt_from_reachability() {
    let http = "//! Serve handlers.\n\
                pub fn handle() -> usize {\n\
                \x20   7\n\
                }\n\
                \n\
                #[cfg(test)]\n\
                mod tests {\n\
                \x20   pub fn helper(xs: &[u64]) -> u64 {\n\
                \x20       *xs.last().unwrap()\n\
                \x20   }\n\
                }\n";
    let out = ws(&[("crates/serve/src/http.rs", http)]);
    assert!(out.is_empty(), "got:\n{}", render(&out));
}

/// Method calls on untyped receivers link every same-named workspace
/// method (sound under trait dispatch): the panicking impl is found
/// even though the receiver's type is unknown.
#[test]
fn trait_dispatch_links_all_candidate_methods() {
    let http = "//! Serve handlers.\n\
                pub fn handle(q: usize) -> u64 {\n\
                \x20   let p = pick(q);\n\
                \x20   p.launch()\n\
                }\n\
                fn pick(_q: usize) -> usize {\n\
                \x20   0\n\
                }\n";
    let probes = "//! Probe impls.\n\
                  pub struct FastProbe;\n\
                  impl FastProbe {\n\
                  \x20   pub fn launch(&self) -> u64 {\n\
                  \x20       1\n\
                  \x20   }\n\
                  }\n\
                  pub struct SlowProbe;\n\
                  impl SlowProbe {\n\
                  \x20   pub fn launch(&self) -> u64 {\n\
                  \x20       unreachable!()\n\
                  \x20   }\n\
                  }\n";
    let out = ws(&[
        ("crates/serve/src/http.rs", http),
        ("crates/stats/src/probe.rs", probes),
    ]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "reach-panic");
    assert_eq!(v.file, "crates/stats/src/probe.rs");
    assert!(v.msg.contains("unreachable!"), "{}", v.msg);
    assert!(v.chain[0].contains("launch"), "{}", v.chain[0]);
}

/// A `let w = Alpha::…` in one function does not type the `w` of
/// another: there `w` is an untyped local (`let w = &self.beta;`), so
/// `w.launch()` links every `launch` and the edge to the panicking
/// `Beta::launch` survives. (A file-wide map once retyped it `Alpha` and
/// dropped the edge: a false negative that a test's binding could cause.)
#[test]
fn let_bindings_type_receivers_in_their_own_function_only() {
    let http = "//! Serve handlers.\n\
                pub struct Holder {\n\
                \x20   beta: Beta,\n\
                }\n\
                impl Holder {\n\
                \x20   pub fn run(&self) -> u64 {\n\
                \x20       let w = &self.beta;\n\
                \x20       w.launch()\n\
                \x20   }\n\
                }\n\
                pub fn warm() -> u64 {\n\
                \x20   let w = Alpha::new();\n\
                \x20   w.launch()\n\
                }\n";
    let probes = "//! Probe impls.\n\
                  pub struct Alpha;\n\
                  impl Alpha {\n\
                  \x20   pub fn new() -> Self {\n\
                  \x20       Alpha\n\
                  \x20   }\n\
                  \x20   pub fn launch(&self) -> u64 {\n\
                  \x20       1\n\
                  \x20   }\n\
                  }\n\
                  pub struct Beta;\n\
                  impl Beta {\n\
                  \x20   pub fn launch(&self) -> u64 {\n\
                  \x20       unreachable!()\n\
                  \x20   }\n\
                  }\n";
    let out = ws(&[
        ("crates/serve/src/http.rs", http),
        ("crates/stats/src/probe.rs", probes),
    ]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "reach-panic");
    assert!(
        v.chain[0].contains("Holder::run") && v.chain[0].contains("Beta::launch"),
        "{}",
        v.chain[0]
    );
}

/// Recursive call chains terminate and still surface the panic at the
/// end of the chain.
#[test]
fn recursive_chains_terminate() {
    let stats = "//! Stats helpers.\n\
                 pub fn walk(n: u64) -> u64 {\n\
                 \x20   if n == 0 {\n\
                 \x20       return finish(n);\n\
                 \x20   }\n\
                 \x20   walk(n - 1)\n\
                 }\n\
                 fn finish(n: u64) -> u64 {\n\
                 \x20   n.checked_sub(1).unwrap()\n\
                 }\n";
    let http = "//! Serve handlers.\n\
                pub fn handle(n: u64) -> u64 {\n\
                \x20   originscan_stats::walk(n)\n\
                }\n";
    let out = ws(&[
        ("crates/serve/src/http.rs", http),
        ("crates/stats/src/lib.rs", stats),
    ]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "reach-panic");
    assert!(
        v.chain[0].contains("walk") && v.chain[0].contains("finish"),
        "{}",
        v.chain[0]
    );
}

/// An array type in the signature (`[u64; 4]`, `-> [u8; 2]`) does not
/// hide the body: the index expression inside is found, at its line.
#[test]
fn array_type_in_signature_does_not_hide_the_body() {
    let block = "//! Word blocks.\n\
                 pub fn set(words: &mut [u64; 4], i: usize) -> [u8; 2] {\n\
                 \x20   words[i] = 1;\n\
                 \x20   [0, 0]\n\
                 }\n";
    let out = ws(&[("crates/store/src/block.rs", block)]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "reach-panic");
    assert_eq!(v.line, 3);
    assert!(
        v.msg.contains("index expression in `store::block::set`"),
        "{}",
        v.msg
    );
}

/// A trait-impl method in an entry file is an entry point whatever its
/// visibility: callers reach `next` through `Iterator`, a call the graph
/// never links, so nothing else would root it.
#[test]
fn trait_impl_methods_of_entry_files_are_entry_points() {
    let walk = "//! Word walk.\n\
                pub struct It {\n\
                \x20   w: Vec<u64>,\n\
                \x20   i: usize,\n\
                }\n\
                impl Iterator for It {\n\
                \x20   type Item = u64;\n\
                \x20   fn next(&mut self) -> Option<u64> {\n\
                \x20       Some(self.w[self.i])\n\
                \x20   }\n\
                }\n";
    let out = ws(&[("crates/store/src/walk.rs", walk)]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "reach-panic");
    assert_eq!(v.line, 9);
    assert_eq!(
        v.chain,
        ["chain: store::walk::It::next (entry point itself)"]
    );
    // The same impl outside the entry scope roots nothing.
    let out = ws(&[("crates/stats/src/walk.rs", walk)]);
    assert!(out.is_empty(), "got:\n{}", render(&out));
}

// ---------------------------------------------------------------------
// det-taint
// ---------------------------------------------------------------------

/// A wall-clock read laundered through a crate outside the determinism
/// scope taints an output function; the flow chain names the sink.
#[test]
fn det_taint_catches_laundered_wall_clock() {
    let util = "//! Misc utilities.\n\
                pub fn stamp() -> u64 {\n\
                \x20   let t = std::time::Instant::now();\n\
                \x20   t.elapsed().as_secs()\n\
                }\n";
    // The per-file rules miss it: `stats` is outside the det scope.
    assert!(
        check_source("crates/stats/src/util.rs", util).is_empty(),
        "per-file rules must not see the laundered clock read"
    );

    let report = "//! Report rendering.\n\
                  pub fn render(rows: usize) -> String {\n\
                  \x20   format!(\"{} {}\", rows, originscan_stats::util::stamp())\n\
                  }\n";
    let out = ws(&[
        ("crates/core/src/report.rs", report),
        ("crates/stats/src/util.rs", util),
    ]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "det-taint");
    assert_eq!(v.file, "crates/stats/src/util.rs");
    assert_eq!(v.line, 3);
    assert!(
        v.msg.contains("`Instant::now()` wall-clock read")
            && v.msg
                .contains("taints output function `core::report::render`"),
        "{}",
        v.msg
    );
    assert!(
        v.chain[0].starts_with("flow: ")
            && v.chain[0].contains("core::report::render")
            && v.chain[0].contains("stats::util::stamp"),
        "{}",
        v.chain[0]
    );
}

/// A helper that is *not* called from any output function carries no
/// taint finding, wherever its nondeterminism lives.
#[test]
fn det_taint_requires_a_flow_to_a_sink() {
    let util = "//! Misc utilities.\n\
                pub fn stamp() -> u64 {\n\
                \x20   let t = std::time::Instant::now();\n\
                \x20   t.elapsed().as_secs()\n\
                }\n";
    let out = ws(&[("crates/stats/src/util.rs", util)]);
    assert!(out.is_empty(), "got:\n{}", render(&out));
}

// ---------------------------------------------------------------------
// lock-cycle / lock-blocking
// ---------------------------------------------------------------------

/// Two serve-tier lock classes acquired in opposite orders on two paths
/// form a reported deadlock cycle.
#[test]
fn lock_cycle_detects_opposite_acquisition_orders() {
    let state = "//! Serve shared state.\n\
                 use std::sync::Mutex;\n\
                 pub struct QueueInner {\n\
                 \x20   pub depth: usize,\n\
                 }\n\
                 pub struct CacheInner {\n\
                 \x20   pub hits: usize,\n\
                 }\n\
                 pub struct State {\n\
                 \x20   queue: Mutex<QueueInner>,\n\
                 \x20   cache: Mutex<CacheInner>,\n\
                 }\n\
                 pub fn enqueue(s: &State) {\n\
                 \x20   if let Ok(q) = s.queue.lock() {\n\
                 \x20       if let Ok(c) = s.cache.lock() {\n\
                 \x20           let _ = (q.depth, c.hits);\n\
                 \x20       }\n\
                 \x20   }\n\
                 }\n\
                 pub fn refresh(s: &State) {\n\
                 \x20   if let Ok(c) = s.cache.lock() {\n\
                 \x20       if let Ok(q) = s.queue.lock() {\n\
                 \x20           let _ = (q.depth, c.hits);\n\
                 \x20       }\n\
                 \x20   }\n\
                 }\n";
    let out = ws(&[("crates/serve/src/state.rs", state)]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "lock-cycle");
    assert!(
        v.msg.contains("QueueInner") && v.msg.contains("CacheInner"),
        "{}",
        v.msg
    );
    assert!(v.chain[0].starts_with("order: "), "{}", v.chain[0]);
}

/// Consistent acquisition order on every path: no cycle.
#[test]
fn lock_cycle_silent_on_consistent_order() {
    let state = "//! Serve shared state.\n\
                 use std::sync::Mutex;\n\
                 pub struct QueueInner {\n\
                 \x20   pub depth: usize,\n\
                 }\n\
                 pub struct CacheInner {\n\
                 \x20   pub hits: usize,\n\
                 }\n\
                 pub struct State {\n\
                 \x20   queue: Mutex<QueueInner>,\n\
                 \x20   cache: Mutex<CacheInner>,\n\
                 }\n\
                 pub fn enqueue(s: &State) {\n\
                 \x20   if let Ok(q) = s.queue.lock() {\n\
                 \x20       if let Ok(c) = s.cache.lock() {\n\
                 \x20           let _ = (q.depth, c.hits);\n\
                 \x20       }\n\
                 \x20   }\n\
                 }\n\
                 pub fn refresh(s: &State) {\n\
                 \x20   if let Ok(q) = s.queue.lock() {\n\
                 \x20       if let Ok(c) = s.cache.lock() {\n\
                 \x20           let _ = (q.depth, c.hits);\n\
                 \x20       }\n\
                 \x20   }\n\
                 }\n";
    let out = ws(&[("crates/serve/src/state.rs", state)]);
    assert!(out.is_empty(), "got:\n{}", render(&out));
}

/// A guard held across a call that (transitively) blocks on file I/O —
/// the blocking summary crosses crates to the store read.
#[test]
fn lock_blocking_sees_blocking_call_through_other_crate() {
    let shard = "//! Shard readers.\n\
                 use std::sync::Mutex;\n\
                 pub struct ReaderSet {\n\
                 \x20   pub open: usize,\n\
                 }\n\
                 pub struct Shards {\n\
                 \x20   readers: Mutex<ReaderSet>,\n\
                 }\n\
                 pub fn answer(s: &Shards) -> usize {\n\
                 \x20   let g = s.readers.lock();\n\
                 \x20   let n = originscan_store::page::load_page();\n\
                 \x20   drop(g);\n\
                 \x20   n\n\
                 }\n";
    let page = "//! Page loads.\n\
                pub fn load_page() -> usize {\n\
                \x20   let f = std::fs::File::open(\"pages.bin\");\n\
                \x20   match f {\n\
                \x20       Ok(_) => 1,\n\
                \x20       Err(_) => 0,\n\
                \x20   }\n\
                }\n";
    let out = ws(&[
        ("crates/serve/src/shard.rs", shard),
        ("crates/store/src/page.rs", page),
    ]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "lock-blocking");
    assert_eq!(v.file, "crates/serve/src/shard.rs");
    assert_eq!(v.line, 11);
    assert!(
        v.msg
            .contains("lock `ReaderSet` held across call to blocking `store::page::load_page`"),
        "{}",
        v.msg
    );
    assert!(v.chain[0].contains("acquired at line 10"), "{}", v.chain[0]);
}

/// Dropping the guard before the blocking call clears the finding.
#[test]
fn lock_blocking_silent_when_guard_scoped_tightly() {
    let shard = "//! Shard readers.\n\
                 use std::sync::Mutex;\n\
                 pub struct ReaderSet {\n\
                 \x20   pub open: usize,\n\
                 }\n\
                 pub struct Shards {\n\
                 \x20   readers: Mutex<ReaderSet>,\n\
                 }\n\
                 pub fn answer(s: &Shards) -> usize {\n\
                 \x20   {\n\
                 \x20       let g = s.readers.lock();\n\
                 \x20       drop(g);\n\
                 \x20   }\n\
                 \x20   originscan_store::page::load_page()\n\
                 }\n";
    let page = "//! Page loads.\n\
                pub fn load_page() -> usize {\n\
                \x20   let f = std::fs::File::open(\"pages.bin\");\n\
                \x20   match f {\n\
                \x20       Ok(_) => 1,\n\
                \x20       Err(_) => 0,\n\
                \x20   }\n\
                }\n";
    let out = ws(&[
        ("crates/serve/src/shard.rs", shard),
        ("crates/store/src/page.rs", page),
    ]);
    assert!(out.is_empty(), "got:\n{}", render(&out));
}

// ---------------------------------------------------------------------
// lint-stale-allow
// ---------------------------------------------------------------------

/// An allow whose rule no longer fires at the site is reported as
/// stale at workspace level (and only there — single-file scans stay
/// quiet so fixtures and editors see no noise).
#[test]
fn stale_allow_reported_at_workspace_level_only() {
    let src = "//! Fixture.\n\
               pub fn double(x: u32) -> u32 {\n\
               \x20   // lint:allow(det-wall-clock) reason= leftover from a removed clock read\n\
               \x20   x * 2\n\
               }\n";
    assert!(
        check_source("crates/netmodel/src/fixture.rs", src).is_empty(),
        "single-file scans do not judge staleness"
    );
    let out = ws(&[("crates/netmodel/src/fixture.rs", src)]);
    assert_eq!(out.len(), 1, "got:\n{}", render(&out));
    let v = &out[0];
    assert_eq!(v.rule, "lint-stale-allow");
    assert_eq!(v.line, 3);
    assert!(
        v.msg
            .contains("lint:allow(det-wall-clock) no longer suppresses anything"),
        "{}",
        v.msg
    );
}

/// An allow that still suppresses a live per-file finding is used, not
/// stale.
#[test]
fn live_allow_is_not_stale() {
    let src = "//! Fixture.\n\
               pub fn elapsed() -> f64 {\n\
               \x20   // lint:allow(det-wall-clock) reason= audited boundary for this fixture\n\
               \x20   let t = std::time::Instant::now();\n\
               \x20   t.elapsed().as_secs_f64()\n\
               }\n";
    let out = ws(&[("crates/netmodel/src/fixture.rs", src)]);
    assert!(out.is_empty(), "got:\n{}", render(&out));
}
