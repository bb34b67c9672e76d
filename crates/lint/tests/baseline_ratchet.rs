//! Ratchet on the accepted-findings baseline: the entry count may only
//! shrink. Adding a new suppression means raising the ceiling here in
//! the same change, which makes every newly-accepted finding an explicit
//! reviewed decision instead of a silent baseline regeneration.

use std::path::Path;
use std::process::Command;

/// The baseline entry count as of the last burn-down. Lower it as
/// entries are retired; never raise it without burning something else
/// down first (new findings belong in code fixes, not the baseline).
const BASELINE_CEILING: usize = 4;

/// Files and trees whose accepted findings were burned down to zero: no
/// baseline entry under any of these prefixes may come back.
const BURNED_DOWN: &[&str] = &[
    // Siphash and the TLS codec: slice patterns and checked accessors.
    "crates/wire/src/siphash.rs",
    "crates/wire/src/tls.rs",
    // `Ipv4Header::emit` is one array literal; the HTTP and SSH banner
    // parsers slice through `get`.
    "crates/wire/src/ipv4.rs",
    "crates/wire/src/http.rs",
    "crates/wire/src/ssh.rs",
    // `burst::draw_origin_mask` builds its keys as fixed arrays and
    // picks origins through `get`.
    "crates/netmodel/src/burst.rs",
    // Both on-disk formats decode through the one bounds-checked cursor
    // in `store/src/frame.rs`, and the set-op kernels walk chunks and
    // arrays by iterator and slice pattern.
    "crates/store/",
    "crates/plan/",
    "crates/core/",
    "crates/stats/",
    "crates/serve/",
    "crates/scanner/",
];

fn baseline_entries() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("lint-baseline.txt");
    let text = std::fs::read_to_string(&path).expect("read lint-baseline.txt at the repo root");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn baseline_only_shrinks() {
    let entries = baseline_entries();
    assert!(
        entries.len() <= BASELINE_CEILING,
        "lint-baseline.txt grew to {} entries (ceiling {BASELINE_CEILING}); \
         fix the new finding instead of baselining it, or lower tech debt \
         elsewhere before raising the ceiling",
        entries.len()
    );
}

#[test]
fn baseline_is_sorted_and_unique() {
    // `--write-baseline` emits sorted unique fingerprints; hand edits
    // that break that invariant make diffs noisy and hide duplicates.
    let entries = baseline_entries();
    let mut sorted = entries.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(
        entries, sorted,
        "baseline entries must stay sorted and duplicate-free \
         (regenerate with `cargo run -p originscan-lint -- --write-baseline`)"
    );
}

#[test]
fn burndowns_hold() {
    let offenders: Vec<String> = baseline_entries()
        .into_iter()
        .filter(|e| {
            // Fingerprints are `rule@file@anchor`.
            let file = e.split('@').nth(1).unwrap_or("");
            BURNED_DOWN.iter().any(|prefix| file.starts_with(prefix))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "findings reappeared in the baseline under a burned-down path: {offenders:?}"
    );
}

#[test]
fn stale_baseline_entry_fails_the_run() {
    // A clean one-file workspace whose baseline still lists a finding:
    // the dead line would re-admit the next index expression written in
    // `demo::f`, so the run must fail and name it.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_baseline_ws");
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("create fixture workspace");
    std::fs::write(src.join("lib.rs"), "//! Demo.\npub fn f() {}\n").expect("write lib.rs");
    let dead = "reach-panic@crates/demo/src/lib.rs@demo::f/index expression";
    let run = |baseline: &str| {
        std::fs::write(root.join("lint-baseline.txt"), baseline).expect("write baseline");
        Command::new(env!("CARGO_BIN_EXE_originscan-lint"))
            .arg(&root)
            .output()
            .expect("run originscan-lint")
    };
    let out = run(&format!("# accepted\n{dead}\n"));
    assert_eq!(out.status.code(), Some(1), "stale entry must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stale baseline entry") && stderr.contains(dead),
        "{stderr}"
    );
    assert_eq!(run("# accepted\n").status.code(), Some(0));
}
