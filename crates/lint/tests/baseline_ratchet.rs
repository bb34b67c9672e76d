//! Ratchet on the accepted-findings baseline: the entry count may only
//! shrink. Adding a new suppression means raising the ceiling here in
//! the same change, which makes every newly-accepted finding an explicit
//! reviewed decision instead of a silent baseline regeneration.

use std::path::Path;

/// The baseline entry count as of the last burn-down. Lower it as
/// entries are retired; never raise it without burning something else
/// down first (new findings belong in code fixes, not the baseline).
const BASELINE_CEILING: usize = 62;

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
fn wire_codec_index_burndown_holds() {
    // The siphash and TLS codecs were rewritten onto slice patterns and
    // checked accessors; no reach-panic indexing entry for them may come
    // back.
    let offenders: Vec<String> = baseline_entries()
        .into_iter()
        .filter(|e| {
            e.starts_with("reach-panic@crates/wire/src/siphash.rs")
                || e.starts_with("reach-panic@crates/wire/src/tls.rs")
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "wire codec indexing findings reappeared in the baseline: {offenders:?}"
    );
}

#[test]
fn burst_model_burndown_holds() {
    // `burst::draw_origin_mask` builds its keys as fixed arrays and picks
    // origins through `get`; the path-state derivation it feeds runs
    // inside the scan loop's first touch of an AS and stays off the
    // accepted panic paths.
    let offenders: Vec<String> = baseline_entries()
        .into_iter()
        .filter(|e| e.starts_with("reach-panic@crates/netmodel/src/burst.rs"))
        .collect();
    assert!(
        offenders.is_empty(),
        "burst model indexing findings reappeared in the baseline: {offenders:?}"
    );
}

#[test]
fn format_decoder_burndown_holds() {
    // Both on-disk formats decode through the one bounds-checked cursor
    // in `store/src/frame.rs`; the code that parses bytes this program
    // did not just write stays free of accepted panic paths.
    let offenders: Vec<String> = baseline_entries()
        .into_iter()
        .filter(|e| {
            [
                "reach-panic@crates/store/src/frame.rs",
                "reach-panic@crates/store/src/format.rs",
                "reach-panic@crates/store/src/store.rs",
                "reach-panic@crates/plan/",
            ]
            .iter()
            .any(|file| e.starts_with(file))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "format decoder findings reappeared in the baseline: {offenders:?}"
    );
}
