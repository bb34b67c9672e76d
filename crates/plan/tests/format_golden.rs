//! Golden-file test pinning the target plan's on-disk format: the
//! layout description (derived from the same constants the serializers
//! use) plus a full hex dump of one canonical plan, so any byte-level
//! drift — header fields, entry encoding, checksum placement — shows up
//! as a golden diff. To accept an intentional format change (which must
//! also bump `VERSION`):
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p originscan-plan --test format_golden
//! ```

use originscan_plan::{describe_format, PlanEntry, TargetPlan};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plan_format.txt");

/// A small plan exercising the full header (non-trivial strategy label,
/// seed, space) and a few scored entries, including s24 0 and a
/// non-contiguous tail.
fn canonical_plan() -> TargetPlan {
    TargetPlan::from_entries(
        1 << 16,
        0x0102_0304_0506_0708,
        "density_top_k250000",
        vec![
            PlanEntry {
                s24: 0,
                score: 256_000,
            },
            PlanEntry {
                s24: 3,
                score: 97_000,
            },
            PlanEntry {
                s24: 200,
                score: 4_000,
            },
            PlanEntry { s24: 255, score: 1 },
        ],
    )
    .expect("canonical plan builds")
}

fn hex_dump(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, chunk) in bytes.chunks(16).enumerate() {
        let _ = write!(out, "{:06x}:", i * 16);
        for b in chunk {
            let _ = write!(out, " {b:02x}");
        }
        out.push('\n');
    }
    out
}

fn render() -> String {
    let plan = canonical_plan();
    let bytes = plan.to_bytes().expect("serialize");
    format!(
        "{}\ncanonical sample plan ({} bytes):\n{}",
        describe_format(),
        bytes.len(),
        hex_dump(&bytes),
    )
}

#[test]
fn format_matches_golden_file() {
    let actual = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing tests/golden/plan_format.txt — run with UPDATE_GOLDEN=1 to generate");
    assert_eq!(
        actual, expected,
        "on-disk format drifted from the golden file; an intentional \
         change must bump VERSION — rerun with UPDATE_GOLDEN=1 and review \
         the diff"
    );
}

#[test]
fn golden_sample_roundtrips() {
    let plan = canonical_plan();
    let bytes = plan.to_bytes().expect("serialize");
    let back = TargetPlan::from_bytes(&bytes).expect("decode");
    assert_eq!(back, plan);
    assert_eq!(back.to_bytes().expect("re-serialize"), bytes);
}
