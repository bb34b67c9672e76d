//! Golden digests of every artifact's stdout at the `tiny` scale.
//!
//! `golden/artifact_digests.txt` was recorded from the 28 one-file
//! `fig*`/`tab*` bench targets that `artifacts::ARTIFACTS` replaced, so it
//! pins each row's bytes to what its old target printed. To accept an
//! intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p originscan-bench --test artifact_golden
//! ```

use originscan_bench::artifacts::{Study, ARTIFACTS};
use originscan_bench::{bench_world, Scale};
use originscan_serve::query::fnv1a64;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/artifact_digests.txt"
);

#[test]
fn all_artifacts_match_golden_digests_over_one_study() {
    let world = bench_world(Scale::Tiny);
    let study = Study::new(&world);
    assert_eq!(study.runs(), (0, 0), "a study runs nothing until asked");
    let mut actual = String::new();
    for a in ARTIFACTS {
        let text = a.text(&study);
        let _ = writeln!(
            actual,
            "{} {:016x} {}",
            a.id,
            fnv1a64(text.as_bytes()),
            text.len()
        );
    }
    assert_eq!(
        study.runs(),
        (1, 1),
        "all ids share one main and one follow-up experiment"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing tests/golden/artifact_digests.txt — run with UPDATE_GOLDEN=1 to generate");
    assert_eq!(
        actual, expected,
        "artifact stdout drifted from the golden digests; if the change is \
         intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn ids_are_unique_and_documented() {
    let docs = [
        ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
        ("DESIGN.md", include_str!("../../../DESIGN.md")),
    ];
    for (i, a) in ARTIFACTS.iter().enumerate() {
        assert!(
            ARTIFACTS.iter().skip(i + 1).all(|b| b.id != a.id),
            "duplicate artifact id {}",
            a.id
        );
        for (name, text) in docs {
            assert!(text.contains(a.id), "{} is missing from {name}", a.id);
        }
    }
}
