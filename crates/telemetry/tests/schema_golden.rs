//! Golden-file test pinning the JSONL telemetry wire contract.
//!
//! `describe_schema()` is derived from the same tables the serializers
//! use, so this test fails whenever an event payload, metric name, or
//! histogram bucket boundary changes. To accept an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p originscan-telemetry --test schema_golden
//! ```

use originscan_telemetry::describe_schema;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/schema.txt");

#[test]
fn schema_matches_golden_file() {
    let actual = describe_schema();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing tests/golden/schema.txt — run with UPDATE_GOLDEN=1 to generate");
    assert_eq!(
        actual, expected,
        "telemetry schema drifted from the golden file; if intentional, \
         rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}
