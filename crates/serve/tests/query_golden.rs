//! Golden-file test pinning the wire format of every query response —
//! one success body per query kind plus one error body per error class.
//! External tooling parses these bytes, so any drift in field names,
//! field order, number formatting, or plan hashing shows up as a golden
//! diff. To accept an intentional change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p originscan-serve --test query_golden
//! ```

use originscan_plan::{PlanEntry, TargetPlan};
use originscan_serve::error_body;
use originscan_serve::QueryEngine;
use originscan_store::{ScanSet, ScanSetStore, StoreKey, StoreReader};
use std::path::Path;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/query_responses.txt"
);

/// A fixed store: three HTTP origins with overlapping and disjoint
/// coverage plus one SSH origin, enough to exercise every query kind.
fn canonical_engine(dir: &Path) -> QueryEngine {
    let mut store = ScanSetStore::new();
    store.insert(
        StoreKey::new("HTTP", 0, 0),
        ScanSet::from_unsorted(vec![1, 2, 3, 100_000, 0x0001_0000]),
    );
    store.insert(
        StoreKey::new("HTTP", 0, 1),
        ScanSet::from_unsorted(vec![2, 3, 4, 5]),
    );
    store.insert(
        StoreKey::new("HTTP", 0, 2),
        ScanSet::from_unsorted(vec![900_000, 900_001]),
    );
    store.insert(StoreKey::new("SSH", 1, 0), ScanSet::from_sorted(&[7, 9]));
    let path = dir.join("golden.oscs");
    store.write_to(&path).expect("write store");
    let mut engine = QueryEngine::from_readers(vec![StoreReader::open(&path).expect("open store")]);
    // A fixed target plan covering /24s 0 and 390 (addresses 0..256 and
    // 99840..100096), for the `recall` query.
    let plan = TargetPlan::from_entries(
        1 << 17,
        7,
        "density_top_k250000",
        vec![
            PlanEntry { s24: 0, score: 9 },
            PlanEntry { s24: 390, score: 4 },
        ],
    )
    .expect("build plan");
    engine.register_plan("frontier", plan);
    engine
}

/// One query text per response shape the server can emit.
const QUERIES: &[&str] = &[
    "coverage proto=HTTP trial=0 origins=0,1",
    "union proto=HTTP trial=0 origins=0,1,2",
    "diff proto=HTTP trial=0 a=0 b=1",
    "exclusive proto=HTTP trial=0 origin=2",
    "best-k proto=HTTP trial=0 k=2",
    "rank proto=SSH trial=1 origin=0 addr=8",
    "member proto=HTTP trial=0 origin=0 addr=100000",
    "recall proto=HTTP trial=0 origins=0,1 plan=frontier",
    // Error bodies, one per class the engine can hit at query time.
    "coverage proto=HTTP",
    "frobnicate proto=HTTP trial=0",
    "member proto=HTTP trial=0 origin=9 addr=1",
    "union proto=DNS trial=0 origins=0",
    "coverage proto=GOPHER trial=0 origins=0",
    "best-k proto=HTTP trial=0 k=99",
    "recall proto=HTTP trial=0 origins=0,1 plan=unregistered",
];

/// One response as the golden file holds it: status, then body.
fn response(engine: &QueryEngine, q: &str) -> String {
    match engine.execute_text(q) {
        Ok(body) => format!("200 {body}"),
        Err(e) => format!("{} {}", e.http_status(), error_body(&e)),
    }
}

/// Every query's response, each asked twice of one engine: the second
/// answer comes from warm caches and must equal the cold one it pins.
fn render() -> String {
    let dir = std::env::temp_dir().join(format!("originscan-query-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let engine = canonical_engine(&dir);
    let mut out = String::new();
    for q in QUERIES {
        let cold = response(&engine, q);
        assert_eq!(response(&engine, q), cold, "{q}: warm answer differs");
        out.push_str(&format!("query: {q}\n{cold}\n\n"));
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn responses_match_golden_file() {
    let actual = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing tests/golden/query_responses.txt — run with UPDATE_GOLDEN=1 to generate");
    assert_eq!(
        actual, expected,
        "query response bytes drifted from the golden file; clients pin \
         this wire format — rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}
