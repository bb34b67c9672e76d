//! Golden-file test pinning the scan-set store's on-disk format: the
//! layout description (derived from the same constants the serializers
//! use) plus a hex dump of one canonical store, so any byte-level drift
//! — header fields, section order, checksum placement, container
//! encodings — shows up as a golden diff. To accept an intentional
//! format change (which must also bump `FORMAT_VERSION`):
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p originscan-store --test format_golden
//! ```

use originscan_store::{describe_format, ScanSet, ScanSetStore, StoreKey};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scanset_format.txt"
);

/// A store exercising every container kind: a sparse array chunk, a full
/// run chunk, and an even-stripe bitmap chunk, across two keys.
fn canonical_store() -> ScanSetStore {
    let mut store = ScanSetStore::new();
    let mut addrs: Vec<u32> = vec![0, 7, 1000, 65535];
    addrs.extend((1 << 16)..(1 << 16) + 5000); // run chunk
    addrs.extend(((2 << 16)..(2 << 16) + 16384).step_by(2)); // bitmap chunk
    store.insert(StoreKey::new("HTTP", 0, 0), ScanSet::from_unsorted(addrs));
    store.insert(
        StoreKey::new("SSH", 2, 1),
        ScanSet::from_sorted(&[42, 0x00FF_FFFF]),
    );
    store
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
    let store = canonical_store();
    let bytes = store.to_bytes().expect("serialize");
    // The full HTTP entry is large (a bitmap chunk); dump the header, the
    // TOC, and the first 256 payload bytes — enough to pin every layout
    // decision without a megabyte golden.
    let head = 256.min(bytes.len());
    format!(
        "{}\ncanonical sample store ({} bytes, first {head} shown):\n{}",
        describe_format(),
        bytes.len(),
        hex_dump(&bytes[..head]),
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
        .expect("missing tests/golden/scanset_format.txt — run with UPDATE_GOLDEN=1 to generate");
    assert_eq!(
        actual, expected,
        "on-disk format drifted from the golden file; an intentional \
         change must bump FORMAT_VERSION — rerun with UPDATE_GOLDEN=1 and \
         review the diff"
    );
}

#[test]
fn golden_sample_roundtrips() {
    let store = canonical_store();
    let bytes = store.to_bytes().expect("serialize");
    let back = ScanSetStore::from_bytes(&bytes).expect("decode");
    assert_eq!(back, store);
    assert_eq!(back.to_bytes().expect("re-serialize"), bytes);
}
