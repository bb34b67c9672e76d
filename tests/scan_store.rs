//! End-to-end guarantees of the scan-set store, asserted at experiment
//! level:
//!
//! 1. **Determinism** — two same-seed experiments serialize their
//!    scan-set stores to byte-identical files, and the analyses they
//!    feed (`full_report`) are byte-identical too.
//! 2. **Corruption** — truncated sections in a real experiment's store
//!    *file* surface as `Truncated`/`ChecksumMismatch` through both the
//!    eager and the lazy reader (every bit flip and every prefix of a
//!    synthetic store is `tests/format_corruption.rs`).
//! 3. **Consistency** — the persisted bitmaps answer the same counts as
//!    the in-memory matrices they were built from.
//! 4. **Sorted iteration** — the analyses' host orderings are reproducible
//!    ascending orders (regression guard for hash-order dependence).

use originscan::core::experiment::{Experiment, ExperimentConfig};
use originscan::core::summary::full_report;
use originscan::core::ExperimentResults;
use originscan::netmodel::{OriginId, Protocol, World, WorldConfig};
use originscan::store::FrameError;
use originscan::store::{ScanSetStore, StoreError, StoreKey, StoreReader};

fn run(world: &World) -> ExperimentResults<'_> {
    let cfg = ExperimentConfig {
        origins: vec![OriginId::Us1, OriginId::Japan, OriginId::Censys],
        protocols: vec![Protocol::Http, Protocol::Ssh],
        trials: 2,
        ..Default::default()
    };
    Experiment::new(world, cfg).run().unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "originscan_scan_store_{}_{name}.oscs",
        std::process::id()
    ));
    p
}

#[test]
fn same_seed_runs_serialize_identically() {
    let world_a = WorldConfig::tiny(41).build();
    let world_b = WorldConfig::tiny(41).build();
    let ra = run(&world_a);
    let rb = run(&world_b);
    let bytes_a = ra.scan_set_store().to_bytes().unwrap();
    let bytes_b = rb.scan_set_store().to_bytes().unwrap();
    assert_eq!(
        bytes_a, bytes_b,
        "same-seed store files must be byte-identical"
    );
    assert_eq!(
        full_report(&ra),
        full_report(&rb),
        "same-seed reports must be byte-identical"
    );
    // A different seed produces a different store (sanity: the bytes are
    // not constant).
    let world_c = WorldConfig::tiny(42).build();
    let rc = run(&world_c);
    assert_ne!(bytes_a, rc.scan_set_store().to_bytes().unwrap());
}

#[test]
fn store_matches_matrices_and_reloads() {
    let world = WorldConfig::tiny(41).build();
    let r = run(&world);
    let store = r.scan_set_store();
    // 2 protocols × 2 trials × 3 origins.
    assert_eq!(store.len(), 12);
    let path = temp_path("reload");
    store.write_to(&path).unwrap();
    let reader = StoreReader::open(&path).unwrap();
    for m in r.matrices() {
        for oi in 0..3 {
            let key = StoreKey::new(m.protocol.name(), m.trial, oi as u16);
            // Lazy cardinality (directory only) matches the matrix count.
            let lazy = reader.lazy(&key).unwrap();
            assert_eq!(lazy.cardinality() as usize, m.seen_count(oi));
            // Full load matches the in-memory set exactly.
            let set = reader.load(&key).unwrap();
            assert_eq!(&set, &m.seen_sets[oi]);
        }
    }
    std::fs::remove_file(&path).ok();
}

/// What a cut may surface as: the section came up short, or (a cut
/// inside the TOC) the shortened section failed its checksum.
fn cut_error(e: &StoreError) -> bool {
    matches!(
        e,
        StoreError::Frame(FrameError::Truncated { .. } | FrameError::ChecksumMismatch { .. })
    )
}

#[test]
fn corrupted_store_files_surface_typed_errors() {
    let world = WorldConfig::tiny(41).build();
    let r = run(&world);
    let store = r.scan_set_store();
    let bytes = store.to_bytes().unwrap();
    let path = temp_path("corrupt");

    // (Every single-bit flip and every prefix, against a synthetic store,
    // is `tests/format_corruption.rs`; this pins *which* typed error a
    // cut through a real experiment's store yields.)
    // Truncations at section boundaries: header, TOC, entry, payload.
    for cut in [3, 10, 30, bytes.len() * 2 / 3, bytes.len() - 5] {
        let err = ScanSetStore::from_bytes(&bytes[..cut]).unwrap_err();
        assert!(cut_error(&err), "cut at {cut}: {err}");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match StoreReader::open(&path) {
            Err(e) => assert!(cut_error(&e), "open after cut {cut}: {e}"),
            Ok(reader) => {
                let keys: Vec<StoreKey> = reader.keys().cloned().collect();
                let any_fails = keys.iter().any(|k| reader.load(k).is_err());
                assert!(any_fails, "cut at {cut} invisible to the reader");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Regression guard for the hash-iteration-order sweep: every host list
/// the set analyses hand out is sorted ascending, so downstream output
/// can never depend on an incidental memory layout.
#[test]
fn analysis_host_orders_are_sorted() {
    use originscan::core::diff_records;
    use originscan::core::exclusive_hosts;

    let world = WorldConfig::tiny(41).build();
    let r = run(&world);
    let panel = r.panel(Protocol::Http);
    for oi in 0..panel.origins.len() {
        let hosts = exclusive_hosts(&panel, oi);
        assert!(
            hosts.windows(2).all(|w| w[0] < w[1]),
            "origin {oi} unsorted"
        );
    }
    // Matrix host lists and bitmap views are ascending too.
    for m in r.matrices() {
        assert!(m.addrs.windows(2).all(|w| w[0] < w[1]));
        for s in &m.seen_sets {
            let v = s.to_vec();
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
    }
    // Two experiment runs order identically (no ambient randomness).
    let world2 = WorldConfig::tiny(41).build();
    let r2 = run(&world2);
    let p2 = r2.panel(Protocol::Http);
    for oi in 0..panel.origins.len() {
        assert_eq!(exclusive_hosts(&panel, oi), exclusive_hosts(&p2, oi));
    }
    let d = diff_records(&[], &[]);
    assert!(d.only_a.is_empty() && d.only_b.is_empty());
}
