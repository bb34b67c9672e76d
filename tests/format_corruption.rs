//! One corruption suite for both on-disk formats and every way they are
//! read: `.osplan` bytes through `TargetPlan::from_bytes`, `.oscs` bytes
//! through `ScanSetStore::from_bytes`, and an `.oscs` file through
//! `StoreReader::open` plus `load` and `lazy` + `materialize` of every
//! key.
//!
//! The rule is the same for every row. A damaged file — any single
//! flipped bit, any proper prefix — is either refused with a typed error
//! or decodes to something that differs from the original in a declared
//! field; it never panics, never aborts, and never passes for the
//! original.

use originscan::plan::{PlanEntry, PlanError, TargetPlan};
use originscan::store::{ScanSet, ScanSetStore, StoreError, StoreKey, StoreReader};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// What a reader made of one damaged input. (A panic fails the test by
/// itself; an abort kills the test binary.)
#[derive(Debug, PartialEq)]
enum Outcome {
    /// A typed error.
    Rejected,
    /// Decoded, and `!=` the undamaged original.
    Different,
    /// Decoded to the original: the damage went unnoticed.
    Original,
}

/// Feeds one (possibly damaged) file image to a decoder.
type Reader = Box<dyn Fn(&[u8]) -> Outcome>;

/// One row of the table: a valid file and a reader to feed damaged
/// copies of it to.
struct Row {
    name: &'static str,
    bytes: Vec<u8>,
    read: Reader,
}

fn compared<T: PartialEq>(decoded: T, original: &T) -> Outcome {
    if decoded == *original {
        Outcome::Original
    } else {
        Outcome::Different
    }
}

fn sample_plan() -> TargetPlan {
    let entries = (0..96u32)
        .map(|i| PlanEntry {
            s24: i * 5 + i % 3,
            score: 1000 - i * 7,
        })
        .collect();
    TargetPlan::from_entries(1 << 17, 2026, "observed", entries).unwrap()
}

/// ≈ 8 KB with every container kind, a multi-chunk entry, an empty set
/// and two protocols (so TOC records differ in length).
fn sample_store() -> ScanSetStore {
    let array: Vec<u32> = vec![1, 5, 9, 0x0003_0007];
    let run: Vec<u32> = (0x0001_0000..0x0001_8000).collect();
    let bitmap: Vec<u32> = (0..20_000).map(|v| 0x0002_0000 + v * 3).collect();
    let mut store = ScanSetStore::new();
    store.insert(StoreKey::new("HTTP", 0, 0), ScanSet::from_sorted(&array));
    store.insert(StoreKey::new("HTTP", 0, 1), ScanSet::from_sorted(&run));
    store.insert(StoreKey::new("HTTP", 1, 0), ScanSet::from_sorted(&bitmap));
    store.insert(StoreKey::new("SSH", 0, 0), ScanSet::from_sorted(&[]));
    store
}

fn read_plan(bytes: &[u8], original: &TargetPlan) -> Outcome {
    match TargetPlan::from_bytes(bytes) {
        // `InvalidInput`: a flipped `space` of zero.
        Err(PlanError::Frame(_) | PlanError::InvalidInput { .. }) => Outcome::Rejected,
        Err(e) => panic!("not a decode error: {e}"),
        Ok(plan) => compared(plan, original),
    }
}

fn read_store_eager(bytes: &[u8], original: &ScanSetStore) -> Outcome {
    match ScanSetStore::from_bytes(bytes) {
        Err(StoreError::Frame(_)) => Outcome::Rejected,
        Err(e) => panic!("not a decode error: {e}"),
        Ok(store) => compared(store, original),
    }
}

/// The file at `path` through the lazy reader, reassembled from `load`
/// of every key; `lazy` + `materialize` must accept or refuse each key
/// exactly as `load` does. (That the two yield the same set when both
/// succeed is `store.rs`'s unit tests; `ScanSet` equality walks every
/// member, too slow to repeat per flipped bit.)
fn read_store_file(path: &Path, file: &File, bytes: &[u8], original: &ScanSetStore) -> Outcome {
    // Overwritten in place: recreating the file per case is what made
    // this row slow.
    file.write_all_at(bytes, 0).unwrap();
    file.set_len(bytes.len() as u64).unwrap();
    let rejected = |e: StoreError| match e {
        StoreError::Frame(_) => Outcome::Rejected,
        e => panic!("not a decode error: {e}"),
    };
    let reader = match StoreReader::open(path) {
        Ok(reader) => reader,
        Err(e) => return rejected(e),
    };
    let mut store = ScanSetStore::new();
    let mut refused = None;
    for key in reader.keys() {
        let eager = reader.load(key);
        let lazy = reader.lazy(key).and_then(|lazy| lazy.materialize());
        match (eager, lazy) {
            (Ok(set), Ok(_)) => {
                store.insert(key.clone(), set);
            }
            (Err(e), Err(_)) => refused = Some(e),
            (a, b) => panic!("{key}: load gave {a:?} but lazy gave {b:?}"),
        }
    }
    match refused {
        Some(e) => rejected(e),
        None => compared(store, original),
    }
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "originscan_format_corruption_{}_{tag}.oscs",
        std::process::id()
    ))
}

/// The table. `tag` keeps the file row's scratch file private to the
/// calling test.
fn rows(tag: &str) -> (Vec<Row>, PathBuf) {
    let plan = sample_plan();
    let store = sample_store();
    let path = temp_path(tag);
    let file = File::create(&path).unwrap();
    let (eager_original, file_original, file_path) = (store.clone(), store.clone(), path.clone());
    let rows = vec![
        Row {
            name: "plan bytes -> TargetPlan::from_bytes",
            bytes: plan.to_bytes().unwrap(),
            read: Box::new(move |b| read_plan(b, &plan)),
        },
        Row {
            name: "store bytes -> ScanSetStore::from_bytes",
            bytes: store.to_bytes().unwrap(),
            read: Box::new(move |b| read_store_eager(b, &eager_original)),
        },
        Row {
            name: "store file -> StoreReader::open + load/lazy of every key",
            bytes: store.to_bytes().unwrap(),
            read: Box::new(move |b| read_store_file(&file_path, &file, b, &file_original)),
        },
    ];
    (rows, path)
}

#[test]
fn undamaged_files_read_back_as_the_original() {
    // The table's own sanity: `Original` is what an unnoticed change
    // would look like, and the store fixture is what it claims to be.
    let (rows, path) = rows("intact");
    for row in &rows {
        assert_eq!((row.read)(&row.bytes), Outcome::Original, "{}", row.name);
    }
    std::fs::remove_file(path).ok();
    let stats = sample_store().stats();
    assert!(
        stats.array_containers > 0 && stats.run_containers > 0 && stats.bitmap_containers > 0,
        "{stats:?}"
    );
}

#[test]
fn every_single_byte_flip_is_detected() {
    let (rows, path) = rows("flip");
    for row in &rows {
        let mut damaged = row.bytes.clone();
        for i in 0..damaged.len() {
            for bit in [0x01u8, 0x80] {
                damaged[i] ^= bit;
                assert_ne!(
                    (row.read)(&damaged),
                    Outcome::Original,
                    "{}: byte {i} bit {bit:#x} went unnoticed",
                    row.name
                );
                damaged[i] ^= bit;
            }
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn every_truncation_is_rejected() {
    let (rows, path) = rows("trunc");
    for row in &rows {
        for cut in 0..row.bytes.len() {
            assert_eq!(
                (row.read)(&row.bytes[..cut]),
                Outcome::Rejected,
                "{}: prefix of {cut}/{} bytes",
                row.name,
                row.bytes.len()
            );
        }
    }
    std::fs::remove_file(path).ok();
}
