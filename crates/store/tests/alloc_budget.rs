//! `ScanSetStore::to_bytes` allocates by the entry, not by the chunk:
//! the file image is sized once from lengths known before encoding, and
//! every payload is encoded where it stays.
//!
//! A counting allocator needs to be the process's `#[global_allocator]`,
//! so this is one `#[test]` in a binary of its own; the `unsafe` it takes
//! to wrap `System` stays out of the library crates.

use originscan_store::{ScanSet, ScanSetStore, StoreKey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) made by the process so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ENTRIES: u16 = 21;

/// 7 origins × 3 trials of one protocol, every set `chunks` chunks of a
/// few dozen addresses each (arrays), every fourth chunk a bitmap.
fn store(chunks: u32) -> ScanSetStore {
    let mut store = ScanSetStore::new();
    for entry in 0..ENTRIES {
        let addrs: Vec<u32> = (0..chunks)
            .flat_map(|chunk| {
                let members = if chunk % 4 == 0 { 20_000 } else { 40 };
                (0..members).map(move |v| (chunk << 16) + v * 3 + u32::from(entry))
            })
            .collect();
        let set = ScanSet::from_sorted(&addrs);
        assert_eq!(set.chunk_count(), chunks as usize);
        store.insert(StoreKey::new("HTTP", (entry / 7) as u8, entry % 7), set);
    }
    store
}

// One `#[test]`: the counter is the process's, and the harness runs a
// binary's tests on parallel threads.
#[test]
fn to_bytes_allocates_by_the_entry_not_the_chunk() {
    let spent = |chunks: u32| {
        let store = store(chunks);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let bytes = store.to_bytes().expect("a small store");
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            ScanSetStore::from_bytes(&bytes).expect("its own bytes"),
            store
        );
        spent
    };
    let (few, many) = (spent(16), spent(256));
    assert_eq!(few, many, "16 chunks a set: {few} allocations; 256: {many}");
    assert!(
        few < 4 * u64::from(ENTRIES),
        "{few} allocations for {ENTRIES} entries"
    );
}
