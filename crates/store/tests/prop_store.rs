//! Property tests for the compressed bitmap: set-operation kernels vs a
//! naive `BTreeSet` oracle, serialize→deserialize roundtrip identity
//! across all three container kinds — including the 4096-element
//! promotion/demotion boundary — the decoder's no-panic guarantee on
//! arbitrary and damaged bytes, and the sliced CRC-32 against its
//! bit-at-a-time definition.
// Gated: runs only with `--features proptest` (vendored shim; see
// third_party/proptest). The default offline build skips these suites.
#![cfg(feature = "proptest")]

use originscan_store::crc32;
use originscan_store::FORMAT_MAGIC;
use originscan_store::{ScanSet, ScanSetStore, StoreError, StoreKey, ARRAY_MAX, FORMAT_VERSION};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Map a drawn `(mode, raw)` pair to an address. The three modes keep
/// the members concentrated so that containers of every kind (sparse
/// arrays, dense bitmaps/runs, cutoff-straddling chunks) actually occur.
fn to_addr((mode, raw): (u32, u32)) -> u32 {
    match mode % 3 {
        // Sparse: spread across four chunks → array containers.
        0 => ((raw % 4) << 16) | (raw.wrapping_mul(2_654_435_761) & 0xFFFF),
        // Dense window across the chunk 0 / chunk 1 edge (`0xFFFF`,
        // `0x1_0000` and 32 word boundaries inside it).
        1 => 0xFC00 + raw % 2048,
        // Around the array/bitmap cutoff inside one chunk.
        _ => (5 << 16) + (raw % 8192),
    }
}

/// One set's addresses: the raw draws moved up `shift` chunks — so two
/// sets' chunks meet or are held by one side only, depending on their
/// shifts — plus a chunk 8 that is a bitmap, a run, or absent.
fn shifted_addrs(raw: Vec<(u32, u32)>, shift: u32) -> Vec<u32> {
    let mut addrs: Vec<u32> = raw
        .into_iter()
        .map(|r| to_addr(r) + (shift << 16))
        .collect();
    match shift {
        // Three of every four addresses, bits 63 and 64 and `0xFFFF`
        // among them: too many runs for anything but a bitmap.
        1 => addrs.extend((0..=0xFFFF).filter(|v| v % 4 != 1).map(|v| (8 << 16) + v)),
        // One run from the last bit of chunk 8's first word, over the
        // chunk edge, to the first bit of chunk 9's second word.
        2 => addrs.extend((8 << 16) + 63..=(9 << 16) + 64),
        _ => {}
    }
    addrs
}

/// The bytes a store holding just `set` serializes to.
fn store_bytes(set: ScanSet) -> Vec<u8> {
    let mut store = ScanSetStore::new();
    store.insert(StoreKey::new("HTTP", 0, 0), set);
    store.to_bytes().unwrap()
}

/// CRC-32/IEEE from its polynomial, one bit at a time: shares no table
/// with the crate.
fn crc32_bitwise(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |crc, &b| {
        (0..8).fold(crc ^ u32::from(b), |crc, _| {
            (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1))
        })
    })
}

/// Strategy for the raw `(mode, raw)` pair lists.
fn raw_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    pvec((0u32..3, 0u32..0x0004_0000), 0..6000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every binary kernel agrees with the BTreeSet oracle — member for
    /// member and, serialized, byte for byte with the canonical set of
    /// the oracle's members (a one-sided chunk comes through verbatim, a
    /// two-sided one optimized) — over array, bitmap and run chunks that
    /// both sets hold or only either one does.
    #[test]
    fn ops_match_btreeset_oracle(
        ra in raw_strategy(),
        rb in raw_strategy(),
        shifts in (0u32..3, 0u32..3),
    ) {
        let a = shifted_addrs(ra, shifts.0);
        let b = shifted_addrs(rb, shifts.1);
        let oa: BTreeSet<u32> = a.iter().copied().collect();
        let ob: BTreeSet<u32> = b.iter().copied().collect();
        let sa = ScanSet::from_unsorted(a);
        let sb = ScanSet::from_unsorted(b);
        prop_assert_eq!(sa.to_vec(), oa.iter().copied().collect::<Vec<u32>>());
        // Either side of a word boundary and of a chunk edge, in the
        // dense window and in chunk 8.
        for base in [shifts.0 << 16, 8 << 16] {
            for addr in [62, 63, 64, 0xFFFE, 0xFFFF, 0x1_0000, 0x1_0040].map(|off| base + off) {
                prop_assert_eq!(sa.contains(addr), oa.contains(&addr), "{:#x}", addr);
                prop_assert_eq!(sa.rank(addr) as usize, oa.range(..=addr).count(), "{:#x}", addr);
            }
        }

        let and: Vec<u32> = oa.intersection(&ob).copied().collect();
        let or: Vec<u32> = oa.union(&ob).copied().collect();
        let andnot: Vec<u32> = oa.difference(&ob).copied().collect();
        let xor: Vec<u32> = oa.symmetric_difference(&ob).copied().collect();
        for (got, want) in [
            (sa.and(&sb), and),
            (sa.or(&sb), or),
            (sa.andnot(&sb), andnot),
            (sa.xor(&sb), xor),
        ] {
            prop_assert_eq!(got.to_vec(), &want[..]);
            prop_assert_eq!(store_bytes(got), store_bytes(ScanSet::from_sorted(&want)));
        }

        // Cardinality-only kernels agree without materializing.
        prop_assert_eq!(sa.intersection_cardinality(&sb) as usize,
                        oa.intersection(&ob).count());
        prop_assert_eq!(sa.andnot_cardinality(&sb) as usize,
                        oa.difference(&ob).count());
        prop_assert_eq!(ScanSet::union_cardinality_many(&[&sa, &sb]) as usize,
                        oa.union(&ob).count());
    }

    /// One signature pass over 1–8 sets (array, bitmap and run chunks;
    /// per-set chunk shifts give one-sided and disjoint chunks) equals a
    /// per-address oracle, and every cardinality derived from the table
    /// equals the kernel that used to compute it.
    #[test]
    fn signature_counts_match_oracle_and_kernels(
        raws in pvec(raw_strategy(), 1..9),
        shifts in pvec(0u32..3, 8),
    ) {
        let sets: Vec<ScanSet> = raws
            .into_iter()
            .zip(&shifts)
            .map(|(raw, &shift)| ScanSet::from_unsorted(shifted_addrs(raw, shift)))
            .collect();
        let refs: Vec<&ScanSet> = sets.iter().collect();
        let mut masks: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in sets.iter().enumerate() {
            for a in s.to_vec() {
                *masks.entry(a).or_default() |= 1 << i;
            }
        }
        let mut expect: BTreeMap<u64, u64> = BTreeMap::new();
        for &m in masks.values() {
            *expect.entry(m).or_default() += 1;
        }
        let table = ScanSet::signature_counts(&refs).unwrap();
        prop_assert_eq!(table.rows().to_vec(), expect.into_iter().collect::<Vec<_>>());
        prop_assert!(table.rows().windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(table.rows().iter().all(|&(m, n)| m != 0 && n != 0));
        prop_assert_eq!(table.sum(|_| true), ScanSet::union_cardinality_many(&refs));

        for subset in 1u64..1 << sets.len() {
            let members: Vec<&ScanSet> = (0..sets.len())
                .filter(|i| subset >> i & 1 == 1)
                .map(|i| refs[i])
                .collect();
            prop_assert_eq!(table.sum(|m| m & subset != 0),
                            ScanSet::union_cardinality_many(&members));
        }
        for (i, a) in sets.iter().enumerate() {
            for (j, b) in sets.iter().enumerate() {
                let (ma, mb) = (1u64 << i, 1u64 << j);
                prop_assert_eq!(table.sum(|m| m & ma != 0 && m & mb != 0),
                                a.intersection_cardinality(b));
                prop_assert_eq!(table.sum(|m| m & ma != 0 && m & mb == 0),
                                a.andnot_cardinality(b));
            }
        }

        // The one-pass union is the pairwise fold, chunk for chunk.
        let union = ScanSet::union_many(&refs);
        let fold = refs.iter().fold(ScanSet::new(), |acc, s| acc.or(s));
        prop_assert_eq!(&union, &fold);
        prop_assert!(union.chunks().zip(fold.chunks())
            .all(|((ka, ca), (kb, cb))| ka == kb && ca.kind() == cb.kind()));
    }

    /// Rank/select agree with the oracle's sorted order.
    #[test]
    fn rank_select_match_oracle(ra in raw_strategy()) {
        let a: Vec<u32> = ra.into_iter().map(to_addr).collect();
        let oracle: BTreeSet<u32> = a.iter().copied().collect();
        let set = ScanSet::from_unsorted(a);
        for (k, &addr) in oracle.iter().enumerate().step_by(97) {
            prop_assert_eq!(set.select(k as u64), Some(addr));
            prop_assert_eq!(set.rank(addr), k as u64 + 1);
        }
        prop_assert_eq!(set.select(oracle.len() as u64), None);
    }

    /// Serialize→deserialize is the identity, and the bytes are a pure
    /// function of the member set.
    #[test]
    fn roundtrip_identity(ra in raw_strategy()) {
        let a: Vec<u32> = ra.into_iter().map(to_addr).collect();
        let set = ScanSet::from_unsorted(a.clone());
        let mut store = ScanSetStore::new();
        store.insert(StoreKey::new("HTTP", 0, 0), set.clone());
        let bytes = store.to_bytes().unwrap();
        let back = ScanSetStore::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.get(&StoreKey::new("HTTP", 0, 0)).unwrap(), &set);
        prop_assert_eq!(back.to_bytes().unwrap(), bytes);

        // Insertion-order independence: the reversed build serializes to
        // the same bytes (canonical containers).
        let mut rev = a;
        rev.reverse();
        let mut store2 = ScanSetStore::new();
        store2.insert(StoreKey::new("HTTP", 0, 0), ScanSet::from_unsorted(rev));
        prop_assert_eq!(store2.to_bytes().unwrap(), bytes);
    }

    /// Roundtrip across the array↔bitmap cutoff: sets sized right at,
    /// just below, and just above ARRAY_MAX members in a single chunk.
    #[test]
    fn roundtrip_at_promotion_boundary(delta in -2i64..3, stride in 1u32..5) {
        let n = (ARRAY_MAX as i64 + delta) as u32;
        let addrs: Vec<u32> = (0..n).map(|i| i * stride).collect();
        let set = ScanSet::from_sorted(&addrs);
        prop_assert_eq!(set.cardinality(), u64::from(n));
        let mut store = ScanSetStore::new();
        store.insert(StoreKey::new("SSH", 1, 2), set.clone());
        let bytes = store.to_bytes().unwrap();
        let back = ScanSetStore::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.get(&StoreKey::new("SSH", 1, 2)).unwrap(), &set);
        prop_assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    /// No input makes the eager decoder panic or abort: arbitrary bytes
    /// (bare, and behind a valid magic/version/flags prefix so they reach
    /// the header counts), and valid stores with 1–8 bytes overwritten,
    /// come back as `Ok` or a typed `Err`. Every count and length in the
    /// file is checked against the bytes present before anything is
    /// allocated from it, so a hostile `entry_count`/`toc_len`/
    /// `chunk_count` costs nothing.
    #[test]
    fn from_bytes_returns_ok_or_a_typed_error(
        junk in pvec(any::<u8>(), 0..256),
        ra in raw_strategy(),
        rb in raw_strategy(),
        patches in pvec((0u32..2, any::<u32>(), any::<u8>()), 1..9),
    ) {
        let mut framed = FORMAT_MAGIC.to_vec();
        framed.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        framed.extend_from_slice(&[0, 0]);
        framed.extend_from_slice(&junk);
        for bytes in [&junk, &framed] {
            if let Ok(store) = ScanSetStore::from_bytes(bytes) {
                prop_assert!(store.to_bytes().is_ok());
            }
        }

        let mut store = ScanSetStore::new();
        for (origin, raw) in [ra, rb].into_iter().enumerate() {
            let addrs = raw.into_iter().map(to_addr).collect();
            store.insert(StoreKey::new("HTTP", 0, origin as u16), ScanSet::from_unsorted(addrs));
        }
        let mut bytes = store.to_bytes().unwrap();
        for (region, at, value) in patches {
            // Half the overwrites aim at the header, TOC and first set
            // header, where the unchecksummed counts and lengths live.
            let span = if region == 0 { bytes.len().min(96) } else { bytes.len() };
            bytes[at as usize % span] = value;
        }
        match ScanSetStore::from_bytes(&bytes) {
            Ok(decoded) => prop_assert!(decoded.to_bytes().is_ok()),
            Err(e) => prop_assert!(matches!(e, StoreError::Frame(_)), "{}", e),
        }
    }

    /// The table-sliced `crc32` is the polynomial's CRC for any input
    /// (every length mod 16, every byte value).
    #[test]
    fn crc32_matches_the_bit_at_a_time_definition(data in pvec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
    }
}
