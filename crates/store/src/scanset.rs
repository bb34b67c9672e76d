//! [`ScanSet`]: a roaring-style compressed bitmap over the simulated
//! address space.
//!
//! Addresses are split into a high-16-bit *chunk key* and a low-16-bit
//! in-chunk value; each populated chunk holds one [`Container`]. The
//! paper's 2²⁴ simulated space therefore spans at most 256 chunks, and a
//! full `u32` address fits without special cases.
//!
//! All canonical constructors ([`ScanSet::from_sorted`],
//! [`ScanSet::from_unsorted`], the set operations) produce optimized
//! containers, so a set's serialized form is a pure function of its
//! members — the determinism contract the on-disk format relies on.

use crate::container::{popcount, Container, ContainerIter, SetOp, WORDS};
use std::collections::BTreeMap;

/// A compressed set of `u32` addresses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanSet {
    /// `(chunk_key, container)` pairs, sorted by key, no empty chunks.
    chunks: Vec<(u16, Container)>,
}

#[inline]
fn key_of(addr: u32) -> u16 {
    (addr >> 16) as u16
}

#[inline]
fn low_of(addr: u32) -> u16 {
    (addr & 0xFFFF) as u16
}

#[inline]
fn join(key: u16, low: u16) -> u32 {
    u32::from(key) << 16 | u32::from(low)
}

impl ScanSet {
    /// The empty set.
    pub fn new() -> ScanSet {
        ScanSet { chunks: Vec::new() }
    }

    /// Build from sorted, de-duplicated addresses. Out-of-order input is
    /// detected and routed through [`ScanSet::from_unsorted`], so the
    /// result is always the canonical form of the member set.
    pub fn from_sorted(addrs: &[u32]) -> ScanSet {
        if addrs.iter().zip(addrs.iter().skip(1)).any(|(a, b)| a >= b) {
            return ScanSet::from_unsorted(addrs.to_vec());
        }
        let mut chunks: Vec<(u16, Container)> = Vec::new();
        let mut rest = addrs;
        while let Some(&first) = rest.first() {
            let key = key_of(first);
            let (chunk, later) = rest.split_at(rest.partition_point(|&a| key_of(a) == key));
            let values: Vec<u16> = chunk.iter().map(|&a| low_of(a)).collect();
            chunks.push((key, Container::from_sorted(values).optimized()));
            rest = later;
        }
        ScanSet { chunks }
    }

    /// Build from arbitrary addresses (sorts and de-duplicates).
    pub fn from_unsorted(mut addrs: Vec<u32>) -> ScanSet {
        addrs.sort_unstable();
        addrs.dedup();
        ScanSet::from_sorted(&addrs)
    }

    /// Insert one address; returns true when it was new. Containers are
    /// *not* re-canonicalized per insert — call [`ScanSet::optimized`]
    /// before serializing incrementally built sets.
    pub fn insert(&mut self, addr: u32) -> bool {
        let key = key_of(addr);
        match self.chunks.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(pos) => self
                .chunks
                .get_mut(pos)
                .is_some_and(|(_, c)| c.insert(low_of(addr))),
            Err(pos) => {
                self.chunks
                    .insert(pos, (key, Container::Array(vec![low_of(addr)])));
                true
            }
        }
    }

    /// Convert every chunk to its canonical representation.
    pub fn optimized(self) -> ScanSet {
        ScanSet {
            chunks: self
                .chunks
                .into_iter()
                .filter(|(_, c)| !c.is_empty())
                .map(|(k, c)| (k, c.optimized()))
                .collect(),
        }
    }

    /// Membership test.
    pub fn contains(&self, addr: u32) -> bool {
        self.chunks
            .binary_search_by_key(&key_of(addr), |&(k, _)| k)
            .ok()
            .and_then(|pos| self.chunks.get(pos))
            .is_some_and(|(_, c)| c.contains(low_of(addr)))
    }

    /// Number of members.
    pub fn cardinality(&self) -> u64 {
        self.chunks
            .iter()
            .map(|(_, c)| u64::from(c.cardinality()))
            .sum()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(|(_, c)| c.is_empty())
    }

    /// Number of populated chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Machine words (8 bytes) of compressed container payload across
    /// all chunks. This is the set-operation kernels' work-unit cost
    /// model: a kernel over this set walks at most this many words, so
    /// callers (the serve engine's `store.kernel_words` counter) can
    /// charge deterministic work units without timing anything.
    pub fn word_count(&self) -> u64 {
        self.chunks
            .iter()
            .map(|(_, c)| (c.payload_bytes() as u64).div_ceil(8))
            .sum()
    }

    /// Iterate the `(key, container)` chunks in key order.
    pub fn chunks(&self) -> impl Iterator<Item = (u16, &Container)> {
        self.chunks.iter().map(|(k, c)| (*k, c))
    }

    /// Assemble from chunks already in key order (the deserializer's
    /// path). Returns `None` when keys are unsorted or duplicated.
    pub fn from_chunks(chunks: Vec<(u16, Container)>) -> Option<ScanSet> {
        if chunks
            .windows(2)
            .any(|w| matches!(w, [(a, _), (b, _)] if a >= b))
        {
            return None;
        }
        Some(ScanSet { chunks })
    }

    /// Iterate members in ascending address order.
    pub fn iter(&self) -> ScanSetIter<'_> {
        ScanSetIter {
            chunks: self.chunks.iter(),
            cur: None,
        }
    }

    /// Collect into a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Number of members ≤ `addr`.
    pub fn rank(&self, addr: u32) -> u64 {
        let key = key_of(addr);
        let mut count = 0u64;
        for (k, c) in &self.chunks {
            if *k < key {
                count += u64::from(c.cardinality());
            } else if *k == key {
                count += u64::from(c.rank(low_of(addr)));
            } else {
                break;
            }
        }
        count
    }

    /// The `k`-th smallest member (0-based), if present.
    pub fn select(&self, k: u64) -> Option<u32> {
        let mut remaining = k;
        for (key, c) in &self.chunks {
            let card = u64::from(c.cardinality());
            if remaining < card {
                let low = c.select(u32::try_from(remaining).ok()?)?;
                return Some(join(*key, low));
            }
            remaining -= card;
        }
        None
    }

    /// Intersection.
    pub fn and(&self, other: &ScanSet) -> ScanSet {
        self.binary_op(other, SetOp::And)
    }

    /// Union.
    pub fn or(&self, other: &ScanSet) -> ScanSet {
        self.binary_op(other, SetOp::Or)
    }

    /// Difference (`self` minus `other`).
    pub fn andnot(&self, other: &ScanSet) -> ScanSet {
        self.binary_op(other, SetOp::AndNot)
    }

    /// Symmetric difference.
    pub fn xor(&self, other: &ScanSet) -> ScanSet {
        self.binary_op(other, SetOp::Xor)
    }

    /// `|self ∩ other|` without materializing the intersection.
    pub fn intersection_cardinality(&self, other: &ScanSet) -> u64 {
        let mut total = 0u64;
        for_each_chunk(&[self, other], |_, holders| {
            if let [(_, a), (_, b)] = holders {
                total += u64::from(a.op_cardinality(b, SetOp::And));
            }
        });
        total
    }

    /// `|self ∖ other|` without materializing the difference.
    pub fn andnot_cardinality(&self, other: &ScanSet) -> u64 {
        self.cardinality() - self.intersection_cardinality(other)
    }

    /// Cardinality of the union of many sets, chunk-at-a-time: single
    /// holders contribute their popcount directly, shared chunks are
    /// OR-accumulated into one scratch word block. This is the kernel
    /// behind the §6/§7 multi-origin combination sweeps.
    pub fn union_cardinality_many(sets: &[&ScanSet]) -> u64 {
        let mut total = 0u64;
        let mut scratch = Box::new([0u64; WORDS]);
        for_each_chunk(sets, |_, holders| match holders {
            [(_, one)] => total += u64::from(one.cardinality()),
            _ => {
                union_into(holders, &mut scratch);
                total += u64::from(popcount(&scratch));
            }
        });
        total
    }

    /// Union of many sets in one chunk-at-a-time pass (the walk of
    /// [`ScanSet::union_cardinality_many`]); every chunk comes out
    /// canonical, so the result equals the pairwise `or` fold.
    pub fn union_many(sets: &[&ScanSet]) -> ScanSet {
        let mut chunks: Vec<(u16, Container)> = Vec::new();
        let mut scratch = Box::new([0u64; WORDS]);
        for_each_chunk(sets, |key, holders| {
            let out = match holders {
                [(_, one)] => (*one).clone().optimized(),
                _ => {
                    union_into(holders, &mut scratch);
                    Container::from_words(&scratch)
                }
            };
            if !out.is_empty() {
                chunks.push((key, out));
            }
        });
        ScanSet { chunks }
    }

    /// The membership-signature table of up to 64 sets: every address in
    /// any set gets the mask of the sets holding it (bit `i` ⇔ in
    /// `sets[i]`), and the table counts addresses per mask. One
    /// chunk-at-a-time pass answers every union / intersection /
    /// difference cardinality over the sets afterwards (see
    /// [`SignatureCounts::sum`]). `None` for more than 64 sets.
    ///
    /// Per 64-bit word, `popcount(AND of the chunk's holders)` goes
    /// straight to the all-holders mask; only the bits of `OR & !AND` —
    /// addresses the holders disagree on — are walked one by one.
    pub fn signature_counts(sets: &[&ScanSet]) -> Option<SignatureCounts> {
        if sets.len() > 64 {
            return None;
        }
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        // One expanded word block per holder of the current chunk,
        // reused across chunks.
        let mut blocks: Vec<Box<[u64; WORDS]>> = Vec::new();
        let mut and = Box::new([0u64; WORDS]);
        let mut or = Box::new([0u64; WORDS]);
        // Masks of the current chunk's disagreed addresses: sorted and
        // counted by run at the end of the chunk, which is several
        // times cheaper than a map bump per address.
        let mut disagreed: Vec<u64> = Vec::new();
        for_each_chunk(sets, |_, holders| {
            let all = holders.iter().fold(0u64, |m, &(si, _)| m | 1u64 << si);
            if let [(_, one)] = holders {
                *counts.entry(all).or_default() += u64::from(one.cardinality());
                return;
            }
            while blocks.len() < holders.len() {
                blocks.push(Box::new([0u64; WORDS]));
            }
            and.fill(u64::MAX);
            or.fill(0);
            for (block, (_, c)) in blocks.iter_mut().zip(holders) {
                block.fill(0);
                c.or_into(block);
                for ((a, o), &w) in and.iter_mut().zip(or.iter_mut()).zip(block.iter()) {
                    *a &= w;
                    *o |= w;
                }
            }
            *counts.entry(all).or_default() += u64::from(popcount(&and));
            for (wi, (&a, &o)) in and.iter().zip(or.iter()).enumerate() {
                let mut rest = o & !a;
                while rest != 0 {
                    let bit = rest.trailing_zeros();
                    let holds = |block: &[u64; WORDS]| block.get(wi).map_or(0, |w| w >> bit & 1);
                    disagreed.push(
                        blocks
                            .iter()
                            .zip(holders)
                            .fold(0u64, |m, (block, &(si, _))| m | holds(block) << si),
                    );
                    rest &= rest - 1;
                }
            }
            disagreed.sort_unstable();
            for run in disagreed.chunk_by(|a, b| a == b) {
                if let Some(&mask) = run.first() {
                    *counts.entry(mask).or_default() += run.len() as u64;
                }
            }
            disagreed.clear();
        });
        Some(SignatureCounts {
            rows: counts.into_iter().filter(|&(_, n)| n > 0).collect(),
        })
    }

    fn binary_op(&self, other: &ScanSet, op: SetOp) -> ScanSet {
        let mut chunks: Vec<(u16, Container)> = Vec::new();
        for_each_chunk(&[self, other], |key, holders| {
            let out = match holders {
                [(_, a), (_, b)] => a.op(b, op),
                // One-sided chunks are kept verbatim or dropped: the
                // left set's unless intersecting, the right set's for
                // Or/Xor.
                [(0, a)] if op != SetOp::And => (*a).clone(),
                [(1, b)] if matches!(op, SetOp::Or | SetOp::Xor) => (*b).clone(),
                _ => return,
            };
            if !out.is_empty() {
                chunks.push((key, out));
            }
        });
        ScanSet { chunks }
    }
}

impl FromIterator<u32> for ScanSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> ScanSet {
        ScanSet::from_unsorted(iter.into_iter().collect())
    }
}

/// Walk the union of the sets' chunk keys in ascending order, handing
/// `f` each key with its holders: `(index into sets, container)` of
/// every set that has the chunk, ascending by index. The one chunk
/// alignment walk: the binary operations and
/// [`ScanSet::intersection_cardinality`] are its two-set case,
/// [`ScanSet::union_cardinality_many`], [`ScanSet::union_many`] and
/// [`ScanSet::signature_counts`] its k-set one.
fn for_each_chunk<'a>(sets: &[&'a ScanSet], mut f: impl FnMut(u16, &[(usize, &'a Container)])) {
    let mut cursors: Vec<_> = sets.iter().map(|s| s.chunks.iter().peekable()).collect();
    let mut holders: Vec<(usize, &Container)> = Vec::with_capacity(sets.len());
    // The smallest chunk key not yet consumed across all sets.
    while let Some(key) = cursors
        .iter_mut()
        .filter_map(|cur| cur.peek().map(|&&(k, _)| k))
        .min()
    {
        holders.clear();
        for (si, cur) in cursors.iter_mut().enumerate() {
            if let Some((_, c)) = cur.next_if(|&&(k, _)| k == key) {
                holders.push((si, c));
            }
        }
        f(key, &holders);
    }
}

/// Overwrite `scratch` with the union of a chunk's holders.
fn union_into(holders: &[(usize, &Container)], scratch: &mut [u64; WORDS]) {
    scratch.fill(0);
    for (_, c) in holders {
        c.or_into(scratch);
    }
}

/// How many addresses carry each membership mask over a list of sets
/// (bit `i` ⇔ member of set `i`): the result of
/// [`ScanSet::signature_counts`]. Rows are strictly ascending by mask,
/// never the zero mask, never a zero count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureCounts {
    rows: Vec<(u64, u64)>,
}

impl SignatureCounts {
    /// The `(mask, count)` rows, ascending by mask.
    pub fn rows(&self) -> &[(u64, u64)] {
        &self.rows
    }

    /// Addresses whose mask satisfies `pred`. Every cardinality over the
    /// sets is such a sum: `|∪ S| = sum(m & S != 0)`, `|a ∖ b| = sum(m
    /// has a, not b)`, exclusive to `o` `= sum(m == {o})`, the universe
    /// `= sum(true)`.
    pub fn sum(&self, pred: impl Fn(u64) -> bool) -> u64 {
        self.rows
            .iter()
            .filter(|&&(m, _)| pred(m))
            .map(|&(_, n)| n)
            .sum()
    }
}

/// Ascending iterator over a [`ScanSet`]'s members.
#[derive(Debug)]
pub struct ScanSetIter<'a> {
    chunks: std::slice::Iter<'a, (u16, Container)>,
    cur: Option<(u16, ContainerIter<'a>)>,
}

impl Iterator for ScanSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some((key, it)) = &mut self.cur {
                if let Some(low) = it.next() {
                    return Some(join(*key, low));
                }
            }
            let (key, c) = self.chunks.next()?;
            self.cur = Some((*key, c.iter()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sample(seed: u64, n: usize, space: u32) -> Vec<u32> {
        // Deterministic pseudo-random addresses (splitmix-style).
        let mut state = seed;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            out.push((z >> 33) as u32 % space);
        }
        out
    }

    #[test]
    fn word_count_matches_payload_bytes() {
        assert_eq!(ScanSet::new().word_count(), 0);
        let s = ScanSet::from_unsorted(sample(7, 5_000, 1 << 22));
        let by_hand: u64 = s
            .chunks()
            .map(|(_, c)| (c.payload_bytes() as u64).div_ceil(8))
            .sum();
        assert_eq!(s.word_count(), by_hand);
        assert!(s.word_count() > 0);
        // A 3-member array chunk costs 6 payload bytes → 1 word.
        let tiny = ScanSet::from_unsorted(vec![1, 2, 3]);
        assert_eq!(tiny.word_count(), 1);
    }

    #[test]
    fn from_sorted_and_unsorted_agree() {
        let addrs = sample(7, 10_000, 1 << 24);
        let a = ScanSet::from_unsorted(addrs.clone());
        let mut sorted = addrs;
        sorted.sort_unstable();
        sorted.dedup();
        let b = ScanSet::from_sorted(&sorted);
        assert_eq!(a, b);
        assert_eq!(a.to_vec(), sorted);
        assert_eq!(a.cardinality() as usize, sorted.len());
    }

    #[test]
    fn from_chunks_wants_strictly_ascending_keys() {
        let c = || Container::from_sorted(vec![1]);
        assert_eq!(ScanSet::from_chunks(vec![]), Some(ScanSet::new()));
        assert!(ScanSet::from_chunks(vec![(1, c()), (2, c()), (9, c())]).is_some());
        assert!(ScanSet::from_chunks(vec![(1, c()), (9, c()), (2, c())]).is_none());
        assert!(ScanSet::from_chunks(vec![(1, c()), (2, c()), (2, c())]).is_none());
    }

    #[test]
    fn insert_matches_bulk_build() {
        let addrs = sample(11, 5000, 1 << 24);
        let mut inc = ScanSet::new();
        for &a in &addrs {
            inc.insert(a);
        }
        assert!(!inc.insert(addrs[0]));
        let bulk = ScanSet::from_unsorted(addrs);
        assert_eq!(inc, bulk, "incremental and bulk builds are the same set");
        assert_eq!(inc.optimized(), bulk);
    }

    #[test]
    fn ops_match_btreeset_oracle() {
        let a: BTreeSet<u32> = sample(1, 20_000, 1 << 24).into_iter().collect();
        let b: BTreeSet<u32> = sample(2, 20_000, 1 << 24).into_iter().collect();
        let sa: ScanSet = a.iter().copied().collect();
        let sb: ScanSet = b.iter().copied().collect();
        assert_eq!(
            sa.and(&sb).to_vec(),
            a.intersection(&b).copied().collect::<Vec<u32>>()
        );
        assert_eq!(
            sa.or(&sb).to_vec(),
            a.union(&b).copied().collect::<Vec<u32>>()
        );
        assert_eq!(
            sa.andnot(&sb).to_vec(),
            a.difference(&b).copied().collect::<Vec<u32>>()
        );
        assert_eq!(
            sa.xor(&sb).to_vec(),
            a.symmetric_difference(&b).copied().collect::<Vec<u32>>()
        );
        assert_eq!(
            sa.intersection_cardinality(&sb) as usize,
            a.intersection(&b).count()
        );
        assert_eq!(
            ScanSet::union_cardinality_many(&[&sa, &sb]) as usize,
            a.union(&b).count()
        );
        assert_eq!(
            sa.andnot_cardinality(&sb) as usize,
            a.difference(&b).count()
        );
    }

    #[test]
    fn union_many_kernels() {
        let sets: Vec<ScanSet> = (0..5)
            .map(|i| ScanSet::from_unsorted(sample(100 + i, 8000, 1 << 20)))
            .collect();
        let refs: Vec<&ScanSet> = sets.iter().collect();
        let mut naive: BTreeSet<u32> = BTreeSet::new();
        for s in &sets {
            naive.extend(s.iter());
        }
        assert_eq!(ScanSet::union_cardinality_many(&refs), naive.len() as u64);
        let union = ScanSet::union_many(&refs);
        assert_eq!(union.cardinality(), naive.len() as u64);
        assert_eq!(union.to_vec(), naive.into_iter().collect::<Vec<u32>>());
        assert_eq!(ScanSet::union_cardinality_many(&[]), 0);
        let fold = refs.iter().fold(ScanSet::new(), |acc, s| acc.or(s));
        assert_eq!(union, fold);
        assert_eq!(ScanSet::union_many(&[]), ScanSet::new());
    }

    /// Sets mixing array, bitmap and run chunks, one-sided chunks and a
    /// chunk only the last set holds.
    fn mixed_sets() -> Vec<ScanSet> {
        let mut sets: Vec<ScanSet> = (0..4)
            .map(|i| ScanSet::from_unsorted(sample(40 + i, 3000 + 900 * i as usize, 3 << 16)))
            .collect();
        // A dense bitmap chunk (every other address) and a long run.
        sets.push(ScanSet::from_sorted(
            &(0..40_000).map(|v| v * 2).collect::<Vec<u32>>(),
        ));
        sets.push(ScanSet::from_sorted(
            &(70_000..130_000).collect::<Vec<u32>>(),
        ));
        sets.push(ScanSet::from_sorted(&[5, 9 << 16, (9 << 16) + 1]));
        sets
    }

    #[test]
    fn signature_counts_match_per_address_oracle() {
        let sets = mixed_sets();
        let refs: Vec<&ScanSet> = sets.iter().collect();
        let mut oracle: std::collections::BTreeMap<u32, u64> = Default::default();
        for (i, s) in sets.iter().enumerate() {
            for a in s.iter() {
                *oracle.entry(a).or_default() |= 1 << i;
            }
        }
        let mut expect: std::collections::BTreeMap<u64, u64> = Default::default();
        for &m in oracle.values() {
            *expect.entry(m).or_default() += 1;
        }
        let table = ScanSet::signature_counts(&refs).unwrap();
        assert_eq!(
            table.rows(),
            expect.into_iter().collect::<Vec<_>>(),
            "ascending (mask, count) rows, no zero counts"
        );
        assert_eq!(table.sum(|_| true), ScanSet::union_cardinality_many(&refs));
        for (i, a) in sets.iter().enumerate() {
            let ma = 1u64 << i;
            assert_eq!(table.sum(|m| m & ma != 0), a.cardinality());
            for (j, b) in sets.iter().enumerate() {
                let mb = 1u64 << j;
                assert_eq!(
                    table.sum(|m| m & ma != 0 && m & mb != 0),
                    a.intersection_cardinality(b)
                );
                assert_eq!(
                    table.sum(|m| m & ma != 0 && m & mb == 0),
                    a.andnot_cardinality(b)
                );
                assert_eq!(
                    table.sum(|m| m & (ma | mb) != 0),
                    ScanSet::union_cardinality_many(&[a, b])
                );
            }
        }
    }

    #[test]
    fn signature_counts_edges() {
        assert_eq!(ScanSet::signature_counts(&[]).unwrap().rows(), []);
        let e = ScanSet::new();
        let s = ScanSet::from_sorted(&[1, 2, 3]);
        let t = ScanSet::signature_counts(&[&e, &s, &s]).unwrap();
        assert_eq!(t.rows(), [(0b110, 3)]);
        // Holders of one chunk that agree on nothing: no zero-count row.
        let one = ScanSet::from_sorted(&[1]);
        let two = ScanSet::from_sorted(&[2]);
        let t = ScanSet::signature_counts(&[&one, &two]).unwrap();
        assert_eq!(t.rows(), [(0b01, 1), (0b10, 1)]);
        // Bit 63 is usable; a 65th set is not.
        let many = vec![&s; 64];
        assert_eq!(
            ScanSet::signature_counts(&many).unwrap().rows(),
            [(u64::MAX, 3)]
        );
        let too_many = vec![&s; 65];
        assert!(ScanSet::signature_counts(&too_many).is_none());
    }

    #[test]
    fn rank_select_across_chunks() {
        let addrs = sample(3, 3000, 1 << 24);
        let s = ScanSet::from_unsorted(addrs);
        let v = s.to_vec();
        for (k, &addr) in v.iter().enumerate() {
            assert_eq!(s.select(k as u64), Some(addr));
            assert_eq!(s.rank(addr), k as u64 + 1);
        }
        assert_eq!(s.select(v.len() as u64), None);
        assert_eq!(s.rank(u32::MAX), v.len() as u64);
        assert_eq!(s.rank(0), u64::from(s.contains(0)));
    }

    #[test]
    fn rank_select_on_empty_set() {
        let e = ScanSet::new();
        assert_eq!(e.rank(0), 0);
        assert_eq!(e.rank(u32::MAX), 0);
        assert_eq!(e.select(0), None);
        assert_eq!(e.select(u64::MAX), None);
    }

    #[test]
    fn rank_select_run_container_boundaries() {
        // Two runs inside one chunk: [100, 200] and [500, 503]. The
        // canonical form of dense intervals is a run container; rank and
        // select must be exact at every run edge, especially the *last*
        // element of the final run.
        let addrs: Vec<u32> = (100..=200).chain(500..=503).collect();
        let s = ScanSet::from_sorted(&addrs);
        assert!(
            matches!(s.chunks().next().unwrap().1, Container::Run(_)),
            "dense intervals canonicalize to a run container"
        );
        assert_eq!(s.cardinality(), 105);
        // First element of the first run.
        assert_eq!(s.rank(99), 0);
        assert_eq!(s.rank(100), 1);
        assert_eq!(s.select(0), Some(100));
        // Last element of the first run / gap between runs.
        assert_eq!(s.rank(200), 101);
        assert_eq!(s.rank(201), 101);
        assert_eq!(s.rank(499), 101);
        assert_eq!(s.select(100), Some(200));
        assert_eq!(s.select(101), Some(500));
        // Last element of the last run: the k = |S|-1 select and the
        // one-past-the-end select.
        assert_eq!(s.select(104), Some(503));
        assert_eq!(s.rank(503), 105);
        assert_eq!(s.rank(504), 105);
        assert_eq!(s.select(105), None);
    }

    #[test]
    fn rank_select_cross_chunk_boundaries() {
        // Members straddling chunk edges: the last address of chunk 0,
        // the first of chunk 1, and a far-away chunk. rank/select must
        // carry cardinality across chunk boundaries exactly.
        let addrs = vec![0x0000_FFFF, 0x0001_0000, 0x0001_0001, 0x00FF_0000];
        let s = ScanSet::from_sorted(&addrs);
        assert_eq!(s.chunk_count(), 3);
        for (k, &addr) in addrs.iter().enumerate() {
            assert_eq!(s.select(k as u64), Some(addr), "select {k}");
            assert_eq!(s.rank(addr), k as u64 + 1, "rank {addr:#x}");
        }
        // rank between chunks (no members in (0x00010001, 0x00FF0000)).
        assert_eq!(s.rank(0x0002_0000), 3);
        // rank exactly on an empty chunk boundary below the first member.
        assert_eq!(s.rank(0x0000_FFFE), 0);
        assert_eq!(s.select(addrs.len() as u64), None);
    }

    #[test]
    fn empty_set_behaviors() {
        let e = ScanSet::new();
        assert!(e.is_empty());
        assert_eq!(e.cardinality(), 0);
        assert_eq!(e.to_vec(), Vec::<u32>::new());
        let s = ScanSet::from_sorted(&[1, 2, 3]);
        assert_eq!(e.or(&s), s);
        assert_eq!(s.and(&e), e);
        assert_eq!(s.andnot(&e), s);
        assert_eq!(s.xor(&s), e);
    }
}
