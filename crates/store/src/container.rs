//! Per-chunk containers: the three roaring-style representations of one
//! 2¹⁶-address slice of a [`crate::ScanSet`].
//!
//! A chunk holds the low 16 bits of every stored address sharing the same
//! high bits. Three representations trade space for density:
//!
//! * [`Container::Array`] — sorted unique `u16`s, best below
//!   [`ARRAY_MAX`] elements (2 bytes/element).
//! * [`Container::Bitmap`] — 1024 × `u64` words (8 KiB flat), best for
//!   dense chunks; all set-operation kernels run word-at-a-time here.
//! * [`Container::Run`] — sorted inclusive `(start, end)` runs (4
//!   bytes/run), best for long contiguous stretches.
//!
//! [`Container::optimized`] picks the smallest serialized representation
//! deterministically (ties prefer Array, then Run, then Bitmap), which is
//! both the promotion *and* demotion path: every canonical constructor
//! routes through it.

use std::borrow::Cow;
use std::cmp::Ordering;

/// Number of 64-bit words in a bitmap container (2¹⁶ bits).
pub const WORDS: usize = 1024;

/// Maximum cardinality of an array container; one past this promotes to
/// a bitmap (the classic roaring 4096 cutoff, where 2 bytes/element
/// crosses the 8 KiB flat bitmap cost).
pub const ARRAY_MAX: usize = 4096;

/// Serialized size of a bitmap container in bytes.
pub const BITMAP_BYTES: usize = WORDS * 8;

/// Discriminant of a container representation, as serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerKind {
    /// Sorted `u16` array (code 0).
    Array,
    /// Flat 2¹⁶-bit bitmap (code 1).
    Bitmap,
    /// Sorted inclusive runs (code 2).
    Run,
}

impl ContainerKind {
    /// The on-disk type code.
    pub fn code(self) -> u8 {
        match self {
            ContainerKind::Array => 0,
            ContainerKind::Bitmap => 1,
            ContainerKind::Run => 2,
        }
    }

    /// Parse an on-disk type code.
    pub fn from_code(code: u8) -> Option<ContainerKind> {
        match code {
            0 => Some(ContainerKind::Array),
            1 => Some(ContainerKind::Bitmap),
            2 => Some(ContainerKind::Run),
            _ => None,
        }
    }
}

/// Narrow a length to `u32`. Every collection in this module lives in
/// the 2¹⁶ chunk domain (≤ 65536 elements), so the cast cannot truncate.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "≤ 65536 elements")]
fn len_u32(n: usize) -> u32 {
    n as u32
}

/// A chunk-domain value (`< 2¹⁶`) as the member it is.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "values are < 2¹⁶")]
fn low16(v: u32) -> u16 {
    v as u16
}

/// A set-operation selector for the shared kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// Intersection.
    And,
    /// Union.
    Or,
    /// Difference (left minus right).
    AndNot,
    /// Symmetric difference.
    Xor,
}

/// One chunk of a scan set: the values' low 16 bits, in one of three
/// representations. Equality is *semantic* (same member set), not
/// representational, so canonical and hand-built containers compare
/// equal.
#[derive(Debug, Clone)]
pub enum Container {
    /// Sorted unique values.
    Array(Vec<u16>),
    /// Bit `v` of word `v / 64` set ⇔ `v` is a member.
    Bitmap(Box<[u64; WORDS]>),
    /// Sorted, non-overlapping, non-adjacent inclusive ranges.
    Run(Vec<(u16, u16)>),
}

impl PartialEq for Container {
    fn eq(&self, other: &Self) -> bool {
        self.cardinality() == other.cardinality() && self.iter().eq(other.iter())
    }
}

impl Eq for Container {}

impl Container {
    /// An empty array container.
    pub fn new() -> Container {
        Container::Array(Vec::new())
    }

    /// Build from sorted unique values, choosing array or bitmap by the
    /// 4096 cutoff. Callers wanting the canonical (smallest) form chain
    /// [`Container::optimized`].
    pub fn from_sorted(values: Vec<u16>) -> Container {
        if values.len() <= ARRAY_MAX {
            Container::Array(values)
        } else {
            let mut words = Box::new([0u64; WORDS]);
            for &v in &values {
                set_bit(&mut words, v);
            }
            Container::Bitmap(words)
        }
    }

    /// The representation currently in use.
    pub fn kind(&self) -> ContainerKind {
        match self {
            Container::Array(_) => ContainerKind::Array,
            Container::Bitmap(_) => ContainerKind::Bitmap,
            Container::Run(_) => ContainerKind::Run,
        }
    }

    /// Number of members.
    pub fn cardinality(&self) -> u32 {
        match self {
            Container::Array(a) => len_u32(a.len()),
            Container::Bitmap(w) => popcount(w),
            Container::Run(r) => r
                .iter()
                .map(|&(s, e)| u32::from(e) - u32::from(s) + 1)
                .sum(),
        }
    }

    /// True when the container has no members.
    pub fn is_empty(&self) -> bool {
        match self {
            Container::Array(a) => a.is_empty(),
            Container::Bitmap(w) => w.iter().all(|&x| x == 0),
            Container::Run(r) => r.is_empty(),
        }
    }

    /// Membership test.
    pub fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&v).is_ok(),
            Container::Bitmap(w) => w
                .get(usize::from(v) >> 6)
                .is_some_and(|word| word & (1u64 << (v & 63)) != 0),
            Container::Run(r) => r
                .binary_search_by(|&(s, e)| {
                    if e < v {
                        Ordering::Less
                    } else if s > v {
                        Ordering::Greater
                    } else {
                        Ordering::Equal
                    }
                })
                .is_ok(),
        }
    }

    /// Insert a value; returns true when it was new. Array containers
    /// promote to bitmaps past [`ARRAY_MAX`]; run containers fall back to
    /// bitmaps (inserts are a build-time primitive — canonical form comes
    /// from [`Container::optimized`]).
    pub fn insert(&mut self, v: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    if a.len() < ARRAY_MAX {
                        a.insert(pos, v);
                    } else {
                        let mut words = self.to_words();
                        set_bit(&mut words, v);
                        *self = Container::Bitmap(words);
                    }
                    true
                }
            },
            Container::Bitmap(w) => set_bit(w, v),
            Container::Run(_) => {
                if self.contains(v) {
                    return false;
                }
                let mut words = self.to_words();
                set_bit(&mut words, v);
                *self = Container::Bitmap(words);
                true
            }
        }
    }

    /// Number of maximal contiguous runs.
    pub fn run_count(&self) -> u32 {
        match self {
            Container::Array(a) => {
                let mut runs = 0u32;
                let mut prev: Option<u16> = None;
                for &v in a {
                    if prev != v.checked_sub(1) || prev.is_none() {
                        runs += 1;
                    }
                    prev = Some(v);
                }
                runs
            }
            Container::Bitmap(w) => {
                let mut runs = 0u32;
                let mut prev_msb = false;
                for &word in w.iter() {
                    runs += (word & !(word << 1)).count_ones();
                    if prev_msb && word & 1 != 0 {
                        runs -= 1;
                    }
                    prev_msb = word >> 63 != 0;
                }
                runs
            }
            Container::Run(r) => len_u32(r.len()),
        }
    }

    /// Serialized payload size of this representation, in bytes.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.len() * 2,
            Container::Bitmap(_) => BITMAP_BYTES,
            Container::Run(r) => r.len() * 4,
        }
    }

    /// Convert to the canonical (smallest-serialization) representation:
    /// array vs run vs bitmap by exact byte cost, ties preferring Array,
    /// then Run, then Bitmap. This single rule is both container
    /// promotion and demotion, and makes serialized chunks a pure
    /// function of the member set.
    pub fn optimized(self) -> Container {
        let n = self.cardinality() as usize;
        let r = self.run_count() as usize;
        let array_cost = if n <= ARRAY_MAX { Some(2 * n) } else { None };
        let run_cost = 4 * r;
        let best_flat = array_cost.unwrap_or(BITMAP_BYTES).min(BITMAP_BYTES);
        if array_cost.is_some_and(|c| c <= run_cost && c <= BITMAP_BYTES) {
            match self {
                Container::Array(_) => self,
                other => Container::Array(other.iter().collect()),
            }
        } else if run_cost < best_flat {
            match self {
                Container::Run(_) => self,
                other => Container::Run(other.to_runs()),
            }
        } else {
            match self {
                Container::Bitmap(_) => self,
                other => Container::Bitmap(other.to_words()),
            }
        }
    }

    /// The canonical container of the members set in `words` (the
    /// many-way union kernel's way out of its scratch block, which it
    /// keeps).
    pub fn from_words(words: &[u64; WORDS]) -> Container {
        let card = popcount(words);
        let flat = if card as usize <= ARRAY_MAX {
            Container::Array(values_of(words, card))
        } else {
            Container::Bitmap(Box::new(*words))
        };
        flat.optimized()
    }

    /// Materialize as a flat bitmap word array.
    pub fn to_words(&self) -> Box<[u64; WORDS]> {
        let mut words = Box::new([0u64; WORDS]);
        self.or_into(&mut words);
        words
    }

    /// OR this container's members into `words` (the many-way union
    /// kernel's accumulator).
    pub fn or_into(&self, words: &mut [u64; WORDS]) {
        match self {
            Container::Array(a) => {
                for &v in a {
                    set_bit(words, v);
                }
            }
            Container::Bitmap(w) => {
                for (dst, &src) in words.iter_mut().zip(w.iter()) {
                    *dst |= src;
                }
            }
            Container::Run(r) => {
                for &(s, e) in r {
                    set_range(words, s, e);
                }
            }
        }
    }

    /// Materialize as sorted inclusive runs.
    pub fn to_runs(&self) -> Vec<(u16, u16)> {
        let mut runs: Vec<(u16, u16)> = Vec::new();
        for v in self.iter() {
            match runs.last_mut() {
                Some(&mut (_, ref mut e)) if u32::from(*e) + 1 == u32::from(v) => *e = v,
                _ => runs.push((v, v)),
            }
        }
        runs
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(a) => ContainerIter::Array(a.iter()),
            Container::Bitmap(w) => {
                let [cur, ..] = **w;
                ContainerIter::Bitmap {
                    words: w,
                    idx: 0,
                    cur,
                }
            }
            Container::Run(r) => ContainerIter::Run {
                runs: r.iter(),
                cur: None,
            },
        }
    }

    /// Number of members ≤ `v`.
    pub fn rank(&self, v: u16) -> u32 {
        match self {
            Container::Array(a) => len_u32(a.partition_point(|&x| x <= v)),
            Container::Bitmap(w) => {
                let (below, rest) = w.split_at(usize::from(v) >> 6);
                let count: u32 = below.iter().map(|x| x.count_ones()).sum();
                count + rest.first().map_or(0, |x| (x & low_mask(v)).count_ones())
            }
            Container::Run(r) => {
                let mut count = 0u32;
                for &(s, e) in r {
                    if s > v {
                        break;
                    }
                    count += u32::from(e.min(v)) - u32::from(s) + 1;
                }
                count
            }
        }
    }

    /// The `k`-th smallest member (0-based), if present.
    pub fn select(&self, k: u32) -> Option<u16> {
        match self {
            Container::Array(a) => a.get(k as usize).copied(),
            Container::Bitmap(w) => {
                let mut remaining = k;
                for (wi, &word) in w.iter().enumerate() {
                    let pop = word.count_ones();
                    if remaining < pop {
                        let bit = select_in_word(word, remaining);
                        return Some(low16(len_u32(wi) << 6 | bit));
                    }
                    remaining -= pop;
                }
                None
            }
            Container::Run(r) => {
                let mut remaining = k;
                for &(s, e) in r {
                    let len = u32::from(e) - u32::from(s) + 1;
                    if remaining < len {
                        return Some(low16(u32::from(s) + remaining));
                    }
                    remaining -= len;
                }
                None
            }
        }
    }

    /// Apply a binary set operation, returning an optimized container.
    /// Array pairs use merge-walk kernels; every other pairing goes
    /// through the word-level kernels.
    pub fn op(&self, other: &Container, op: SetOp) -> Container {
        if let (Container::Array(a), Container::Array(b)) = (self, other) {
            return Container::from_sorted(merge_arrays(a, b, op)).optimized();
        }
        let (wa, wb) = (self.words(), other.words());
        let mut out = Box::new([0u64; WORDS]);
        let mut card = 0u32;
        for (dst, w) in out.iter_mut().zip(word_ops(&wa, &wb, op)) {
            card += w.count_ones();
            *dst = w;
        }
        container_from_words(out, card).optimized()
    }

    /// Cardinality of a binary set operation without materializing the
    /// result (the fast path behind coverage / McNemar / combination
    /// queries).
    pub fn op_cardinality(&self, other: &Container, op: SetOp) -> u32 {
        if let (Container::Array(a), Container::Array(b)) = (self, other) {
            return merge_cardinality(a, b, op);
        }
        word_ops(&self.words(), &other.words(), op)
            .map(u64::count_ones)
            .sum()
    }

    /// The word block of this container: a bitmap's own, or an expanded
    /// copy.
    fn words(&self) -> Cow<'_, Box<[u64; WORDS]>> {
        match self {
            Container::Bitmap(w) => Cow::Borrowed(w),
            other => Cow::Owned(other.to_words()),
        }
    }
}

impl Default for Container {
    fn default() -> Self {
        Container::new()
    }
}

/// Build a container from computed words, preferring an array below the
/// cutoff (callers chain [`Container::optimized`] for run demotion).
fn container_from_words(words: Box<[u64; WORDS]>, card: u32) -> Container {
    if card as usize <= ARRAY_MAX {
        Container::Array(values_of(&words, card))
    } else {
        Container::Bitmap(words)
    }
}

/// Members set in `words`.
pub(crate) fn popcount(words: &[u64; WORDS]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// The `card` members set in `words`, ascending.
fn values_of(words: &[u64; WORDS], card: u32) -> Vec<u16> {
    let mut values = Vec::with_capacity(card as usize);
    for (wi, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let bit = bits.trailing_zeros();
            values.push(low16(len_u32(wi) << 6 | bit));
            bits &= bits - 1;
        }
    }
    values
}

/// The word-level kernel shared by every non-array pairing: `op` over
/// two blocks, word by word.
fn word_ops<'a>(
    a: &'a [u64; WORDS],
    b: &'a [u64; WORDS],
    op: SetOp,
) -> impl Iterator<Item = u64> + 'a {
    a.iter().zip(b).map(move |(&a, &b)| match op {
        SetOp::And => a & b,
        SetOp::Or => a | b,
        SetOp::AndNot => a & !b,
        SetOp::Xor => a ^ b,
    })
}

/// Set bit `v` in a word array; true when it was clear.
#[inline]
fn set_bit(words: &mut [u64; WORDS], v: u16) -> bool {
    // Every `u16` has a word: `v >> 6 < WORDS`.
    let Some(slot) = words.get_mut(usize::from(v) >> 6) else {
        return false;
    };
    let bit = 1u64 << (v & 63);
    let fresh = *slot & bit == 0;
    *slot |= bit;
    fresh
}

/// Bits `0..=v % 64` of a word: the members ≤ `v` in `v`'s own word.
#[inline]
fn low_mask(v: u16) -> u64 {
    u64::MAX >> (63 - (v & 63))
}

/// Set bits `s..=e` in a word array.
fn set_range(words: &mut [u64; WORDS], s: u16, e: u16) {
    let lo_mask = u64::MAX << (s & 63);
    let hi_mask = low_mask(e);
    match words.get_mut(usize::from(s) >> 6..=usize::from(e) >> 6) {
        Some([only]) => *only |= lo_mask & hi_mask,
        Some([first, between @ .., last]) => {
            *first |= lo_mask;
            between.fill(u64::MAX);
            *last |= hi_mask;
        }
        _ => {}
    }
}

/// Index (0-based) of the `k`-th set bit of `word`; `k` must be below
/// the popcount (guaranteed by the caller's bounds walk).
fn select_in_word(word: u64, k: u32) -> u32 {
    let mut bits = word;
    let mut remaining = k;
    while bits != 0 {
        let bit = bits.trailing_zeros();
        if remaining == 0 {
            return bit;
        }
        remaining -= 1;
        bits &= bits - 1;
    }
    // Unreachable by the caller contract; 63 keeps the kernel total.
    63
}

/// The one merge over two sorted arrays: step through both while both
/// have values, handing `f` how the heads compare and the smaller (or
/// common) one, and return the unconsumed tails — at most one of them
/// non-empty.
#[inline]
fn merge_walk<'a>(
    mut a: &'a [u16],
    mut b: &'a [u16],
    mut f: impl FnMut(Ordering, u16),
) -> (&'a [u16], &'a [u16]) {
    while let ([x, ra @ ..], [y, rb @ ..]) = (a, b) {
        match x.cmp(y) {
            Ordering::Less => {
                f(Ordering::Less, *x);
                a = ra;
            }
            Ordering::Greater => {
                f(Ordering::Greater, *y);
                b = rb;
            }
            Ordering::Equal => {
                f(Ordering::Equal, *x);
                a = ra;
                b = rb;
            }
        }
    }
    (a, b)
}

/// Merge-walk kernel over two sorted arrays.
fn merge_arrays(a: &[u16], b: &[u16], op: SetOp) -> Vec<u16> {
    // Which values the op keeps: those only `a` has, only `b` has, both.
    let (left, right, both) = match op {
        SetOp::And => (false, false, true),
        SetOp::Or => (true, true, true),
        SetOp::AndNot => (true, false, false),
        SetOp::Xor => (true, true, false),
    };
    let mut out = Vec::new();
    let (tail_a, tail_b) = merge_walk(a, b, |side, v| {
        let keep = match side {
            Ordering::Less => left,
            Ordering::Greater => right,
            Ordering::Equal => both,
        };
        if keep {
            out.push(v);
        }
    });
    if left {
        out.extend_from_slice(tail_a);
    }
    if right {
        out.extend_from_slice(tail_b);
    }
    out
}

/// Cardinality-only variant of [`merge_arrays`].
fn merge_cardinality(a: &[u16], b: &[u16], op: SetOp) -> u32 {
    let mut inter = 0u32;
    merge_walk(a, b, |side, _| inter += u32::from(side.is_eq()));
    let (na, nb) = (len_u32(a.len()), len_u32(b.len()));
    match op {
        SetOp::And => inter,
        SetOp::Or => na + nb - inter,
        SetOp::AndNot => na - inter,
        SetOp::Xor => na + nb - 2 * inter,
    }
}

/// Ascending iterator over a container's members.
#[derive(Debug)]
pub enum ContainerIter<'a> {
    /// Array walk.
    Array(std::slice::Iter<'a, u16>),
    /// Bitmap bit scan.
    Bitmap {
        /// Backing words.
        words: &'a [u64; WORDS],
        /// Current word index.
        idx: usize,
        /// Unconsumed bits of the current word.
        cur: u64,
    },
    /// Run expansion.
    Run {
        /// Remaining runs.
        runs: std::slice::Iter<'a, (u16, u16)>,
        /// Cursor inside the current run: `(next, end)`, as u32 so the
        /// `0xFFFF` endpoint cannot wrap.
        cur: Option<(u32, u32)>,
    },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bitmap { words, idx, cur } => {
                while *cur == 0 {
                    *idx += 1;
                    *cur = *words.get(*idx)?;
                }
                let bit = cur.trailing_zeros();
                *cur &= *cur - 1;
                Some(low16(len_u32(*idx) << 6 | bit))
            }
            ContainerIter::Run { runs, cur } => loop {
                if let Some((next, end)) = cur {
                    if *next <= *end {
                        let v = low16(*next);
                        *next += 1;
                        return Some(v);
                    }
                }
                let &(s, e) = runs.next()?;
                *cur = Some((u32::from(s), u32::from(e)));
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[u16]) -> Container {
        Container::from_sorted(vals.to_vec())
    }

    #[test]
    fn kinds_and_codes_roundtrip() {
        for kind in [
            ContainerKind::Array,
            ContainerKind::Bitmap,
            ContainerKind::Run,
        ] {
            assert_eq!(ContainerKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(ContainerKind::from_code(3), None);
    }

    #[test]
    fn promotion_at_cutoff() {
        let mut c = Container::from_sorted((0..ARRAY_MAX as u32).map(|v| (v * 3) as u16).collect());
        assert_eq!(c.kind(), ContainerKind::Array);
        assert!(c.insert(1)); // 4097th element, not on the stride
        assert_eq!(c.kind(), ContainerKind::Bitmap);
        assert_eq!(c.cardinality(), ARRAY_MAX as u32 + 1);
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn optimized_picks_smallest_representation() {
        // 10 scattered values: array (20 B) beats runs (40 B).
        let sparse = set(&[1, 5, 9, 100, 300, 500, 900, 1000, 5000, 60000]).optimized();
        assert_eq!(sparse.kind(), ContainerKind::Array);
        // One long dense run: 4 B beats everything.
        let dense_run = Container::from_sorted((0..30000).map(|v| v as u16).collect()).optimized();
        assert_eq!(dense_run.kind(), ContainerKind::Run);
        assert_eq!(dense_run.cardinality(), 30000);
        // Every even value: 32768 members, 32768 runs — bitmap wins.
        let stripes = Container::from_sorted((0..32768u32).map(|v| (v * 2) as u16).collect());
        let stripes = stripes.optimized();
        assert_eq!(stripes.kind(), ContainerKind::Bitmap);
        // The full chunk is a single run again.
        let full = Container::from_sorted((0..=65535u32).map(|v| v as u16).collect()).optimized();
        assert_eq!(full.kind(), ContainerKind::Run);
        assert_eq!(full.cardinality(), 65536);
        assert!(full.contains(0) && full.contains(65535));
    }

    #[test]
    fn semantic_equality_across_kinds() {
        let vals: Vec<u16> = (100..200).collect();
        let arr = Container::Array(vals.clone());
        let run = Container::Run(vec![(100, 199)]);
        let mut bmp = Container::Bitmap(Box::new([0u64; WORDS]));
        for &v in &vals {
            bmp.insert(v);
        }
        assert_eq!(arr, run);
        assert_eq!(arr, bmp);
        assert_ne!(arr, Container::Run(vec![(100, 198)]));
    }

    #[test]
    fn ops_match_naive_reference() {
        use std::collections::BTreeSet;
        let a_vals: Vec<u16> = (0..2000).map(|v| (v * 7) % 60000).collect();
        let b_vals: Vec<u16> = (0..3000).map(|v| (v * 11) % 60000).collect();
        let mut sa: Vec<u16> = a_vals.clone();
        sa.sort_unstable();
        sa.dedup();
        let mut sb: Vec<u16> = b_vals.clone();
        sb.sort_unstable();
        sb.dedup();
        let na: BTreeSet<u16> = sa.iter().copied().collect();
        let nb: BTreeSet<u16> = sb.iter().copied().collect();
        // Exercise all kind pairings: array, run and bitmap versions.
        let reps_a = [
            Container::from_sorted(sa.clone()),
            Container::from_sorted(sa.clone()).optimized(),
            Container::Bitmap(Container::from_sorted(sa.clone()).to_words()),
            Container::Run(Container::from_sorted(sa).to_runs()),
        ];
        let reps_b = [
            Container::from_sorted(sb.clone()),
            Container::Bitmap(Container::from_sorted(sb.clone()).to_words()),
            Container::Run(Container::from_sorted(sb).to_runs()),
        ];
        for ca in &reps_a {
            for cb in &reps_b {
                for op in [SetOp::And, SetOp::Or, SetOp::AndNot, SetOp::Xor] {
                    let expect: Vec<u16> = match op {
                        SetOp::And => na.intersection(&nb).copied().collect(),
                        SetOp::Or => na.union(&nb).copied().collect(),
                        SetOp::AndNot => na.difference(&nb).copied().collect(),
                        SetOp::Xor => na.symmetric_difference(&nb).copied().collect(),
                    };
                    let got = ca.op(cb, op);
                    assert_eq!(got.iter().collect::<Vec<u16>>(), expect, "{op:?}");
                    assert_eq!(got.cardinality() as usize, expect.len());
                    assert_eq!(ca.op_cardinality(cb, op) as usize, expect.len(), "{op:?}");
                }
            }
        }
    }

    #[test]
    fn merge_walk_steps_and_tails() {
        // Every compared step as `f` sees it, and the two tails.
        type Walk = (Vec<(Ordering, u16)>, Vec<u16>, Vec<u16>);
        fn walk(a: &[u16], b: &[u16]) -> Walk {
            let mut steps = Vec::new();
            let (tail_a, tail_b) = merge_walk(a, b, |side, v| steps.push((side, v)));
            assert!(tail_a.is_empty() || tail_b.is_empty(), "{a:?} {b:?}");
            (steps, tail_a.to_vec(), tail_b.to_vec())
        }
        use Ordering::{Equal, Greater, Less};
        assert_eq!(walk(&[], &[1, 2]), (vec![], vec![], vec![1, 2]));
        assert_eq!(walk(&[1, 2], &[]), (vec![], vec![1, 2], vec![]));
        assert_eq!(walk(&[], &[]), (vec![], vec![], vec![]));
        // Disjoint: the left side runs out first, the right tail is left.
        assert_eq!(
            walk(&[1, 5], &[2, 7, 9]),
            (vec![(Less, 1), (Greater, 2), (Less, 5)], vec![], vec![7, 9])
        );
        // Identical: every step is common, nothing is left over.
        assert_eq!(
            walk(&[3, 4, 0xFFFF], &[3, 4, 0xFFFF]),
            (
                vec![(Equal, 3), (Equal, 4), (Equal, 0xFFFF)],
                vec![],
                vec![]
            )
        );
        assert_eq!(
            walk(&[2, 4, 6], &[4]),
            (vec![(Less, 2), (Equal, 4)], vec![6], vec![])
        );
    }

    #[test]
    fn rank_select_inverse() {
        for c in [
            set(&[0, 3, 7, 65535]),
            Container::Run(vec![(10, 20), (100, 100), (65530, 65535)]),
            Container::Bitmap(set(&[1, 64, 65, 4095, 40000]).to_words()),
        ] {
            let n = c.cardinality();
            for k in 0..n {
                let v = c.select(k).unwrap();
                assert_eq!(c.rank(v), k + 1, "select({k}) = {v}");
                assert!(c.contains(v));
            }
            assert_eq!(c.select(n), None);
            assert_eq!(c.rank(65535), n);
        }
    }

    #[test]
    fn run_count_kernels_agree() {
        let vals: Vec<u16> = (0..500)
            .flat_map(|b| (0..3).map(move |i| (b * 131 + i) as u16))
            .collect();
        let mut sorted = vals;
        sorted.sort_unstable();
        sorted.dedup();
        let arr = Container::Array(sorted.clone());
        let bmp = Container::Bitmap(arr.to_words());
        let run = Container::Run(arr.to_runs());
        assert_eq!(arr.run_count(), bmp.run_count());
        assert_eq!(arr.run_count(), run.run_count());
        assert_eq!(run.run_count() as usize, run.to_runs().len());
    }

    #[test]
    fn word_boundary_runs() {
        // A run crossing a word boundary must count once in the bitmap
        // run kernel.
        let c = Container::Run(vec![(60, 70), (127, 129)]);
        let bmp = Container::Bitmap(c.to_words());
        assert_eq!(bmp.run_count(), 2);
        assert_eq!(bmp.cardinality(), 14);
        assert_eq!(bmp, c);
    }
}
