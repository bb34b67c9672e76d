//! ZMap's address-iteration scheme: a random permutation of the scanned
//! address space from a cyclic multiplicative group.
//!
//! ZMap scans addresses in a pseudorandom order so probes to any single
//! destination network are spread across the whole scan (avoiding
//! saturating links and tripping rate alarms), while using O(1) state: it
//! iterates the multiplicative group of integers modulo a prime `p`
//! slightly larger than the address space, `x_{i+1} = g · x_i mod p`,
//! where `g` is a generator of the group. Every integer in `[1, p-1]`
//! appears exactly once per cycle; values beyond the space are skipped.
//!
//! Real ZMap fixes `p = 2^32 + 15`. Our simulated universes are smaller
//! and configurable, so [`Cycle::new`] finds the smallest prime ≥ the
//! requested size + 1 and derives a deterministic generator from the scan
//! seed. Two scanners constructed with the same `(size, seed)` visit
//! addresses in the identical order — the paper's synchronized multi-origin
//! methodology depends on exactly this property.

/// Deterministic Miller-Rabin primality test, exact for all `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Write n-1 = d * 2^s.
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    // This witness set is exact for n < 3.3 * 10^24 (covers u64).
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mod_mul(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// `(a * b) mod m` without overflow.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "remainder < m, a u64")]
pub fn mod_mul(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Multiplication by one fixed factor `b` modulo one `m` with no
/// division: Shoup's method, which keeps the Barrett factor of the
/// multiplier, `⌊b · 2^64 / m⌋`, computed once. Exact for every `m` below
/// `2^63`, so for every prime [`next_prime`] returns for a u32 space (at
/// most `2^32 + 15`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedMul {
    m: u64,
    b: u64,
    /// `⌊b · 2^64 / m⌋`.
    factor: u64,
}

impl FixedMul {
    /// Multiplication by `b` modulo `m` (`b < m < 2^63`).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "b < m, so b · 2^64 / m < 2^64"
    )]
    pub fn new(b: u64, m: u64) -> Self {
        assert!(
            b < m && m < 1 << 63,
            "no fixed multiplication by {b} mod {m}"
        );
        let factor = ((u128::from(b) << 64) / u128::from(m)) as u64;
        Self { m, b, factor }
    }

    /// `(a · b) mod m`, for any `a`.
    #[inline]
    pub fn apply(&self, a: u64) -> u64 {
        let q = ((u128::from(a) * u128::from(self.factor)) >> 64) as u64;
        // q is the quotient or one short of it: r < 2m, and wrapping u64
        // arithmetic computes it exactly.
        let r = a.wrapping_mul(self.b).wrapping_sub(q.wrapping_mul(self.m));
        r.min(r.wrapping_sub(self.m))
    }
}

/// `base^exp mod m` by square-and-multiply.
pub fn mod_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mod_mul(acc, base, m);
        }
        base = mod_mul(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Smallest prime ≥ `n`.
pub fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    if n.is_multiple_of(2) {
        n += 1;
    }
    while !is_prime(n) {
        n += 2;
    }
    n
}

/// Distinct prime factors by trial division (sufficient for the ≤ 2^34
/// group orders we construct).
pub fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Find the smallest primitive root modulo prime `p`.
#[expect(
    clippy::unreachable,
    reason = "dead arm: every prime has a primitive root, so the loop returns first"
)]
pub fn primitive_root(p: u64) -> u64 {
    if p == 2 {
        return 1;
    }
    let factors = prime_factors(p - 1);
    'cand: for g in 2..p {
        for &q in &factors {
            if mod_pow(g, (p - 1) / q, p) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root");
}

/// A full-cycle pseudorandom permutation of `0..size`.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Number of elements permuted.
    size: u64,
    /// The prime modulus (> size).
    prime: u64,
    /// Group generator for this scan (seed-derived power of the smallest
    /// primitive root).
    generator: u64,
    /// First group element visited (seed-derived).
    start: u64,
}

impl Cycle {
    /// Construct the permutation of `0..size` determined by `seed`.
    ///
    /// Panics if `size` is 0.
    pub fn new(size: u64, seed: u64) -> Self {
        assert!(size > 0, "cannot permute an empty space");
        // Group elements are 1..prime; element e maps to address e-1.
        let prime = next_prime(size + 1);
        let root = primitive_root(prime);
        // A power r^k is itself a generator iff gcd(k, p-1) = 1. Derive k
        // from the seed and bump it until coprime.
        let order = prime - 1;
        let mut k = seed % order;
        if k == 0 {
            k = 1;
        }
        while gcd(k, order) != 1 {
            k += 1;
        }
        let generator = mod_pow(root, k, prime);
        // The start point is any element; derive from the seed too.
        let start = 1 + (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) % order);
        Self {
            size,
            prime,
            generator,
            start,
        }
    }

    /// Number of addresses in the permuted space.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The prime modulus chosen for this space.
    pub fn prime(&self) -> u64 {
        self.prime
    }

    /// Iterate the full permutation: yields every value in `0..size`
    /// exactly once, in pseudorandom order.
    pub fn iter(&self) -> CycleIter {
        CycleIter {
            size: self.size,
            step: FixedMul::new(self.generator, self.prime),
            current: self.start,
            remaining_group: self.prime - 1,
        }
    }

    /// Iterate one shard of `total` (ZMap's `--shards`/`--shard`):
    /// shard `i` visits the i-th, (i+total)-th, … elements of the global
    /// permutation, so shards partition the space exactly.
    pub fn iter_shard(&self, shard: u64, total: u64) -> ShardIter {
        assert!(total > 0 && shard < total, "invalid shard spec");
        // Advance the start by `shard` steps, then step by g^total.
        let start = mod_mul(
            self.start,
            mod_pow(self.generator, shard, self.prime),
            self.prime,
        );
        let stride = mod_pow(self.generator, total, self.prime);
        let order = self.prime - 1;
        let steps = order / total + u64::from(shard < order % total);
        ShardIter {
            size: self.size,
            step: FixedMul::new(stride, self.prime),
            current: start,
            remaining: steps,
            taken: 0,
        }
    }
}

/// Iterator over a full [`Cycle`].
#[derive(Debug, Clone)]
pub struct CycleIter {
    size: u64,
    /// Multiplication by the generator.
    step: FixedMul,
    current: u64,
    remaining_group: u64,
}

impl Iterator for CycleIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.remaining_group > 0 {
            let element = self.current;
            self.current = self.step.apply(self.current);
            self.remaining_group -= 1;
            let addr = element - 1;
            if addr < self.size {
                return Some(addr);
            }
        }
        None
    }
}

/// Iterator over one shard of a [`Cycle`].
///
/// Unlike [`CycleIter`], a shard iterator counts the group steps it has
/// consumed ([`ShardIter::steps_taken`]) and can be fast-forwarded to any
/// step in O(log n) ([`ShardIter::fast_forward`]) — the scan engine's
/// checkpoint/resume support is built on exactly these two operations.
#[derive(Debug, Clone)]
pub struct ShardIter {
    size: u64,
    /// Multiplication by the stride, `g^total`.
    step: FixedMul,
    current: u64,
    remaining: u64,
    taken: u64,
}

impl ShardIter {
    /// Group steps consumed so far (every call to `next` consumes at least
    /// one; out-of-range group elements consume steps without yielding).
    pub fn steps_taken(&self) -> u64 {
        self.taken
    }

    /// Jump forward to the state after exactly `steps` total group steps,
    /// without visiting intermediate elements: the group element after `k`
    /// strides is `start · stride^k`, so a single modular exponentiation
    /// reproduces the iterator state a checkpoint recorded.
    ///
    /// Returns `false` (leaving the iterator untouched) if `steps` is
    /// behind the current position or beyond the shard's end.
    pub fn fast_forward(&mut self, steps: u64) -> bool {
        let delta = match steps.checked_sub(self.taken) {
            Some(d) if d <= self.remaining => d,
            _ => return false,
        };
        let (stride, p) = (self.step.b, self.step.m);
        self.current = FixedMul::new(mod_pow(stride, delta, p), p).apply(self.current);
        self.remaining -= delta;
        self.taken = steps;
        true
    }
}

impl Iterator for ShardIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.remaining > 0 {
            let element = self.current;
            self.current = self.step.apply(self.current);
            self.remaining -= 1;
            self.taken += 1;
            let addr = element - 1;
            if addr < self.size {
                return Some(addr);
            }
        }
        None
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "tests assert membership/counts only; hash iteration order never escapes"
)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn primality_spot_checks() {
        assert!(is_prime(2) && is_prime(3) && is_prime(65537));
        assert!(is_prime(4_294_967_311)); // 2^32 + 15, real ZMap's modulus
        assert!(!is_prime(1) && !is_prime(0) && !is_prime(4_294_967_297)); // F5 = 641 * 6700417
        assert!(!is_prime(3215031751)); // strong pseudoprime to bases 2,3,5,7
    }

    #[test]
    fn next_prime_values() {
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(90), 97);
        assert_eq!(next_prime(1 << 16), 65537);
    }

    #[test]
    fn factors_of_group_orders() {
        assert_eq!(prime_factors(65536), vec![2]);
        assert_eq!(prime_factors(96), vec![2, 3]);
        assert_eq!(prime_factors(97), vec![97]);
        assert_eq!(prime_factors(1), Vec::<u64>::new());
    }

    #[test]
    fn primitive_root_generates_whole_group() {
        let p = 101u64;
        let g = primitive_root(p);
        let mut seen = HashSet::new();
        let mut x = 1u64;
        for _ in 0..p - 1 {
            x = mod_mul(x, g, p);
            seen.insert(x);
        }
        assert_eq!(seen.len() as u64, p - 1);
    }

    /// The moduli the reduction must be exact for: `next_prime(2^k + 1)`,
    /// the prime of a `2^k`-address space. k = 16, 20, 22 and 24 are the
    /// world presets (tiny to full); k = 32 is real ZMap's `2^32 + 15`.
    fn reduction_moduli() -> [u64; 7] {
        [8, 16, 20, 22, 24, 31, 32].map(|k| next_prime((1u64 << k) + 1))
    }

    #[test]
    fn fixed_mul_matches_u128_remainder() {
        assert!(reduction_moduli().contains(&4_294_967_311));
        let mut state = 0x5eed_u64;
        let mut draw = |m: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % m
        };
        for m in reduction_moduli() {
            let edges = [0, 1, 2, m / 2, m - 2, m - 1];
            for &b in &edges {
                let by = FixedMul::new(b, m);
                for a in edges.into_iter().chain([m, u64::MAX]) {
                    assert_eq!(by.apply(a), mod_mul(a, b, m), "{a}·{b} mod {m}");
                }
            }
            for _ in 0..100_000 {
                let (a, b) = (draw(m), draw(m));
                let by = FixedMul::new(b, m);
                assert_eq!(by.apply(a), mod_mul(a, b, m), "{a}·{b} mod {m}");
            }
        }
    }

    /// At real ZMap's space, 2^32 addresses modulo `2^32 + 15`, a shard
    /// and a fast-forwarded shard step exactly like a u128 reference.
    #[test]
    fn full_ipv4_space_steps_match_u128_reference() {
        const STEPS: u64 = 100_000;
        let c = Cycle::new(1 << 32, 2020);
        let p = c.prime();
        assert_eq!(p, 4_294_967_311);
        // The reference walk: shard 1 of 4 starts one step in and strides
        // by g^4; the address at each step, `None` where out of space.
        let stride = mod_pow(c.generator, 4, p);
        let mut element = mod_mul(c.start, c.generator, p);
        let mut walk = Vec::new();
        for _ in 0..STEPS {
            walk.push((element - 1 < c.size()).then_some(element - 1));
            element = mod_mul(element, stride, p);
        }
        let want =
            |from: u64| -> Vec<u64> { walk[from as usize..].iter().flatten().copied().collect() };
        let mut shard = c.iter_shard(1, 4);
        let got: Vec<u64> = shard.by_ref().take(want(0).len()).collect();
        assert_eq!(got, want(0));
        assert_eq!(shard.steps_taken(), STEPS);
        let mut jumped = c.iter_shard(1, 4);
        assert!(jumped.fast_forward(STEPS / 2));
        let rest: Vec<u64> = jumped.take(want(STEPS / 2).len()).collect();
        assert_eq!(rest, want(STEPS / 2));
    }

    #[test]
    fn permutation_is_bijective() {
        for size in [1u64, 2, 10, 97, 1000, 65536] {
            let c = Cycle::new(size, 0xfeed);
            let visited: Vec<u64> = c.iter().collect();
            assert_eq!(visited.len() as u64, size, "size {size}");
            let set: HashSet<u64> = visited.iter().copied().collect();
            assert_eq!(set.len() as u64, size);
            assert!(visited.iter().all(|&a| a < size));
        }
    }

    #[test]
    fn same_seed_same_order() {
        let a: Vec<u64> = Cycle::new(5000, 42).iter().collect();
        let b: Vec<u64> = Cycle::new(5000, 42).iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u64> = Cycle::new(5000, 1).iter().collect();
        let b: Vec<u64> = Cycle::new(5000, 2).iter().collect();
        assert_ne!(a, b);
        // ... but both are permutations of the same set.
        let sa: HashSet<u64> = a.into_iter().collect();
        let sb: HashSet<u64> = b.into_iter().collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn order_is_scrambled() {
        // Not a strict randomness test: just assert the permutation is far
        // from the identity (ZMap's whole point).
        let v: Vec<u64> = Cycle::new(10_000, 7).iter().collect();
        let in_place = v
            .iter()
            .enumerate()
            .filter(|(i, &a)| *i as u64 == a)
            .count();
        assert!(in_place < 10, "{in_place} fixed points is suspicious");
    }

    #[test]
    fn shards_partition_space() {
        let c = Cycle::new(10_007, 99);
        for total in [1u64, 2, 3, 7] {
            let mut all = Vec::new();
            for s in 0..total {
                all.extend(c.iter_shard(s, total));
            }
            assert_eq!(all.len() as u64, c.size(), "total {total}");
            let set: HashSet<u64> = all.into_iter().collect();
            assert_eq!(set.len() as u64, c.size());
        }
    }

    #[test]
    fn shard_zero_of_one_equals_full_iteration() {
        let c = Cycle::new(4096, 5);
        let full: Vec<u64> = c.iter().collect();
        let sharded: Vec<u64> = c.iter_shard(0, 1).collect();
        assert_eq!(full, sharded);
    }

    #[test]
    fn shards_interleave_global_order() {
        let c = Cycle::new(977, 3);
        let full: Vec<u64> = c.iter().collect();
        let s0: Vec<u64> = c.iter_shard(0, 2).collect();
        let s1: Vec<u64> = c.iter_shard(1, 2).collect();
        // Shard elements appear in the same relative order as the full
        // permutation (the skip of out-of-range group elements makes exact
        // even/odd positions unaligned, so check subsequence order).
        assert!(is_subsequence(&s0, &full));
        assert!(is_subsequence(&s1, &full));
    }

    fn is_subsequence(sub: &[u64], full: &[u64]) -> bool {
        let mut it = full.iter();
        sub.iter().all(|s| it.any(|f| f == s))
    }

    #[test]
    fn fast_forward_matches_stepping() {
        let c = Cycle::new(10_007, 123);
        for (shard, total) in [(0u64, 1u64), (1, 3), (2, 3)] {
            let mut stepped = c.iter_shard(shard, total);
            // Consume some addresses, then capture the step count.
            for _ in 0..157 {
                stepped.next();
            }
            let mark = stepped.steps_taken();
            let mut jumped = c.iter_shard(shard, total);
            assert!(jumped.fast_forward(mark));
            assert_eq!(jumped.steps_taken(), mark);
            let rest_a: Vec<u64> = stepped.collect();
            let rest_b: Vec<u64> = jumped.collect();
            assert_eq!(rest_a, rest_b, "shard {shard}/{total}");
        }
    }

    #[test]
    fn fast_forward_rejects_bad_targets() {
        let c = Cycle::new(997, 9);
        let mut it = c.iter_shard(0, 2);
        for _ in 0..10 {
            it.next();
        }
        let mark = it.steps_taken();
        assert!(!it.fast_forward(mark - 1), "cannot rewind");
        assert!(!it.fast_forward(u64::MAX), "cannot overshoot the shard");
        assert_eq!(it.steps_taken(), mark, "failed fast-forward must not move");
        // Forwarding to the current position is a no-op that succeeds.
        assert!(it.fast_forward(mark));
    }

    #[test]
    fn steps_taken_counts_skipped_elements() {
        // Space 10 with prime 11: group has 10 elements, all in range, so
        // steps == yields. A space of 6 with prime 7 skips nothing either;
        // use a space where prime-1 > size so skips occur.
        let c = Cycle::new(8, 3); // prime 11, group order 10, 2 skipped
        let mut it = c.iter_shard(0, 1);
        let mut yields = 0u64;
        while it.next().is_some() {
            yields += 1;
        }
        assert_eq!(yields, 8);
        assert_eq!(it.steps_taken(), 10, "skipped group elements still count");
    }
}
