//! Property tests for the scanner's core invariants.
// Gated: runs only with `--features proptest` (vendored shim; see
// third_party/proptest). The default offline build skips these suites.
#![cfg(feature = "proptest")]
#![expect(
    clippy::disallowed_types,
    reason = "tests assert membership/counts only; hash iteration order never escapes"
)]

use originscan_scanner::blocklist::{Blocklist, Cidr};
use originscan_scanner::cyclic::{is_prime, mod_mul, next_prime, Cycle, FixedMul};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The permutation visits every address exactly once, for any space
    /// size and seed — ZMap's correctness hinges on this.
    #[test]
    fn cycle_is_a_bijection(size in 1u64..5000, seed: u64) {
        let c = Cycle::new(size, seed);
        let visited: Vec<u64> = c.iter().collect();
        prop_assert_eq!(visited.len() as u64, size);
        let set: HashSet<u64> = visited.iter().copied().collect();
        prop_assert_eq!(set.len() as u64, size);
        prop_assert!(visited.iter().all(|&a| a < size));
    }

    /// The permutation's division-free step is the u128 remainder, at the
    /// prime of a `2^k`-address space for each k the scanner meets (the
    /// world presets' 16 to 24, and up to real ZMap's 2^32 + 15).
    #[test]
    fn fixed_mul_matches_u128_remainder(i in 0usize..7, a: u64, b: u64) {
        let k = [8, 16, 20, 22, 24, 31, 32][i];
        let m = next_prime((1u64 << k) + 1);
        let b = b % m;
        prop_assert_eq!(FixedMul::new(b, m).apply(a), mod_mul(a, b, m));
        prop_assert_eq!(FixedMul::new(b, m).apply(a % m), mod_mul(a, b, m));
    }

    /// Shards partition the space: disjoint, and their union is complete.
    #[test]
    fn shards_partition(size in 1u64..3000, seed: u64, total in 1u64..6) {
        let c = Cycle::new(size, seed);
        let mut all: Vec<u64> = Vec::new();
        for s in 0..total {
            let part: Vec<u64> = c.iter_shard(s, total).collect();
            all.extend(part);
        }
        all.sort_unstable();
        let expected: Vec<u64> = (0..size).collect();
        prop_assert_eq!(all, expected);
    }

    /// next_prime returns a prime ≥ n, and not absurdly far.
    #[test]
    fn next_prime_correct(n in 2u64..1_000_000) {
        let p = next_prime(n);
        prop_assert!(p >= n);
        prop_assert!(is_prime(p));
        // Bertrand's postulate: a prime exists below 2n.
        prop_assert!(p < 2 * n + 2);
    }

    /// Miller-Rabin agrees with trial division on small numbers.
    #[test]
    fn primality_matches_trial_division(n in 2u64..20_000) {
        let trial = (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
        prop_assert_eq!(is_prime(n), trial);
    }

    /// Blocklist membership matches the naive interpretation of the CIDRs.
    #[test]
    fn blocklist_matches_naive(
        cidrs in proptest::collection::vec((any::<u32>(), 8u8..=32), 0..8),
        probes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let list: Vec<Cidr> = cidrs.iter().map(|&(b, l)| Cidr::new(b, l)).collect();
        let bl = Blocklist::from_cidrs(list.iter().copied());
        for &p in &probes {
            let naive = list.iter().any(|c| p >= c.first() && p <= c.last());
            prop_assert_eq!(bl.contains(p), naive, "addr {}", p);
        }
    }

    /// Merged blocklists behave like the union of their parts.
    #[test]
    fn blocklist_merge_is_union(
        a in proptest::collection::vec((any::<u32>(), 12u8..=32), 0..5),
        b in proptest::collection::vec((any::<u32>(), 12u8..=32), 0..5),
        probes in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let la = Blocklist::from_cidrs(a.iter().map(|&(x, l)| Cidr::new(x, l)));
        let lb = Blocklist::from_cidrs(b.iter().map(|&(x, l)| Cidr::new(x, l)));
        let mut merged = la.clone();
        merged.merge(&lb);
        for &p in &probes {
            prop_assert_eq!(merged.contains(p), la.contains(p) || lb.contains(p));
        }
    }

    /// Blocklist size equals the size of the covered set.
    #[test]
    fn blocklist_len_counts_unique_addresses(
        cidrs in proptest::collection::vec((0u32..1 << 16, 24u8..=32), 0..6),
    ) {
        let bl = Blocklist::from_cidrs(cidrs.iter().map(|&(b, l)| Cidr::new(b, l)));
        let naive: HashSet<u32> = cidrs
            .iter()
            .flat_map(|&(b, l)| {
                let c = Cidr::new(b, l);
                c.first()..=c.last()
            })
            .collect();
        prop_assert_eq!(bl.len(), naive.len() as u64);
    }
}
