//! Counter-based deterministic randomness.
//!
//! Every stochastic decision in the simulated Internet — does this host
//! exist, is this AS blocking that origin, does this probe drop — is a
//! *pure function* of the world seed and the identifiers involved, not of
//! any mutable RNG state. This gives three properties the experiments
//! need:
//!
//! 1. **Reproducibility**: the same `WorldConfig` yields bit-identical
//!    results regardless of thread count or evaluation order.
//! 2. **Consistency**: the scanner may ask about the same host from
//!    different code paths (SYN handling, L7 handling, analysis) and all
//!    observers agree.
//! 3. **Independence structure by construction**: correlations exist
//!    exactly where a shared key component makes them exist (e.g. probe
//!    drops share a per-host key ⇒ correlated; per-probe keys ⇒ i.i.d.).
//!
//! The mixer is the SplitMix64 finalizer chained across words — not
//! cryptographic, but passes the statistical smoke tests below and is a
//! few nanoseconds per call.

/// Domain-separation tags for the different decision kinds.
///
/// Using an enum (rather than ad-hoc string hashes) makes collisions
/// between decision streams impossible and greps well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Tag {
    /// Host deployment: does an address run a service?
    HostExists = 1,
    /// Host churn across trials.
    Churn = 2,
    /// Per-(origin, AS, trial) lossiness level.
    PairLoss = 3,
    /// Per-host transient flakiness decision.
    HostFlaky = 4,
    /// Independent per-probe drop.
    ProbeDrop = 5,
    /// Persistent unreachability (no trial component).
    Persistent = 6,
    /// Long-term blocking decisions.
    Block = 7,
    /// Burst outage event parameters.
    Burst = 8,
    /// IDS detection.
    Ids = 9,
    /// Alibaba-style temporal SSH detection.
    Temporal = 10,
    /// MaxStartups-style probabilistic refusal.
    MaxStartups = 11,
    /// World-generation structure (AS sizes, categories, countries).
    Structure = 12,
    /// Server attributes (software banner, status code…).
    ServerAttr = 13,
    /// Geolocation error injection.
    GeoError = 14,
    /// L7-only failure (SYN-ACK then handshake timeout).
    L7Flaky = 15,
    /// Per-(origin, trial) global lossiness multiplier.
    OriginTrial = 16,
    /// Close-kind selection (RST vs FIN vs drop).
    CloseKind = 17,
    /// Whether a non-host address RSTs (port closed on a live machine).
    ClosedPort = 18,
    /// Fault injection: reply corruption (invalid validation MAC).
    FaultCorrupt = 19,
    /// Fault injection: duplicated/reordered reply delivery.
    FaultDuplicate = 20,
}

impl Tag {
    /// Every tag, in discriminant order (`1..=20`).
    pub(crate) const ALL: [Tag; 20] = [
        Tag::HostExists,
        Tag::Churn,
        Tag::PairLoss,
        Tag::HostFlaky,
        Tag::ProbeDrop,
        Tag::Persistent,
        Tag::Block,
        Tag::Burst,
        Tag::Ids,
        Tag::Temporal,
        Tag::MaxStartups,
        Tag::Structure,
        Tag::ServerAttr,
        Tag::GeoError,
        Tag::L7Flaky,
        Tag::OriginTrial,
        Tag::CloseKind,
        Tag::ClosedPort,
        Tag::FaultCorrupt,
        Tag::FaultDuplicate,
    ];
}

/// Length of [`Det`]'s table: one entry per discriminant, 0 unused.
const TAG_STATES: usize = Tag::FaultDuplicate as usize + 1;

#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A keyed deterministic hash stream.
///
/// A hash starts from its tag's state, `splitmix(seed ^ tag·C)`, which
/// depends on nothing else and so is computed once per tag in [`Det::new`].
#[derive(Debug, Clone, Copy)]
pub struct Det {
    tags: [u64; TAG_STATES],
}

impl Det {
    /// Create a stream rooted at `seed` (the world seed).
    pub fn new(seed: u64) -> Self {
        let seed = splitmix(seed ^ 0x6f72_6967_696e_7363); // "originsc"
        let mut tags = [0; TAG_STATES];
        for tag in Tag::ALL {
            if let Some(state) = tags.get_mut(tag as usize) {
                *state = splitmix(seed ^ (tag as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            }
        }
        Self { tags }
    }

    /// Hash a tag plus up to any number of key words into a u64.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "the table has an entry for every discriminant"
    )]
    pub(crate) fn hash(&self, tag: Tag, words: &[u64]) -> u64 {
        let mut h = self.tags[tag as usize];
        for &w in words {
            h = splitmix(h ^ w.wrapping_mul(0xe703_7ed1_a0b4_28db));
        }
        h
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub(crate) fn uniform(&self, tag: Tag, words: &[u64]) -> f64 {
        // 53 random mantissa bits.
        (self.hash(tag, words) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn bernoulli(&self, tag: Tag, words: &[u64], p: f64) -> bool {
        self.uniform(tag, words) < p
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub(crate) fn range(&self, tag: Tag, words: &[u64], lo: f64, hi: f64) -> f64 {
        lo + self.uniform(tag, words) * (hi - lo)
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub(crate) fn below(&self, tag: Tag, words: &[u64], n: u64) -> u64 {
        assert!(n > 0);
        // Multiply-shift reduction avoids modulo bias for our n ≪ 2^64.
        ((self.hash(tag, words) as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal via Box–Muller on two sub-draws.
    #[inline]
    pub(crate) fn normal(&self, tag: Tag, words: &[u64]) -> f64 {
        let h = self.hash(tag, words);
        let u1 = ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        let h2 = splitmix(h ^ 0xdeca_fbad_c0ff_ee00);
        let u2 = (h2 >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal with the given log-space mean and sigma.
    #[inline]
    pub(crate) fn lognormal(&self, tag: Tag, words: &[u64], mu_ln: f64, sigma_ln: f64) -> f64 {
        (mu_ln + sigma_ln * self.normal(tag, words)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = Det::new(7);
        let b = Det::new(7);
        assert_eq!(
            a.hash(Tag::HostExists, &[1, 2, 3]),
            b.hash(Tag::HostExists, &[1, 2, 3])
        );
    }

    #[test]
    fn seeds_and_tags_separate_streams() {
        let a = Det::new(7);
        let b = Det::new(8);
        assert_ne!(a.hash(Tag::HostExists, &[1]), b.hash(Tag::HostExists, &[1]));
        assert_ne!(a.hash(Tag::HostExists, &[1]), a.hash(Tag::Churn, &[1]));
        assert_ne!(
            a.hash(Tag::HostExists, &[1, 2]),
            a.hash(Tag::HostExists, &[2, 1])
        );
    }

    /// The chained formula every stream was defined by, step for step.
    fn reference(seed: u64, tag: Tag, words: &[u64]) -> u64 {
        let root = splitmix(seed ^ 0x6f72_6967_696e_7363);
        let mut h = splitmix(root ^ (tag as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        for &w in words {
            h = splitmix(h ^ w.wrapping_mul(0xe703_7ed1_a0b4_28db));
        }
        h
    }

    #[test]
    fn hash_is_the_chained_formula_for_every_tag() {
        // A new variant fails to compile here until it joins `Tag::ALL`.
        let listed = |tag: Tag| match tag {
            Tag::HostExists
            | Tag::Churn
            | Tag::PairLoss
            | Tag::HostFlaky
            | Tag::ProbeDrop
            | Tag::Persistent
            | Tag::Block
            | Tag::Burst
            | Tag::Ids
            | Tag::Temporal
            | Tag::MaxStartups
            | Tag::Structure
            | Tag::ServerAttr
            | Tag::GeoError
            | Tag::L7Flaky
            | Tag::OriginTrial
            | Tag::CloseKind
            | Tag::ClosedPort
            | Tag::FaultCorrupt
            | Tag::FaultDuplicate => Tag::ALL.contains(&tag),
        };
        // The table is sized from the enum: discriminants 1..=20, in order.
        assert_eq!(TAG_STATES, Tag::ALL.len() + 1);
        for (tag, n) in Tag::ALL.into_iter().zip(1u64..) {
            assert!(listed(tag));
            assert_eq!(tag as u64, n, "{tag:?}");
        }
        let words: [&[u64]; 4] = [&[], &[0], &[1, 2, 3], &[u64::MAX, 7, 0, 99, 5]];
        for seed in [0, 7, 2020, u64::MAX] {
            let det = Det::new(seed);
            for tag in Tag::ALL {
                for w in words {
                    assert_eq!(
                        det.hash(tag, w),
                        reference(seed, tag, w),
                        "{seed} {tag:?} {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_is_uniform_enough() {
        let d = Det::new(42);
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| d.uniform(Tag::ProbeDrop, &[i])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        // Bucket chi-square-ish sanity: 10 buckets within 5% of expected.
        let mut buckets = [0u32; 10];
        for i in 0..n {
            let u = d.uniform(Tag::ProbeDrop, &[i]);
            buckets[(u * 10.0) as usize] += 1;
        }
        for b in buckets {
            assert!((b as f64 - 10_000.0).abs() < 500.0, "bucket {b}");
        }
    }

    #[test]
    fn bernoulli_rate_matches_p() {
        let d = Det::new(1);
        let hits = (0..200_000u64)
            .filter(|&i| d.bernoulli(Tag::HostFlaky, &[i], 0.03))
            .count();
        let rate = hits as f64 / 200_000.0;
        assert!((rate - 0.03).abs() < 0.003, "rate {rate}");
    }

    #[test]
    fn below_in_range_and_covers() {
        let d = Det::new(5);
        let mut seen = [false; 7];
        for i in 0..1000u64 {
            let v = d.below(Tag::Structure, &[i], 7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let d = Det::new(9);
        let n = 100_000u64;
        let xs: Vec<f64> = (0..n).map(|i| d.normal(Tag::PairLoss, &[i])).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let d = Det::new(11);
        let mu = (0.004f64).ln();
        let mut xs: Vec<f64> = (0..50_000u64)
            .map(|i| d.lognormal(Tag::PairLoss, &[i], mu, 1.2))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median / 0.004 - 1.0).abs() < 0.1, "median {median}");
    }
}
