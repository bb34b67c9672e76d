//! Binomial confidence intervals.
//!
//! Coverage numbers are proportions of finite host samples; at reduced
//! simulation scale the sampling error is visible, so reports attach
//! Wilson score intervals (well-behaved near 0 and 1, unlike the normal
//! approximation).

/// A two-sided confidence interval for a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub(crate) lo: f64,
    /// Point estimate.
    pub estimate: f64,
    /// Upper bound.
    pub(crate) hi: f64,
}

impl Interval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

#[cfg(test)]
impl Interval {
    /// Does the interval contain `p`?
    fn contains(&self, p: f64) -> bool {
        (self.lo..=self.hi).contains(&p)
    }
}

/// Wilson score interval for `successes` out of `n` at normal quantile
/// `z` (1.96 for 95 %).
pub(crate) fn wilson(successes: u64, n: u64, z: f64) -> Interval {
    assert!(successes <= n, "successes exceed trials");
    if n == 0 {
        return Interval {
            lo: 0.0,
            estimate: 0.0,
            hi: 1.0,
        };
    }
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let margin = (z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    // Clamp against floating-point wobble so the interval always brackets
    // the point estimate and stays inside [0, 1].
    Interval {
        lo: (center - margin).max(0.0).min(p),
        estimate: p,
        hi: (center + margin).min(1.0).max(p),
    }
}

/// Wilson interval at 95 % confidence.
pub fn wilson95(successes: u64, n: u64) -> Interval {
    wilson(successes, n, 1.959_964)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_value() {
        // Classic check: 10/100 at 95% → approx (0.055, 0.174).
        let i = wilson95(10, 100);
        assert!((i.lo - 0.0552).abs() < 0.002, "lo {}", i.lo);
        assert!((i.hi - 0.1744).abs() < 0.002, "hi {}", i.hi);
        assert_eq!(i.estimate, 0.10);
        assert!(i.contains(0.1));
    }

    #[test]
    fn extremes_behave() {
        let zero = wilson95(0, 50);
        assert_eq!(zero.lo, 0.0);
        assert!(zero.hi > 0.0 && zero.hi < 0.15);
        let all = wilson95(50, 50);
        assert_eq!(all.hi, 1.0);
        assert!(all.lo > 0.85);
        let empty = wilson95(0, 0);
        assert_eq!((empty.lo, empty.hi), (0.0, 1.0));
    }

    #[test]
    fn width_shrinks_with_n() {
        let small = wilson95(50, 100);
        let large = wilson95(50_000, 100_000);
        assert!(large.half_width() < small.half_width() / 10.0);
    }

    #[test]
    fn interval_always_contains_estimate() {
        for (s, n) in [
            (0u64, 10u64),
            (1, 10),
            (5, 10),
            (9, 10),
            (10, 10),
            (997, 1000),
        ] {
            let i = wilson95(s, n);
            assert!(i.lo <= i.estimate && i.estimate <= i.hi, "{s}/{n}: {i:?}");
        }
    }
}
