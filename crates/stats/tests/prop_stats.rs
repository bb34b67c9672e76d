//! Property tests for the statistics crate's invariants.
// Gated: runs only with `--features proptest` (vendored shim; see
// third_party/proptest). The default offline build skips these suites.
#![cfg(feature = "proptest")]

use originscan_stats::descriptive::{quantile, std_dev, Ecdf, FiveNumber};
use originscan_stats::mcnemar::{mcnemar_test, PairedCounts};
use originscan_stats::spearman::{average_ranks, spearman};
use originscan_stats::{chi2_cdf, normal_cdf, t_sf_two_sided};
use originscan_stats::{choose, k_subsets};
use originscan_stats::{detect_bursts, rolling_mean};
use proptest::prelude::*;

fn finite_vec(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, n)
}

proptest! {
    #[test]
    fn quantiles_within_range(xs in finite_vec(1..50), q in 0.0f64..=1.0) {
        let v = quantile(&xs, q);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min && v <= max);
    }

    #[test]
    fn five_number_ordered(xs in finite_vec(1..50)) {
        let f = FiveNumber::of(&xs);
        prop_assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
        prop_assert!(f.iqr() >= 0.0);
    }

    #[test]
    fn std_dev_nonnegative_and_shift_invariant(xs in finite_vec(2..30), shift in -1e5f64..1e5) {
        let a = std_dev(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let b = std_dev(&shifted);
        prop_assert!(a >= 0.0);
        prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
    }

    #[test]
    fn ecdf_monotone(xs in finite_vec(1..40), probes in finite_vec(2..10)) {
        let e = Ecdf::new(&xs);
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let vals: Vec<f64> = sorted.iter().map(|&p| e.eval(p)).collect();
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(vals.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn normal_cdf_monotone_and_bounded(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&normal_cdf(a)));
    }

    #[test]
    fn chi2_cdf_bounded_monotone(x in 0.0f64..100.0, dx in 0.0f64..10.0, df in 0.5f64..30.0) {
        let a = chi2_cdf(x, df);
        let b = chi2_cdf(x + dx, df);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(a <= b + 1e-12);
    }

    #[test]
    fn t_pvalue_valid(t in -50.0f64..50.0, df in 1.0f64..200.0) {
        let p = t_sf_two_sided(t, df);
        prop_assert!((0.0..=1.0).contains(&p));
        // Symmetry in |t|.
        prop_assert!((p - t_sf_two_sided(-t, df)).abs() < 1e-12);
    }

    #[test]
    fn mcnemar_pvalue_valid(both in 0u64..1000, a in 0u64..1000, b in 0u64..1000, neither in 0u64..1000) {
        let c = PairedCounts { both, only_a: a, only_b: b, neither };
        let r = mcnemar_test(&c);
        prop_assert!((0.0..=1.0).contains(&r.p_value));
        prop_assert!(r.statistic >= 0.0);
        // Swapping the origins leaves the test unchanged.
        let swapped = PairedCounts { both, only_a: b, only_b: a, neither };
        let r2 = mcnemar_test(&swapped);
        prop_assert!((r.p_value - r2.p_value).abs() < 1e-12);
    }

    #[test]
    fn spearman_bounded_and_symmetric(pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..40)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = spearman(&xs, &ys).unwrap();
        prop_assert!((-1.0..=1.0).contains(&r.rho), "rho = {}", r.rho);
        let r2 = spearman(&ys, &xs).unwrap();
        prop_assert!((r.rho - r2.rho).abs() < 1e-9);
    }

    #[test]
    fn ranks_are_a_permutation_mass(xs in finite_vec(1..30)) {
        let ranks = average_ranks(&xs);
        // Sum of ranks = n(n+1)/2 regardless of ties.
        let n = xs.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn rolling_mean_bounded(xs in finite_vec(1..40), w in 1usize..8) {
        let sm = rolling_mean(&xs, w);
        prop_assert_eq!(sm.len(), xs.len());
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(sm.iter().all(|&v| v >= min - 1e-9 && v <= max + 1e-9));
    }

    #[test]
    fn bursts_only_at_positive_residuals(xs in proptest::collection::vec(0.0f64..100.0, 5..40)) {
        let bursts = detect_bursts(&xs, 4, 2.0);
        for b in bursts {
            prop_assert!(b.residual > 0.0);
            prop_assert!(b.index < xs.len());
            prop_assert_eq!(b.value, xs[b.index]);
        }
    }

    #[test]
    fn k_subsets_counts(n in 0usize..10, k in 0usize..10) {
        let subs = k_subsets(n, k);
        prop_assert_eq!(subs.len() as u64, choose(n as u64, k as u64));
        for s in &subs {
            prop_assert_eq!(s.len(), k);
            prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(s.iter().all(|&i| i < n));
        }
    }
}
