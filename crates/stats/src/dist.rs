//! Distribution CDFs and survival functions built on [`crate::special`].

use crate::special::{erf, lower_regularized_gamma, upper_regularized_gamma};

/// Standard normal CDF Φ(z).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Standard normal survival function 1 − Φ(z).
#[cfg(test)]
fn normal_sf(z: f64) -> f64 {
    0.5 * crate::special::erfc(z / std::f64::consts::SQRT_2)
}

/// Chi-square CDF with `df` degrees of freedom.
pub fn chi2_cdf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0);
    if x <= 0.0 {
        0.0
    } else {
        lower_regularized_gamma(df / 2.0, x / 2.0)
    }
}

/// Chi-square survival function (the p-value of a chi-square statistic).
pub(crate) fn chi2_sf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0);
    if x <= 0.0 {
        1.0
    } else {
        upper_regularized_gamma(df / 2.0, x / 2.0)
    }
}

/// Exact two-sided p-value for a Student-t statistic with `df` degrees of
/// freedom, via the identity
/// `P(|T| > t) = I_{df/(df + t²)}(df/2, 1/2)`
/// on the regularized incomplete beta function.
pub fn t_sf_two_sided(t: f64, df: f64) -> f64 {
    assert!(df > 0.0);
    let t = t.abs();
    if !t.is_finite() {
        return 0.0;
    }
    crate::special::regularized_beta(df / 2.0, 0.5, df / (df + t * t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn normal_reference() {
        close(normal_cdf(0.0), 0.5, 1e-12);
        close(normal_cdf(1.96), 0.9750021, 1e-6);
        close(normal_cdf(-1.6449), 0.05, 2e-4);
        close(normal_sf(3.0), 0.0013499, 1e-6);
    }

    #[test]
    fn chi2_reference() {
        // Known critical values: chi2_sf(3.841, 1) = 0.05.
        close(chi2_sf(3.841459, 1.0), 0.05, 1e-5);
        close(chi2_sf(6.634897, 1.0), 0.01, 1e-5);
        close(chi2_sf(10.82757, 1.0), 0.001, 1e-5);
        // df = 6: median near 5.348.
        close(chi2_cdf(5.348, 6.0), 0.5, 1e-3);
    }

    #[test]
    fn chi2_edges() {
        assert_eq!(chi2_cdf(0.0, 3.0), 0.0);
        assert_eq!(chi2_sf(-1.0, 3.0), 1.0);
        close(chi2_cdf(1e6, 2.0), 1.0, 1e-12);
    }

    #[test]
    fn t_matches_normal_at_large_df() {
        for t in [0.5, 1.0, 2.0, 3.0] {
            close(t_sf_two_sided(t, 1e7), 2.0 * normal_sf(t), 1e-6);
        }
    }

    #[test]
    fn t_reference_small_df() {
        // t = 2.228, df = 10 is the classic 5% two-sided critical value.
        close(t_sf_two_sided(2.228, 10.0), 0.05, 1e-4);
        // t = 4.587, df = 10 is the 0.1% critical value.
        close(t_sf_two_sided(4.587, 10.0), 0.001, 1e-5);
        // Symmetry.
        close(
            t_sf_two_sided(-2.228, 10.0),
            t_sf_two_sided(2.228, 10.0),
            1e-12,
        );
    }

    #[test]
    fn t_infinite_stat_is_zero() {
        assert_eq!(t_sf_two_sided(f64::INFINITY, 5.0), 0.0);
    }
}
