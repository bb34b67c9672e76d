//! Descriptive statistics: means, standard deviations, quantiles,
//! empirical CDFs, and the five-number summaries the paper's box plots
//! (Figs 15, 17, 18) report.

/// Mean of a slice; 0 for empty input.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than 2 samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Linear-interpolation quantile (type 7, the R/numpy default).
///
/// `q` must lie in `[0, 1]`; the input need not be sorted.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    assert!(!xs.is_empty(), "quantile of empty slice");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&v, q)
}

/// Quantile of an already-sorted slice (type 7).
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Median convenience wrapper.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The five-number summary behind a box plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl FiveNumber {
    /// Compute a five-number summary. Panics on empty input.
    pub fn of(xs: &[f64]) -> Self {
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN input"));
        Self {
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// An empirical CDF over a finite sample; used for Fig 9 ("distribution
/// of differences in transient loss rate") and Fig 4 (AS concentration
/// curves).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
    /// Optional weights aligned with `sorted` (Fig 9's AS-size weighting).
    cum_weight: Vec<f64>,
}

impl Ecdf {
    /// Unweighted ECDF.
    pub fn new(xs: &[f64]) -> Self {
        Self::weighted(xs, None)
    }

    /// ECDF with optional per-sample weights (e.g. AS host counts).
    pub fn weighted(xs: &[f64], weights: Option<&[f64]>) -> Self {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN input"));
        let sorted: Vec<f64> = idx.iter().map(|&i| xs[i]).collect();
        let mut cum = 0.0;
        let cum_weight = idx
            .iter()
            .map(|&i| {
                cum += weights.map_or(1.0, |w| w[i]);
                cum
            })
            .collect();
        Self { sorted, cum_weight }
    }

    /// Fraction of (weighted) mass at values ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let total = *self.cum_weight.last().unwrap();
        // Index of the last element <= x.
        let k = self.sorted.partition_point(|&v| v <= x);
        if k == 0 {
            0.0
        } else {
            self.cum_weight[k - 1] / total
        }
    }
}

#[cfg(test)]
impl Ecdf {
    /// Smallest sample value v with `eval(v) >= q`.
    fn inverse(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty());
        let total = *self.cum_weight.last().unwrap();
        let target = q * total;
        let k = self.cum_weight.partition_point(|&c| c < target);
        self.sorted[k.min(self.sorted.len() - 1)]
    }

    /// Number of samples.
    fn len(&self) -> usize {
        self.sorted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn five_number_summary() {
        let f = FiveNumber::of(&[7.0, 1.0, 3.0, 5.0, 9.0]);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 5.0);
        assert_eq!(f.max, 9.0);
        assert_eq!(f.iqr(), f.q3 - f.q1);
        assert!(f.q1 <= f.median && f.median <= f.q3);
    }

    #[test]
    fn ecdf_eval() {
        let e = Ecdf::new(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.len(), 4);
    }

    #[test]
    fn ecdf_weighted_by_size() {
        // One "AS" of weight 9 at x=0, one of weight 1 at x=1: the weighted
        // CDF jumps to 0.9 immediately (Fig 9's dashed line behaviour).
        let e = Ecdf::weighted(&[0.0, 1.0], Some(&[9.0, 1.0]));
        assert!((e.eval(0.0) - 0.9).abs() < 1e-12);
        assert_eq!(e.eval(1.0), 1.0);
    }

    #[test]
    fn ecdf_inverse() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.5), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
    }
}
