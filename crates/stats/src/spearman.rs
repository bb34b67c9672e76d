//! Spearman rank correlation with tie handling.
//!
//! The paper uses Spearman's ρ twice: §4.4 (ρ = 0.92 between a country's
//! host count and its inaccessible-host count) and §5.2 (ρ = 0.40–0.52
//! between per-AS packet drop and transient host loss). Both involve heavy
//! ties (many ASes with identical small loss counts), so we rank with
//! average ties and compute ρ as the Pearson correlation of the ranks.

use crate::dist::t_sf_two_sided;

/// Result of a Spearman correlation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpearmanResult {
    /// The rank correlation coefficient in [-1, 1].
    pub rho: f64,
    /// Two-sided p-value from the t approximation (n ≥ 3 required).
    pub p_value: f64,
    /// Sample size.
    pub(crate) n: usize,
}

/// Assign average ranks (1-based) to a sample, ties share the mean rank.
pub fn average_ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in rank input"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share rank mean of (i+1)..=(j+1).
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Pearson correlation of two equal-length samples.
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Spearman's ρ with average-tie ranking and a t-distribution p-value.
///
/// Returns `None` when fewer than 3 pairs are supplied.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<SpearmanResult> {
    assert_eq!(xs.len(), ys.len(), "paired samples must align");
    let n = xs.len();
    if n < 3 {
        return None;
    }
    let rho = pearson(&average_ranks(xs), &average_ranks(ys));
    let p_value = if rho.abs() >= 1.0 {
        0.0
    } else {
        let t = rho * ((n as f64 - 2.0) / (1.0 - rho * rho)).sqrt();
        t_sf_two_sided(t, n as f64 - 2.0)
    };
    Some(SpearmanResult { rho, p_value, n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_monotone() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [10.0, 100.0, 1000.0, 10000.0, 100000.0];
        let r = spearman(&xs, &ys).unwrap();
        assert!((r.rho - 1.0).abs() < 1e-12);
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn perfect_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&xs, &ys).unwrap().rho + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        let r = average_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn reference_with_ties() {
        // Hand-computed: ranks x = [1, 2.5, 2.5, 4, 5], ranks y =
        // [2, 1, 3, 4.5, 4.5]; Pearson of the ranks = 7.5 / 9.5.
        let xs = [1.0, 2.0, 2.0, 3.0, 5.0];
        let ys = [2.0, 1.0, 3.0, 4.0, 4.0];
        let r = spearman(&xs, &ys).unwrap();
        assert!((r.rho - 7.5 / 9.5).abs() < 1e-9, "rho = {}", r.rho);
    }

    #[test]
    fn independent_samples_high_p() {
        // Hand-picked near-orthogonal pattern.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let ys = [5.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0];
        let r = spearman(&xs, &ys).unwrap();
        assert!(r.rho.abs() < 0.4);
        assert!(r.p_value > 0.05);
    }

    #[test]
    fn constant_series_rho_zero() {
        let xs = [1.0; 5];
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(spearman(&xs, &ys).unwrap().rho, 0.0);
    }

    #[test]
    fn too_small_none() {
        assert!(spearman(&[1.0, 2.0], &[2.0, 1.0]).is_none());
    }
}
