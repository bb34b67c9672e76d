//! k-subset enumeration for multi-origin coverage sweeps.
//!
//! §7 evaluates the coverage of every pair and triad of origins (Figs 15,
//! 17, 18). The number of origins is small (≤ 8), so exhaustive
//! enumeration is exact and cheap.

/// Enumerate all k-element subsets of `0..n` in lexicographic order.
pub fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    // Grow every j-subset by each element above its last, k times over:
    // extending in ascending order keeps each level lexicographic, and a
    // prefix too high to complete simply has no extension.
    let mut subsets: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..k {
        subsets = subsets
            .iter()
            .flat_map(|prefix| {
                let above = prefix.last().map_or(0, |&last| last + 1);
                (above..n).map(move |next| {
                    let mut grown = prefix.clone();
                    grown.push(next);
                    grown
                })
            })
            .collect();
    }
    subsets
}

/// Binomial coefficient n-choose-k (saturating, for sanity checks).
pub fn choose(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_of_four() {
        let subs = k_subsets(4, 2);
        assert_eq!(
            subs,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn counts_match_binomial() {
        for n in 0..8 {
            for k in 0..=n {
                assert_eq!(k_subsets(n, k).len() as u64, choose(n as u64, k as u64));
            }
        }
    }

    #[test]
    fn edge_cases() {
        assert_eq!(k_subsets(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(k_subsets(2, 3), Vec::<Vec<usize>>::new());
        assert_eq!(k_subsets(1, 1), vec![vec![0]]);
    }

    #[test]
    fn choose_values() {
        assert_eq!(choose(7, 2), 21); // origin pairs in the paper
        assert_eq!(choose(7, 3), 35);
        assert_eq!(choose(5, 0), 1);
        assert_eq!(choose(3, 5), 0);
    }

    #[test]
    fn subsets_strictly_increasing() {
        for s in k_subsets(6, 3) {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
