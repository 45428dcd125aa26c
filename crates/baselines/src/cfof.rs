//! Concentration-Free Outlier Factor (Angiulli, arXiv:1901.04992) — a
//! reverse-nearest-neighbor score used by the scenario packs as a
//! cross-method referee.
//!
//! CFOF of a point `p` is the smallest fraction `k/n` such that at least
//! `ρ·n` points of the dataset include `p` among their `k` nearest
//! neighbors. Equivalently: collect, for every other point `j`, the rank of
//! `p` in `j`'s distance order (its *reverse rank*); the score is the
//! `⌈ρ·n⌉`-th smallest reverse rank divided by `n`. A point everyone agrees
//! is nobody's close neighbor needs a huge `k` to be "seen" by `ρ·n`
//! observers and scores near 1; a core inlier scores near 0.
//!
//! The draw as a referee: the score is a *rank* statistic, so it does not
//! concentrate as dimensionality grows the way raw distances do — exactly
//! the failure mode of kNN/LOF that the paper's §1 argues motivates subspace
//! search. Where CFOF and the sparsity coefficient disagree, one of them is
//! wrong in an interesting way, and the scenario invariants say which.

use crate::distance::Metric;
use crate::BaselineError;
use hdoutlier_data::Dataset;

/// CFOF scores for every row, in row order. `rho` is the fraction of the
/// dataset that must "see" the point (the paper's ϱ, typically 0.01–0.1;
/// clamped here to at least one observer). `O(n²·d + n²·log n)` brute force.
/// The per-observer rank scans run on `threads` pool workers; each
/// observer's distance order is computed independently and the reverse-rank
/// gather is in row order, so the output is bit-identical at any thread
/// count.
///
/// ```
/// use hdoutlier_baselines::{cfof_scores, Metric};
/// use hdoutlier_data::Dataset;
/// let mut rows: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 5) as f64, (i / 5) as f64]).collect();
/// rows.push(vec![100.0, 100.0]);
/// let scores = cfof_scores(&ds_from(rows), 0.1, Metric::Euclidean, 1).unwrap();
/// let top = (0..scores.len()).max_by(|&a, &b| scores[a].total_cmp(&scores[b])).unwrap();
/// assert_eq!(top, 20);
/// # fn ds_from(rows: Vec<Vec<f64>>) -> Dataset { Dataset::from_rows(rows).unwrap() }
/// ```
pub fn cfof_scores(
    dataset: &Dataset,
    rho: f64,
    metric: Metric,
    threads: usize,
) -> Result<Vec<f64>, BaselineError> {
    crate::ensure_complete(dataset)?;
    if !(rho > 0.0 && rho <= 1.0) {
        return Err(BaselineError::BadParams(format!(
            "rho = {rho} must be in (0, 1]"
        )));
    }
    let n = dataset.n_rows();
    if n < 2 {
        return Err(BaselineError::BadParams(format!(
            "need at least 2 rows, got {n}"
        )));
    }
    // How many observers must include the point among their neighbors.
    let observers = ((rho * n as f64).ceil() as usize).clamp(1, n - 1);

    // reverse_ranks[j] maps each point i to its 1-based rank in observer
    // j's distance order (j itself excluded). Ties break by row index, the
    // same total order used everywhere in this crate.
    let rows: Vec<usize> = (0..n).collect();
    let reverse_ranks = hdoutlier_pool::map(threads, &rows, |_, &j| {
        let q = dataset.row(j);
        let mut order: Vec<(f64, usize)> = (0..n)
            .filter(|&i| i != j)
            .map(|i| (metric.distance(q, dataset.row(i)), i))
            .collect();
        order.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite distances")
                .then(a.1.cmp(&b.1))
        });
        let mut ranks = vec![0usize; n];
        for (pos, &(_, i)) in order.iter().enumerate() {
            ranks[i] = pos + 1;
        }
        ranks
    });

    // Score of i: the `observers`-th smallest reverse rank of i, over n.
    Ok((0..n)
        .map(|i| {
            let mut ranks: Vec<usize> = (0..n)
                .filter(|&j| j != i)
                .map(|j| reverse_ranks[j][i])
                .collect();
            ranks.sort_unstable();
            ranks[observers - 1] as f64 / n as f64
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::Dataset;

    fn cluster_with_far_point() -> Dataset {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01])
            .collect();
        rows.push(vec![100.0, 100.0]);
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn far_point_scores_highest() {
        let ds = cluster_with_far_point();
        let scores = cfof_scores(&ds, 0.1, Metric::Euclidean, 1).unwrap();
        let top = (0..scores.len())
            .max_by(|&a, &b| scores[a].total_cmp(&scores[b]))
            .unwrap();
        assert_eq!(top, 20);
        // An isolated point is everyone's last neighbor: score ≈ (n−1)/n.
        assert!(scores[20] >= 20.0 / 21.0 - 1e-12);
        // Cluster members are someone's early neighbor.
        assert!(scores.iter().take(20).all(|&s| s < scores[20]));
    }

    #[test]
    fn scores_are_fractions_of_n() {
        let ds = cluster_with_far_point();
        let scores = cfof_scores(&ds, 0.25, Metric::Euclidean, 1).unwrap();
        for &s in &scores {
            assert!(s > 0.0 && s <= 1.0, "score {s} out of (0, 1]");
        }
    }

    #[test]
    fn larger_rho_needs_larger_neighborhoods() {
        let ds = cluster_with_far_point();
        let lo = cfof_scores(&ds, 0.05, Metric::Euclidean, 1).unwrap();
        let hi = cfof_scores(&ds, 0.5, Metric::Euclidean, 1).unwrap();
        // More observers required ⟹ the deciding reverse rank cannot shrink.
        for (a, b) in lo.iter().zip(&hi) {
            assert!(b >= a);
        }
    }

    #[test]
    fn parameter_errors_propagate() {
        let ds = cluster_with_far_point();
        assert!(cfof_scores(&ds, 0.0, Metric::Euclidean, 1).is_err());
        assert!(cfof_scores(&ds, 1.5, Metric::Euclidean, 1).is_err());
        let one = Dataset::from_rows(vec![vec![1.0]]).unwrap();
        assert!(cfof_scores(&one, 0.1, Metric::Euclidean, 1).is_err());
    }

    #[test]
    fn threaded_scores_are_identical_to_serial() {
        let ds = cluster_with_far_point();
        let serial = cfof_scores(&ds, 0.1, Metric::Euclidean, 1).unwrap();
        for threads in [2, 4, 8] {
            let got = cfof_scores(&ds, 0.1, Metric::Euclidean, threads).unwrap();
            assert_eq!(got, serial, "threads = {threads}");
        }
    }
}
