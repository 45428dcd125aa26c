//! Ramaswamy–Rastogi–Shim top-n outliers by k-th-NN distance (SIGMOD 2000,
//! the paper's reference \[25\]).
//!
//! *"Given a k and n, a point p is an outlier if the distance to its kth
//! nearest neighbor is smaller than the corresponding value for no more than
//! n − 1 other points"* — i.e. the n points with the largest k-th-NN
//! distances. This is the comparator in the arrhythmia experiment (§3.1),
//! run there with the 1-nearest neighbor (and checked with larger k, which
//! the paper notes "worsened slightly").

use crate::distance::Metric;
use crate::BaselineError;
use hdoutlier_data::Dataset;

/// A scored distance outlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceOutlier {
    /// Row index.
    pub row: usize,
    /// Distance to its k-th nearest neighbor (the outlier score).
    pub score: f64,
}

/// The top `n` rows by k-th-NN distance, descending (strongest outlier
/// first). The per-row k-th-NN scans run on `threads` pool workers; scores
/// come back in row order and the final sort is total (score, then row), so
/// the ranking is identical at any thread count.
///
/// ```
/// use hdoutlier_baselines::{ramaswamy_top_n, Metric};
/// use hdoutlier_data::Dataset;
/// let mut rows: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 5) as f64, (i / 5) as f64]).collect();
/// rows.push(vec![100.0, 100.0]); // the obvious outlier
/// let ds = Dataset::from_rows(rows).unwrap();
/// let top = ramaswamy_top_n(&ds, 1, 1, Metric::Euclidean, 1).unwrap();
/// assert_eq!(top[0].row, 20);
/// ```
pub fn ramaswamy_top_n(
    dataset: &Dataset,
    k: usize,
    n: usize,
    metric: Metric,
    threads: usize,
) -> Result<Vec<DistanceOutlier>, BaselineError> {
    let scores = crate::nn::kth_nn_distances(dataset, k, metric, threads)?;
    let mut ranked: Vec<DistanceOutlier> = scores
        .into_iter()
        .enumerate()
        .map(|(row, score)| DistanceOutlier { row, score })
        .collect();
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("finite distances")
            .then(a.row.cmp(&b.row))
    });
    ranked.truncate(n);
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::Dataset;

    fn cluster_with_far_point() -> Dataset {
        // Tight cluster near the origin plus one far point.
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01])
            .collect();
        rows.push(vec![100.0, 100.0]);
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn far_point_is_the_top_outlier() {
        let ds = cluster_with_far_point();
        let top = ramaswamy_top_n(&ds, 1, 3, Metric::Euclidean, 1).unwrap();
        assert_eq!(top[0].row, 20);
        assert!(top[0].score > 100.0);
        assert!(top[1].score < 1.0);
    }

    #[test]
    fn scores_are_descending_and_truncated() {
        let ds = cluster_with_far_point();
        let top = ramaswamy_top_n(&ds, 2, 5, Metric::Euclidean, 1).unwrap();
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn n_larger_than_dataset_returns_all() {
        let ds = cluster_with_far_point();
        let top = ramaswamy_top_n(&ds, 1, 1000, Metric::Euclidean, 1).unwrap();
        assert_eq!(top.len(), 21);
    }

    #[test]
    fn parameter_errors_propagate() {
        let ds = cluster_with_far_point();
        assert!(ramaswamy_top_n(&ds, 0, 3, Metric::Euclidean, 1).is_err());
        assert!(ramaswamy_top_n(&ds, 21, 3, Metric::Euclidean, 1).is_err());
    }

    #[test]
    fn threaded_ranking_is_identical_to_serial() {
        let ds = cluster_with_far_point();
        let serial = ramaswamy_top_n(&ds, 2, 10, Metric::Euclidean, 1).unwrap();
        for threads in [2, 4, 8] {
            let got = ramaswamy_top_n(&ds, 2, 10, Metric::Euclidean, threads).unwrap();
            assert_eq!(got, serial, "threads = {threads}");
        }
        // Errors propagate through the threaded path too.
        assert!(ramaswamy_top_n(&ds, 0, 3, Metric::Euclidean, 4).is_err());
    }

    #[test]
    fn larger_k_is_more_robust_to_pairs() {
        // Two far points close to each other: with k = 1 they shield each
        // other (tiny 1-NN distance); with k = 2 they are exposed.
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01])
            .collect();
        rows.push(vec![100.0, 100.0]);
        rows.push(vec![100.1, 100.0]);
        let ds = Dataset::from_rows(rows).unwrap();
        let with_k1 = ramaswamy_top_n(&ds, 1, 2, Metric::Euclidean, 1).unwrap();
        // k = 1: the pair's scores are 0.1 — they are NOT both on top.
        assert!(with_k1.iter().all(|o| o.score < 1.0));
        let with_k2 = ramaswamy_top_n(&ds, 2, 2, Metric::Euclidean, 1).unwrap();
        let rows2: Vec<usize> = with_k2.iter().map(|o| o.row).collect();
        assert!(rows2.contains(&20) && rows2.contains(&21));
    }
}
