//! Local Outlier Factor (Breunig, Kriegel, Ng & Sander, SIGMOD 2000 — the
//! paper's reference \[10\]).
//!
//! LOF scores each point by how much lower its local reachability density is
//! than that of its neighbors; ≈ 1 means "as dense as the neighborhood",
//! larger means more outlying. This implementation uses the common
//! exactly-k-neighbors simplification (no k-distance tie expansion), which
//! matches scikit-learn's and most reimplementations' behavior.

use crate::distance::Metric;
use crate::nn::knn_brute;
use crate::BaselineError;
use hdoutlier_data::Dataset;

/// LOF scores for every row, with neighborhood size `min_pts`. The
/// `O(n²·d)` neighbor scans run on `threads` pool workers; the lrd and LOF
/// passes stay serial (they are `O(n·k)`). The neighbor sets come back in
/// row order, so the scores are bit-identical at any thread count.
pub fn lof_scores(
    dataset: &Dataset,
    min_pts: usize,
    metric: Metric,
    threads: usize,
) -> Result<Vec<f64>, BaselineError> {
    crate::ensure_complete(dataset)?;
    let n = dataset.n_rows();
    if min_pts == 0 {
        return Err(BaselineError::BadParams("min_pts must be >= 1".into()));
    }
    if min_pts >= n {
        return Err(BaselineError::BadParams(format!(
            "min_pts = {min_pts} must be < n = {n}"
        )));
    }

    // k-NN sets and k-distances.
    let rows: Vec<usize> = (0..n).collect();
    let neighbors = hdoutlier_pool::map(threads, &rows, |_, &row| {
        knn_brute(dataset, row, min_pts, metric)
    });
    let k_distance: Vec<f64> = neighbors
        .iter()
        .map(|nn| nn.last().expect("min_pts >= 1, n > min_pts").distance)
        .collect();

    // Local reachability density:
    // lrd(p) = 1 / mean_{o ∈ N_k(p)} max(k_distance(o), d(p, o)).
    let lrd: Vec<f64> = (0..n)
        .map(|p| {
            let sum: f64 = neighbors[p]
                .iter()
                .map(|nb| nb.distance.max(k_distance[nb.row]))
                .sum();
            let mean = sum / neighbors[p].len() as f64;
            if mean == 0.0 {
                // Duplicate-heavy neighborhoods: infinite density.
                f64::INFINITY
            } else {
                1.0 / mean
            }
        })
        .collect();

    // LOF(p) = mean_{o ∈ N_k(p)} lrd(o) / lrd(p).
    Ok((0..n)
        .map(|p| {
            let ratio_sum: f64 = neighbors[p]
                .iter()
                .map(|nb| {
                    match (lrd[nb.row].is_infinite(), lrd[p].is_infinite()) {
                        (true, true) => 1.0, // both infinitely dense
                        (false, true) => 0.0,
                        (true, false) => f64::INFINITY,
                        (false, false) => lrd[nb.row] / lrd[p],
                    }
                })
                .sum();
            ratio_sum / neighbors[p].len() as f64
        })
        .collect())
}

/// The `n` rows with the largest LOF scores, descending; ties by row. Same
/// ranking at any thread count.
pub fn lof_top_n(
    dataset: &Dataset,
    min_pts: usize,
    n: usize,
    metric: Metric,
    threads: usize,
) -> Result<Vec<(usize, f64)>, BaselineError> {
    let scores = lof_scores(dataset, min_pts, metric, threads)?;
    let mut ranked: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("LOF scores are comparable")
            .then(a.0.cmp(&b.0))
    });
    ranked.truncate(n);
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::generators::uniform;
    use hdoutlier_data::Dataset;

    fn two_clusters_and_outlier() -> Dataset {
        // Dense cluster, loose cluster, and one isolated point.
        let mut rows = Vec::new();
        for i in 0..10 {
            rows.push(vec![(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01]);
        }
        for i in 0..10 {
            rows.push(vec![5.0 + (i % 5) as f64 * 0.5, 5.0 + (i / 5) as f64 * 0.5]);
        }
        rows.push(vec![2.5, 2.5]);
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn isolated_point_has_the_highest_lof() {
        let ds = two_clusters_and_outlier();
        let top = lof_top_n(&ds, 3, 1, Metric::Euclidean, 1).unwrap();
        assert_eq!(top[0].0, 20, "top LOF should be the isolated point");
        assert!(top[0].1 > 2.0, "LOF {}", top[0].1);
    }

    #[test]
    fn cluster_members_score_near_one() {
        let ds = two_clusters_and_outlier();
        let scores = lof_scores(&ds, 3, Metric::Euclidean, 1).unwrap();
        // Interior points of the dense cluster.
        for &p in &[0usize, 1, 2, 6, 7] {
            assert!(
                (0.8..1.6).contains(&scores[p]),
                "cluster point {p} scored {}",
                scores[p]
            );
        }
    }

    #[test]
    fn lof_is_locality_aware_where_global_distance_is_not() {
        // A point on the edge of the loose cluster is farther from its
        // neighbors (globally) than the planted point is from the dense
        // cluster — yet LOF correctly ranks the planted point higher
        // because it is judged against its *local* density.
        let ds = two_clusters_and_outlier();
        let scores = lof_scores(&ds, 3, Metric::Euclidean, 1).unwrap();
        let loose_member = 15usize;
        assert!(scores[20] > scores[loose_member]);
    }

    #[test]
    fn duplicates_do_not_blow_up() {
        let rows = vec![vec![1.0, 1.0]; 5]
            .into_iter()
            .chain(std::iter::once(vec![9.0, 9.0]))
            .collect();
        let ds = Dataset::from_rows(rows).unwrap();
        let scores = lof_scores(&ds, 2, Metric::Euclidean, 1).unwrap();
        // Duplicate points: all finite-or-1 semantics; the far point sticks out.
        for (i, &s) in scores.iter().enumerate().take(5) {
            assert!(s == 1.0 || s.is_finite(), "dup {i} scored {s}");
        }
        assert!(scores[5] > 1.0 || scores[5].is_infinite());
    }

    #[test]
    fn parameter_validation() {
        let ds = uniform(10, 2, 1);
        assert!(lof_scores(&ds, 0, Metric::Euclidean, 1).is_err());
        assert!(lof_scores(&ds, 10, Metric::Euclidean, 1).is_err());
        let missing = Dataset::from_rows(vec![vec![f64::NAN], vec![1.0]]).unwrap();
        assert!(matches!(
            lof_scores(&missing, 1, Metric::Euclidean, 1),
            Err(BaselineError::MissingValues)
        ));
    }

    #[test]
    fn uniform_data_scores_hover_around_one() {
        let ds = uniform(300, 2, 9);
        let scores = lof_scores(&ds, 10, Metric::Euclidean, 1).unwrap();
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!((0.9..1.3).contains(&mean), "mean LOF {mean}");
    }

    #[test]
    fn threaded_scores_are_bit_identical_to_serial() {
        let ds = uniform(200, 3, 5);
        let serial: Vec<u64> = lof_scores(&ds, 5, Metric::Euclidean, 1)
            .unwrap()
            .into_iter()
            .map(f64::to_bits)
            .collect();
        for threads in [2, 4, 8] {
            let got: Vec<u64> = lof_scores(&ds, 5, Metric::Euclidean, threads)
                .unwrap()
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(got, serial, "threads = {threads}");
        }
        assert_eq!(
            lof_top_n(&ds, 5, 7, Metric::Euclidean, 4).unwrap(),
            lof_top_n(&ds, 5, 7, Metric::Euclidean, 1).unwrap()
        );
    }

    #[test]
    fn top_n_is_sorted_and_truncated() {
        let ds = two_clusters_and_outlier();
        let top = lof_top_n(&ds, 3, 4, Metric::Euclidean, 1).unwrap();
        assert_eq!(top.len(), 4);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
