//! Distance-of-Distances (Lee & Jeon, arXiv:2511.02199) — a
//! distance-profile score used by the scenario packs as a cross-method
//! referee.
//!
//! Each point's *distance profile* is its sorted vector of distances to
//! every other point. Inliers of a common-generating-process dataset share
//! nearly the same profile — however high the dimension — while any point
//! whose relationship to the bulk differs (an isolated point, but also a
//! *systemically shifted* one that stays locally dense) drags its whole
//! profile away from the consensus. The DOD score is the root-mean-square
//! deviation of a point's profile from the pointwise median profile.
//!
//! The draw as a referee: DOD looks at the *shape of all distances*, not a
//! local neighborhood, so it catches global structural drift that both kNN
//! and the paper's subspace sparsity coefficient can miss — and misses the
//! locally-contrarian planted outliers that the subspace detector exists to
//! find. The scenario packs use it exactly for that complementary verdict.

use crate::distance::Metric;
use crate::BaselineError;
use hdoutlier_data::Dataset;

/// DOD scores for every row, in row order: RMS deviation of each row's
/// sorted distance profile from the pointwise median profile. `O(n²·d +
/// n²·log n)` brute force. The per-row profile scans run on `threads` pool
/// workers; profiles come back in row order and the median/deviation passes
/// are sequential, so the output is bit-identical at any thread count.
///
/// ```
/// use hdoutlier_baselines::{dod_scores, Metric};
/// use hdoutlier_data::Dataset;
/// let mut rows: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 5) as f64, (i / 5) as f64]).collect();
/// rows.push(vec![100.0, 100.0]);
/// let ds = Dataset::from_rows(rows).unwrap();
/// let scores = dod_scores(&ds, Metric::Euclidean, 1).unwrap();
/// let top = (0..scores.len()).max_by(|&a, &b| scores[a].total_cmp(&scores[b])).unwrap();
/// assert_eq!(top, 20);
/// ```
pub fn dod_scores(
    dataset: &Dataset,
    metric: Metric,
    threads: usize,
) -> Result<Vec<f64>, BaselineError> {
    crate::ensure_complete(dataset)?;
    let n = dataset.n_rows();
    if n < 3 {
        return Err(BaselineError::BadParams(format!(
            "need at least 3 rows for a median profile, got {n}"
        )));
    }
    let rows: Vec<usize> = (0..n).collect();
    let profiles = hdoutlier_pool::map(threads, &rows, |_, &i| {
        let q = dataset.row(i);
        let mut d: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| metric.distance(q, dataset.row(j)))
            .collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        d
    });

    // Pointwise median profile: the consensus "how far is my k-th closest
    // point" curve. Lower median of the sorted column for even n keeps the
    // value an actual observed distance (and the pass deterministic).
    let len = n - 1;
    let mut median = vec![0.0f64; len];
    let mut column = vec![0.0f64; n];
    for (pos, m) in median.iter_mut().enumerate() {
        for (i, p) in profiles.iter().enumerate() {
            column[i] = p[pos];
        }
        column.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        *m = column[(n - 1) / 2];
    }

    Ok(profiles
        .iter()
        .map(|p| {
            let sq: f64 = p.iter().zip(&median).map(|(a, m)| (a - m) * (a - m)).sum();
            (sq / len as f64).sqrt()
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
        let scores = dod_scores(&ds, Metric::Euclidean, 1).unwrap();
        let top = (0..scores.len())
            .max_by(|&a, &b| scores[a].total_cmp(&scores[b]))
            .unwrap();
        assert_eq!(top, 20);
        assert!(scores[20] > 50.0);
        assert!(scores.iter().take(20).all(|&s| s < 15.0));
    }

    #[test]
    fn shielded_pair_is_still_exposed() {
        // Two far points next to each other fool 1-NN distance (they shield
        // each other) but not the full distance profile: all their *other*
        // distances are huge.
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.01, (i / 5) as f64 * 0.01])
            .collect();
        rows.push(vec![100.0, 100.0]);
        rows.push(vec![100.1, 100.0]);
        let ds = Dataset::from_rows(rows).unwrap();
        let scores = dod_scores(&ds, Metric::Euclidean, 1).unwrap();
        let mut ranked: Vec<usize> = (0..scores.len()).collect();
        ranked.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        assert!(ranked[..2].contains(&20) && ranked[..2].contains(&21));
    }

    #[test]
    fn uniform_grid_scores_are_small_and_nonnegative() {
        let rows: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let ds = Dataset::from_rows(rows).unwrap();
        let scores = dod_scores(&ds, Metric::Euclidean, 1).unwrap();
        for &s in &scores {
            assert!((0.0..3.0).contains(&s), "score {s} unexpectedly large");
        }
    }

    #[test]
    fn parameter_errors_propagate() {
        let two = Dataset::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        assert!(dod_scores(&two, Metric::Euclidean, 1).is_err());
    }

    #[test]
    fn threaded_scores_are_identical_to_serial() {
        let ds = cluster_with_far_point();
        let serial = dod_scores(&ds, Metric::Euclidean, 1).unwrap();
        for threads in [2, 4, 8] {
            let got = dod_scores(&ds, Metric::Euclidean, threads).unwrap();
            assert_eq!(got, serial, "threads = {threads}");
        }
    }
}
