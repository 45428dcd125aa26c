//! Knorr–Ng distance-based outliers (VLDB 1998, the paper's reference \[22\]).
//!
//! *"A point p in a data set is an outlier with respect to the parameters k
//! and λ, if no more than k points in the data set are at a distance λ or
//! less from p."*
//!
//! The paper's §1 critique of this definition — that λ is nearly impossible
//! to pick in high dimension because all pairwise distances crowd into a
//! thin shell — is demonstrated quantitatively by `repro figure1` using
//! [`suggest_lambda`].

use crate::distance::Metric;
use crate::BaselineError;
use hdoutlier_data::Dataset;

/// Rows that are DB(k, λ) outliers: at most `k` *other* points within
/// distance `λ`.
///
/// Naive `O(n²·d)` with early exit once a point has `k + 1` λ-neighbors.
pub fn knorr_ng_outliers(
    dataset: &Dataset,
    k: usize,
    lambda: f64,
    metric: Metric,
) -> Result<Vec<usize>, BaselineError> {
    crate::ensure_complete(dataset)?;
    if lambda.is_nan() || lambda <= 0.0 {
        return Err(BaselineError::BadParams(format!(
            "lambda must be positive, got {lambda}"
        )));
    }
    let n = dataset.n_rows();
    let mut outliers = Vec::new();
    for p in 0..n {
        let mut within = 0usize;
        let mut is_outlier = true;
        for q in 0..n {
            if q == p {
                continue;
            }
            if metric.distance(dataset.row(p), dataset.row(q)) <= lambda {
                within += 1;
                if within > k {
                    is_outlier = false;
                    break;
                }
            }
        }
        if is_outlier {
            outliers.push(p);
        }
    }
    Ok(outliers)
}

/// Suggests λ as a quantile of a sample of pairwise distances — the kind of
/// tuning a practitioner must resort to, since the definition gives no
/// guidance. Deterministic: samples pairs on a fixed stride.
pub fn suggest_lambda(
    dataset: &Dataset,
    quantile: f64,
    metric: Metric,
) -> Result<f64, BaselineError> {
    crate::ensure_complete(dataset)?;
    if !(0.0..=1.0).contains(&quantile) {
        return Err(BaselineError::BadParams(format!(
            "quantile must be in [0, 1], got {quantile}"
        )));
    }
    let n = dataset.n_rows();
    if n < 2 {
        return Err(BaselineError::BadParams(
            "need at least two rows to measure distances".into(),
        ));
    }
    // Up to ~10k sampled pairs on a deterministic stride.
    let total_pairs = n * (n - 1) / 2;
    let stride = (total_pairs / 10_000).max(1);
    let mut distances = Vec::new();
    let mut counter = 0usize;
    for p in 0..n {
        for q in (p + 1)..n {
            if counter.is_multiple_of(stride) {
                distances.push(metric.distance(dataset.row(p), dataset.row(q)));
            }
            counter += 1;
        }
    }
    hdoutlier_stats::summary::quantile(&distances, quantile)
        .ok_or_else(|| BaselineError::BadParams("no distances sampled".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoutlier_data::generators::uniform;
    use hdoutlier_data::Dataset;

    fn cluster_with_far_point() -> Dataset {
        let mut rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
            .collect();
        rows.push(vec![50.0, 50.0]);
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn isolates_the_far_point() {
        let ds = cluster_with_far_point();
        // λ = 5 covers the whole cluster; only the far point has ≤ 2
        // λ-neighbors.
        let out = knorr_ng_outliers(&ds, 2, 5.0, Metric::Euclidean).unwrap();
        assert_eq!(out, vec![20]);
    }

    #[test]
    fn lambda_extremes() {
        let ds = cluster_with_far_point();
        // Tiny λ: everyone is an outlier.
        let out = knorr_ng_outliers(&ds, 0, 1e-9, Metric::Euclidean).unwrap();
        assert_eq!(out.len(), 21);
        // Huge λ: no one is (with k = 2, everyone has > 2 neighbors).
        let out = knorr_ng_outliers(&ds, 2, 1e9, Metric::Euclidean).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn k_equals_n_makes_everyone_an_outlier() {
        let ds = cluster_with_far_point();
        let out = knorr_ng_outliers(&ds, 21, 1e9, Metric::Euclidean).unwrap();
        assert_eq!(out.len(), 21);
    }

    #[test]
    fn parameter_validation() {
        let ds = cluster_with_far_point();
        assert!(knorr_ng_outliers(&ds, 1, 0.0, Metric::Euclidean).is_err());
        assert!(knorr_ng_outliers(&ds, 1, -1.0, Metric::Euclidean).is_err());
        assert!(suggest_lambda(&ds, 1.5, Metric::Euclidean).is_err());
        let missing = Dataset::from_rows(vec![vec![f64::NAN], vec![1.0]]).unwrap();
        assert_eq!(
            knorr_ng_outliers(&missing, 1, 1.0, Metric::Euclidean),
            Err(BaselineError::MissingValues)
        );
        let single = Dataset::from_rows(vec![vec![1.0]]).unwrap();
        assert!(suggest_lambda(&single, 0.5, Metric::Euclidean).is_err());
    }

    #[test]
    fn suggested_lambda_is_a_plausible_distance() {
        let ds = uniform(200, 3, 5);
        let lo = suggest_lambda(&ds, 0.05, Metric::Euclidean).unwrap();
        let hi = suggest_lambda(&ds, 0.95, Metric::Euclidean).unwrap();
        assert!(lo > 0.0);
        assert!(lo < hi);
        assert!(hi < 3f64.sqrt() + 1e-9); // diameter of the unit cube
    }

    #[test]
    fn high_dimensional_lambda_window_is_narrow() {
        // The paper's §1 point: in high dimension the λ window between
        // "all outliers" and "no outliers" collapses. Measure the ratio of
        // the 5th to the 95th percentile distance: it approaches 1 as d
        // grows.
        let narrow = |d: usize| {
            let ds = uniform(200, d, 7);
            let lo = suggest_lambda(&ds, 0.05, Metric::Euclidean).unwrap();
            let hi = suggest_lambda(&ds, 0.95, Metric::Euclidean).unwrap();
            lo / hi
        };
        let low_d = narrow(2);
        let high_d = narrow(100);
        assert!(
            high_d > low_d + 0.2,
            "distance concentration: d=2 ratio {low_d}, d=100 ratio {high_d}"
        );
        assert!(high_d > 0.8, "at d=100 the shell is thin: {high_d}");
    }
}
