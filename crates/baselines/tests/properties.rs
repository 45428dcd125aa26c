//! Seeded property tests for the distance baselines: the outlier rankings
//! behave monotonically and a far point tops each of them. (The metric
//! axioms are random cases of the unit tests in `distance.rs`.) All run on
//! [`hdoutlier_rng::for_each_case`]; a failing case prints the seed that
//! replays it alone.

use hdoutlier_baselines::distance::Metric;
use hdoutlier_baselines::knorr_ng::knorr_ng_outliers;
use hdoutlier_baselines::lof::lof_scores;
use hdoutlier_baselines::ramaswamy_top_n;
use hdoutlier_data::Dataset;
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{for_each_case, Rng};

fn point(rng: &mut StdRng, dims: usize, half_width: f64) -> Vec<f64> {
    (0..dims)
        .map(|_| rng.gen_range(-half_width..half_width))
        .collect()
}

/// A complete 4–39 × 1–4 dataset in `±100`.
fn dataset(rng: &mut StdRng) -> Dataset {
    let (n, d) = (rng.gen_range(4..40), rng.gen_range(1..5));
    Dataset::new(point(rng, n * d, 100.0), n, d).unwrap()
}

#[test]
fn ramaswamy_scores_descend_over_unique_rows() {
    for_each_case(0xba5e_0003, 64, |rng| {
        let ds = dataset(rng);
        let k = rng.gen_range(1usize..4).min(ds.n_rows() - 1);
        let n = rng.gen_range(1..20);
        let top = ramaswamy_top_n(&ds, k, n, Metric::Euclidean, 1).unwrap();
        assert!(top.len() <= n.min(ds.n_rows()));
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score, "k={k} n={n}");
        }
        let rows: std::collections::HashSet<usize> = top.iter().map(|o| o.row).collect();
        assert_eq!(rows.len(), top.len(), "k={k} n={n}");
    });
}

#[test]
fn knorr_ng_is_monotone_in_lambda_and_k() {
    for_each_case(0xba5e_0004, 64, |rng| {
        let ds = dataset(rng);
        let small = knorr_ng_outliers(&ds, 1, 1.0, Metric::Euclidean).unwrap();
        let large = knorr_ng_outliers(&ds, 1, 100.0, Metric::Euclidean).unwrap();
        // A larger λ can only remove outliers.
        assert!(large.len() <= small.len());
        for r in &large {
            assert!(small.contains(r), "λ-monotonicity violated at row {r}");
        }
        // A larger k can only add outliers.
        let k1 = knorr_ng_outliers(&ds, 1, 10.0, Metric::Euclidean).unwrap();
        let k3 = knorr_ng_outliers(&ds, 3, 10.0, Metric::Euclidean).unwrap();
        for r in &k1 {
            assert!(k3.contains(r), "k-monotonicity violated at row {r}");
        }
    });
}

#[test]
fn lof_scores_are_nonnegative_and_never_nan() {
    for_each_case(0xba5e_0005, 64, |rng| {
        let ds = dataset(rng);
        let min_pts = rng.gen_range(1usize..5).min(ds.n_rows() - 1);
        let scores = lof_scores(&ds, min_pts, Metric::Euclidean, 1).unwrap();
        assert_eq!(scores.len(), ds.n_rows());
        for &s in &scores {
            assert!(s >= 0.0 && !s.is_nan(), "min_pts={min_pts}: {s}");
        }
    });
}

#[test]
fn a_far_point_tops_every_ranking() {
    for_each_case(0xba5e_0006, 64, |rng| {
        // 10 points in [-1, 1]² plus one at (100, 100).
        let mut rows: Vec<Vec<f64>> = (0..10).map(|_| point(rng, 2, 1.0)).collect();
        rows.push(vec![100.0, 100.0]);
        let n = rows.len();
        let ds = Dataset::from_rows(rows).unwrap();
        let top = ramaswamy_top_n(&ds, 1, 1, Metric::Euclidean, 1).unwrap();
        assert_eq!(top[0].row, n - 1);
        let lof = lof_scores(&ds, 3, Metric::Euclidean, 1).unwrap();
        let best = (0..n).max_by(|&a, &b| lof[a].total_cmp(&lof[b])).unwrap();
        assert_eq!(best, n - 1, "{lof:?}");
    });
}
