//! Figure 1: some 2-dimensional views expose outliers that other views —
//! and full-dimensional distance measures — hide.
//!
//! The paper's figure is conceptual; this experiment makes it quantitative
//! on a planted workload. For each planted outlier we measure:
//!
//! - the sparsity coefficient of its grid cell in its **signature view**
//!   (the correlated attribute pair it violates) — strongly negative;
//! - the sparsity of its cell in random other views — unremarkable;
//! - its rank under the full-dimensional kNN-distance score — mediocre,
//!   and worsening as noise dimensions are added (the "averaging behavior
//!   of the noisy and irrelevant dimensions").

use crate::table;
use hdoutlier_baselines::nn::kth_nn_distances;
use hdoutlier_baselines::Metric;
use hdoutlier_core::fitness::SparsityFitness;
use hdoutlier_data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier_data::generators::{planted_outliers, PlantedConfig, PlantedOutliers};
use hdoutlier_index::{BitmapCounter, Cube};

/// Per-outlier measurements.
#[derive(Debug, Clone)]
pub struct OutlierView {
    /// Row index of the planted outlier.
    pub row: usize,
    /// Sparsity of its cell in the signature (violated) view.
    pub signature_sparsity: f64,
    /// Mean sparsity of its cells across all other (off-signature) views.
    pub mean_other_sparsity: f64,
    /// Rank (0 = most outlying) under the full-dimensional 1-NN distance.
    pub knn_rank: usize,
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-outlier view measurements.
    pub views: Vec<OutlierView>,
    /// Number of records.
    pub n_rows: usize,
    /// Dimensionality.
    pub n_dims: usize,
}

/// Grid resolution.
pub const PHI: u32 = 5;

/// Runs the Figure-1 experiment.
pub fn run(n_dims: usize, seed: u64) -> Outcome {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 1000,
        n_dims,
        n_outliers: 8,
        seed,
        ..PlantedConfig::default()
    });
    let PlantedOutliers {
        dataset,
        outlier_rows,
        signatures,
    } = &planted;
    let disc = Discretized::new(dataset, PHI, DiscretizeStrategy::EquiDepth).expect("non-empty");
    let counter = BitmapCounter::new(&disc);
    let fitness = SparsityFitness::new(&counter, 2);

    // Full-dimensional 1-NN distance ranks.
    let scores = kth_nn_distances(dataset, 1, Metric::Euclidean, 1).expect("complete data");
    let order = hdoutlier_stats::rank::argsort(&scores);
    let mut rank_of = vec![0usize; scores.len()];
    // argsort ascends; outlier rank counts from the largest distance.
    for (i, &row) in order.iter().rev().enumerate() {
        rank_of[row] = i;
    }

    let views = outlier_rows
        .iter()
        .zip(signatures)
        .map(|(&row, &(lo, hi))| {
            let cell_of = |dim: usize| disc.cell(row, dim);
            let signature_cube = Cube::new([(lo as u32, cell_of(lo)), (hi as u32, cell_of(hi))])
                .expect("distinct dims");
            let signature_sparsity = fitness.sparsity_of_pairs(signature_cube.pairs());
            // All other adjacent-pair views.
            let mut others = Vec::new();
            for g in 0..(n_dims / 2) {
                let (a, b) = (2 * g, 2 * g + 1);
                if (a, b) == (lo.min(hi), lo.max(hi)) {
                    continue;
                }
                let cube = Cube::new([(a as u32, cell_of(a)), (b as u32, cell_of(b))])
                    .expect("distinct dims");
                others.push(fitness.sparsity_of_pairs(cube.pairs()));
            }
            let mean_other_sparsity = others.iter().sum::<f64>() / others.len().max(1) as f64;
            OutlierView {
                row,
                signature_sparsity,
                mean_other_sparsity,
                knn_rank: rank_of[row],
            }
        })
        .collect();

    Outcome {
        views,
        n_rows: dataset.n_rows(),
        n_dims,
    }
}

/// The §1 companion measurement: Knorr–Ng's λ window collapses with
/// dimensionality. Returns, per dimensionality, the ratio between the 5th
/// and 95th percentile pairwise distances — near 0 when λ is easy to pick,
/// near 1 when "most of the points are likely to lie in a thin shell about
/// any other point" and any λ makes everyone or no one an outlier.
pub fn lambda_window_collapse(dims: &[usize], seed: u64) -> Vec<(usize, f64)> {
    use hdoutlier_baselines::{suggest_lambda, Metric};
    dims.iter()
        .map(|&d| {
            let ds = hdoutlier_data::generators::uniform(500, d, seed);
            let lo = suggest_lambda(&ds, 0.05, Metric::Euclidean).expect("complete data");
            let hi = suggest_lambda(&ds, 0.95, Metric::Euclidean).expect("complete data");
            (d, lo / hi)
        })
        .collect()
}

/// Renders the per-outlier comparison.
pub fn render(o: &Outcome) -> String {
    let rows: Vec<Vec<String>> = o
        .views
        .iter()
        .map(|v| {
            vec![
                v.row.to_string(),
                format!("{:.2}", v.signature_sparsity),
                format!("{:.2}", v.mean_other_sparsity),
                format!("{}/{}", v.knn_rank + 1, o.n_rows),
            ]
        })
        .collect();
    let mut out = format!(
        "Planted outliers in {} dims ({} rows), phi = {PHI}:\n",
        o.n_dims, o.n_rows
    );
    out.push_str(&table::render(
        &[
            "row",
            "S(signature view)",
            "S(other views, mean)",
            "1-NN rank",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_views_expose_what_other_views_hide() {
        let o = run(20, 3);
        for v in &o.views {
            assert!(
                v.signature_sparsity < -3.0,
                "row {}: signature view S = {}",
                v.row,
                v.signature_sparsity
            );
            assert!(
                v.signature_sparsity < v.mean_other_sparsity - 2.0,
                "row {}: signature {} vs others {}",
                v.row,
                v.signature_sparsity,
                v.mean_other_sparsity
            );
        }
    }

    #[test]
    fn full_dimensional_knn_misses_most_planted_outliers() {
        // With 8 planted outliers in 1000 rows, a perfect detector ranks
        // them in the top 8. Full-dimensional 1-NN distance puts most of
        // them far outside the top 8 — the curse Figure 1 illustrates.
        let o = run(40, 3);
        let in_top_8 = o.views.iter().filter(|v| v.knn_rank < 8).count();
        assert!(
            in_top_8 <= 4,
            "{in_top_8}/8 planted outliers in the kNN top-8 at d=40"
        );
    }

    #[test]
    fn lambda_window_collapses_with_dimensionality() {
        let curve = lambda_window_collapse(&[2, 10, 50, 100], 5);
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.05,
                "ratio should rise with d: {curve:?}"
            );
        }
        assert!(curve[0].1 < 0.5, "low-d window is wide: {curve:?}");
        assert!(curve[3].1 > 0.8, "high-d shell is thin: {curve:?}");
    }

    #[test]
    fn knn_gets_worse_with_more_noise_dimensions() {
        let mean_rank = |d: usize| {
            let o = run(d, 3);
            o.views.iter().map(|v| v.knn_rank as f64).sum::<f64>() / o.views.len() as f64
        };
        let low_d = mean_rank(10);
        let high_d = mean_rank(80);
        assert!(
            high_d > low_d,
            "mean 1-NN rank should worsen: d=10 {low_d}, d=80 {high_d}"
        );
    }
}
