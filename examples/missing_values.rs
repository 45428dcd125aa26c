//! §1.2's observation in action: "lower dimensional projections can be
//! mined even in data sets which have missing attribute values."
//!
//! We take a planted-outlier dataset, knock out 20 % of all entries, and
//! show that (a) the subspace detector runs on the incomplete data directly
//! and still finds the planted records, while (b) the distance baselines
//! refuse incomplete input and, after mean-imputation, do worse.
//!
//! ```text
//! cargo run --release --example missing_values
//! ```

use hdoutlier::baselines::{ramaswamy_top_n, BaselineError, Metric};
use hdoutlier::core::detector::{OutlierDetector, SearchMethod};
use hdoutlier::data::clean::impute_mean;
use hdoutlier::data::dataset::Dataset;
use hdoutlier::data::generators::{planted_outliers, PlantedConfig};
use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::{Rng, SeedableRng};

fn main() {
    let planted = planted_outliers(&PlantedConfig {
        n_rows: 3000,
        n_dims: 12,
        n_outliers: 8,
        seed: 5,
        ..PlantedConfig::default()
    });

    // Knock out 20 % of entries — but never a planted signature cell, since
    // a missing value genuinely erases information (a record with a missing
    // signature attribute cannot be detected by anyone).
    let mut rng = StdRng::seed_from_u64(17);
    let protected: std::collections::HashSet<(usize, usize)> = planted
        .outlier_rows
        .iter()
        .zip(&planted.signatures)
        .flat_map(|(&r, &(lo, hi))| [(r, lo), (r, hi)])
        .collect();
    let mut rows: Vec<Vec<f64>> = planted.dataset.rows().map(<[f64]>::to_vec).collect();
    for (r, row) in rows.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            if !protected.contains(&(r, c)) && rng.gen::<f64>() < 0.20 {
                *v = f64::NAN;
            }
        }
    }
    let incomplete = Dataset::from_rows(rows).unwrap();
    println!(
        "dataset: {} x {}, {} missing entries ({:.0}%)",
        incomplete.n_rows(),
        incomplete.n_dims(),
        incomplete.missing_count(),
        100.0 * incomplete.missing_count() as f64
            / (incomplete.n_rows() * incomplete.n_dims()) as f64
    );

    // The subspace detector consumes the incomplete data natively: a record
    // with a missing attribute simply never covers cubes constraining it.
    let report = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(12)
        .seed(11)
        .search(SearchMethod::Evolutionary)
        .build()
        .detect(&incomplete)
        .unwrap();
    let recall = planted.recall(&report.outlier_rows).unwrap();
    println!(
        "subspace detector on incomplete data: {} outliers, recall {recall:.2}",
        report.outlier_rows.len()
    );

    // The distance baseline refuses incomplete input...
    match ramaswamy_top_n(&incomplete, 1, 10, Metric::Euclidean, 1) {
        Err(BaselineError::MissingValues) => {
            println!("kNN baseline on incomplete data: refused (needs complete vectors)")
        }
        other => panic!("expected MissingValues, got {other:?}"),
    }

    // ...and after mean-imputation it hunts ghosts: imputed cells drag
    // records toward the center, and the planted outliers stay invisible.
    let imputed = impute_mean(&incomplete);
    let top =
        ramaswamy_top_n(&imputed, 1, report.outlier_rows.len(), Metric::Euclidean, 1).unwrap();
    let baseline_rows: Vec<usize> = top.iter().map(|o| o.row).collect();
    let baseline_recall = planted.recall(&baseline_rows).unwrap();
    println!("kNN baseline on imputed data: same budget, recall {baseline_recall:.2}");
    assert!(
        recall > baseline_recall,
        "subspace should win under missingness"
    );
}
