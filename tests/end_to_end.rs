//! Cross-crate integration tests: CSV → clean → discretize → index →
//! search → report, exercised through the umbrella crate's public API only.

use hdoutlier::baselines::{lof_scores, ramaswamy_top_n, Metric};
use hdoutlier::core::crossover::CrossoverKind;
use hdoutlier::core::detector::{OutlierDetector, SearchMethod};
use hdoutlier::data::clean::{drop_constant_columns, encode_categoricals, impute_mean};
use hdoutlier::data::csv;
use hdoutlier::data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier::data::generators::{planted_outliers, PlantedConfig};
use hdoutlier::prelude::*;

fn planted_fixture() -> hdoutlier::data::generators::PlantedOutliers {
    planted_outliers(&PlantedConfig {
        n_rows: 1500,
        n_dims: 12,
        n_outliers: 6,
        strong_groups: Some(3),
        seed: 77,
        ..PlantedConfig::default()
    })
}

#[test]
fn csv_round_trip_preserves_detection_results() {
    let planted = planted_fixture();
    let detector = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(8)
        .search(SearchMethod::BruteForce)
        .build();
    let direct = detector.detect(&planted.dataset).unwrap();

    // Serialize to CSV, read back, detect again: identical outliers.
    let text = csv::write_string(&planted.dataset);
    let restored = csv::read_str(&text, &csv::CsvOptions::default()).unwrap();
    let via_csv = detector.detect(&restored).unwrap();
    assert_eq!(direct.outlier_rows, via_csv.outlier_rows);
}

#[test]
fn brute_and_evolutionary_agree_on_top_projections() {
    let planted = planted_fixture();
    let brute = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(5)
        .search(SearchMethod::BruteForce)
        .build()
        .detect(&planted.dataset)
        .unwrap();
    let evolutionary = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(5)
        .seed(13)
        .search(SearchMethod::Evolutionary)
        .build()
        .detect(&planted.dataset)
        .unwrap();
    // The GA is heuristic, but its best projection must reach the exact
    // optimum's sparsity on this small instance.
    let b = brute.projections[0].sparsity;
    let e = evolutionary.projections[0].sparsity;
    assert!((b - e).abs() < 1e-9, "brute {b} vs evolutionary {e}");
}

#[test]
fn subspace_beats_distance_baselines_on_planted_subspace_outliers() {
    let planted = planted_fixture();
    let report = OutlierDetector::builder()
        .phi(5)
        .k(2)
        .m(10)
        .search(SearchMethod::BruteForce)
        .build()
        .detect(&planted.dataset)
        .unwrap();
    let subspace_recall = planted.recall(&report.outlier_rows).unwrap();

    let budget = report.outlier_rows.len().max(1);
    let knn: Vec<usize> = ramaswamy_top_n(&planted.dataset, 1, budget, Metric::Euclidean, 1)
        .unwrap()
        .into_iter()
        .map(|o| o.row)
        .collect();
    let knn_recall = planted.recall(&knn).unwrap();

    let lof = lof_scores(&planted.dataset, 10, Metric::Euclidean, 1).unwrap();
    let mut lof_ranked: Vec<usize> = (0..lof.len()).collect();
    lof_ranked.sort_by(|&a, &b| lof[b].partial_cmp(&lof[a]).unwrap());
    lof_ranked.truncate(budget);
    let lof_recall = planted.recall(&lof_ranked).unwrap();

    assert!(
        subspace_recall > knn_recall,
        "subspace {subspace_recall} vs kNN {knn_recall}"
    );
    assert!(
        subspace_recall >= lof_recall,
        "subspace {subspace_recall} vs LOF {lof_recall}"
    );
    assert!(subspace_recall >= 0.5, "subspace recall {subspace_recall}");
}

#[test]
fn full_cleaning_pipeline_on_categorical_csv() {
    // Raw CSV with a categorical column, missing markers and a constant
    // column — the paper's preprocessing path.
    let mut text = String::from("color,size,weight,shape\n");
    for i in 0..200 {
        let color = ["red", "green", "blue"][i % 3];
        let size = (i % 17) as f64 + 0.5;
        let weight = if i % 31 == 0 {
            "?".to_string()
        } else {
            format!("{:.1}", 10.0 + (i % 7) as f64)
        };
        text.push_str(&format!("{color},{size},{weight},round\n"));
    }
    let mut records = csv::parse_records(&text, ',').unwrap();
    let header = records.remove(0);
    let (mut ds, books) = encode_categoricals(&records, &["?"]).unwrap();
    ds.set_names(header).unwrap();
    assert_eq!(books[0].len(), 3); // color has 3 codes
    assert!(ds.missing_count() > 0);

    let cleaned = drop_constant_columns(&ds);
    assert_eq!(cleaned.n_dims(), 3); // shape was constant

    // Detector runs on the incomplete data directly.
    let report = OutlierDetector::builder()
        .phi(3)
        .k(2)
        .m(5)
        .search(SearchMethod::BruteForce)
        .build()
        .detect(&cleaned)
        .unwrap();
    assert!(report.projections.len() <= 5);
    for s in &report.projections {
        assert!(s.count > 0);
    }

    // Baselines need imputation first.
    let complete = impute_mean(&cleaned);
    assert_eq!(complete.missing_count(), 0);
    assert!(ramaswamy_top_n(&complete, 1, 5, Metric::Euclidean, 1).is_ok());
}

#[test]
fn advisor_and_detector_compose() {
    let planted = planted_fixture();
    let n = planted.dataset.n_rows() as u64;
    // Manual advisor round-trip equals the auto-configured detector.
    let advice = hdoutlier::core::params::advise(n, -3.0);
    assert_eq!(Some(advice.k), recommended_k(n, advice.phi, -3.0));
    let auto = OutlierDetector::builder()
        .m(5)
        .seed(3)
        .max_generations(40)
        .build()
        .detect(&planted.dataset)
        .unwrap();
    let manual = OutlierDetector::builder()
        .phi(advice.phi)
        .k(advice.k as usize)
        .m(5)
        .seed(3)
        .max_generations(40)
        .build()
        .detect(&planted.dataset)
        .unwrap();
    assert_eq!(auto.outlier_rows, manual.outlier_rows);
}

#[test]
fn two_point_crossover_detector_is_functional_but_weaker() {
    let planted = planted_fixture();
    let run = |kind: CrossoverKind| {
        OutlierDetector::builder()
            .phi(5)
            .k(2)
            .m(10)
            .seed(23)
            .crossover(kind)
            .max_generations(60)
            .build()
            .detect(&planted.dataset)
            .unwrap()
    };
    let optimized = run(CrossoverKind::Optimized);
    let two_point = run(CrossoverKind::TwoPoint);
    // Both produce valid reports; optimized is at least as sparse at the top.
    assert!(!optimized.projections.is_empty());
    assert!(!two_point.projections.is_empty());
    assert!(optimized.projections[0].sparsity <= two_point.projections[0].sparsity + 1e-9);
}

#[test]
fn significance_and_sparsity_are_consistent_across_crates() {
    // prelude re-exports match the stats crate directly.
    let s = sparsity_coefficient(3, 1000, 5, 2);
    assert_eq!(s, hdoutlier::stats::sparsity_coefficient(3, 1000, 5, 2));
    assert_eq!(significance_of(s), hdoutlier::stats::significance_of(s));
    let params = SparsityParams::new(1000, 5, 2).unwrap();
    assert_eq!(params.sparsity(3), s);
    assert_eq!(
        empty_cube_coefficient(1000, 5, 2),
        params.empty_cube_sparsity()
    );
}

#[test]
fn equi_width_detector_is_selectable_and_differs() {
    // Skewed data: the two grid strategies disagree on outliers.
    let mut rows: Vec<Vec<f64>> = (0..500)
        .map(|i| {
            let base = (i as f64 / 500.0).powi(4) * 100.0;
            vec![base, base * 0.7 + (i % 13) as f64]
        })
        .collect();
    rows.push(vec![50.0, 0.1]); // contrarian
    let ds = hdoutlier::data::Dataset::from_rows(rows).unwrap();
    let run = |strategy| {
        OutlierDetector::builder()
            .phi(4)
            .k(2)
            .m(5)
            .strategy(strategy)
            .search(SearchMethod::BruteForce)
            .build()
            .detect(&ds)
            .unwrap()
    };
    let depth = run(DiscretizeStrategy::EquiDepth);
    let width = run(DiscretizeStrategy::EquiWidth);
    assert!(!depth.projections.is_empty());
    assert!(!width.projections.is_empty());
    // They may overlap but are not required to agree; the grids differ.
    let d1 = Discretized::new(&ds, 4, DiscretizeStrategy::EquiDepth).unwrap();
    let d2 = Discretized::new(&ds, 4, DiscretizeStrategy::EquiWidth).unwrap();
    let differing = (0..ds.n_rows())
        .filter(|&r| (0..ds.n_dims()).any(|d| d1.cell(r, d) != d2.cell(r, d)))
        .count();
    assert!(differing > 100, "grids should differ on skewed data");
}
