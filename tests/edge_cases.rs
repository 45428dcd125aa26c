//! Failure-injection and degenerate-input tests across the public API:
//! the library must degrade gracefully, not panic, on pathological data.

use hdoutlier::core::detector::{OutlierDetector, SearchMethod};
use hdoutlier::core::params::advise;
use hdoutlier::data::discretize::{DiscretizeStrategy, Discretized};
use hdoutlier::data::Dataset;

fn detector(phi: u32, k: usize, m: usize) -> OutlierDetector {
    OutlierDetector::builder()
        .phi(phi)
        .k(k)
        .m(m)
        .search(SearchMethod::BruteForce)
        .build()
}

#[test]
fn constant_dataset_detects_nothing_interesting() {
    // Every value identical: each 1-d range is an arbitrary rank split,
    // every cube holds ~N·f^k records, nothing is sparse.
    let ds = Dataset::from_rows(vec![vec![7.0, 7.0, 7.0]; 200]).unwrap();
    let report = detector(4, 2, 10).detect(&ds).unwrap();
    for s in &report.projections {
        assert!(
            s.sparsity > -3.0,
            "constant data produced a 'significant' cube: S = {}",
            s.sparsity
        );
    }
}

#[test]
fn single_row_dataset_is_handled() {
    let ds = Dataset::from_rows(vec![vec![1.0, 2.0]]).unwrap();
    // phi = 2 on one row: the row occupies one range per dim; cubes hold
    // 0 or 1 records out of an expected 0.25. Nothing should panic.
    let report = detector(2, 2, 5).detect(&ds).unwrap();
    assert!(report.projections.len() <= 5);
    for s in &report.projections {
        assert_eq!(s.count, 1);
    }
}

#[test]
fn two_rows_evolutionary_survives() {
    let ds = Dataset::from_rows(vec![vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]]).unwrap();
    let report = OutlierDetector::builder()
        .phi(2)
        .k(2)
        .m(3)
        .population(4)
        .max_generations(5)
        .search(SearchMethod::Evolutionary)
        .build()
        .detect(&ds)
        .unwrap();
    assert!(report.projections.len() <= 3);
}

#[test]
fn all_missing_column_never_appears_in_projections() {
    let mut rows: Vec<Vec<f64>> = (0..150)
        .map(|i| vec![i as f64, f64::NAN, (i * 3 % 150) as f64])
        .collect();
    rows[0][0] = 1e6; // one marginal oddball for flavor
    let ds = Dataset::from_rows(rows).unwrap();
    let report = detector(3, 2, 10).detect(&ds).unwrap();
    for s in &report.projections {
        assert_eq!(
            s.projection.gene(1),
            None,
            "projection {} constrains the all-missing column",
            s.projection
        );
    }
}

#[test]
fn mostly_missing_dataset_still_detects() {
    // 70 % missing entries: postings are thin but consistent.
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            (0..4)
                .map(|j| {
                    if (i * 7 + j * 13) % 10 < 7 {
                        f64::NAN
                    } else {
                        ((i * (j + 2)) % 97) as f64
                    }
                })
                .collect()
        })
        .collect();
    let ds = Dataset::from_rows(rows).unwrap();
    let report = detector(3, 2, 5).detect(&ds).unwrap();
    // Whatever is reported must genuinely cover its rows.
    let disc = Discretized::new(&ds, 3, DiscretizeStrategy::EquiDepth).unwrap();
    for (s, rows) in report.projections.iter().zip(&report.rows_by_projection) {
        assert_eq!(s.count, rows.len());
        for &r in rows {
            let cells: Vec<u16> = (0..disc.n_dims()).map(|d| disc.cell(r, d)).collect();
            assert!(s.projection.covers(&cells));
        }
    }
}

#[test]
fn duplicated_dataset_rows_share_cubes() {
    // 50 copies of 4 distinct rows: every cube count is a multiple of ~50.
    let base = [
        vec![1.0, 10.0],
        vec![2.0, 20.0],
        vec![3.0, 30.0],
        vec![4.0, 40.0],
    ];
    let rows: Vec<Vec<f64>> = (0..200).map(|i| base[i % 4].clone()).collect();
    let ds = Dataset::from_rows(rows).unwrap();
    let report = detector(2, 2, 10).detect(&ds).unwrap();
    for s in &report.projections {
        // Equi-depth rank-splitting can cut a tie block in half, so counts
        // are multiples of 25 here; never tiny fragments.
        assert!(s.count >= 25, "fragmented tie block: count {}", s.count);
    }
}

#[test]
fn extreme_magnitudes_do_not_break_the_grid() {
    let rows: Vec<Vec<f64>> = (0..100)
        .map(|i| vec![(i as f64) * 1e300 / 100.0, (i as f64) * 1e-300])
        .collect();
    let ds = Dataset::from_rows(rows).unwrap();
    let report = detector(4, 2, 5).detect(&ds).unwrap();
    for s in &report.projections {
        assert!(s.sparsity.is_finite());
    }
}

#[test]
fn advisor_is_total_over_weird_sizes() {
    for n in [1u64, 2, 3, 10, 24, 25, 26, 1_000_000_000] {
        let a = advise(n, -3.0);
        assert!(a.phi >= 3 && a.phi <= 10);
        assert!(a.k >= 1);
    }
}

#[test]
fn m_zero_report_is_empty_not_a_panic() {
    let ds = Dataset::from_rows(vec![vec![1.0, 2.0]; 100]).unwrap();
    let report = detector(2, 1, 0).detect(&ds).unwrap();
    assert!(report.projections.is_empty());
    assert!(report.outlier_rows.is_empty());
    assert!(report.ranked_outliers().is_empty());
    assert_eq!(report.mean_sparsity(), None);
}

#[test]
fn nan_free_guarantee_on_reports() {
    let ds = hdoutlier::data::generators::uniform(500, 6, 77);
    let report = detector(5, 2, 20).detect(&ds).unwrap();
    for s in &report.projections {
        assert!(s.sparsity.is_finite());
        assert!(s.significance().is_finite());
    }
    for (_, score) in report.ranked_outliers() {
        assert!(score.is_finite());
    }
}
