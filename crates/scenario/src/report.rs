//! Report assembly shared by the packs: fingerprints, ground-truth
//! metrics, and the common envelope every golden file follows.

use crate::Invariant;
use hdoutlier_core::OutlierReport;
use hdoutlier_data::hash::fnv1a;
use hdoutlier_data::Dataset;
use hdoutlier_json::{FieldChain, Json};

/// Renders a 64-bit fingerprint the way goldens store it.
pub fn hex64(x: u64) -> String {
    format!("{x:016x}")
}

/// Fingerprint of a text artifact (an NDJSON verdict stream, a rendered
/// report).
pub fn fingerprint_text(text: &str) -> String {
    hex64(fnv1a(text.as_bytes()))
}

/// Fingerprint of a dataset: the IEEE bit patterns of every value in row
/// order, so any generator drift — one bit in one cell — changes it.
pub fn fingerprint_dataset(ds: &Dataset) -> String {
    let mut bytes = Vec::with_capacity(ds.n_rows() * ds.n_dims() * 8);
    for row in ds.rows() {
        for &v in row {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    hex64(fnv1a(&bytes))
}

/// Row indices of the `m` largest scores, descending; ties break by row
/// index so the ranking is total.
pub fn top_rows(scores: &[f64], m: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..scores.len()).collect();
    rows.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    rows.truncate(m);
    rows
}

/// Fraction of `reported` rows that are planted. 1.0 for an empty report
/// (no false positives).
pub fn precision(planted: &[usize], reported: &[usize]) -> f64 {
    if reported.is_empty() {
        return 1.0;
    }
    let hits = reported.iter().filter(|r| planted.contains(r)).count();
    hits as f64 / reported.len() as f64
}

/// Fraction of planted rows that were reported. 1.0 when nothing was
/// planted.
pub fn recall(planted: &[usize], reported: &[usize]) -> f64 {
    if planted.is_empty() {
        return 1.0;
    }
    let hits = planted.iter().filter(|p| reported.contains(p)).count();
    hits as f64 / planted.len() as f64
}

/// A JSON array of row indices.
pub fn rows_json(rows: &[usize]) -> Json {
    Json::Array(rows.iter().map(|&r| Json::from(r)).collect())
}

/// One method's verdict against ground truth: the rows it reported plus
/// precision/recall.
pub fn metrics_json(planted: &[usize], reported: &[usize]) -> Json {
    Json::object()
        .field("rows", rows_json(reported))
        .field("precision", precision(planted, reported))
        .field("recall", recall(planted, reported))
        .unwrap()
}

/// The `"dataset"` section: shape, planted ground truth, and the
/// value-exact fingerprint.
pub fn dataset_json(ds: &Dataset, planted: &[usize]) -> Json {
    Json::object()
        .field("rows", ds.n_rows())
        .field("dims", ds.n_dims())
        .field("planted", rows_json(planted))
        .field("fingerprint", fingerprint_dataset(ds))
        .unwrap()
}

/// The detection section for one [`OutlierReport`]: found projections
/// (string genome, sparsity, occupancy), flagged rows, and the
/// thread-invariant search counters. `stats.elapsed` is deliberately
/// excluded — wall clock has no place in a golden-comparable section.
pub fn detect_json(report: &OutlierReport) -> Json {
    let projections: Vec<Json> = report
        .projections
        .iter()
        .map(|p| {
            Json::object()
                .field("projection", p.projection.to_string())
                .field("sparsity", p.sparsity)
                .field("count", p.count)
                .unwrap()
        })
        .collect();
    Json::object()
        .field("projections", Json::Array(projections))
        .field("outlier_rows", rows_json(&report.outlier_rows))
        .field("work", report.stats.work)
        .field("generations", report.stats.generations)
        .field("completed", report.stats.completed)
        .unwrap()
}

/// The `"invariants"` section: every assertion with its outcome and the
/// observed evidence, so a reviewer reading the golden sees *why* the
/// numbers are what they are.
pub fn invariants_json(invariants: &[Invariant]) -> Json {
    Json::Array(
        invariants
            .iter()
            .map(|i| {
                Json::object()
                    .field("name", i.name.as_str())
                    .field("holds", i.holds)
                    .field("detail", i.detail.as_str())
                    .unwrap()
            })
            .collect(),
    )
}

/// The common report envelope. `elapsed_ms` is raw wall clock here — the
/// golden path scrubs it via [`hdoutlier_json::normalize`], which is
/// exactly what makes normalization load-bearing.
pub fn envelope(
    name: &str,
    seed: u64,
    elapsed_ms: f64,
    dataset: Json,
    pipelines: Json,
    referees: Json,
    invariants: &[Invariant],
) -> Json {
    Json::object()
        .field("scenario", name)
        .field("seed", seed)
        .field("elapsed_ms", elapsed_ms)
        .field("dataset", dataset)
        .field("pipelines", pipelines)
        .field("referees", referees)
        .field("invariants", invariants_json(invariants))
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_rows_orders_by_score_then_row() {
        let scores = [0.5, 2.0, 2.0, 0.1];
        assert_eq!(top_rows(&scores, 3), vec![1, 2, 0]);
    }

    #[test]
    fn precision_recall_agree_with_hand_counts() {
        let planted = [3, 7, 9];
        let reported = [7, 9, 11, 12];
        assert!((precision(&planted, &reported) - 0.5).abs() < 1e-12);
        assert!((recall(&planted, &reported) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(precision(&planted, &[]), 1.0);
        assert_eq!(recall(&[], &reported), 1.0);
    }
}
