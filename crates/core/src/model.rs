//! A fitted detector: mined projections plus the grid that interprets them,
//! detached from the training data — the train/apply split a production
//! deployment needs.
//!
//! The paper's algorithm is batch: discretize, search, report. A deployment
//! (fraud screening, intrusion detection — the applications §1 motivates)
//! instead mines the sparse projections *offline* and then scores each
//! *incoming* record online: does it land in any of the abnormal cubes?
//! [`FittedModel`] packages exactly that: assign the new record's grid cells
//! through the fitted [`GridSpec`] boundaries, then match them against the
//! mined projections in `O(m·k)` per record, with no access to the training
//! data.

use crate::detector::{DetectError, OutlierDetector};
use crate::report::{OutlierReport, ScoredProjection};
use hdoutlier_data::{DataError, Dataset, GridSpec};

/// A fitted, data-free outlier model.
#[derive(Debug, Clone)]
pub struct FittedModel {
    grid: GridSpec,
    projections: Vec<ScoredProjection>,
}

impl FittedModel {
    /// Assembles a model from a fitted grid and mined projections.
    pub fn new(grid: GridSpec, projections: Vec<ScoredProjection>) -> Self {
        Self { grid, projections }
    }

    /// The fitted grid boundaries.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The mined abnormal projections, most negative first.
    pub fn projections(&self) -> &[ScoredProjection] {
        &self.projections
    }

    /// The verdict rule, on a record's already-assigned grid cells: the
    /// indices of every mined projection whose cube the cells fall into, in
    /// ascending order, and the most negative sparsity among them (`None`
    /// when nothing matches). A missing attribute's cell never matches a
    /// constrained position (the paper's §1.2 semantics). Allocates nothing
    /// when nothing matches.
    ///
    /// `cells` must come from [`GridSpec::assign_row`] (or
    /// [`GridSpec::assign_row_into`]) on this model's grid.
    pub fn match_cells(&self, cells: &[u16]) -> (Vec<usize>, Option<f64>) {
        let mut matched = Vec::new();
        let mut score: Option<f64> = None;
        for (i, p) in self.projections.iter().enumerate() {
            if p.projection.covers(cells) {
                matched.push(i);
                score = Some(score.map_or(p.sparsity, |a| a.min(p.sparsity)));
            }
        }
        (matched, score)
    }

    /// Outlier score of a record: the most negative sparsity among matched
    /// projections, or `None` if nothing matches.
    ///
    /// # Errors
    /// [`DataError::ShapeMismatch`] if the record width differs from the
    /// fitted dimensionality.
    pub fn score(&self, row: &[f64]) -> Result<Option<f64>, DataError> {
        Ok(self.match_cells(&self.grid.assign_row(row)?).1)
    }

    /// Scores a whole dataset; `results[i]` is the score of row `i`.
    pub fn score_dataset(&self, dataset: &Dataset) -> Result<Vec<Option<f64>>, DataError> {
        dataset.rows().map(|row| self.score(row)).collect()
    }
}

impl OutlierDetector {
    /// Fits a reusable model: runs [`OutlierDetector::detect`] and packages
    /// the resulting projections with the fitted grid boundaries.
    pub fn fit(&self, dataset: &Dataset) -> Result<FittedModel, DetectError> {
        let disc = self.discretize(dataset)?;
        let report: OutlierReport = self.detect_discretized(&disc)?;
        Ok(FittedModel::new(
            GridSpec::from_discretized(&disc),
            report.projections,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::SearchMethod;
    use hdoutlier_data::generators::{planted_outliers, PlantedConfig};

    fn fit_on_planted() -> (FittedModel, hdoutlier_data::generators::PlantedOutliers) {
        let planted = planted_outliers(&PlantedConfig {
            n_rows: 2000,
            n_dims: 10,
            n_outliers: 5,
            strong_groups: Some(3),
            seed: 1,
            ..PlantedConfig::default()
        });
        let model = OutlierDetector::builder()
            .phi(5)
            .k(2)
            .m(10)
            .search(SearchMethod::BruteForce)
            .build()
            .fit(&planted.dataset)
            .unwrap();
        (model, planted)
    }

    #[test]
    fn training_outliers_score_as_outliers() {
        let (model, planted) = fit_on_planted();
        let mut hits = 0usize;
        for &row in &planted.outlier_rows {
            if model.score(planted.dataset.row(row)).unwrap().is_some() {
                hits += 1;
            }
        }
        assert!(
            hits >= planted.outlier_rows.len() / 2,
            "{hits}/{} planted outliers matched",
            planted.outlier_rows.len()
        );
    }

    #[test]
    fn fresh_contrarian_records_are_flagged_without_retraining() {
        // The deployment scenario: a *new* record violating the same
        // correlation the mined projections describe must be flagged.
        let (model, planted) = fit_on_planted();
        let (lo, hi) = planted.signatures[0];
        let mut fresh = vec![0.0f64; 10];
        fresh[lo] = -1.3; // ~10th percentile of the N(0,1) marginal
        fresh[hi] = 1.3; // ~90th — jointly contrarian under strong correlation
        let score = model.score(&fresh).unwrap().unwrap_or_else(|| {
            panic!(
                "fresh contrarian record not flagged (projections: {:?})",
                model
                    .projections()
                    .iter()
                    .map(|s| s.projection.to_string())
                    .collect::<Vec<_>>()
            )
        });
        assert!(score < -3.0);
    }

    #[test]
    fn typical_records_are_not_flagged() {
        let (model, _) = fit_on_planted();
        // A record at the marginal medians sits in dense diagonal cells.
        let typical = vec![0.0f64; 10];
        assert_eq!(model.score(&typical).unwrap(), None);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let (model, _) = fit_on_planted();
        assert!(model.score(&[0.0; 3]).is_err());
    }

    #[test]
    fn score_dataset_aligns_with_per_row() {
        let (model, planted) = fit_on_planted();
        let scores = model.score_dataset(&planted.dataset).unwrap();
        assert_eq!(scores.len(), planted.dataset.n_rows());
        for (i, s) in scores.iter().enumerate().take(50) {
            assert_eq!(*s, model.score(planted.dataset.row(i)).unwrap());
        }
    }
}
