#![warn(missing_docs)]

//! Distance-based outlier baselines.
//!
//! The paper's §3.1 evaluates the subspace detector against the
//! full-dimensional distance definitions it critiques; all three are
//! implemented here from their original papers:
//!
//! - [`knorr_ng`]: Knorr & Ng's DB(k, λ) outliers (VLDB 1998) — a point is
//!   an outlier if no more than `k` points lie within distance `λ`.
//! - [`knn_outlier`]: Ramaswamy, Rastogi & Shim's top-n outliers by
//!   k-th-nearest-neighbor distance (SIGMOD 2000) — the comparator in the
//!   paper's arrhythmia experiment.
//! - [`lof`]: Breunig et al.'s Local Outlier Factor (SIGMOD 2000).
//! - [`intensional`]: Knorr & Ng's intensional knowledge of distance-based
//!   outliers (VLDB 1999) — the roll-up/drill-down lattice method whose
//!   combinatorial cost §1 of the paper critiques.
//!
//! Two further scorers serve as *referees* for the scenario packs rather
//! than paper-era comparators:
//!
//! - [`cfof`]: Angiulli's Concentration-Free Outlier Factor — a
//!   reverse-kNN rank statistic that resists distance concentration.
//! - [`dod`]: Lee & Jeon's Distance-of-Distances — deviation of a point's
//!   sorted distance profile from the dataset's median profile.
//!
//! Substrate: [`distance`] (Minkowski norms) and [`nn`] (brute-force
//! k-nearest-neighbor search).
//!
//! All baselines require complete vectors — impute missing values first
//! (e.g. [`hdoutlier_data::clean::impute_mean`]); they return
//! [`BaselineError::MissingValues`] otherwise. This asymmetry with the
//! subspace detector (which consumes missing data natively) is itself one of
//! the paper's points (§1.2).

pub mod cfof;
pub mod distance;
pub mod dod;
pub mod intensional;
pub mod knn_outlier;
pub mod knorr_ng;
pub mod lof;
pub mod nn;

pub use cfof::cfof_scores;
pub use distance::Metric;
pub use dod::dod_scores;
pub use intensional::{intensional_outliers, IntensionalConfig};
pub use knn_outlier::ramaswamy_top_n;
pub use knorr_ng::{knorr_ng_outliers, suggest_lambda};
pub use lof::lof_scores;

use std::fmt;

/// Errors from the baseline detectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The dataset contains missing values; impute first.
    MissingValues,
    /// A parameter is out of range; the string carries context.
    BadParams(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::MissingValues => {
                write!(f, "dataset contains missing values; impute before running distance-based baselines")
            }
            BaselineError::BadParams(msg) => write!(f, "bad parameters: {msg}"),
        }
    }
}

impl std::error::Error for BaselineError {}

pub(crate) fn ensure_complete(dataset: &hdoutlier_data::Dataset) -> Result<(), BaselineError> {
    if dataset.missing_count() > 0 {
        Err(BaselineError::MissingValues)
    } else {
        Ok(())
    }
}
