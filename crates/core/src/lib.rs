#![warn(missing_docs)]
#![deny(unsafe_code)]

//! The Aggarwal–Yu subspace outlier detector (SIGMOD 2001).
//!
//! Outliers are defined as records that appear in a **k-dimensional grid
//! cube whose occupancy is abnormally low** — quantified by the sparsity
//! coefficient of Eq. 1 — in some projection of the data. Two search
//! strategies locate the m most negative cubes:
//!
//! - [`brute`]: exhaustive enumeration of all `C(d, k) · φ^k` cubes
//!   (paper Fig. 2), feasible only at low dimensionality;
//! - [`evolutionary`]: the genetic algorithm of Figs. 3–6 over projection
//!   strings like `*3*9`, with the paper's **optimized crossover** (and the
//!   baseline two-point crossover it is evaluated against), Type I/II
//!   mutations, rank-roulette selection and De Jong convergence.
//!
//! The friendly entry point is [`detector::OutlierDetector`]:
//!
//! ```
//! use hdoutlier_core::detector::{OutlierDetector, SearchMethod};
//! use hdoutlier_data::generators::{planted_outliers, PlantedConfig};
//!
//! let planted = planted_outliers(&PlantedConfig {
//!     n_rows: 500, n_dims: 8, n_outliers: 3, ..PlantedConfig::default()
//! });
//! let report = OutlierDetector::builder()
//!     .phi(4)
//!     .k(2)
//!     .m(10)
//!     .search(SearchMethod::BruteForce)
//!     .build()
//!     .detect(&planted.dataset)
//!     .unwrap();
//! assert!(!report.projections.is_empty());
//! ```
//!
//! Module map: [`projection`] (the string genome), [`fitness`] (Eq. 1 over a
//! cube counter), [`brute`] / [`evolutionary`] (the two searches; the
//! latter holds the GA's generation loop), [`selection`], [`crossover`] and
//! [`mutation`] (the GA operators), [`convergence`] (De Jong's termination
//! criterion), [`report`]
//! (post-processing into interpretable outlier reports), [`params`]
//! (the φ/k advisor of §2.4), [`detector`] (the builder API) and [`model`]
//! (fitted models that score new records without the training data).

pub mod brute;
pub mod convergence;
pub mod crossover;
pub mod detector;
pub mod drill;
pub mod evolutionary;
pub mod fitness;
#[allow(unsafe_code)]
mod kernels;
pub mod model;
pub mod multi_k;
pub mod mutation;
pub mod params;
pub mod projection;
pub mod report;
pub mod selection;

pub use detector::{DetectorConfig, OutlierDetector, SearchMethod};
pub use drill::{record_profile, RecordView};
pub use fitness::SparsityFitness;
pub use model::FittedModel;
pub use multi_k::MultiKReport;
pub use projection::Projection;
pub use report::{OutlierReport, ScoredProjection};
pub use selection::SelectionScheme;
