#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Data substrate for the Aggarwal–Yu subspace outlier detector.
//!
//! Provides everything between raw records and the grid cells the detector
//! searches over:
//!
//! - [`dataset`]: the in-memory [`Dataset`] type — row-major `f64` values
//!   with NaN-encoded missing entries, column names and optional class
//!   labels. The paper stresses (§1.2) that projections can be mined from
//!   records with missing attributes; missingness is first-class here.
//! - [`csv`]: a dependency-free CSV reader/writer with missing-value markers
//!   and label-column extraction, mirroring the paper's "cleaned UCI data"
//!   pipeline (§3).
//! - [`clean`]: categorical encoding, constant-column dropping and
//!   standardization.
//! - [`discretize`]: the φ-range grid of §1.3 — equi-depth by default
//!   (each range holds a fraction `f = 1/φ` of the records), equi-width kept
//!   for the ablation that shows why the paper chose equi-depth.
//! - [`grid_spec`]: fitted grid boundaries detached from their data, for
//!   assigning cells to *new* records (the train/apply split).
//! - [`generators`]: seeded synthetic workloads, including the UCI-shaped
//!   simulacra used by the reproduction (see DESIGN.md §4 for the
//!   substitution rationale) and planted-subspace-outlier benchmarks with
//!   ground truth.

pub mod clean;
pub mod csv;
pub mod dataset;
pub mod discretize;
pub mod generators;
pub mod grid_spec;

pub use dataset::{DataError, Dataset, DatasetBuilder};
pub use discretize::{DiscretizeStrategy, Discretized, GridRange};
pub use grid_spec::GridSpec;
