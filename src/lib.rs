#![warn(missing_docs)]

//! Umbrella crate for the hdoutlier workspace.
//!
//! Re-exports the full public API of the Aggarwal–Yu subspace outlier
//! detector and its substrates, so downstream users can depend on a single
//! crate:
//!
//! ```
//! use hdoutlier::prelude::*;
//! ```
//!
//! See the workspace README for a tour and `examples/` for runnable
//! programs.

pub use hdoutlier_baselines as baselines;
pub use hdoutlier_core as core;
pub use hdoutlier_data as data;
pub use hdoutlier_index as index;
pub use hdoutlier_obs as obs;
pub use hdoutlier_scenario as scenario;
pub use hdoutlier_stats as stats;
pub use hdoutlier_stream as stream;

/// The most common imports, bundled.
pub mod prelude {
    pub use hdoutlier_core::crossover::CrossoverKind;
    pub use hdoutlier_core::detector::{OutlierDetector, SearchMethod};
    pub use hdoutlier_core::{FittedModel, MultiKReport, OutlierReport, Projection};
    pub use hdoutlier_data::{Dataset, DiscretizeStrategy, Discretized, GridSpec};
    pub use hdoutlier_stats::{
        empty_cube_coefficient, recommended_k, significance_of, sparsity_coefficient,
        SparsityParams,
    };
    pub use hdoutlier_stream::{DriftMonitor, DriftReport, OnlineScorer, Verdict};
}
