//! Seeded synthetic data generators.
//!
//! Every generator is deterministic given its seed, so experiments and tests
//! are exactly reproducible. Three families:
//!
//! - [`uniform`](mod@uniform): i.i.d. uniform data — the null model under which Eq. 1's
//!   sparsity coefficient is exactly a standardized binomial. Used to
//!   calibrate and to show that *no* strong outliers exist in noise.
//! - [`correlated`](mod@correlated): latent-factor Gaussian data whose attributes are
//!   pairwise correlated — the "structured cross-sections" of the paper's
//!   Figure 1. Correlation is what makes contrarian combinations rare.
//! - [`planted`]: correlated bulk plus records whose values are *marginally
//!   unremarkable but jointly contrarian* in a small subspace, with ground
//!   truth — the workload on which subspace methods must beat full-
//!   dimensional distance methods.
//! - [`uci_like`]: simulacra shaped like the five UCI datasets of Table 1
//!   plus arrhythmia (Table 2 / §3.1) and Boston housing (§3.1). See
//!   DESIGN.md §4 for why these stand in for the 2001 UCI files.

pub mod correlated;
pub mod planted;
pub mod uci_like;
pub mod uniform;

pub use correlated::{correlated, standard_normal, CorrelatedConfig};
pub use planted::{planted_outliers, PlantedConfig, PlantedOutliers};
pub use uniform::uniform;

use hdoutlier_rng::rngs::StdRng;
use hdoutlier_rng::SeedableRng;

/// The RNG used by all generators: seeded, portable, deterministic.
pub(crate) fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
