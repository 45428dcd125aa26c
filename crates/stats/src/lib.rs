#![warn(missing_docs)]

//! Numeric substrate for the Aggarwal–Yu subspace outlier detector.
//!
//! This crate contains every piece of statistics the paper leans on, built
//! from scratch so the workspace has no numeric dependencies:
//!
//! - [`erf`]: the complementary error function, the primitive underneath
//!   the normal distribution.
//! - [`normal`]: the normal distribution (cdf, quantile), used to convert
//!   sparsity coefficients into probabilistic levels of significance
//!   (paper §1.3).
//! - [`binomial`]: the exact Binomial(N, f^k) occupancy distribution that the
//!   normal approximation in Eq. 1 stands in for, plus log-gamma machinery.
//! - [`sparsity`]: the sparsity coefficient S(D) of Eq. 1, the empty-cube
//!   coefficient, and the k*/phi parameter-selection rule of Eq. 2 (§2.4).
//! - [`summary`]: streaming descriptive statistics (Welford) and sample
//!   quantiles, used by the data cleaners and the Knorr–Ng baseline.
//! - [`rank`]: ranking and best-m selection, used by rank-roulette
//!   selection and by the searches.

pub mod binomial;
pub mod erf;
pub mod gamma;
pub mod normal;
pub mod rank;
pub mod sparsity;
pub mod summary;

pub use binomial::Binomial;
pub use normal::Normal;
pub use sparsity::{
    empty_cube_coefficient, expected_count, recommended_k, significance_of, sparsity_coefficient,
    SparsityParams,
};
