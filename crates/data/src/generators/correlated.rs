//! Latent-factor correlated Gaussian data.
//!
//! Attributes are organized into *factor groups*: all dimensions in a group
//! load on one shared latent `N(0,1)` factor, so within a group every pair
//! of attributes has correlation `strength²` (positively) while attributes
//! in different groups are independent. This is the simplest mechanism that
//! produces the paper's Figure-1 world: some 2-d cross-sections are tightly
//! structured (same group), others are diffuse noise (different groups).

use crate::dataset::Dataset;
use hdoutlier_rng::Rng;

/// Configuration for [`correlated`].
#[derive(Debug, Clone)]
pub struct CorrelatedConfig {
    /// Number of records.
    pub n_rows: usize,
    /// Number of attributes.
    pub n_dims: usize,
    /// Attributes per factor group; consecutive dimensions
    /// `[0..group), [group..2·group), …` share a factor. The tail group may
    /// be smaller. A value of 1 yields fully independent data.
    pub group_size: usize,
    /// Loading of each attribute on its group factor, in `[0, 1]`.
    /// Within-group pairwise correlation is `strength²`.
    pub strength: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorrelatedConfig {
    fn default() -> Self {
        Self {
            n_rows: 1000,
            n_dims: 10,
            group_size: 2,
            strength: 0.95,
            seed: 0,
        }
    }
}

/// Generates correlated Gaussian data per the factor-group model.
///
/// Each value is `strength·z_g + sqrt(1 − strength²)·ε`, with `z_g` the
/// record's factor for the attribute's group and `ε` i.i.d. `N(0,1)`.
/// Marginals are exactly `N(0,1)` regardless of `strength`.
pub fn correlated(config: &CorrelatedConfig) -> Dataset {
    assert!(
        (0.0..=1.0).contains(&config.strength),
        "strength must be in [0, 1]"
    );
    assert!(config.group_size >= 1, "group_size must be >= 1");
    let mut rng = super::rng(config.seed);
    let n_groups = config.n_dims.div_ceil(config.group_size);
    let noise_scale = (1.0 - config.strength * config.strength).sqrt();
    let mut values = Vec::with_capacity(config.n_rows * config.n_dims);
    let mut factors = vec![0.0f64; n_groups];
    for _ in 0..config.n_rows {
        for f in factors.iter_mut() {
            *f = standard_normal(&mut rng);
        }
        for j in 0..config.n_dims {
            let g = j / config.group_size;
            let eps = standard_normal(&mut rng);
            values.push(config.strength * factors[g] + noise_scale * eps);
        }
    }
    Dataset::new(values, config.n_rows, config.n_dims).expect("shape consistent")
}

/// Standard normal sampling via Box–Muller, keeping the workspace free of a
/// `rand_distr` dependency. Shared by the sibling generators and the
/// scenario packs, so their datasets share one marginal.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // Box–Muller: u1 in (0,1], u2 in [0,1).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Pearson correlation between two equal-length slices (NaNs must be absent).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let c = CorrelatedConfig {
            n_rows: 200,
            n_dims: 6,
            ..CorrelatedConfig::default()
        };
        let a = correlated(&c);
        assert_eq!(a.n_rows(), 200);
        assert_eq!(a.n_dims(), 6);
        assert_eq!(a, correlated(&c));
    }

    #[test]
    fn within_group_correlation_matches_strength_squared() {
        let c = CorrelatedConfig {
            n_rows: 20_000,
            n_dims: 4,
            group_size: 2,
            strength: 0.9,
            seed: 3,
        };
        let ds = correlated(&c);
        let r01 = pearson(&ds.column(0), &ds.column(1));
        let r23 = pearson(&ds.column(2), &ds.column(3));
        let want = 0.81;
        assert!((r01 - want).abs() < 0.03, "r01 = {r01}");
        assert!((r23 - want).abs() < 0.03, "r23 = {r23}");
    }

    #[test]
    fn across_group_correlation_is_near_zero() {
        let c = CorrelatedConfig {
            n_rows: 20_000,
            n_dims: 4,
            group_size: 2,
            strength: 0.9,
            seed: 4,
        };
        let ds = correlated(&c);
        let r02 = pearson(&ds.column(0), &ds.column(2));
        let r13 = pearson(&ds.column(1), &ds.column(3));
        assert!(r02.abs() < 0.03, "r02 = {r02}");
        assert!(r13.abs() < 0.03, "r13 = {r13}");
    }

    #[test]
    fn marginals_are_standard_normal() {
        let c = CorrelatedConfig {
            n_rows: 20_000,
            n_dims: 2,
            group_size: 2,
            strength: 0.95,
            seed: 5,
        };
        let ds = correlated(&c);
        for j in 0..2 {
            let col = ds.column(j);
            let acc = hdoutlier_stats::summary::Accumulator::from_iter(col.iter().copied());
            assert!(acc.mean().unwrap().abs() < 0.03);
            assert!((acc.sd().unwrap() - 1.0).abs() < 0.03);
        }
    }

    #[test]
    fn strength_zero_is_independent() {
        let c = CorrelatedConfig {
            n_rows: 20_000,
            n_dims: 2,
            group_size: 2,
            strength: 0.0,
            seed: 6,
        };
        let ds = correlated(&c);
        let r = pearson(&ds.column(0), &ds.column(1));
        assert!(r.abs() < 0.03, "r = {r}");
    }

    #[test]
    fn group_size_one_is_independent() {
        let c = CorrelatedConfig {
            n_rows: 20_000,
            n_dims: 2,
            group_size: 1,
            strength: 0.95,
            seed: 7,
        };
        let ds = correlated(&c);
        let r = pearson(&ds.column(0), &ds.column(1));
        assert!(r.abs() < 0.03, "r = {r}");
    }

    #[test]
    #[should_panic(expected = "strength")]
    fn invalid_strength_panics() {
        correlated(&CorrelatedConfig {
            strength: 1.5,
            ..CorrelatedConfig::default()
        });
    }

    #[test]
    fn normals_have_plausible_moments() {
        use hdoutlier_rng::rngs::StdRng;
        use hdoutlier_rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }
}
